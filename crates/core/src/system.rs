//! [`HetisPolicy`]: the complete Hetis system as an engine policy.

use crate::config::{HetisConfig, WorkloadProfile, PROFILE_GRID, PROFILE_NOISE, PROFILE_SEED};
use crate::dispatcher::Dispatcher;
use crate::parallelizer::search_topology;
use crate::profiler::{Coefficient, Profiler};
use crate::redispatch::{balance_computation, select_victim, VictimMode};
use hetis_cluster::{Cluster, DeviceId};
use hetis_engine::{
    EngineConfig, HeadPlacement, Policy, PolicyCtx, RedispatchOp, Topology, VictimAction,
};
use hetis_model::ModelSpec;
use hetis_workload::{Request, RequestId};

/// The Hetis serving system (§3–§6) as a pluggable engine policy.
pub struct HetisPolicy {
    cfg: HetisConfig,
    profile: WorkloadProfile,
    dispatcher: Option<Dispatcher>,
    fixed_topology: Option<Topology>,
    perturbations: Vec<(Coefficient, f64)>,
    victim_mode: VictimMode,
    rr: usize,
}

impl HetisPolicy {
    /// Hetis with the paper's defaults for a workload profile.
    pub fn new(cfg: HetisConfig, profile: WorkloadProfile) -> Self {
        HetisPolicy {
            cfg,
            profile,
            dispatcher: None,
            fixed_topology: None,
            perturbations: Vec::new(),
            victim_mode: VictimMode::Hetis,
            rr: 0,
        }
    }

    /// Uses a hand-specified topology instead of running the Parallelizer
    /// (the Fig. 14 ablation pins A100 primary + two 3090 workers).
    pub fn with_fixed_topology(mut self, topo: Topology) -> Self {
        self.fixed_topology = Some(topo);
        self
    }

    /// Applies a profiling-error perturbation after fitting (Fig. 16b).
    pub fn with_perturbation(mut self, which: Coefficient, frac: f64) -> Self {
        self.perturbations.push((which, frac));
        self
    }

    /// Selects the victim policy (Fig. 15a compares Hetis vs plain LIFO).
    pub fn with_victim_mode(mut self, mode: VictimMode) -> Self {
        self.victim_mode = mode;
        self
    }

    /// Overrides Θ (Fig. 16a sweep).
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.cfg.theta = theta;
        self
    }

    fn dispatcher_ref(&self) -> &Dispatcher {
        self.dispatcher
            .as_ref()
            .expect("topology() must run before scheduling")
    }
}

impl Policy for HetisPolicy {
    fn name(&self) -> String {
        "hetis".into()
    }

    fn topology(&mut self, cluster: &Cluster, model: &ModelSpec, _cfg: &EngineConfig) -> Topology {
        let mut profiler = Profiler::profile(cluster, PROFILE_GRID, PROFILE_NOISE, PROFILE_SEED);
        for &(which, frac) in &self.perturbations {
            profiler.perturb(which, frac);
        }
        self.dispatcher = Some(Dispatcher::new(profiler));
        if let Some(t) = &self.fixed_topology {
            return t.clone();
        }
        search_topology(cluster, model, &self.profile, &self.cfg).topology
    }

    fn route(&mut self, _req: &Request, ctx: &PolicyCtx<'_>) -> usize {
        // Least-loaded entry instance by live requests (the engine's
        // counts); round-robin tie-break among the least loaded.
        let loads = ctx.live_requests;
        let entries = ctx.topology.entry_instances();
        let min_load = entries.clone().map(|i| loads[i]).min().unwrap_or(0);
        let mut candidates = entries.filter(|&i| loads[i] == min_load);
        let k = self.rr % candidates.clone().count();
        let pick = candidates.nth(k).expect("a least-loaded entry instance");
        self.rr += 1;
        pick
    }

    fn place_batch(
        &mut self,
        instance: usize,
        reqs: &[(RequestId, u32)],
        ctx: &PolicyCtx<'_>,
    ) -> Vec<Option<HeadPlacement>> {
        let dispatcher = self.dispatcher_ref();
        let stages = &ctx.topology.instances[instance].stages;
        let lens: Vec<u32> = reqs.iter().map(|&(_, l)| l).collect();

        // Try the longest prefix pooled capacity allows on every stage
        // (no longer one can be placed: `Dispatcher::pooled_prefix`);
        // shrink to the largest feasible prefix. Under chunked prefill the
        // LP prices each prompt's per-iteration attention load at chunk
        // size (capacity still reserves the full prompt) — see
        // `Dispatcher::dispatch`.
        let mut k = stages
            .iter()
            .map(|stage| Dispatcher::pooled_prefix(ctx.model, ctx.kv, stage, &lens))
            .min()
            .unwrap_or(lens.len());
        while k > 0 {
            let mut per_stage_heads: Vec<Vec<Vec<u32>>> = Vec::with_capacity(stages.len());
            let mut feasible = true;
            for (s, stage) in stages.iter().enumerate() {
                match dispatcher.dispatch(
                    ctx.cluster,
                    ctx.model,
                    ctx.kv,
                    stage,
                    s as u16,
                    &lens[..k],
                    ctx.prefill_chunk_tokens,
                ) {
                    Some(out) => per_stage_heads.push(out.heads),
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible {
                let mut result: Vec<Option<HeadPlacement>> = Vec::with_capacity(lens.len());
                #[allow(clippy::needless_range_loop)] // j indexes every stage's batch
                for j in 0..k {
                    let per_stage = stages
                        .iter()
                        .enumerate()
                        .map(|(s, stage)| {
                            stage
                                .attention_devices()
                                .zip(&per_stage_heads[s][j])
                                .filter(|&(_, &h)| h > 0)
                                .map(|(d, &h)| (d, h))
                                .collect::<Vec<(DeviceId, u32)>>()
                        })
                        .collect();
                    result.push(Some(HeadPlacement { per_stage }));
                }
                result.resize_with(lens.len(), || None);
                return result;
            }
            k -= 1;
        }
        vec![None; lens.len()]
    }

    fn before_decode(&mut self, instance: usize, ctx: &PolicyCtx<'_>) -> Vec<RedispatchOp> {
        // The paper re-dispatches one request per round.
        balance_computation(self.dispatcher_ref(), ctx, instance, self.cfg.theta)
            .into_iter()
            .collect()
    }

    fn select_victim(
        &mut self,
        instance: usize,
        device: DeviceId,
        _blocked: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> VictimAction {
        select_victim(
            self.dispatcher_ref(),
            ctx,
            instance,
            device,
            self.victim_mode,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_cluster::cluster::paper_cluster;
    use hetis_engine::{run, EngineConfig};
    use hetis_model::llama_13b;
    use hetis_workload::{DatasetKind, Poisson, TraceBuilder};

    #[test]
    fn hetis_serves_a_trace_end_to_end() {
        let cluster = paper_cluster();
        let model = llama_13b();
        let profile = WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 64);
        let policy = HetisPolicy::new(HetisConfig::default(), profile);
        let trace = TraceBuilder::new(DatasetKind::ShareGpt, 11).build(&Poisson::new(3.0), 20.0);
        let n = trace.len();
        let report = run(policy, &cluster, &model, EngineConfig::default(), &trace);
        assert_eq!(report.policy, "hetis");
        assert_eq!(
            report.completed.len(),
            n,
            "unfinished {}",
            report.unfinished
        );
        assert!(report.mean_normalized_latency() < 0.5);
    }

    #[test]
    fn fixed_topology_is_respected() {
        use hetis_cluster::GpuType;
        use hetis_engine::{InstanceRole, InstanceTopo, StageTopo};
        use hetis_parallel::StageConfig;
        let cluster = paper_cluster();
        let model = llama_13b();
        // Fig. 14 layout: one A100 primary, two 3090 attention workers.
        let a100 = cluster.devices_of_type(GpuType::A100)[0];
        let r3090 = cluster.devices_of_type(GpuType::Rtx3090);
        let mut stage = StageTopo::plain(StageConfig {
            devices: vec![a100],
            layers: 40,
        });
        stage.attention_workers = vec![r3090[0], r3090[2]];
        let topo = Topology {
            instances: vec![InstanceTopo {
                stages: vec![stage],
                role: InstanceRole::Both,
            }],
        };
        let profile = WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 32);
        let policy =
            HetisPolicy::new(HetisConfig::default(), profile).with_fixed_topology(topo.clone());
        let trace = TraceBuilder::new(DatasetKind::ShareGpt, 13).build(&Poisson::new(2.0), 15.0);
        let report = run(policy, &cluster, &model, EngineConfig::default(), &trace);
        assert!(report.completion_rate() > 0.99);
    }
}
