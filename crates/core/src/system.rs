//! [`HetisPolicy`]: the complete Hetis system as an engine policy.

use crate::config::{HetisConfig, WorkloadProfile};
use crate::dispatcher::Dispatcher;
use crate::parallelizer::{search_topology, SearchOutcome};
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
    redispatch_enabled: bool,
    victim_mode: VictimMode,
    search_outcome: Option<SearchOutcome>,
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
            redispatch_enabled: true,
            victim_mode: VictimMode::Hetis,
            search_outcome: None,
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

    /// Disables §5.3 re-dispatching (Fig. 15a / Fig. 16a ablations).
    pub fn with_redispatch(mut self, enabled: bool) -> Self {
        self.redispatch_enabled = enabled;
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

    /// The Parallelizer's search statistics (after `topology()` ran).
    pub fn search_outcome(&self) -> Option<&SearchOutcome> {
        self.search_outcome.as_ref()
    }

    /// The fitted models (after `topology()` ran).
    pub fn dispatcher(&self) -> Option<&Dispatcher> {
        self.dispatcher.as_ref()
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
        let mut profiler = Profiler::profile(
            cluster,
            self.cfg.profile_grid,
            self.cfg.profile_noise,
            self.cfg.profile_seed,
        );
        for &(which, frac) in &self.perturbations {
            profiler.perturb(which, frac);
        }
        self.dispatcher = Some(Dispatcher::new(profiler, self.cfg.clone()));
        if let Some(t) = &self.fixed_topology {
            return t.clone();
        }
        let outcome = search_topology(cluster, model, &self.profile, &self.cfg);
        let topo = outcome.topology.clone();
        self.search_outcome = Some(outcome);
        topo
    }

    fn route(&mut self, _req: &Request, ctx: &PolicyCtx<'_>) -> usize {
        // Least-loaded entry instance; round-robin tie-break. One pass
        // over the live requests (the old per-entry closure re-scanned
        // the whole map twice per entry instance).
        let mut loads = vec![0usize; ctx.topology.instances.len()];
        for r in ctx.requests.values() {
            if r.phase != hetis_engine::Phase::Done {
                loads[r.instance] += 1;
            }
        }
        let entries = ctx.topology.entry_instances();
        let min_load = entries.iter().map(|&i| loads[i]).min().unwrap_or(0);
        let candidates: Vec<usize> = entries
            .iter()
            .copied()
            .filter(|&i| loads[i] == min_load)
            .collect();
        let pick = candidates[self.rr % candidates.len()];
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
        // `Dispatcher::dispatch_chunked`.
        let mut k = stages
            .iter()
            .map(|stage| Dispatcher::pooled_prefix(ctx.model, ctx.kv, stage, &lens))
            .min()
            .unwrap_or(lens.len());
        while k > 0 {
            let mut per_stage_heads: Vec<Vec<Vec<u32>>> = Vec::with_capacity(stages.len());
            let mut feasible = true;
            for (s, stage) in stages.iter().enumerate() {
                match dispatcher.dispatch_chunked(
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
                                .iter()
                                .zip(&per_stage_heads[s][j])
                                .filter(|&(_, &h)| h > 0)
                                .map(|(&d, &h)| (d, h))
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
        if !self.redispatch_enabled {
            return Vec::new();
        }
        let mut ops = Vec::new();
        for _ in 0..self.cfg.max_redispatch_per_round {
            match balance_computation(self.dispatcher_ref(), ctx, instance, self.cfg.theta) {
                Some(op) => ops.push(op),
                None => break,
            }
        }
        ops
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
