//! HexGen (ICML '24): asymmetric static TP/PP over *all* GPUs.
//!
//! HexGen balances iteration time across heterogeneous devices by
//! searching asymmetric parameter partitions once, offline, and serving
//! prefill and decode on the same workers. The paper's deployment uses a
//! four-stage pipeline (homogeneous GPUs per stage, TP within stages).
//!
//! This implementation reuses the same enumeration and cost machinery as
//! Hetis's Parallelizer but with HexGen's semantics: **no exclusion** —
//! every GPU carries dense modules — and no dynamic attention dispatch.
//! The §2.3 critique (P100 stages dragging decode, fixed memory split
//! wasting A100 capacity) then emerges from the cost realities rather
//! than from a strawman.

use hetis_cluster::{Cluster, DeviceId};
use hetis_engine::policy::StaticPolicy;
use hetis_engine::{
    EngineConfig, HeadPlacement, InstanceRole, InstanceTopo, Policy, PolicyCtx, StageTopo,
    Topology, VictimAction,
};
use hetis_model::ModelSpec;
use hetis_parallel::{
    balance_layers, dp_groupings, kv_pool_bytes, tp_pp_shapes, CostModel, DecodeBatch,
    InstanceConfig, ParallelConfig, PrefillBatch, StageConfig,
};
use hetis_workload::{Request, RequestId};

/// Workload profile HexGen's search conditions on (batch + sequence
/// length, as in Eq. 1's `R`).
#[derive(Debug, Clone, Copy)]
pub struct HexgenProfile {
    /// Steady decode batch.
    pub decode: DecodeBatch,
    /// Typical prefill batch.
    pub prefill: PrefillBatch,
    /// Decode steps weighted against one prefill.
    pub decode_steps: f64,
}

impl Default for HexgenProfile {
    fn default() -> Self {
        HexgenProfile {
            decode: DecodeBatch {
                seqs: 64,
                sum_context: 64 * 512,
            },
            prefill: PrefillBatch::uniform(4, 512),
            decode_steps: 256.0,
        }
    }
}

/// The HexGen policy.
pub struct HexgenPolicy {
    profile: HexgenProfile,
    rr: usize,
}

impl HexgenPolicy {
    /// HexGen with the default search profile.
    pub fn new() -> Self {
        HexgenPolicy {
            profile: HexgenProfile::default(),
            rr: 0,
        }
    }

    /// The static search: DP groupings × per-type TP×PP shapes × balanced
    /// asymmetric layer splits, scored by the full cost model. All GPUs
    /// participate.
    pub fn search(cluster: &Cluster, model: &ModelSpec, profile: &HexgenProfile) -> Topology {
        let cost_model = CostModel::new(cluster, model);
        let mut best: Option<(f64, Vec<InstanceConfig>)> = None;

        for dp in hetis_parallel::enumerate::candidate_dp_degrees(cluster) {
            let Some(instances) = dp_groupings(cluster, dp) else {
                continue;
            };
            let share = DecodeBatch {
                seqs: (profile.decode.seqs / dp as u64).max(1),
                sum_context: profile.decode.sum_context / dp as u64,
            };
            let pf_share = PrefillBatch {
                seqs: (profile.prefill.seqs / dp as u64).max(1),
                tokens: profile.prefill.tokens / dp as u64,
                sq_sum: profile.prefill.sq_sum / dp as f64,
            };

            // Per-type shapes within instance 0 (instances are symmetric).
            let groups = &instances[0];
            let per_type: Vec<Vec<Vec<Vec<DeviceId>>>> = groups
                .iter()
                .map(|g| tp_pp_shapes(cluster, &g.devices))
                .collect();
            if per_type.iter().any(|s| s.is_empty()) {
                continue;
            }
            let mut idx = vec![0usize; per_type.len()];
            'combos: loop {
                let chain: Vec<Vec<DeviceId>> = idx
                    .iter()
                    .enumerate()
                    .flat_map(|(t, &i)| per_type[t][i].iter().cloned())
                    .collect();
                let n_stages = chain.len() as u32;
                let tp_ok = chain.iter().all(|g| {
                    let tp = g.len() as u32;
                    model.num_heads.is_multiple_of(tp) && tp <= model.num_kv_heads
                });
                if tp_ok && n_stages >= 1 && model.num_layers >= n_stages {
                    let speeds: Vec<f64> = chain
                        .iter()
                        .map(|g| g.iter().map(|&d| cluster.spec(d).dense_flops).sum())
                        .collect();
                    let layers = balance_layers(model.num_layers, &speeds);
                    let inst0 = InstanceConfig {
                        stages: chain
                            .iter()
                            .zip(&layers)
                            .map(|(g, &l)| StageConfig {
                                devices: g.clone(),
                                layers: l,
                            })
                            .collect(),
                    };
                    // Replicate the shape across all DP instances.
                    if let Some(all) = replicate_shape(cluster, &instances, &inst0) {
                        let pcfg = ParallelConfig {
                            instances: all.clone(),
                        };
                        if kv_pool_bytes(cluster, &pcfg, model).is_ok() {
                            let cost = cost_model.combined_cost(
                                &all[0],
                                &pf_share,
                                &share,
                                profile.decode_steps,
                            );
                            if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
                                best = Some((cost, all));
                            }
                        }
                    }
                }
                // Advance cartesian index.
                let mut t = 0;
                loop {
                    if t == idx.len() {
                        break 'combos;
                    }
                    idx[t] += 1;
                    if idx[t] < per_type[t].len() {
                        break;
                    }
                    idx[t] = 0;
                    t += 1;
                }
            }
        }

        let (_, instances) = best.expect("HexGen found no feasible static partition");
        Topology {
            instances: instances
                .into_iter()
                .map(|i| InstanceTopo {
                    stages: i.stages.into_iter().map(StageTopo::plain).collect(),
                    role: InstanceRole::Both,
                })
                .collect(),
        }
    }
}

/// Maps instance-0's searched shape onto every DP instance's own devices.
/// Shared with the Helix search, which enumerates the same shape space.
pub(crate) fn replicate_shape(
    cluster: &Cluster,
    instances: &[Vec<hetis_parallel::TypeGroup>],
    shape: &InstanceConfig,
) -> Option<Vec<InstanceConfig>> {
    let shape_types: Vec<(hetis_cluster::GpuType, usize, u32)> = shape
        .stages
        .iter()
        .map(|s| (cluster.spec(s.devices[0]).gpu, s.devices.len(), s.layers))
        .collect();
    let mut out = Vec::with_capacity(instances.len());
    for groups in instances {
        let mut cursors: Vec<(hetis_cluster::GpuType, std::vec::IntoIter<DeviceId>)> = groups
            .iter()
            .map(|g| (g.gpu, g.devices.clone().into_iter()))
            .collect();
        let mut stages = Vec::with_capacity(shape_types.len());
        for &(gpu, tp, layers) in &shape_types {
            let cursor = cursors.iter_mut().find(|(g, _)| *g == gpu)?;
            let devices: Vec<DeviceId> = cursor.1.by_ref().take(tp).collect();
            if devices.len() != tp {
                return None;
            }
            stages.push(StageConfig { devices, layers });
        }
        out.push(InstanceConfig { stages });
    }
    Some(out)
}

impl Default for HexgenPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for HexgenPolicy {
    fn name(&self) -> String {
        "hexgen".into()
    }

    fn topology(&mut self, cluster: &Cluster, model: &ModelSpec, _cfg: &EngineConfig) -> Topology {
        Self::search(cluster, model, &self.profile)
    }

    fn route(&mut self, _req: &Request, ctx: &PolicyCtx<'_>) -> usize {
        let entries = ctx.topology.entry_instances();
        let pick = entries[self.rr % entries.len()];
        self.rr += 1;
        pick
    }

    fn place_batch(
        &mut self,
        instance: usize,
        reqs: &[(RequestId, u32)],
        ctx: &PolicyCtx<'_>,
    ) -> Vec<Option<HeadPlacement>> {
        let stages = &ctx.topology.instances[instance].stages;
        let p = HeadPlacement::stage_local(stages, ctx.model.num_heads);
        reqs.iter().map(|_| Some(p.clone())).collect()
    }

    fn select_victim(
        &mut self,
        instance: usize,
        _device: DeviceId,
        _blocked: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> VictimAction {
        match StaticPolicy::lifo_victim_anywhere(instance, ctx) {
            Some(v) => VictimAction::Evict(v),
            None => VictimAction::Stall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_cluster::cluster::paper_cluster;
    use hetis_cluster::GpuType;
    use hetis_engine::run;
    use hetis_model::{llama_13b, llama_70b};
    use hetis_workload::{DatasetKind, Poisson, TraceBuilder};

    #[test]
    fn search_uses_every_gpu_for_70b() {
        let c = paper_cluster();
        let m = llama_70b();
        let t = HexgenPolicy::search(&c, &m, &HexgenProfile::default());
        let used: usize = t
            .instances
            .iter()
            .map(|i| i.stages.iter().map(|s| s.primary.tp()).sum::<usize>())
            .sum();
        assert_eq!(used, 12, "HexGen must not leave GPUs idle");
        // No attention workers — static parallelism only.
        for i in &t.instances {
            for s in &i.stages {
                assert!(s.attention_workers.is_empty());
            }
        }
    }

    #[test]
    fn layer_split_is_asymmetric() {
        let c = paper_cluster();
        let m = llama_70b();
        let t = HexgenPolicy::search(&c, &m, &HexgenProfile::default());
        // Whatever the shape, P100 stages must get far fewer layers than
        // A100 stages (asymmetric partitioning).
        for inst in &t.instances {
            let a100_layers: u32 = inst
                .stages
                .iter()
                .filter(|s| c.spec(s.primary.devices[0]).gpu == GpuType::A100)
                .map(|s| s.primary.layers)
                .sum();
            let p100_layers: u32 = inst
                .stages
                .iter()
                .filter(|s| c.spec(s.primary.devices[0]).gpu == GpuType::P100)
                .map(|s| s.primary.layers)
                .sum();
            if a100_layers > 0 && p100_layers > 0 {
                assert!(
                    a100_layers > 3 * p100_layers,
                    "A100 {a100_layers} vs P100 {p100_layers}"
                );
            }
        }
    }

    #[test]
    fn serves_a_trace() {
        let c = paper_cluster();
        let m = llama_13b();
        let trace = TraceBuilder::new(DatasetKind::ShareGpt, 31).build(&Poisson::new(2.0), 20.0);
        let n = trace.len();
        let report = run(HexgenPolicy::new(), &c, &m, EngineConfig::default(), &trace);
        assert_eq!(report.policy, "hexgen");
        assert_eq!(
            report.completed.len(),
            n,
            "unfinished {}",
            report.unfinished
        );
        // No dynamic parallelism → no migrations.
        assert_eq!(report.migrations, 0);
    }
}
