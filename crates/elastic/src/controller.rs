//! The [`ElasticController`]: live re-planning on cluster change.
//!
//! On every churn event the controller re-runs the Parallelizer's
//! hierarchical search on the *surviving* device set (via a sub-cluster
//! rebuild with an id mapping), diffs the resulting topology against the
//! running one, and emits a [`ReplanPlan`]:
//!
//! * a **constrained topology** that is actually applied — surviving
//!   primary stages keep their devices and layer splits (weights cannot
//!   teleport mid-run), while the attention-worker pool is rebuilt from
//!   every surviving non-primary device, including primaries orphaned by
//!   a Down instance;
//! * **drain migrations** — for a device with a preemption notice, the
//!   Hauler-style head moves that carry resident KV to healthy devices
//!   before revocation;
//! * a deterministic **re-plan latency** derived from the number of
//!   candidates the search evaluated (the engine stalls pipelines for
//!   this long, charging the cost the paper reports in §7.4).

use hetis_cluster::{Cluster, ClusterBuilder, DeviceId};
use hetis_core::{search_topology, HetisConfig, WorkloadProfile};
use hetis_engine::{
    ClusterEvent, ClusterEventKind, DeviceHealth, HeadPlacement, HealthView, InstanceRole, Phase,
    PolicyCtx, RedispatchOp, Topology,
};
use hetis_telemetry::TelemetrySnapshot;
use hetis_workload::RequestId;

/// Controller tunables.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Fixed re-plan cost in simulated seconds (state sync, dispatch
    /// barrier).
    pub replan_base_s: f64,
    /// Marginal simulated seconds per search candidate evaluated (the
    /// paper reports 4–15 s searches; our analytic search evaluates the
    /// same candidate set far faster, so the cost is re-imposed here).
    pub replan_per_candidate_s: f64,
    /// Run the full hierarchical re-search for the diff/latency model.
    /// When false only the constrained worker rebuild runs (cheapest).
    pub rerun_search: bool,
    /// Plan drain migrations on preemption notices.
    pub drain_on_notice: bool,
    /// Telemetry snapshots retained by [`ElasticController::observe`]:
    /// a fixed-capacity ring mirroring the telemetry `EventRing` —
    /// observing past capacity overwrites the oldest snapshot and counts
    /// a drop instead of growing without bound.
    pub observation_capacity: usize,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            replan_base_s: 0.25,
            replan_per_candidate_s: 0.002,
            rerun_search: true,
            drain_on_notice: true,
            observation_capacity: 256,
        }
    }
}

/// Fixed-capacity ring of telemetry snapshots with drop accounting —
/// the same overwrite-oldest contract as the telemetry `EventRing`, so
/// a long run cannot grow the controller's memory without bound.
#[derive(Debug, Clone)]
struct ObservationRing {
    buf: Vec<TelemetrySnapshot>,
    /// Index of the oldest element once the ring is full (0 before).
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl ObservationRing {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "observation ring needs capacity >= 1");
        ObservationRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, snap: TelemetrySnapshot) {
        if self.buf.len() < self.capacity {
            self.buf.push(snap);
        } else {
            self.buf[self.head] = snap;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Buffered snapshots, oldest first.
    fn iter(&self) -> impl Iterator<Item = &TelemetrySnapshot> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

/// Topology delta produced by a re-plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologyDiff {
    /// Attention workers added, per (instance, device).
    pub workers_added: Vec<(usize, DeviceId)>,
    /// Attention workers removed, per (instance, device).
    pub workers_removed: Vec<(usize, DeviceId)>,
    /// Instances currently Down.
    pub instances_down: Vec<usize>,
}

/// The controller's decision for one cluster event.
#[derive(Debug, Clone)]
pub struct ReplanPlan {
    /// Constrained topology to install (primaries preserved).
    pub topology: Topology,
    /// What changed relative to the running topology.
    pub diff: TopologyDiff,
    /// Unconstrained re-search result on the surviving devices, mapped
    /// back to cluster ids (diagnostic: what a from-scratch deployment
    /// would look like).
    pub ideal_topology: Option<Topology>,
    /// Candidates the re-search evaluated (0 when skipped).
    pub searched_candidates: usize,
    /// Simulated seconds the re-plan costs.
    pub replan_latency: f64,
    /// KV drain moves for draining devices.
    pub migrations: Vec<RedispatchOp>,
}

/// Live re-planner around the Hetis Parallelizer — the elastic
/// subsystem's main entry point.
///
/// On every cluster-change event it re-runs the hierarchical topology
/// search on the *surviving* device set (rebuilt as a sub-cluster with
/// id remapping), diffs the ideal result against the running topology,
/// and emits a [`ReplanPlan`]: the constrained topology actually
/// installable live (surviving primaries keep their devices and layers
/// — weights cannot teleport — while the attention-worker pool is
/// rebuilt from all surviving non-primary devices), Hauler-planned KV
/// drains off devices under preemption notice, and a deterministic
/// re-plan latency the engine charges to every pipeline. Wrap it around
/// any policy with [`crate::ElasticPolicy`]; construct the no-replan
/// ablation with [`crate::ElasticPolicy::frozen`].
#[derive(Debug, Clone)]
pub struct ElasticController {
    hetis: HetisConfig,
    profile: WorkloadProfile,
    cfg: ElasticConfig,
    /// Telemetry snapshots fed in via [`Self::observe`]: a bounded ring
    /// (capacity [`ElasticConfig::observation_capacity`]), newest last.
    observations: ObservationRing,
}

impl ElasticController {
    /// A controller planning for `profile` with the paper's defaults.
    pub fn new(hetis: HetisConfig, profile: WorkloadProfile) -> Self {
        let cfg = ElasticConfig::default();
        ElasticController {
            hetis,
            profile,
            observations: ObservationRing::new(cfg.observation_capacity),
            cfg,
        }
    }

    /// Overrides the elastic tunables (builder style: re-sizes the
    /// observation ring, discarding anything already observed).
    pub fn with_config(mut self, cfg: ElasticConfig) -> Self {
        self.observations = ObservationRing::new(cfg.observation_capacity);
        self.cfg = cfg;
        self
    }

    /// Feeds a live telemetry snapshot (queue depths, streaming
    /// per-class percentiles, KV occupancy) into the controller's
    /// bounded ring — past capacity the oldest snapshot is overwritten
    /// and counted in [`Self::observations_dropped`]. The retained
    /// stream feeds diagnostics ([`Self::max_observed_queue_depth`]);
    /// the *closed-loop* consumer is [`crate::ClosedLoopController`],
    /// which watches each snapshot as it arrives.
    pub fn observe(&mut self, snapshot: &TelemetrySnapshot) {
        self.observations.push(snapshot.clone());
    }

    /// Snapshots currently retained (oldest first, at most
    /// [`ElasticConfig::observation_capacity`]).
    pub fn observations(&self) -> Vec<&TelemetrySnapshot> {
        self.observations.iter().collect()
    }

    /// Snapshots overwritten because the observation ring was full.
    pub fn observations_dropped(&self) -> u64 {
        self.observations.dropped
    }

    /// Largest admission-queue depth seen across the retained snapshots
    /// — the simplest scale-up pressure signal.
    pub fn max_observed_queue_depth(&self) -> u32 {
        self.observations
            .iter()
            .map(|s| s.max_queue_depth())
            .max()
            .unwrap_or(0)
    }

    /// Computes the plan for one event. `ctx.topology` is the engine's
    /// current (already health-pruned) topology.
    pub fn replan(
        &self,
        event: &ClusterEvent,
        health: &HealthView,
        ctx: &PolicyCtx<'_>,
    ) -> ReplanPlan {
        let accepting = health.accepting();

        // Unconstrained re-search on the survivors (diff + latency model).
        let (ideal_topology, searched_candidates) = if self.cfg.rerun_search {
            match ideal_search(ctx.cluster, &accepting, ctx, &self.profile, &self.hetis) {
                Some((topo, evaluated)) => (Some(topo), evaluated),
                None => (None, 0),
            }
        } else {
            (None, 0)
        };

        // Constrained rebuild: keep surviving primaries, re-pool workers.
        let topology = rebuild_workers(ctx.topology, health);
        let diff = diff_topologies(ctx.topology, &topology);

        let migrations = if self.cfg.drain_on_notice
            && matches!(event.kind, ClusterEventKind::PreemptNotice { .. })
        {
            plan_drain(event.device, &topology, health, ctx)
        } else {
            Vec::new()
        };

        let replan_latency =
            self.cfg.replan_base_s + self.cfg.replan_per_candidate_s * searched_candidates as f64;

        ReplanPlan {
            topology,
            diff,
            ideal_topology,
            searched_candidates,
            replan_latency,
            migrations,
        }
    }

    /// Drain moves for every currently draining device, restricted to
    /// `instance` when given. Called from the scheduling loop: requests
    /// are only movable between iterations, so the drain happens
    /// incrementally across the whole notice window rather than in one
    /// shot at the event.
    pub fn drain_plans(
        &self,
        health: &HealthView,
        ctx: &PolicyCtx<'_>,
        instance: Option<usize>,
    ) -> Vec<RedispatchOp> {
        if !self.cfg.drain_on_notice {
            return Vec::new();
        }
        let mut out = Vec::new();
        for dev in health.draining() {
            // The snapshot only refreshes on policy-visible events, so a
            // device past its revocation deadline may still read as
            // draining — nothing can be saved there any more.
            if let DeviceHealth::Draining { deadline, .. } = health.of(dev) {
                if deadline <= ctx.now {
                    continue;
                }
            }
            out.extend(
                plan_drain(dev, ctx.topology, health, ctx)
                    .into_iter()
                    .filter(|op| {
                        instance.is_none_or(|i| {
                            ctx.requests
                                .get(&op.req)
                                .map(|r| r.instance == i)
                                .unwrap_or(false)
                        })
                    }),
            );
        }
        out
    }

    /// Plans a load-driven capacity change for the closed loop (no churn
    /// event involved). Scale-out rebuilds the attention-worker pool
    /// from every accepting non-primary device — reclaiming idle
    /// silicon exactly like a churn replan; scale-in retires the
    /// highest-id worker of the instance with the largest pool. Returns
    /// `None` when the change would be a no-op (already at full pool /
    /// no worker left to retire), so the caller can skip the replan
    /// stall entirely. Latency is `replan_base_s` only: no search is
    /// re-run for a pool resize.
    pub fn scale_plan(
        &self,
        scale_out: bool,
        health: &HealthView,
        ctx: &PolicyCtx<'_>,
    ) -> Option<ReplanPlan> {
        let topology = if scale_out {
            rebuild_workers(ctx.topology, health)
        } else {
            shrink_workers(ctx.topology)?
        };
        let diff = diff_topologies(ctx.topology, &topology);
        if diff.workers_added.is_empty() && diff.workers_removed.is_empty() {
            return None;
        }
        Some(ReplanPlan {
            topology,
            diff,
            ideal_topology: None,
            searched_candidates: 0,
            replan_latency: self.cfg.replan_base_s,
            migrations: Vec::new(),
        })
    }
}

/// Retires one attention worker: the highest-id device of the serving
/// instance with the most first-stage workers (lowest instance index on
/// ties). `None` when no serving instance has any worker left —
/// scale-in never touches primaries.
fn shrink_workers(current: &Topology) -> Option<Topology> {
    let mut topo = current.clone();
    let (k, n) = topo
        .instances
        .iter()
        .enumerate()
        .filter(|(_, i)| i.role != InstanceRole::Down)
        .map(|(k, i)| {
            (
                k,
                i.stages
                    .first()
                    .map(|s| s.attention_workers.len())
                    .unwrap_or(0),
            )
        })
        .max_by_key(|&(k, n)| (n, std::cmp::Reverse(k)))?;
    if n == 0 {
        return None;
    }
    let victim = *topo.instances[k].stages[0].attention_workers.iter().max()?;
    for s in topo.instances[k].stages.iter_mut() {
        s.attention_workers.retain(|&d| d != victim);
    }
    Some(topo)
}

/// Rebuilds the shared attention-worker pool of every serving instance
/// from all surviving devices that are not a serving instance's primary.
/// Orphaned primaries of Down instances re-enter the pool as workers —
/// idle silicon is the first thing elasticity should reclaim.
fn rebuild_workers(current: &Topology, health: &HealthView) -> Topology {
    let mut topo = current.clone();
    let mut primary_of_serving: Vec<DeviceId> = Vec::new();
    for inst in &topo.instances {
        if inst.role == InstanceRole::Down {
            continue;
        }
        for s in &inst.stages {
            primary_of_serving.extend(s.primary.devices.iter().copied());
        }
    }
    let mut pool: Vec<DeviceId> = health
        .accepting()
        .into_iter()
        .filter(|d| !primary_of_serving.contains(d))
        .collect();
    pool.sort();

    let serving: Vec<usize> = topo
        .instances
        .iter()
        .enumerate()
        .filter(|(_, i)| i.role != InstanceRole::Down)
        .map(|(k, _)| k)
        .collect();
    if serving.is_empty() {
        return topo;
    }
    // Round-robin devices across serving instances (device-id order keeps
    // it deterministic); each instance's stages share its pool (§3.2).
    let mut per_inst: Vec<Vec<DeviceId>> = vec![Vec::new(); topo.instances.len()];
    for (i, dev) in pool.into_iter().enumerate() {
        per_inst[serving[i % serving.len()]].push(dev);
    }
    for (k, inst) in topo.instances.iter_mut().enumerate() {
        if inst.role == InstanceRole::Down {
            continue;
        }
        for s in inst.stages.iter_mut() {
            s.attention_workers = per_inst[k].clone();
        }
    }
    topo
}

/// Per-instance worker-list diff plus Down inventory.
fn diff_topologies(old: &Topology, new: &Topology) -> TopologyDiff {
    let mut diff = TopologyDiff::default();
    for (k, (o, n)) in old.instances.iter().zip(&new.instances).enumerate() {
        if n.role == InstanceRole::Down {
            diff.instances_down.push(k);
            continue;
        }
        let ow = o
            .stages
            .first()
            .map(|s| s.attention_workers.clone())
            .unwrap_or_default();
        let nw = n
            .stages
            .first()
            .map(|s| s.attention_workers.clone())
            .unwrap_or_default();
        for &d in &nw {
            if !ow.contains(&d) {
                diff.workers_added.push((k, d));
            }
        }
        for &d in &ow {
            if !nw.contains(&d) {
                diff.workers_removed.push((k, d));
            }
        }
    }
    diff
}

/// Runs the hierarchical search on the surviving devices by rebuilding a
/// sub-cluster with the same host structure (ids remapped back
/// afterwards). Returns `None` when the survivors cannot host the model.
fn ideal_search(
    cluster: &Cluster,
    accepting: &[DeviceId],
    ctx: &PolicyCtx<'_>,
    profile: &WorkloadProfile,
    hetis: &HetisConfig,
) -> Option<(Topology, usize)> {
    if accepting.is_empty() {
        return None;
    }
    let mut builder = ClusterBuilder::new();
    let mut mapping: Vec<DeviceId> = Vec::new(); // sub id -> cluster id
    for h in 0..cluster.num_hosts() {
        let survivors: Vec<DeviceId> = cluster
            .host_devices(hetis_cluster::HostId(h as u32))
            .iter()
            .copied()
            .filter(|d| accepting.contains(d))
            .collect();
        if survivors.is_empty() {
            continue;
        }
        let gpus: Vec<_> = survivors.iter().map(|&d| cluster.spec(d).gpu).collect();
        builder = builder.host(&gpus);
        mapping.extend(survivors);
    }
    if mapping.is_empty() {
        return None;
    }
    let sub = builder.build();
    // Quick feasibility gate: enough total memory for one weight copy.
    if sub.total_memory() < ctx.model.weight_bytes_total() {
        return None;
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        search_topology(&sub, ctx.model, profile, hetis)
    }))
    .ok()?;
    Some((map_topology(&outcome.topology, &mapping), outcome.evaluated))
}

/// Rewrites every device id of a sub-cluster topology back to cluster ids.
fn map_topology(topo: &Topology, mapping: &[DeviceId]) -> Topology {
    let mut out = topo.clone();
    for inst in out.instances.iter_mut() {
        for s in inst.stages.iter_mut() {
            for d in s.primary.devices.iter_mut() {
                *d = mapping[d.index()];
            }
            for d in s.attention_workers.iter_mut() {
                *d = mapping[d.index()];
            }
        }
    }
    out
}

/// Hauler-style drain: for every resident decoding request holding head
/// groups on `draining`, plan a re-dispatch that moves exactly those
/// heads to the healthiest alternative device of the same stage (most
/// free KV bytes, id tie-break). The engine executes the moves on its
/// low-priority migration streams.
fn plan_drain(
    draining: DeviceId,
    topo: &Topology,
    health: &HealthView,
    ctx: &PolicyCtx<'_>,
) -> Vec<RedispatchOp> {
    let mut affected: Vec<(RequestId, HeadPlacement, usize)> = ctx
        .requests
        .values()
        .filter(|r| r.phase == Phase::Decoding && !r.in_flight)
        .filter_map(|r| {
            let p = r.placement.as_ref()?;
            p.devices()
                .contains(&draining)
                .then(|| (r.req.id, p.clone(), r.instance))
        })
        .collect();
    affected.sort_by_key(|&(rid, ..)| rid);

    let mut planned_bytes: Vec<(DeviceId, u64)> = Vec::new(); // drain-targeting pressure
    let mut out = Vec::new();
    for (rid, placement, inst) in affected {
        if topo.instances[inst].role == InstanceRole::Down {
            continue;
        }
        let mut new_placement = placement.clone();
        let mut changed = false;
        for (s, stage_pl) in new_placement.per_stage.iter_mut().enumerate() {
            let Some(pos) = stage_pl.iter().position(|&(d, _)| d == draining) else {
                continue;
            };
            let (_, heads) = stage_pl.remove(pos);
            // Candidate targets: this stage's devices that accept KV.
            let stage = &topo.instances[inst].stages[s];
            let mut candidates: Vec<DeviceId> = stage
                .attention_devices()
                .filter(|&d| d != draining && matches!(health.of(d), DeviceHealth::Alive { .. }))
                .collect();
            candidates.sort();
            candidates.dedup();
            if candidates.is_empty() {
                // Nowhere to drain to: leave the placement; the engine
                // will recompute-preempt at revocation.
                stage_pl.insert(pos, (draining, heads));
                continue;
            }
            let free_of = |d: DeviceId| -> i128 {
                let planned: u64 = planned_bytes
                    .iter()
                    .filter(|&&(pd, _)| pd == d)
                    .map(|&(_, b)| b)
                    .sum();
                ctx.kv.device(d).free_bytes() as i128 - planned as i128
            };
            let target = *candidates
                .iter()
                .max_by_key(|&&d| (free_of(d), std::cmp::Reverse(d)))
                .expect("non-empty candidates");
            match stage_pl.iter_mut().find(|(d, _)| *d == target) {
                Some(entry) => entry.1 += heads,
                None => stage_pl.push((target, heads)),
            }
            stage_pl.sort_by_key(|&(d, _)| d);
            // Pressure bookkeeping so sequential drains spread out: only
            // this stage's resident bytes land on this target.
            let kv = ctx.kv.device(draining);
            let moved = kv
                .entry(rid, s as u16)
                .map(|e| kv.entry_bytes(&e))
                .unwrap_or(0);
            planned_bytes.push((target, moved));
            changed = true;
        }
        if changed {
            out.push(RedispatchOp {
                req: rid,
                new_placement,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_cluster::cluster::paper_cluster;
    use hetis_cluster::GpuType;
    use hetis_engine::{InstanceTopo, StageTopo};
    use hetis_parallel::StageConfig;

    fn two_instance_topo(c: &Cluster) -> Topology {
        let a100 = c.devices_of_type(GpuType::A100);
        let p100 = c.devices_of_type(GpuType::P100);
        let mk = |devs: Vec<DeviceId>, workers: Vec<DeviceId>| {
            let mut s = StageTopo::plain(StageConfig {
                devices: devs,
                layers: 40,
            });
            s.attention_workers = workers;
            InstanceTopo {
                stages: vec![s],
                role: InstanceRole::Both,
            }
        };
        Topology {
            instances: vec![
                mk(vec![a100[0], a100[1]], vec![p100[0], p100[2]]),
                mk(vec![a100[2], a100[3]], vec![p100[1], p100[3]]),
            ],
        }
    }

    fn full_health(c: &Cluster) -> Vec<DeviceHealth> {
        vec![DeviceHealth::NOMINAL; c.len()]
    }

    #[test]
    fn observe_accumulates_snapshots() {
        use hetis_core::WorkloadProfile;
        use hetis_telemetry::QueueDepthStat;
        use hetis_workload::DatasetKind;
        let mut ctl = ElasticController::new(
            HetisConfig::default(),
            WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 8),
        );
        assert_eq!(ctl.max_observed_queue_depth(), 0);
        for (t, depth) in [(1.0, 3u32), (2.0, 9), (3.0, 5)] {
            let snap = TelemetrySnapshot {
                now: t,
                window_secs: f64::INFINITY,
                events_published: 1,
                events_buffered: 1,
                dropped: 0,
                completions: 0,
                open_flows: 0,
                classes: vec![],
                queue_depths: vec![QueueDepthStat {
                    time: t,
                    instance: 0,
                    waiting: depth,
                    running: 2,
                }],
                kv: None,
            };
            ctl.observe(&snap);
        }
        assert_eq!(ctl.observations().len(), 3);
        assert_eq!(ctl.max_observed_queue_depth(), 9);
        assert_eq!(ctl.observations_dropped(), 0);
    }

    #[test]
    fn observation_ring_is_bounded_and_counts_drops() {
        use hetis_core::WorkloadProfile;
        use hetis_workload::DatasetKind;
        let mut ctl = ElasticController::new(
            HetisConfig::default(),
            WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 8),
        )
        .with_config(ElasticConfig {
            observation_capacity: 4,
            ..ElasticConfig::default()
        });
        let mk = |t: f64| TelemetrySnapshot {
            now: t,
            window_secs: f64::INFINITY,
            events_published: 1,
            events_buffered: 1,
            dropped: 0,
            completions: 0,
            open_flows: 0,
            classes: vec![],
            queue_depths: vec![],
            kv: None,
        };
        for t in 0..10 {
            ctl.observe(&mk(t as f64));
        }
        assert_eq!(ctl.observations().len(), 4, "capacity bounds retention");
        assert_eq!(ctl.observations_dropped(), 6);
        // Oldest-first iteration: the survivors are the last four pushed.
        let times: Vec<f64> = ctl.observations().iter().map(|s| s.now).collect();
        assert_eq!(times, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn scale_plan_out_reclaims_and_in_retires() {
        use hetis_core::WorkloadProfile;
        use hetis_workload::DatasetKind;
        let c = paper_cluster();
        let model = hetis_model::llama_13b();
        let ctl = ElasticController::new(
            HetisConfig::default(),
            WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 8),
        );
        let kv =
            hetis_engine::KvState::new(&c, &model, 16, &std::collections::HashMap::new()).unwrap();
        let requests = hetis_sim::FxHashMap::default();
        // Start from a topology whose worker pool is NOT full: the 3090s
        // are unused.
        let topo = two_instance_topo(&c);
        let ctx = PolicyCtx {
            cluster: &c,
            model: &model,
            now: 0.0,
            kv: &kv,
            requests: &requests,
            live_requests: &[0, 0],
            topology: &topo,
            prefill_chunk_tokens: None,
        };
        let view = HealthView::new(full_health(&c));
        let plan = ctl
            .scale_plan(true, &view, &ctx)
            .expect("idle 3090s to reclaim");
        assert!(!plan.diff.workers_added.is_empty());
        assert_eq!(plan.searched_candidates, 0, "pool resize re-runs no search");
        assert!(plan.migrations.is_empty());
        assert!(plan.replan_latency > 0.0);

        // Scale-out again from the full pool: a no-op, so no plan.
        let full = plan.topology.clone();
        let ctx_full = PolicyCtx {
            topology: &full,
            ..ctx
        };
        assert!(ctl.scale_plan(true, &view, &ctx_full).is_none());

        // Scale-in retires exactly one worker (the highest id of the
        // biggest pool) and never touches primaries.
        let plan_in = ctl
            .scale_plan(false, &view, &ctx_full)
            .expect("workers to retire");
        assert_eq!(plan_in.diff.workers_removed.len(), 1);
        assert!(plan_in.diff.workers_added.is_empty());
        let before: usize = full
            .instances
            .iter()
            .map(|i| i.stages[0].attention_workers.len())
            .sum();
        let after: usize = plan_in
            .topology
            .instances
            .iter()
            .map(|i| i.stages[0].attention_workers.len())
            .sum();
        assert_eq!(after + 1, before);
        for (o, n) in full.instances.iter().zip(&plan_in.topology.instances) {
            assert_eq!(o.stages[0].primary.devices, n.stages[0].primary.devices);
        }
    }

    #[test]
    fn rebuild_pools_surviving_non_primaries() {
        let c = paper_cluster();
        let topo = two_instance_topo(&c);
        let mut h = full_health(&c);
        // Kill p100[0] (dev 8).
        let dead = c.devices_of_type(GpuType::P100)[0];
        h[dead.index()] = DeviceHealth::Dead;
        let view = HealthView::new(h);
        let out = rebuild_workers(&topo, &view);
        for inst in &out.instances {
            for s in &inst.stages {
                assert!(!s.attention_workers.contains(&dead));
            }
        }
        // Survivors: 4×3090 + 3×P100 = 7 workers, split 4/3 round-robin.
        let total: usize = out
            .instances
            .iter()
            .map(|i| i.stages[0].attention_workers.len())
            .sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn orphaned_primaries_become_workers() {
        let c = paper_cluster();
        let mut topo = two_instance_topo(&c);
        topo.instances[1].role = InstanceRole::Down;
        let view = HealthView::new(full_health(&c));
        let out = rebuild_workers(&topo, &view);
        let workers = &out.instances[0].stages[0].attention_workers;
        let a100 = c.devices_of_type(GpuType::A100);
        // The Down instance's A100s are reclaimed as attention workers.
        assert!(workers.contains(&a100[2]) && workers.contains(&a100[3]));
        // The Down instance itself is untouched.
        assert_eq!(out.instances[1].role, InstanceRole::Down);
    }

    #[test]
    fn diff_reports_adds_and_removals() {
        let c = paper_cluster();
        let old = two_instance_topo(&c);
        let mut h = full_health(&c);
        let dead = c.devices_of_type(GpuType::P100)[0];
        h[dead.index()] = DeviceHealth::Dead;
        let new = rebuild_workers(&old, &HealthView::new(h));
        let diff = diff_topologies(&old, &new);
        assert!(diff.workers_removed.iter().any(|&(_, d)| d == dead));
        assert!(!diff.workers_added.is_empty(), "3090s should join the pool");
    }

    #[test]
    fn ideal_search_maps_ids_back() {
        use hetis_model::llama_70b;
        use hetis_workload::DatasetKind;
        let c = paper_cluster();
        let model = llama_70b();
        let profile = WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 32);
        // Survivors: everything except the last P100.
        let dead = c.devices_of_type(GpuType::P100)[3];
        let accepting: Vec<DeviceId> = c
            .devices()
            .iter()
            .map(|d| d.id)
            .filter(|&d| d != dead)
            .collect();
        let kv =
            hetis_engine::KvState::new(&c, &model, 16, &std::collections::HashMap::new()).unwrap();
        let requests = hetis_sim::FxHashMap::default();
        let topo = two_instance_topo(&c);
        let ctx = PolicyCtx {
            cluster: &c,
            model: &model,
            now: 0.0,
            kv: &kv,
            requests: &requests,
            live_requests: &[0, 0],
            topology: &topo,
            prefill_chunk_tokens: None,
        };
        let (ideal, evaluated) =
            ideal_search(&c, &accepting, &ctx, &profile, &HetisConfig::default())
                .expect("survivors host llama-70b");
        assert!(evaluated > 0);
        let mut used: Vec<DeviceId> = Vec::new();
        for i in &ideal.instances {
            for s in &i.stages {
                used.extend(s.primary.devices.iter().copied());
                used.extend(s.attention_workers.iter().copied());
            }
        }
        used.sort();
        used.dedup();
        for d in &used {
            assert!(accepting.contains(d), "{d} is not a survivor");
            assert_ne!(*d, dead);
        }
    }
}
