//! The policy interface: systems decide, the engine executes.
//!
//! Hetis, HexGen and Splitwise differ only in these hooks — topology
//! construction, request routing, head placement, post-prefill hand-off,
//! re-dispatching, and victim selection. The engine owns the event loop,
//! memory accounting and metric collection so the comparison between
//! systems is apples-to-apples.

use crate::config::EngineConfig;
use crate::memory::KvState;
use crate::request::RunningRequest;
use crate::topology::{HeadPlacement, Topology};
use hetis_cluster::{Cluster, DeviceId};
use hetis_model::ModelSpec;
use hetis_sim::FxHashMap;
use hetis_workload::{Request, RequestId};

/// Read-only view of engine state handed to policy hooks.
pub struct PolicyCtx<'a> {
    /// The cluster.
    pub cluster: &'a Cluster,
    /// The served model.
    pub model: &'a ModelSpec,
    /// Current simulated time.
    pub now: f64,
    /// Per-device KV state.
    pub kv: &'a KvState,
    /// The live requests, keyed by id: waiting, prefilling, decoding
    /// and migrating ones. `Engine::finish` removes a request once it is
    /// recorded, so a scan of this map costs O(live requests), however
    /// many the run has already served.
    pub requests: &'a FxHashMap<RequestId, RunningRequest>,
    /// Live requests per instance: `live_requests[i]` counts the entries
    /// of `requests` whose `instance` is `i`. The engine keeps it as
    /// requests arrive, move and finish, so reading it costs no scan.
    pub live_requests: &'a [usize],
    /// The serving topology.
    pub topology: &'a Topology,
    /// The engine's chunked-prefill cap (`None` = atomic prefill).
    /// Placement policies can use it to bound the *per-iteration* compute
    /// load a long prompt contributes, while sizing KV for the full
    /// prompt.
    pub prefill_chunk_tokens: Option<u64>,
}

/// Post-prefill hand-off decision (Splitwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handoff {
    /// Instance that will decode the request.
    pub target_instance: usize,
}

/// A re-dispatch: replace a request's placement (the engine migrates the
/// KV difference and pauses the request until the transfer lands).
#[derive(Debug, Clone)]
pub struct RedispatchOp {
    /// The request to re-dispatch.
    pub req: RequestId,
    /// The new placement.
    pub new_placement: HeadPlacement,
}

/// Response to a KV-exhaustion callback.
#[derive(Debug, Clone)]
pub enum VictimAction {
    /// Recompute-preempt this request (vLLM's default path).
    Evict(RequestId),
    /// Re-dispatch this request to the given placement instead of evicting
    /// (Hetis §5.3.2 — uses free memory elsewhere in the cluster).
    Redispatch(RequestId, HeadPlacement),
    /// Nothing can be done; the caller skips the blocked request this
    /// iteration.
    Stall,
}

/// A serving system.
pub trait Policy {
    /// Short name for reports.
    fn name(&self) -> String;

    /// Builds the serving topology once at startup.
    fn topology(&mut self, cluster: &Cluster, model: &ModelSpec, cfg: &EngineConfig) -> Topology;

    /// Routes an arriving request to an instance index.
    fn route(&mut self, req: &Request, ctx: &PolicyCtx<'_>) -> usize;

    /// Places a batch of admission candidates on `instance` (the paper's
    /// J(t) — all newly dispatched requests are placed jointly, Eq. 7).
    /// `None` for a request defers it (stays waiting).
    fn place_batch(
        &mut self,
        instance: usize,
        reqs: &[(RequestId, u32)], // (id, effective prompt length)
        ctx: &PolicyCtx<'_>,
    ) -> Vec<Option<HeadPlacement>>;

    /// Called when a request finishes prefill; `Some` hands it to another
    /// instance for decoding (Splitwise).
    fn after_prefill(
        &mut self,
        _instance: usize,
        _req: RequestId,
        _ctx: &PolicyCtx<'_>,
    ) -> Option<Handoff> {
        None
    }

    /// Called before decode microbatches are formed on `instance`;
    /// returns re-dispatch operations to execute (Hetis §5.3.1).
    fn before_decode(&mut self, _instance: usize, _ctx: &PolicyCtx<'_>) -> Vec<RedispatchOp> {
        Vec::new()
    }

    /// Called when device `device` cannot fit the next decode token of
    /// `blocked`; must name a victim or stall.
    fn select_victim(
        &mut self,
        instance: usize,
        device: DeviceId,
        blocked: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> VictimAction;

    /// Called after the engine applied a cluster-change event (`health`
    /// already reflects it, dead devices are already pruned from
    /// attention-worker lists and lost instances marked `Down`). Return a
    /// [`crate::churn::ReplanResponse`] to re-plan the topology and/or drain KV off
    /// draining devices; the default does nothing (a static system).
    fn on_cluster_change(
        &mut self,
        _event: &crate::churn::ClusterEvent,
        _health: &crate::churn::HealthView,
        _ctx: &PolicyCtx<'_>,
    ) -> crate::churn::ReplanResponse {
        crate::churn::ReplanResponse::default()
    }

    /// Called at every periodic telemetry tick — but only when
    /// [`crate::config::EngineConfig::closed_loop`] is set — with a fresh
    /// bus snapshot. Return a [`crate::control::ControlResponse`] to
    /// actuate (scale replan, admission throttle, chunk pacing); the
    /// default keeps the loop open. A no-op response leaves the engine
    /// untouched (no dispatch sweep, nothing logged), so quiet
    /// controllers are digest-neutral.
    fn on_telemetry_tick(
        &mut self,
        _snapshot: &hetis_telemetry::TelemetrySnapshot,
        _closed_loop: &crate::control::ClosedLoopConfig,
        _health: &crate::churn::HealthView,
        _ctx: &PolicyCtx<'_>,
    ) -> crate::control::ControlResponse {
        crate::control::ControlResponse::default()
    }
}

/// The simplest complete policy: a fixed topology, round-robin routing,
/// stage-local placement, LIFO eviction. This is "plain vLLM on a given
/// parallel config" — the building block both baselines specialize, and
/// the engine's own test harness.
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    /// Name for reports.
    pub label: String,
    /// The fixed topology.
    pub topo: Topology,
    next_inst: usize,
}

impl StaticPolicy {
    /// A static policy serving `topo`.
    pub fn new(label: impl Into<String>, topo: Topology) -> Self {
        StaticPolicy {
            label: label.into(),
            topo,
            next_inst: 0,
        }
    }

    /// The eviction candidates of `instance` resident on `device`: its
    /// requests that are decoding, not in flight and hold a KV block
    /// there. Read from the device's own ledger entries, so a request
    /// resident for several stages appears once per stage.
    pub fn victims_on_device<'c>(
        instance: usize,
        device: DeviceId,
        ctx: &'c PolicyCtx<'_>,
    ) -> impl Iterator<Item = &'c RunningRequest> + 'c {
        ctx.kv
            .device(device)
            .entries()
            .filter(|(_, e)| e.blocks > 0)
            .filter_map(|((rid, _), _)| ctx.requests.get(&rid))
            .filter(move |r| Self::evictable(instance, r))
    }

    /// Whether `r` belongs to `instance`, is decoding and is not in
    /// flight: the requests a victim or re-dispatch pick may take.
    pub fn evictable(instance: usize, r: &RunningRequest) -> bool {
        r.instance == instance && !r.in_flight && r.phase == crate::request::Phase::Decoding
    }

    /// Admission order, ties broken by request id: a total order on live
    /// requests, so a LIFO or LRU pick does not depend on the order the
    /// candidates come in.
    pub fn by_admission(a: &&RunningRequest, b: &&RunningRequest) -> std::cmp::Ordering {
        a.admitted_at
            .unwrap_or(0.0)
            .partial_cmp(&b.admitted_at.unwrap_or(0.0))
            .unwrap()
            .then(a.req.id.cmp(&b.req.id))
    }

    /// LIFO victim on an instance: the most recently admitted of
    /// [`StaticPolicy::victims_on_device`].
    pub fn lifo_victim_on_device(
        instance: usize,
        device: DeviceId,
        ctx: &PolicyCtx<'_>,
    ) -> Option<RequestId> {
        Self::victims_on_device(instance, device, ctx)
            .max_by(Self::by_admission)
            .map(|r| r.req.id)
    }

    /// Plain LIFO on an instance regardless of device residency — the
    /// vLLM-style eviction the paper criticizes (§5.3.2): the newest
    /// request may not even touch the exhausted device.
    pub fn lifo_victim_anywhere(instance: usize, ctx: &PolicyCtx<'_>) -> Option<RequestId> {
        ctx.requests
            .values()
            .filter(|r| Self::evictable(instance, r))
            .max_by(Self::by_admission)
            .map(|r| r.req.id)
    }
}

impl Policy for StaticPolicy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn topology(&mut self, _: &Cluster, _: &ModelSpec, _: &EngineConfig) -> Topology {
        self.topo.clone()
    }

    fn route(&mut self, _req: &Request, ctx: &PolicyCtx<'_>) -> usize {
        let mut entries = ctx.topology.entry_instances();
        let k = self.next_inst % entries.clone().count();
        let pick = entries.nth(k).expect("an entry instance");
        self.next_inst += 1;
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
        device: DeviceId,
        _blocked: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> VictimAction {
        match Self::lifo_victim_on_device(instance, device, ctx) {
            Some(v) => VictimAction::Evict(v),
            None => VictimAction::Stall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{InstanceRole, InstanceTopo, StageTopo};
    use hetis_parallel::StageConfig;
    use std::collections::HashMap;

    #[test]
    fn static_policy_round_robins() {
        use hetis_cluster::cluster::paper_cluster;
        use hetis_model::llama_13b;
        let cluster = paper_cluster();
        let model = llama_13b();
        let topo = Topology {
            instances: vec![
                InstanceTopo {
                    stages: vec![StageTopo::plain(StageConfig {
                        devices: vec![DeviceId(0), DeviceId(1)],
                        layers: 40,
                    })],
                    role: InstanceRole::Both,
                },
                InstanceTopo {
                    stages: vec![StageTopo::plain(StageConfig {
                        devices: vec![DeviceId(2), DeviceId(3)],
                        layers: 40,
                    })],
                    role: InstanceRole::Both,
                },
            ],
        };
        let kv = KvState::new(&cluster, &model, 16, &HashMap::new()).unwrap();
        let requests = FxHashMap::default();
        let mut p = StaticPolicy::new("static", topo.clone());
        let ctx = PolicyCtx {
            cluster: &cluster,
            model: &model,
            now: 0.0,
            kv: &kv,
            requests: &requests,
            live_requests: &[0, 0],
            topology: &topo,
            prefill_chunk_tokens: None,
        };
        let r = Request {
            id: RequestId(0),
            arrival: 0.0,
            input_len: 10,
            output_len: 5,
            class: Default::default(),
            tenant: Default::default(),
            session: None,
        };
        assert_eq!(p.route(&r, &ctx), 0);
        assert_eq!(p.route(&r, &ctx), 1);
        assert_eq!(p.route(&r, &ctx), 0);
        // Placement is stage-local.
        let placements = p.place_batch(0, &[(RequestId(0), 10)], &ctx);
        let hp = placements[0].as_ref().unwrap();
        hp.validate(model.num_heads, model.gqa_ratio()).unwrap();
        assert_eq!(hp.heads_on(0, DeviceId(0)), 20);
    }
}
