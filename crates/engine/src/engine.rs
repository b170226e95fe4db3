//! The discrete-event serving engine.
//!
//! One [`Engine`] simulates a full serving deployment: arrivals enter
//! instance waiting queues, cohorts ("virtual engines", one per pipeline
//! stage) form prefill/decode microbatches under continuous batching,
//! stages execute as FIFO resources with calibrated timing, and the
//! plugged-in [`Policy`] decides placement, hand-offs, re-dispatching and
//! victims.
//!
//! This file is the event loop: construction, [`Engine::step`], event
//! dispatch, arrivals and the report. The work an event triggers lives in
//! the child modules, one concern each (DESIGN.md §2 tabulates the state
//! each owns and the decision each makes): `admission` (waiting queues
//! and new admissions), `iteration` (the iteration former, completions,
//! KV growth, victims and the cohort load table), `transfer`
//! (re-dispatch, hand-off and scatter), `replan` (churn and replans),
//! `reuse` (prefix probing) and `observe` (samplers, telemetry and the
//! closed loop).

use crate::churn::{ClusterEvent, DeviceHealth, ReplanRecord};
use crate::config::{EngineConfig, BLOCK_SIZE};
use crate::control::ControlRecord;
use crate::memory::KvState;
use crate::metrics::{CompletedRequest, ModuleSample, RunReport, TraceSample};
use crate::policy::{Policy, PolicyCtx};
use crate::prefix::PrefixCache;
use crate::request::{Phase, RunningRequest};
use crate::topology::{InstanceRole, Topology};
use hetis_cluster::{Cluster, DeviceId, MigrationStream};
use hetis_model::ModelSpec;
use hetis_parallel::{device_weight_bytes, InstanceConfig, ParallelConfig};
use hetis_sim::{Clock, EventQueue, FifoQueue, FxHashMap, SimTime};
use hetis_telemetry::{FlowEventKind, TelemetryBus};
use hetis_workload::{RequestId, Trace};
use std::collections::HashMap;

/// Builds a [`PolicyCtx`] from engine fields without borrowing the whole
/// engine (keeps `self.policy` callable).
macro_rules! ctx {
    ($self:ident) => {
        PolicyCtx {
            cluster: $self.cluster,
            model: $self.model,
            now: $self.clock.now().as_secs(),
            kv: &$self.kv,
            requests: &$self.requests,
            live_requests: &$self.live,
            topology: &$self.topo,
            prefill_chunk_tokens: $self.mode.prefill.chunk(),
        }
    };
}

mod admission;
mod iteration;
mod observe;
mod replan;
mod reuse;
mod transfer;

use admission::{slack_key, WaitQueue};
use iteration::Cohort;

/// Engine events.
#[derive(Debug, Clone)]
enum Event {
    /// The `i`-th trace request arrives.
    Arrival(usize),
    /// A microbatch finished its last stage.
    UbatchDone { inst: usize, cohort: usize },
    /// A KV migration (scatter / hand-off / re-dispatch) landed; `epoch`
    /// must match the request's current migration epoch (stale
    /// completions of an aborted transfer are ignored).
    MigrationDone { req: RequestId, epoch: u32 },
    /// Periodic resource sampling.
    Sample,
    /// The `i`-th cluster-change event of the churn schedule fires.
    ClusterChange(usize),
    /// A draining device's preemption notice expires — it dies now.
    DrainDeadline(DeviceId),
    /// Periodic telemetry sampling (queue depths, KV occupancy). Only
    /// ever scheduled when the telemetry tick runs; `events_processed`
    /// is not digested, so the extra events keep digests bit-identical.
    TelemetryTick,
}

/// How prompts are prefilled, read once from
/// [`EngineConfig::prefill_chunk_tokens`] and
/// [`EngineConfig::fused_microbatches`].
#[derive(Debug, Clone, Copy)]
enum Prefill {
    /// Whole prompts in one iteration, KV reserved whole at admission.
    Atomic,
    /// Prompts in chunks of at most `chunk` tokens, KV grown per chunk;
    /// `fused` runs the decode batch inside every chunk's iteration.
    Chunked { chunk: u64, fused: bool },
}

impl Prefill {
    /// The chunk size; `None` under atomic prefill.
    fn chunk(self) -> Option<u64> {
        match self {
            Prefill::Atomic => None,
            Prefill::Chunked { chunk, .. } => Some(chunk),
        }
    }

    /// Whether the decode batch rides every chunk's iteration.
    fn fused(self) -> bool {
        matches!(self, Prefill::Chunked { fused: true, .. })
    }
}

/// The engine's settings, read once from a validated [`EngineConfig`]:
/// no engine code reads the config after construction.
#[derive(Debug, Clone, Copy)]
struct Mode {
    prefill: Prefill,
    /// Prefill token budget per iteration.
    max_batch_tokens: u64,
    /// Session-keyed prefix reuse is on.
    prefix_reuse: bool,
    /// Period of the Fig. 14 trace sampler; off unless positive.
    trace_period: f64,
    /// Period of the telemetry tick; `None` when no tick runs.
    tick: Option<f64>,
    /// Every telemetry tick runs a closed-loop control step.
    closed_loop: bool,
    /// No event after this simulated time runs: the last arrival plus the
    /// drain timeout.
    deadline: f64,
}

impl Mode {
    fn new(cfg: &EngineConfig, last_arrival: f64) -> Mode {
        Mode {
            prefill: match cfg.prefill_chunk_tokens {
                None => Prefill::Atomic,
                Some(chunk) => Prefill::Chunked {
                    chunk,
                    fused: cfg.fused_microbatches,
                },
            },
            max_batch_tokens: cfg.max_batch_tokens,
            prefix_reuse: cfg.prefix_reuse,
            trace_period: cfg.trace_sample_period,
            tick: cfg
                .telemetry
                .as_ref()
                .map(|t| t.sample_period)
                .filter(|&p| p > 0.0),
            closed_loop: cfg.closed_loop.is_some(),
            deadline: last_arrival + cfg.drain_timeout,
        }
    }
}

#[derive(Debug)]
struct InstanceState {
    waiting: WaitQueue,
    /// Hand-offs blocked on decode-side memory (Splitwise).
    pending_handoff: FifoQueue<RequestId>,
    cohorts: Vec<Cohort>,
    stage_free_at: Vec<SimTime>,
}

/// The run's report accumulators, each moved into the [`RunReport`]
/// field of its name by [`Engine::into_report`].
#[derive(Debug, Default)]
struct Tally {
    completed: Vec<CompletedRequest>,
    module_samples: Vec<ModuleSample>,
    trace_samples: Vec<TraceSample>,
    preemptions: u64,
    migrations: u64,
    migrated_bytes: f64,
    replans: Vec<ReplanRecord>,
    lost_tokens: u64,
    churn_evictions: u64,
    prefill_tokens: u64,
    prefill_iterations: u64,
    max_prefill_iter_tokens: u64,
    events_processed: u64,
    peak_kv_reserved_bytes: u64,
    fused_iterations: u64,
    kv_growths: u64,
    kv_grow_failures: u64,
    prefix_probes: u64,
    prefix_hits: u64,
    prefix_hit_tokens: u64,
    shared_kv_bytes: u64,
    control_log: Vec<ControlRecord>,
}

/// The serving-engine simulator. Construct with [`run`] unless a test
/// needs step-level control.
pub struct Engine<'a, P: Policy> {
    cluster: &'a Cluster,
    model: &'a ModelSpec,
    mode: Mode,
    policy: P,
    topo: Topology,
    kv: KvState,
    requests: FxHashMap<RequestId, RunningRequest>,
    /// Live requests per instance (`requests` entries whose `instance`
    /// is it), kept at the insert in `on_arrival`, every instance move
    /// (`set_instance`) and the removal in `finish`; policies read it as
    /// `PolicyCtx::live_requests`.
    live: Vec<usize>,
    instances: Vec<InstanceState>,
    events: EventQueue<Event>,
    clock: Clock,
    migration: MigrationStream,
    trace_requests: Vec<hetis_workload::Request>,
    // elasticity state
    health: Vec<DeviceHealth>,
    original_roles: Vec<InstanceRole>,
    churn: Vec<ClusterEvent>,
    /// In-flight requests whose churn eviction is pending at microbatch
    /// completion but already attributed to a ReplanRecord (guards
    /// against double-counting across overlapping device deaths).
    attributed_pending: Vec<RequestId>,
    tally: Tally,
    /// Session-keyed warm-KV index ([`crate::prefix`]); only ever
    /// populated when prefix reuse is on — otherwise every probe,
    /// registration and affinity check is gated off.
    prefix: PrefixCache,
    /// Streaming telemetry bus (`None` = disabled; every tap is a no-op
    /// and no event or aggregator exists — the zero-cost contract).
    telemetry: Option<TelemetryBus>,
    /// `Sample` + `TelemetryTick` events currently queued (each chain
    /// holds at most one). The liveness guard subtracts these so the two
    /// sampler chains cannot keep *each other* alive until the drain
    /// deadline after the last request completes.
    sampling_pending: u32,
    // closed-loop actuation state (all inert unless the loop is closed)
    /// When set, non-protected-class admissions are deferred back to the
    /// waiting queue (closed-loop throttle actuation).
    throttle_admission: bool,
    /// Closed-loop pacing: while set, fused iterations alternate like
    /// chunked ones, and a chunk backlog above this cap runs without the
    /// decode batch (see [`Engine::form_iteration`]).
    pace_chunk_tokens: Option<u64>,
    /// Instances that took a preemption victim off a decode-only instance
    /// during the current dispatch (see [`Engine::evict`]); dispatched
    /// once it is done, since they may be idle.
    rehomed: Vec<usize>,
}

/// Runs `policy` over `trace` on `cluster`/`model`; returns the report —
/// the main simulation entry point.
///
/// Constructs an [`Engine`] (topology from `policy.topology()`, KV pools
/// sized from the weight placement), replays every arrival through
/// admission → prefill (atomic or chunked per
/// [`EngineConfig::prefill_chunk_tokens`]) → decode → completion, and
/// collects a [`RunReport`] with per-request, per-class and per-device
/// metrics. Fully deterministic for a given `(cfg, trace)`:
/// [`RunReport::digest`] is bit-stable across reruns.
pub fn run<P: Policy>(
    policy: P,
    cluster: &Cluster,
    model: &ModelSpec,
    cfg: EngineConfig,
    trace: &Trace,
) -> RunReport {
    run_with_churn(policy, cluster, model, cfg, trace, &[])
}

/// Runs `policy` over `trace` while injecting the deterministic cluster
/// churn schedule `events` (see [`crate::churn`]). Devices named by a
/// `Join` event before any failure are treated as absent at startup.
pub fn run_with_churn<P: Policy>(
    mut policy: P,
    cluster: &Cluster,
    model: &ModelSpec,
    cfg: EngineConfig,
    trace: &Trace,
    events: &[ClusterEvent],
) -> RunReport {
    let topo = policy.topology(cluster, model, &cfg);
    let mut engine = Engine::new_with_churn(policy, cluster, model, cfg, topo, trace, events);
    engine.run_to_completion();
    engine.into_report()
}

impl<'a, P: Policy> Engine<'a, P> {
    /// Builds an engine over a fixed topology and trace (no churn).
    pub fn new(
        policy: P,
        cluster: &'a Cluster,
        model: &'a ModelSpec,
        cfg: EngineConfig,
        topo: Topology,
        trace: &Trace,
    ) -> Self {
        Self::new_with_churn(policy, cluster, model, cfg, topo, trace, &[])
    }

    /// Builds an engine that will additionally execute a churn schedule.
    /// A device whose *first* scheduled event is `Join` starts absent
    /// (dead), modeling capacity that arrives mid-run.
    ///
    /// # Panics
    ///
    /// With the message of [`EngineConfig::validate`] when `cfg` is
    /// invalid, before anything is built.
    pub fn new_with_churn(
        policy: P,
        cluster: &'a Cluster,
        model: &'a ModelSpec,
        cfg: EngineConfig,
        topo: Topology,
        trace: &Trace,
        churn: &[ClusterEvent],
    ) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let mode = Mode::new(&cfg, trace.horizon());
        // Weight placement from the primary stages.
        let pcfg = ParallelConfig {
            instances: topo
                .instances
                .iter()
                .map(|i| InstanceConfig {
                    stages: i.stages.iter().map(|s| s.primary.clone()).collect(),
                })
                .collect(),
        };
        pcfg.validate(cluster, model)
            .expect("policy produced an invalid topology");
        let weights = device_weight_bytes(&pcfg, model);
        let kv = KvState::new(cluster, model, BLOCK_SIZE, &weights)
            .expect("weights must fit the topology");

        let instances: Vec<InstanceState> = topo
            .instances
            .iter()
            .map(|i| InstanceState {
                waiting: WaitQueue::new(cfg.admission),
                pending_handoff: FifoQueue::new(),
                cohorts: (0..i.depth()).map(|_| Cohort::new(i.depth())).collect(),
                stage_free_at: vec![SimTime::ZERO; i.depth()],
            })
            .collect();

        let mut events = EventQueue::new();
        for (i, req) in trace.requests().iter().enumerate() {
            events.schedule(SimTime::from_secs(req.arrival), Event::Arrival(i));
        }
        for (i, ev) in churn.iter().enumerate() {
            events.schedule(SimTime::from_secs(ev.time), Event::ClusterChange(i));
        }
        let mut sampling_pending = 0u32;
        if mode.trace_period > 0.0 {
            events.schedule(SimTime::from_secs(mode.trace_period), Event::Sample);
            sampling_pending += 1;
        }
        // Telemetry (off by default): build the bus up front (opening the
        // flow log, if any) and seed the periodic tick.
        let telemetry = cfg.telemetry.as_ref().map(|t| {
            TelemetryBus::new(t, topo.instances.len()).expect("telemetry sink path unwritable")
        });
        if let Some(period) = mode.tick {
            events.schedule(SimTime::from_secs(period), Event::TelemetryTick);
            sampling_pending += 1;
        }

        let original_roles = topo.instances.iter().map(|i| i.role).collect();
        let mut engine = Engine {
            cluster,
            model,
            mode,
            policy,
            topo,
            kv,
            requests: FxHashMap::default(),
            live: vec![0; instances.len()],
            instances,
            events,
            clock: Clock::new(),
            migration: MigrationStream::new(),
            trace_requests: trace.requests().to_vec(),
            health: vec![DeviceHealth::NOMINAL; cluster.len()],
            original_roles,
            churn: churn.to_vec(),
            attributed_pending: Vec::new(),
            tally: Tally::default(),
            prefix: PrefixCache::new(cluster.len()),
            telemetry,
            sampling_pending,
            throttle_admission: false,
            pace_chunk_tokens: None,
            rehomed: Vec::new(),
        };
        engine.start_late_joiners_absent();
        engine
    }

    /// Drives the event loop until quiescence or drain timeout.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Executes the next pending event; returns `false` at quiescence or
    /// once the drain deadline passes. Step-level access exists so live
    /// consumers (telemetry pollers, controllers, tests) can interleave
    /// [`Engine::telemetry_snapshot`] reads with simulation progress.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.events.pop() else {
            return false;
        };
        if at.as_secs() > self.mode.deadline {
            return false;
        }
        self.clock.advance_to(at);
        self.tally.events_processed += 1;
        if matches!(event, Event::Sample | Event::TelemetryTick) {
            self.sampling_pending -= 1;
        }
        match event {
            Event::Arrival(i) => self.on_arrival(i),
            Event::UbatchDone { inst, cohort } => self.on_ubatch_done(inst, cohort),
            Event::MigrationDone { req, epoch } => self.on_migration_done(req, epoch),
            Event::Sample => self.on_sample(),
            Event::ClusterChange(i) => self.on_cluster_change(i),
            Event::DrainDeadline(dev) => self.on_drain_deadline(dev),
            Event::TelemetryTick => self.on_telemetry_tick(),
        }
        true
    }

    /// Consumes the engine into its report.
    pub fn into_report(mut self) -> RunReport {
        // Final telemetry state: flush the flow log and take the
        // end-of-run snapshot (`None` when telemetry is disabled; not
        // folded into the digest, the `events_processed` convention).
        let now = self.clock.now().as_secs();
        let telemetry = self.telemetry.take().map(|mut bus| {
            bus.flush();
            bus.snapshot(now)
        });
        let mut used: Vec<DeviceId> = self
            .topo
            .instances
            .iter()
            .flat_map(|i| i.stages.iter().flat_map(|s| s.attention_devices()))
            .collect();
        used.sort();
        used.dedup();
        let total_kv_pool_bytes = self.kv.total_pool(&used);
        let usable_kv_bytes = crate::memory::usable_kv_bytes(self.model, &self.topo, &self.kv);
        // Finished requests leave the map in `finish`.
        let unfinished = self.requests.len();
        #[cfg(debug_assertions)]
        self.audit_kv(unfinished);
        let t = self.tally;
        RunReport {
            policy: self.policy.name(),
            completed: t.completed,
            unfinished,
            module_samples: t.module_samples,
            trace: t.trace_samples,
            duration: now,
            total_kv_pool_bytes,
            usable_kv_bytes,
            preemptions: t.preemptions,
            migrations: t.migrations,
            migrated_bytes: t.migrated_bytes,
            replans: t.replans,
            lost_tokens: t.lost_tokens,
            churn_evictions: t.churn_evictions,
            prefill_tokens: t.prefill_tokens,
            prefill_iterations: t.prefill_iterations,
            max_prefill_iter_tokens: t.max_prefill_iter_tokens,
            events_processed: t.events_processed,
            peak_kv_reserved_bytes: t.peak_kv_reserved_bytes,
            fused_iterations: t.fused_iterations,
            kv_growths: t.kv_growths,
            kv_grow_failures: t.kv_grow_failures,
            prefix_probes: t.prefix_probes,
            prefix_hits: t.prefix_hits,
            prefix_hit_tokens: t.prefix_hit_tokens,
            shared_kv_bytes: t.shared_kv_bytes,
            telemetry_dropped: 0,
            telemetry,
            control_log: t.control_log,
            // Cost accounting is attached post-run by a cost meter (the
            // engine itself never bills anything).
            cost: None,
        }
    }

    /// End-of-run KV audit (debug builds): every ledger entry belongs to
    /// a live request that holds KV (not waiting) and holds the blocks of
    /// exactly its `kv_reserved` tokens, and a run that finished every
    /// request has returned every KV byte to the pools.
    #[cfg(debug_assertions)]
    fn audit_kv(&self, unfinished: usize) {
        for d in 0..self.kv.len() {
            let dev = DeviceId(d as u32);
            let kv = self.kv.device(dev);
            for ((rid, stage), e) in kv.entries() {
                let r = self
                    .requests
                    .get(&rid)
                    .unwrap_or_else(|| panic!("{dev} holds KV of finished {rid} stage {stage}"));
                assert!(
                    r.phase != Phase::Waiting,
                    "{dev} holds KV of waiting {rid} stage {stage}"
                );
                assert_eq!(
                    e.blocks,
                    self.kv.blocks_for(r.kv_reserved),
                    "{dev}: {rid} stage {stage} vs its {} tokens",
                    r.kv_reserved
                );
            }
            if unfinished == 0 {
                assert_eq!(kv.used_bytes(), 0, "{dev} holds KV after the last request");
            }
        }
    }

    // ------------------------------------------------------------ arrivals

    fn on_arrival(&mut self, idx: usize) {
        let req = self.trace_requests[idx];
        // Route before registering the request so load-based policies do
        // not see the arrival itself as resident load. Prefix affinity
        // wins over the policy: the warm KV only exists on the instance
        // that served the previous turn. The policy is not consulted for
        // affinity-routed arrivals, so its routing cursor does not move.
        let inst = match self.prefix_affinity(&req) {
            Some(inst) => inst,
            None => self.route_surviving(req, 0),
        };
        self.requests.insert(req.id, RunningRequest::new(req, inst));
        self.live[inst] += 1;
        self.instances[inst].waiting.enqueue(slack_key(&req));
        self.tap(FlowEventKind::Arrival { req: req.id });
        self.try_dispatch(inst);
    }

    /// Routes via the policy, overriding picks that land on a Down
    /// instance (a static policy may not know about churn). When no
    /// instance can accept work at all, the request parks on `park` —
    /// policies are never asked to route into a fully-down cluster.
    fn route_surviving(&mut self, req: hetis_workload::Request, park: usize) -> usize {
        let Some(fallback) = self.topo.entry_instances().next() else {
            return park;
        };
        debug_assert_eq!(self.live, self.scan_live(), "live-request counts drifted");
        let inst = self.policy.route(&req, &ctx!(self));
        assert!(inst < self.instances.len(), "routed to unknown instance");
        if self.topo.instances[inst].role != InstanceRole::Down {
            return inst;
        }
        fallback
    }

    /// Moves live request `rid` to instance `to`, keeping the per-instance
    /// live counts in step.
    fn set_instance(&mut self, rid: RequestId, to: usize) {
        let r = self.requests.get_mut(&rid).expect("live");
        self.live[r.instance] -= 1;
        self.live[to] += 1;
        r.instance = to;
    }

    /// The O(live) definition of the per-instance live counts, kept as
    /// the debug-build oracle they are checked against.
    fn scan_live(&self) -> Vec<usize> {
        let mut live = vec![0; self.live.len()];
        for r in self.requests.values() {
            live[r.instance] += 1;
        }
        live
    }

    // -------------------------------------------------------------- probes

    /// Test/diagnostic access to the KV state.
    pub fn kv_state(&self) -> &KvState {
        &self.kv
    }

    /// Diagnostic: the requests of each instance in a running phase
    /// (Prefilling/Decoding/Migrating). Exposed so tests can pin them
    /// against [`Engine::phase_summary`].
    pub fn running_counts(&self) -> Vec<usize> {
        (0..self.instances.len())
            .map(|i| self.running_count(i))
            .collect()
    }

    /// Diagnostic: per-instance (phase → count) summary of live requests.
    pub fn phase_summary(&self) -> Vec<HashMap<&'static str, usize>> {
        let mut out: Vec<HashMap<&'static str, usize>> = vec![HashMap::new(); self.instances.len()];
        for r in self.requests.values() {
            let name = match r.phase {
                Phase::Waiting => "waiting",
                Phase::Prefilling => "prefilling",
                Phase::Decoding => "decoding",
                Phase::Migrating => "migrating",
            };
            *out[r.instance].entry(name).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticPolicy;
    use crate::topology::{InstanceTopo, StageTopo};
    use hetis_cluster::cluster::paper_cluster;
    use hetis_cluster::GpuType;
    use hetis_parallel::StageConfig;
    use hetis_telemetry::TelemetryConfig;
    use hetis_workload::{DatasetKind, Request, SloClass, TenantId};

    /// Reads `key`'s value from a one-line JSON flow record.
    fn json_field<'a>(line: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\":");
        let rest = &line[line.find(&pat).expect("flow record field") + pat.len()..];
        &rest[..rest.find([',', '}']).expect("field ends")]
    }

    /// A request preempted after its first token keeps that token's time
    /// through the recompute re-prefill. Under atomic prefill a flow
    /// record's `first_chunk` is the time its prompt first finished
    /// prefilling, so every record of the JSONL flow log must carry
    /// `first_chunk == first_token` bit for bit (Rust prints floats so
    /// that they parse back exactly), and some record must show a
    /// re-prefill (`prefill_chunks >= 2`) after a preemption.
    #[test]
    fn first_token_fires_once_across_a_recompute_preemption() {
        // OPT-2.7B on one P100: the small KV pool cannot hold every
        // context as the decodes grow, so decoding requests are preempted.
        let cluster = paper_cluster();
        let model = hetis_model::opt_2_7b();
        let topo = Topology {
            instances: vec![InstanceTopo {
                stages: vec![StageTopo::plain(StageConfig {
                    devices: vec![cluster.devices_of_type(GpuType::P100)[0]],
                    layers: 32,
                })],
                role: InstanceRole::Both,
            }],
        };
        let requests = (0..24)
            .map(|i| Request {
                id: RequestId(i),
                arrival: 0.01 * i as f64,
                input_len: 512,
                output_len: 1024,
                class: SloClass::Batch,
                tenant: TenantId(0),
                session: None,
            })
            .collect();
        let trace = Trace::from_requests(requests, DatasetKind::ShareGpt);
        let path = std::env::temp_dir().join(format!(
            "hetis_engine_first_token_{}.jsonl",
            std::process::id()
        ));
        let cfg = EngineConfig {
            telemetry: Some(TelemetryConfig {
                sample_period: 0.0,
                jsonl_path: Some(path.to_str().expect("utf-8 temp path").to_string()),
                ..TelemetryConfig::full_run()
            }),
            drain_timeout: 3000.0,
            ..EngineConfig::default()
        };
        let policy = StaticPolicy::new("vllm-p100", topo);
        let report = run(policy, &cluster, &model, cfg, &trace);
        let text = std::fs::read_to_string(&path).expect("flow log written");
        std::fs::remove_file(&path).ok();
        assert_eq!(report.unfinished, 0);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), report.completed.len());
        let mut reprefilled = 0;
        for line in lines {
            let first_chunk: f64 = json_field(line, "first_chunk").parse().unwrap();
            let first_token: f64 = json_field(line, "first_token").parse().unwrap();
            assert_eq!(first_chunk.to_bits(), first_token.to_bits(), "{line}");
            let chunks: u32 = json_field(line, "prefill_chunks").parse().unwrap();
            let preemptions: u32 = json_field(line, "preemptions").parse().unwrap();
            if chunks >= 2 && preemptions > 0 {
                reprefilled += 1;
            }
        }
        assert!(
            reprefilled > 0,
            "no request was re-prefilled after a recompute preemption"
        );
    }
}
