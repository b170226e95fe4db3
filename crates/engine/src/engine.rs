//! The discrete-event serving engine.
//!
//! One [`Engine`] simulates a full serving deployment: arrivals enter
//! instance waiting queues, cohorts ("virtual engines", one per pipeline
//! stage) form prefill/decode microbatches under continuous batching,
//! stages execute as FIFO resources with calibrated timing, and the
//! plugged-in [`Policy`] decides placement, hand-offs, re-dispatching and
//! victims.

use crate::churn::{
    ClusterEvent, ClusterEventKind, DeviceHealth, HealthView, ReplanRecord, ReplanResponse,
};
use crate::config::{
    AdmissionPolicy, EngineConfig, BLOCK_SIZE, DECODE_HEADROOM_TOKENS, MAX_RUNNING,
};
use crate::control::ControlRecord;
use crate::memory::KvState;
use crate::metrics::{CompletedRequest, ModuleSample, RunReport, TraceSample};
use crate::policy::{Policy, PolicyCtx, VictimAction};
use crate::request::{Phase, RunningRequest};
use crate::stage::{fused_stage_breakdown, AttnLoad, StageBreakdown};
use crate::topology::{HeadPlacement, InstanceRole, Topology};
use hetis_cluster::{AttnWork, Cluster, DeviceId, MigrationStream};
use hetis_model::ModelSpec;
use hetis_parallel::{device_weight_bytes, InstanceConfig, ParallelConfig, PrefillBatch};
use hetis_sim::{Clock, EventQueue, FifoQueue, FxHashMap, SimTime};
use hetis_telemetry::{FlowCompletion, FlowEvent, FlowEventKind, TelemetryBus, TelemetrySnapshot};
use hetis_workload::{RequestId, Trace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

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
    /// ever scheduled when `EngineConfig::telemetry` is on with a
    /// positive `sample_period`; `events_processed` is not digested, so
    /// the extra events keep digests bit-identical.
    TelemetryTick,
}

/// One in-flight iteration of a cohort. Either side may be empty, not
/// both; both are populated only for a fused iteration
/// ([`EngineConfig::fused_microbatches`]).
#[derive(Debug, Clone)]
struct Ubatch {
    /// Prefill participants.
    reqs: Vec<RequestId>,
    /// Prompt tokens each prefill participant contributed to this
    /// iteration (parallel to `reqs` — a chunk under chunked prefill,
    /// the whole effective prompt otherwise).
    chunks: Vec<u32>,
    /// Decode participants.
    decode_reqs: Vec<RequestId>,
}

#[derive(Debug, Clone, Default)]
struct Cohort {
    /// Decoding-phase requests owned by this cohort.
    members: Vec<RequestId>,
    /// Requests mid-prefill in this cohort, in admission order. Under
    /// chunked prefill a request stays here across chunks; with atomic
    /// prefill it enters and leaves within one microbatch lifetime.
    prefilling: Vec<RequestId>,
    /// True when the last iteration this cohort executed carried a
    /// prefill chunk; the alternating disciplines give the next one to
    /// decode so a long chunked prompt cannot starve resident decodes
    /// (see [`Engine::decode_turn`]).
    last_carried_chunk: bool,
    in_flight: Option<Ubatch>,
    /// Incremental per-stage decode attention loads: for every pipeline
    /// stage, `device → (query heads, decode KV read bytes)` summed over
    /// the cohort's registered decoding members at their *current*
    /// context. All-integer accounting (heads are whole, the KV read is
    /// `groups × (ctx+1) × unit` bytes), so adds and removes are exact
    /// and the formed loads are bit-identical to a from-scratch rebuild
    /// — which `debug_assert` checks on every formation. Maintained on
    /// decode entry/exit, re-dispatch, eviction and per-token context
    /// growth; replaces the old O(batch × stages × placement-entries)
    /// rebuild in the decode hot loop.
    load: Vec<FxHashMap<DeviceId, (u64, u64)>>,
}

/// Admission-ordering key of one waiting request under
/// [`AdmissionPolicy::SloSlack`]: the *static* TTFT deadline
/// `arrival + target` (slack at any common `now` orders identically),
/// then arrival, then id — a total order, so heap pops reproduce the old
/// per-round full sort exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SlackKey {
    deadline: f64,
    arrival: f64,
    id: RequestId,
}

impl Eq for SlackKey {}

impl Ord for SlackKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Deadlines are finite-or-+inf and arrivals finite, so total_cmp
        // agrees with the partial order the sort-based code used.
        self.deadline
            .total_cmp(&other.deadline)
            .then(self.arrival.total_cmp(&other.arrival))
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for SlackKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An instance's admission queue. FIFO mode is the plain queue;
/// [`AdmissionPolicy::SloSlack`] keeps a deadline-keyed binary heap that
/// is maintained *incrementally* — the old implementation drained,
/// sorted and rebuilt the whole queue on every dispatch round (O(n log n)
/// per round), the heap pays O(log n) per enqueue instead.
///
/// `front` preserves the legacy requeue-at-front semantics: a blocked or
/// evicted request overrides the deadline order until the next dispatch
/// round folds it back into the heap (exactly when the old code's
/// re-sort would have re-ranked it).
#[derive(Debug)]
enum WaitQueue {
    Fifo(FifoQueue<RequestId>),
    Slack {
        heap: BinaryHeap<Reverse<SlackKey>>,
        front: VecDeque<SlackKey>,
    },
}

impl WaitQueue {
    fn new(admission: AdmissionPolicy) -> WaitQueue {
        match admission {
            AdmissionPolicy::Fifo => WaitQueue::Fifo(FifoQueue::new()),
            AdmissionPolicy::SloSlack => WaitQueue::Slack {
                heap: BinaryHeap::new(),
                front: VecDeque::new(),
            },
        }
    }

    fn enqueue(&mut self, key: SlackKey) {
        match self {
            WaitQueue::Fifo(q) => q.enqueue(key.id),
            WaitQueue::Slack { heap, .. } => heap.push(Reverse(key)),
        }
    }

    fn requeue_front(&mut self, key: SlackKey) {
        match self {
            WaitQueue::Fifo(q) => q.requeue_front(key.id),
            WaitQueue::Slack { front, .. } => front.push_front(key),
        }
    }

    fn dequeue(&mut self) -> Option<RequestId> {
        match self {
            WaitQueue::Fifo(q) => q.dequeue(),
            WaitQueue::Slack { heap, front } => front
                .pop_front()
                .map(|k| k.id)
                .or_else(|| heap.pop().map(|Reverse(k)| k.id)),
        }
    }

    fn peek(&self) -> Option<RequestId> {
        match self {
            WaitQueue::Fifo(q) => q.peek().copied(),
            WaitQueue::Slack { heap, front } => front
                .front()
                .map(|k| k.id)
                .or_else(|| heap.peek().map(|&Reverse(k)| k.id)),
        }
    }

    fn len(&self) -> usize {
        match self {
            WaitQueue::Fifo(q) => q.len(),
            WaitQueue::Slack { heap, front } => heap.len() + front.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds requeue-at-front overrides back into deadline order — the
    /// per-round O(k log n) replacement for the old full re-sort.
    fn merge_front(&mut self) {
        if let WaitQueue::Slack { heap, front } = self {
            for k in front.drain(..) {
                heap.push(Reverse(k));
            }
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
    /// Requests of this instance in a running phase (Prefilling /
    /// Decoding / Migrating), maintained incrementally on phase and
    /// instance transitions so admission never scans the request map.
    running: usize,
}

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
            topology: &$self.topo,
            prefill_chunk_tokens: $self.cfg.prefill_chunk_tokens,
        }
    };
}

/// The serving-engine simulator. Construct with [`run`] unless a test
/// needs step-level control.
pub struct Engine<'a, P: Policy> {
    cluster: &'a Cluster,
    model: &'a ModelSpec,
    cfg: EngineConfig,
    policy: P,
    topo: Topology,
    kv: KvState,
    requests: FxHashMap<RequestId, RunningRequest>,
    instances: Vec<InstanceState>,
    events: EventQueue<Event>,
    clock: Clock,
    migration: MigrationStream,
    trace_requests: Vec<hetis_workload::Request>,
    last_arrival: f64,
    // elasticity state
    health: Vec<DeviceHealth>,
    original_roles: Vec<InstanceRole>,
    churn: Vec<ClusterEvent>,
    /// In-flight requests whose churn eviction is pending at microbatch
    /// completion but already attributed to a ReplanRecord (guards
    /// against double-counting across overlapping device deaths).
    attributed_pending: Vec<RequestId>,
    // report accumulators
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
    /// Session-keyed warm-KV index ([`crate::prefix`]); only ever
    /// populated when `cfg.prefix_reuse` is set — otherwise every probe,
    /// registration and affinity check is gated off and the engine is
    /// bit-identical to one built before the cache existed.
    prefix: crate::prefix::PrefixCache,
    /// Admission-time cache probes (a waiting turn whose predecessor
    /// key was looked up; not digested, like `events_processed`).
    prefix_probes: u64,
    /// Probes that found a usable warm prefix and admitted with it.
    prefix_hits: u64,
    /// Prompt tokens skipped across all hits (never entered a prefill
    /// chunk — the paper-facing compute saving).
    prefix_hit_tokens: u64,
    /// KV bytes adopted warm across all hits (reserved without a
    /// prefill writing them — the memory-traffic saving).
    shared_kv_bytes: u64,
    /// Streaming telemetry bus (`None` = disabled; every tap is a no-op
    /// and no event/ring/aggregator exists — the zero-cost contract).
    telemetry: Option<TelemetryBus>,
    /// `Sample` + `TelemetryTick` events currently queued (each chain
    /// holds at most one). The liveness guard subtracts these so the two
    /// sampler chains cannot keep *each other* alive until the drain
    /// deadline after the last request completes.
    sampling_pending: u32,
    // closed-loop actuation state (all inert unless `cfg.closed_loop`)
    /// When set, non-protected-class admissions are deferred back to the
    /// waiting queue (closed-loop throttle actuation).
    throttle_admission: bool,
    /// Temporary chunk-token cap tightening `cfg.prefill_chunk_tokens`
    /// (closed-loop pacing actuation; ignored under atomic prefill).
    pace_chunk_tokens: Option<u64>,
    /// Every applied control action, tick-stamped — `RunReport::control_log`.
    control_log: Vec<ControlRecord>,
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
    pub fn new_with_churn(
        policy: P,
        cluster: &'a Cluster,
        model: &'a ModelSpec,
        cfg: EngineConfig,
        topo: Topology,
        trace: &Trace,
        churn: &[ClusterEvent],
    ) -> Self {
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

        let instances = topo
            .instances
            .iter()
            .map(|i| InstanceState {
                waiting: WaitQueue::new(cfg.admission),
                pending_handoff: FifoQueue::new(),
                cohorts: (0..i.depth())
                    .map(|_| Cohort {
                        load: vec![FxHashMap::default(); i.depth()],
                        ..Cohort::default()
                    })
                    .collect(),
                stage_free_at: vec![SimTime::ZERO; i.depth()],
                running: 0,
            })
            .collect();

        let mut events = EventQueue::new();
        for (i, _) in trace.requests().iter().enumerate() {
            events.schedule(
                SimTime::from_secs(trace.requests()[i].arrival),
                Event::Arrival(i),
            );
        }
        for (i, ev) in churn.iter().enumerate() {
            events.schedule(SimTime::from_secs(ev.time), Event::ClusterChange(i));
        }
        let last_arrival = trace.horizon();
        let mut sampling_pending = 0u32;
        if cfg.trace_sample_period > 0.0 {
            events.schedule(SimTime::from_secs(cfg.trace_sample_period), Event::Sample);
            sampling_pending += 1;
        }
        // Telemetry (off by default): build the bus up front so the ring
        // never reallocates mid-run, and seed the periodic tick.
        let telemetry = cfg.telemetry.as_ref().map(|t| {
            TelemetryBus::new(t, topo.instances.len()).expect("telemetry sink path unwritable")
        });
        if let Some(t) = &cfg.telemetry {
            if t.sample_period > 0.0 {
                events.schedule(SimTime::from_secs(t.sample_period), Event::TelemetryTick);
                sampling_pending += 1;
            }
        }
        // Closed-loop control rides the telemetry tick: without a bus and
        // a periodic tick the controller would never observe anything.
        if cfg.closed_loop.is_some() {
            let ticking = cfg
                .telemetry
                .as_ref()
                .map(|t| t.sample_period > 0.0)
                .unwrap_or(false);
            assert!(
                ticking,
                "EngineConfig::closed_loop requires telemetry with a positive sample_period \
                 (the control loop is telemetry-tick-edge driven)"
            );
        }

        let original_roles = topo.instances.iter().map(|i| i.role).collect();
        let mut engine = Engine {
            cluster,
            model,
            cfg,
            policy,
            topo,
            kv,
            requests: FxHashMap::default(),
            instances,
            events,
            clock: Clock::new(),
            migration: MigrationStream::new(),
            trace_requests: trace.requests().to_vec(),
            last_arrival,
            health: vec![DeviceHealth::NOMINAL; cluster.len()],
            original_roles,
            churn: churn.to_vec(),
            attributed_pending: Vec::new(),
            completed: Vec::new(),
            module_samples: Vec::new(),
            trace_samples: Vec::new(),
            preemptions: 0,
            migrations: 0,
            migrated_bytes: 0.0,
            replans: Vec::new(),
            lost_tokens: 0,
            churn_evictions: 0,
            prefill_tokens: 0,
            prefill_iterations: 0,
            max_prefill_iter_tokens: 0,
            events_processed: 0,
            peak_kv_reserved_bytes: 0,
            fused_iterations: 0,
            kv_growths: 0,
            kv_grow_failures: 0,
            prefix: crate::prefix::PrefixCache::new(cluster.len()),
            prefix_probes: 0,
            prefix_hits: 0,
            prefix_hit_tokens: 0,
            shared_kv_bytes: 0,
            telemetry,
            sampling_pending,
            throttle_admission: false,
            pace_chunk_tokens: None,
            control_log: Vec::new(),
            rehomed: Vec::new(),
        };
        // Late joiners: a device whose first scheduled event is a Join is
        // absent at startup.
        let mut seen: Vec<DeviceId> = Vec::new();
        let mut late: Vec<DeviceId> = Vec::new();
        for ev in &engine.churn {
            if !seen.contains(&ev.device) {
                seen.push(ev.device);
                if ev.kind == ClusterEventKind::Join {
                    late.push(ev.device);
                }
            }
        }
        for dev in late {
            engine.health[dev.index()] = DeviceHealth::Dead;
            engine.enforce_device_death(dev);
        }
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
        let deadline = self.last_arrival + self.cfg.drain_timeout;
        let Some((at, event)) = self.events.pop() else {
            return false;
        };
        if at.as_secs() > deadline {
            return false;
        }
        self.clock.advance_to(at);
        self.events_processed += 1;
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

    /// Publishes one flow event on the telemetry bus; a no-op when
    /// telemetry is disabled. The event kind is a `Copy` struct built on
    /// the caller's stack — the disabled path constructs and discards it
    /// without touching the heap.
    #[inline]
    fn tap(&mut self, kind: FlowEventKind) {
        if let Some(bus) = self.telemetry.as_mut() {
            bus.publish(FlowEvent {
                time: self.clock.now().as_secs(),
                kind,
            });
        }
    }

    /// Live telemetry query handle: a point-in-time snapshot of the
    /// bus's aggregates (`None` when telemetry is disabled).
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry
            .as_ref()
            .map(|bus| bus.snapshot(self.clock.now().as_secs()))
    }

    /// Periodic telemetry sample: per-instance queue depth / running
    /// count and cluster-wide KV occupancy, rescheduled while anything
    /// remains to happen (the same liveness guard as [`Self::on_sample`]).
    fn on_telemetry_tick(&mut self) {
        let now = self.clock.now().as_secs();
        let depths: Vec<(u32, u32, u32)> = self
            .instances
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.waiting.len() as u32, s.running as u32))
            .collect();
        let mut used = 0u64;
        let mut pool = 0u64;
        for d in 0..self.kv.len() {
            let kv = self.kv.device(DeviceId(d as u32));
            used += kv.used_bytes();
            pool += kv.pool_bytes();
        }
        let bus = self.telemetry.as_mut().expect("tick only fires enabled");
        for (instance, waiting, running) in depths {
            bus.publish(FlowEvent {
                time: now,
                kind: FlowEventKind::QueueDepth {
                    instance,
                    waiting,
                    running,
                },
            });
        }
        bus.publish(FlowEvent {
            time: now,
            kind: FlowEventKind::KvOccupancy {
                used_bytes: used,
                pool_bytes: pool,
            },
        });
        if self.work_remains() {
            let period = self
                .cfg
                .telemetry
                .as_ref()
                .expect("tick only fires enabled")
                .sample_period;
            self.events
                .schedule(self.clock.now() + period, Event::TelemetryTick);
            self.sampling_pending += 1;
        }
        // Closed-loop control: the fresh samples above are part of the
        // snapshot the controller sees this tick.
        if self.cfg.closed_loop.is_some() {
            self.control_tick();
        }
    }

    /// One closed-loop control step at a telemetry tick edge: snapshot
    /// the bus, ask the policy for actuations, apply them. A no-op
    /// response returns before touching any engine state — including the
    /// dispatch sweep — so a quiet controller is digest-neutral.
    fn control_tick(&mut self) {
        let now = self.clock.now().as_secs();
        let snapshot = self
            .telemetry
            .as_ref()
            .expect("closed loop requires telemetry")
            .snapshot(now);
        let closed_loop = self.cfg.closed_loop.clone().expect("gated by caller");
        let health_view = HealthView::new(self.health.clone());
        let response =
            self.policy
                .on_telemetry_tick(&snapshot, &closed_loop, &health_view, &ctx!(self));
        if response.is_noop() {
            return;
        }
        for &action in &response.actions {
            self.control_log.push(ControlRecord { time: now, action });
        }
        if let Some(flag) = response.throttle {
            self.throttle_admission = flag;
        }
        if let Some(cap) = response.pace_chunk_tokens {
            self.pace_chunk_tokens = cap;
        }
        // Scale actuations take the cluster-change replan path: capacity
        // changes are not free in the closed loop either.
        match response.replan {
            Some(replan) => self.apply_replan(replan_record(now, "scale(closed-loop)"), replan),
            None => self.dispatch_all(),
        }
    }

    /// Applies a policy's replan — the answer to a cluster change or a
    /// closed-loop scale actuation — and logs it in `record`: swaps in the
    /// new topology, starts the drain migrations best-effort, charges the
    /// planning stall to every pipeline (nothing new starts until the plan
    /// is out), then re-runs dispatch everywhere.
    fn apply_replan(&mut self, mut record: ReplanRecord, response: ReplanResponse) {
        record.replan_latency = response.replan_latency.max(0.0);
        if let Some(topo) = response.new_topology {
            self.apply_replan_topology(topo);
            record.replanned = true;
        }
        for op in response.migrations {
            if self.execute_redispatch(op.req, op.new_placement) {
                record.migrations_started += 1;
            }
        }
        if record.replan_latency > 0.0 {
            let stall_until = SimTime::from_secs(record.time + record.replan_latency);
            for inst in self.instances.iter_mut() {
                for t in inst.stage_free_at.iter_mut() {
                    *t = (*t).max(stall_until);
                }
            }
        }
        self.replans.push(record);
        self.dispatch_all();
    }

    /// Runs dispatch on every instance — after anything that may have
    /// re-homed requests onto instances with no event of their own.
    fn dispatch_all(&mut self) {
        for i in 0..self.instances.len() {
            self.try_dispatch(i);
        }
    }

    /// Records the cluster-wide reserved-KV high-water mark. Called from
    /// the paths that *allocate* KV (admission, reservation growth,
    /// decode appends, re-dispatch grows) and — because decode batches
    /// sample their appends once at the end, after victim evictions may
    /// already have freed memory — also at the top of every *release*
    /// path (eviction, churn eviction, completion) while the departing
    /// KV is still resident. Without the release-site samples a
    /// free-then-grow interleaving inside one batch could hide the true
    /// peak. Frees can only lower usage, so these two families of call
    /// sites bound the peak exactly without an O(#devices) sweep on
    /// every event of the hot loop.
    fn note_kv_peak(&mut self) {
        let used: u64 = (0..self.kv.len())
            .map(|d| self.kv.device(DeviceId(d as u32)).used_bytes())
            .sum();
        self.peak_kv_reserved_bytes = self.peak_kv_reserved_bytes.max(used);
    }

    /// Consumes the engine into its report.
    pub fn into_report(mut self) -> RunReport {
        // Final telemetry state: flush sinks, take the end-of-run
        // snapshot, and surface the ring-wrap drop counter. Both fields
        // are `None`/0 when telemetry is disabled and neither is folded
        // into the digest (the `events_processed` convention).
        let now = self.clock.now().as_secs();
        let (telemetry_dropped, telemetry) = match self.telemetry.take() {
            Some(mut bus) => {
                bus.flush();
                (bus.dropped(), Some(bus.snapshot(now)))
            }
            None => (0, None),
        };
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
        let unfinished = self
            .requests
            .values()
            .filter(|r| r.phase != Phase::Done)
            .count();
        RunReport {
            policy: self.policy.name(),
            completed: self.completed,
            unfinished,
            module_samples: self.module_samples,
            trace: self.trace_samples,
            duration: self.clock.now().as_secs(),
            total_kv_pool_bytes,
            usable_kv_bytes,
            preemptions: self.preemptions,
            migrations: self.migrations,
            migrated_bytes: self.migrated_bytes,
            replans: self.replans,
            lost_tokens: self.lost_tokens,
            churn_evictions: self.churn_evictions,
            prefill_tokens: self.prefill_tokens,
            prefill_iterations: self.prefill_iterations,
            max_prefill_iter_tokens: self.max_prefill_iter_tokens,
            events_processed: self.events_processed,
            peak_kv_reserved_bytes: self.peak_kv_reserved_bytes,
            fused_iterations: self.fused_iterations,
            kv_growths: self.kv_growths,
            kv_grow_failures: self.kv_grow_failures,
            prefix_probes: self.prefix_probes,
            prefix_hits: self.prefix_hits,
            prefix_hit_tokens: self.prefix_hit_tokens,
            shared_kv_bytes: self.shared_kv_bytes,
            telemetry_dropped,
            telemetry,
            control_log: self.control_log,
            // Cost accounting is attached post-run by a cost meter (the
            // engine itself never bills anything).
            cost: None,
        }
    }

    // ------------------------------------------------------------- events

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
        self.instances[inst].waiting.enqueue(slack_key(&req));
        self.tap(FlowEventKind::Arrival {
            req: req.id,
            class: req.class,
            tenant: req.tenant,
            instance: inst as u32,
        });
        self.try_dispatch(inst);
    }

    /// The instance holding a warm prefix for `req`'s session, when
    /// prefix reuse is on, the previous turn's entry exists and that
    /// instance can still serve. `None` falls through to policy routing.
    fn prefix_affinity(&self, req: &hetis_workload::Request) -> Option<usize> {
        if !self.cfg.prefix_reuse {
            return None;
        }
        let st = req.session?;
        if st.turn == 0 {
            return None;
        }
        let e = self.prefix.get(st.session, st.turn - 1)?;
        (self.topo.instances[e.instance].role != InstanceRole::Down).then_some(e.instance)
    }

    /// Routes via the policy, overriding picks that land on a Down
    /// instance (a static policy may not know about churn). When no
    /// instance can accept work at all, the request parks on `park` —
    /// policies are never asked to route into a fully-down cluster.
    fn route_surviving(&mut self, req: hetis_workload::Request, park: usize) -> usize {
        let entries = self.topo.entry_instances();
        let Some(&fallback) = entries.first() else {
            return park;
        };
        let inst = self.policy.route(&req, &ctx!(self));
        assert!(inst < self.instances.len(), "routed to unknown instance");
        if self.topo.instances[inst].role != InstanceRole::Down {
            return inst;
        }
        fallback
    }

    fn on_ubatch_done(&mut self, inst: usize, cohort: usize) {
        let now = self.clock.now().as_secs();
        let ub = self.instances[inst].cohorts[cohort]
            .in_flight
            .take()
            .expect("completion without in-flight microbatch");
        let mut evicted_any = false;
        // Prefill participants first (chunk bookkeeping, prefill→decode
        // transitions), then decode participants — within one fused
        // iteration the order is immaterial (both sets are disjoint and
        // complete at the same simulated instant).
        for (rid, chunk) in ub.reqs.into_iter().zip(ub.chunks) {
            let invalidated = self.churn_invalidated(rid);
            let r = self.requests.get_mut(&rid).expect("live request");
            r.in_flight = false;
            if invalidated {
                // The instance died or the KV landed (partly) on a
                // dead device mid-flight: the prefill is lost.
                self.churn_evict(rid);
                evicted_any = true;
                continue;
            }
            let prior = r.prefilled;
            r.prefilled += chunk;
            let mid_prefill = r.prefilled < r.effective_input;
            self.tap(FlowEventKind::PrefillChunk {
                req: rid,
                instance: inst as u32,
                chunk_tokens: chunk,
                prior_tokens: prior,
            });
            if mid_prefill {
                // Mid-chunked-prefill: the request stays in the
                // cohort's prefilling set; its next chunk forms in
                // a later iteration (alternating with decode, or fused
                // alongside it).
                continue;
            }
            let r = self.requests.get_mut(&rid).expect("live request");
            r.push_token(now);
            let complete = r.is_complete();
            let first_token = r.token_times.len() == 1;
            self.remove_cohort_member(inst, rid);
            if first_token {
                self.tap(FlowEventKind::FirstToken {
                    req: rid,
                    instance: inst as u32,
                });
            }
            if complete {
                self.finish(rid);
                continue;
            }
            let handoff = self.policy.after_prefill(inst, rid, &ctx!(self));
            match handoff {
                Some(h) => self.start_handoff(rid, h.target_instance),
                None => self.start_decoding_after_scatter(rid, inst, cohort),
            }
        }
        for rid in ub.decode_reqs {
            let invalidated = self.churn_invalidated(rid);
            let r = self.requests.get_mut(&rid).expect("live request");
            r.in_flight = false;
            if invalidated {
                self.churn_evict(rid);
                evicted_any = true;
                continue;
            }
            r.push_token(now);
            let complete = r.is_complete();
            // The context grew a token: mirror it into the incremental
            // load table before any removal reads the new state.
            if self.requests[&rid].in_load_table {
                self.load_table_bump_ctx(inst, rid);
            }
            if complete {
                self.finish(rid);
            }
        }
        if evicted_any {
            // Churn evictions re-home requests onto other instances, which
            // may be idle with no scheduled events — kick them all.
            self.dispatch_all();
        } else {
            self.try_dispatch(inst);
        }
    }

    fn on_migration_done(&mut self, rid: RequestId, epoch: u32) {
        let Some(r) = self.requests.get_mut(&rid) else {
            return;
        };
        if r.phase != Phase::Migrating || r.migration_epoch != epoch {
            return;
        }
        r.phase = Phase::Decoding;
        r.migration_sources.clear();
        let inst = r.instance;
        self.ensure_cohort_member(inst, rid);
        self.load_table_add(inst, rid);
        self.try_dispatch(inst);
    }

    fn on_sample(&mut self) {
        let now = self.clock.now().as_secs();
        let r = self.model.gqa_ratio();
        let devices = self
            .cluster
            .devices()
            .iter()
            .map(|d| {
                let kv = self.kv.device(d.id);
                (d.id, kv.utilization(), kv.resident_query_heads(r))
            })
            .collect();
        self.trace_samples.push(TraceSample { time: now, devices });
        // Keep sampling while anything remains to happen.
        if self.work_remains() {
            self.events.schedule(
                self.clock.now() + self.cfg.trace_sample_period,
                Event::Sample,
            );
            self.sampling_pending += 1;
        }
    }

    /// True while anything beyond pure sampling remains to happen: a
    /// live request, or a queued event that is not itself a sampler.
    /// `Sample` and `TelemetryTick` both reschedule under this guard;
    /// counting them out keeps the two chains from treating each other
    /// as pending work and ticking on until the drain deadline.
    fn work_remains(&self) -> bool {
        self.requests.values().any(|r| r.phase != Phase::Done)
            || self.events.len() > self.sampling_pending as usize
    }

    // ------------------------------------------------------------- churn

    fn on_cluster_change(&mut self, idx: usize) {
        let ev = self.churn[idx].clone();
        let now = self.clock.now().as_secs();
        let mut record = replan_record(now, ev.label());
        match ev.kind {
            ClusterEventKind::Fail => {
                if self.health[ev.device.index()] != DeviceHealth::Dead {
                    self.health[ev.device.index()] = DeviceHealth::Dead;
                    self.kill_device(ev.device, &mut record);
                }
            }
            ClusterEventKind::PreemptNotice { notice } => {
                if let DeviceHealth::Alive { factor } = self.health[ev.device.index()] {
                    let deadline = now + notice.max(0.0);
                    self.health[ev.device.index()] = DeviceHealth::Draining { deadline, factor };
                    self.events.schedule(
                        SimTime::from_secs(deadline),
                        Event::DrainDeadline(ev.device),
                    );
                }
            }
            ClusterEventKind::Join => {
                self.health[ev.device.index()] = DeviceHealth::NOMINAL;
                self.try_revive_instances();
                // Requests parked on instances that stayed Down can now
                // re-route to the revived capacity.
                self.reroute_down_instances(&mut record);
            }
            ClusterEventKind::Slowdown { factor } => match &mut self.health[ev.device.index()] {
                DeviceHealth::Alive { factor: f } | DeviceHealth::Draining { factor: f, .. } => {
                    *f = factor.max(1.0)
                }
                DeviceHealth::Dead => {}
            },
            ClusterEventKind::Restore => match &mut self.health[ev.device.index()] {
                DeviceHealth::Alive { factor: f } | DeviceHealth::Draining { factor: f, .. } => {
                    *f = 1.0
                }
                DeviceHealth::Dead => {}
            },
        }

        // Policy hook: the topology is already pruned, health is current.
        let health_view = HealthView::new(self.health.clone());
        let response = self
            .policy
            .on_cluster_change(&ev, &health_view, &ctx!(self));
        self.apply_replan(record, response);
    }

    fn on_drain_deadline(&mut self, dev: DeviceId) {
        // A Join may have cancelled the drain in the meantime.
        if !matches!(self.health[dev.index()], DeviceHealth::Draining { .. }) {
            return;
        }
        self.health[dev.index()] = DeviceHealth::Dead;
        let mut record = replan_record(self.clock.now().as_secs(), format!("revoke({dev})"));
        self.kill_device(dev, &mut record);
        self.apply_replan(record, ReplanResponse::default());
    }

    /// Forced bookkeeping of a device death: prune it from worker lists,
    /// mark instances that lost a primary as Down, and recompute-preempt
    /// every request whose KV or placement touched it.
    fn kill_device(&mut self, dev: DeviceId, record: &mut ReplanRecord) {
        self.enforce_device_death(dev);

        let mut affected: Vec<RequestId> = self
            .requests
            .iter()
            .filter(|(_, r)| r.phase != Phase::Done && r.phase != Phase::Waiting)
            .filter(|(rid, r)| {
                self.kv.device(dev).request_bytes(**rid) > 0
                    || r.placement
                        .as_ref()
                        .map(|p| p.devices().contains(&dev))
                        .unwrap_or(false)
                    || (r.phase == Phase::Migrating && r.migration_sources.contains(&dev))
            })
            .map(|(rid, _)| *rid)
            .collect();
        affected.sort();
        self.churn_evict_all(affected, record);
        self.reroute_down_instances(record);
    }

    /// Churn-evicts `rids` in order into `record`: idle requests now,
    /// in-flight ones when their microbatch completes. An in-flight loss
    /// is certain (the KV is already gone), so it is attributed to this
    /// record now — once, even when several deaths hit the same request.
    fn churn_evict_all(
        &mut self,
        rids: impl IntoIterator<Item = RequestId>,
        record: &mut ReplanRecord,
    ) {
        for rid in rids {
            let r = &self.requests[&rid];
            let lost = (r.req.input_len + r.generated) as u64;
            if !r.in_flight {
                self.churn_evict(rid);
            } else if self.attributed_pending.contains(&rid) {
                continue;
            } else {
                self.attributed_pending.push(rid);
            }
            record.evicted += 1;
            record.lost_tokens += lost;
        }
    }

    /// Prunes `dev` from every attention-worker list and downs instances
    /// whose primary TP group contains it. Cached prefixes are dropped
    /// wholesale: warm KV on a dead device is gone, and the reshaped
    /// worker pools may invalidate any cached placement.
    fn enforce_device_death(&mut self, dev: DeviceId) {
        self.prefix.clear();
        for inst in self.topo.instances.iter_mut() {
            for s in inst.stages.iter_mut() {
                s.attention_workers.retain(|&d| d != dev);
            }
            if inst.role != InstanceRole::Down
                && inst.stages.iter().any(|s| s.primary.devices.contains(&dev))
            {
                inst.role = InstanceRole::Down;
            }
        }
    }

    /// Moves every request parked on a Down instance to a surviving one.
    fn reroute_down_instances(&mut self, record: &mut ReplanRecord) {
        for i in 0..self.topo.instances.len() {
            if self.topo.instances[i].role != InstanceRole::Down {
                continue;
            }
            // Waiting queue: re-route without counting an eviction (no KV
            // was lost).
            let mut queued: Vec<RequestId> = Vec::new();
            while let Some(rid) = self.instances[i].waiting.dequeue() {
                queued.push(rid);
            }
            for rid in queued {
                let req = self.requests[&rid].req;
                let inst = self.route_surviving(req, i);
                if inst == i {
                    // Nowhere to go (whole cluster down): park it back.
                    self.instances[i].waiting.enqueue(slack_key(&req));
                    continue;
                }
                self.requests.get_mut(&rid).expect("live").instance = inst;
                self.instances[inst].waiting.enqueue(slack_key(&req));
            }
            // Hand-offs blocked on this instance lose their transfer.
            // Entries can be stale — the request may have been
            // churn-evicted (and even re-admitted elsewhere) since it
            // parked — so apply the same staleness filter the
            // drain-time retry (`try_start_handoff_transfer`) uses:
            // only a genuinely parked hand-off (Migrating, idle,
            // placed) is evicted here.
            while let Some(rid) = self.instances[i].pending_handoff.dequeue() {
                let r = &self.requests[&rid];
                if r.phase == Phase::Migrating && !r.in_flight && r.placement.is_some() {
                    self.churn_evict_all([rid], record);
                }
            }
            // Remaining residents (decoding / migrating / parked between
            // prefill chunks, or in flight) — all hold KV here.
            let mut residents: Vec<RequestId> = self
                .requests
                .iter()
                .filter(|(_, r)| {
                    r.instance == i && !matches!(r.phase, Phase::Waiting | Phase::Done)
                })
                .map(|(rid, _)| *rid)
                .collect();
            residents.sort();
            self.churn_evict_all(residents, record);
        }
    }

    /// Recompute-preempts `rid` because of churn: its KV is freed
    /// everywhere, the lost context is accounted, and it re-queues on a
    /// surviving instance.
    fn churn_evict(&mut self, rid: RequestId) {
        self.attributed_pending.retain(|&p| p != rid);
        let (old_inst, lost) = self.release_preempted(rid);
        self.churn_evictions += 1;
        self.lost_tokens += lost;
        let req = self.requests[&rid].req;
        let inst = self.route_surviving(req, old_inst);
        self.requests.get_mut(&rid).expect("live").instance = inst;
        self.instances[inst].waiting.enqueue(slack_key(&req));
    }

    /// After a Join: instances whose full primary group is healthy again
    /// come back with their original role (weights are assumed to reload
    /// during the policy's replan latency).
    fn try_revive_instances(&mut self) {
        for (k, inst) in self.topo.instances.iter_mut().enumerate() {
            if inst.role == InstanceRole::Down
                && inst.stages.iter().all(|s| {
                    s.primary
                        .devices
                        .iter()
                        .all(|&d| self.health[d.index()].accepts_kv())
                })
            {
                inst.role = self.original_roles[k];
            }
        }
    }

    /// True when `rid` can no longer keep its KV/placement: its instance
    /// went Down or a device of its placement died.
    fn churn_invalidated(&self, rid: RequestId) -> bool {
        let r = &self.requests[&rid];
        if self.topo.instances[r.instance].role == InstanceRole::Down {
            return true;
        }
        r.placement
            .as_ref()
            .map(|p| {
                p.devices()
                    .iter()
                    .any(|&d| !self.health[d.index()].is_serving())
            })
            .unwrap_or(false)
    }

    /// Installs a policy-supplied replan topology. Primary stages of every
    /// instance must be unchanged (weights cannot teleport); roles stay
    /// engine-owned; worker lists are sanitized against health.
    fn apply_replan_topology(&mut self, mut new: Topology) {
        assert_eq!(
            new.instances.len(),
            self.topo.instances.len(),
            "replan cannot change the instance count"
        );
        for (k, (old_i, new_i)) in self
            .topo
            .instances
            .iter()
            .zip(new.instances.iter_mut())
            .enumerate()
        {
            assert_eq!(
                old_i.stages.len(),
                new_i.stages.len(),
                "replan cannot change pipeline depth (instance {k})"
            );
            for (old_s, new_s) in old_i.stages.iter().zip(new_i.stages.iter_mut()) {
                assert_eq!(
                    old_s.primary, new_s.primary,
                    "replan must preserve primary stages (instance {k})"
                );
                new_s
                    .attention_workers
                    .retain(|&d| self.health[d.index()].accepts_kv());
            }
            new_i.role = old_i.role;
        }
        self.topo = new;
        // Reshaped worker pools can invalidate cached prefix placements;
        // drop them wholesale.
        self.prefix.clear();
    }

    /// Slowdown factor of stage `s` for one iteration: the slowest of its
    /// primary TP group and every device carrying decode attention work
    /// in `loads`.
    fn slow_factor(&self, inst: usize, s: usize, loads: &[AttnLoad]) -> f64 {
        let primaries = self.topo.instances[inst].stages[s].primary.devices.iter();
        let workers = loads
            .iter()
            .filter(|l| l.work.query_heads > 0.0)
            .map(|l| &l.device);
        primaries
            .chain(workers)
            .map(|d| self.health[d.index()].factor())
            .fold(1.0, f64::max)
    }

    // ---------------------------------------------------------- dispatch

    fn try_dispatch(&mut self, inst: usize) {
        if self.topo.instances[inst].role == InstanceRole::Down {
            return;
        }
        self.drain_pending_handoffs(inst);

        // Re-dispatch hook (Hetis §5.3) before forming decode batches.
        if self.topo.instances[inst].role != InstanceRole::PrefillOnly {
            let ops = self.policy.before_decode(inst, &ctx!(self));
            for op in ops {
                self.execute_redispatch(op.req, op.new_placement);
            }
        }

        // Slack-ordered admission: the queue is a deadline-keyed heap
        // maintained incrementally on enqueue; the only per-round work is
        // folding requeue-at-front overrides back into deadline order
        // (no-op under FIFO). The cohort loop below only dequeues from
        // the front and re-queues blocked prefixes in order, both of
        // which preserve the admission order.
        self.instances[inst].waiting.merge_front();

        for c in 0..self.topo.instances[inst].depth() {
            if self.instances[inst].cohorts[c].in_flight.is_none() {
                self.form_iteration(inst, c);
            }
        }
        while let Some(i) = self.rehomed.pop() {
            self.try_dispatch(i);
        }
    }

    /// Forms and schedules the cohort's next iteration: the one iteration
    /// former behind every prefill mode. The modes differ only in the
    /// chunk cap and KV reservation (see [`Self::collect_prefill_entries`])
    /// and in whether the decode batch rides with the chunk:
    ///
    /// * atomic — prefill priority: a decode iteration forms only when no
    ///   prefill work can;
    /// * chunked — the same, except that a decode iteration follows every
    ///   chunk while chunks and decodes are both pending
    ///   ([`Self::decode_turn`]);
    /// * fused — the decode batch rides every chunk. While closed-loop
    ///   pacing is engaged, fused iterations alternate like chunked ones
    ///   and a chunk backlog above the pace cap runs without the decode
    ///   batch.
    ///
    /// Each collector reserves KV as a side effect, so the decode turn is
    /// decided before either runs, and the paced backlog test before the
    /// decode batch is collected.
    fn form_iteration(&mut self, inst: usize, cohort: usize) {
        let fused = self.cfg.fused_microbatches && self.cfg.prefill_chunk_tokens.is_some();
        let alternate = !fused || self.pace_chunk_tokens.is_some();
        if alternate && self.decode_turn(inst, cohort) {
            if let Some(decode) = self.collect_decode_batch(inst, cohort) {
                self.schedule_iteration(inst, cohort, Vec::new(), decode);
                return;
            }
        }
        let entries = self.collect_prefill_entries(inst, cohort);
        let backlog: u64 = entries.iter().map(|&(_, chunk, _)| chunk).sum();
        let rides = fused && self.pace_chunk_tokens.is_none_or(|cap| backlog <= cap);
        let decode = if entries.is_empty() || rides {
            self.collect_decode_batch(inst, cohort)
        } else {
            None
        };
        if !entries.is_empty() || decode.is_some() {
            self.schedule_iteration(inst, cohort, entries, decode.unwrap_or_default());
        }
    }

    /// True when the cohort's last iteration carried a chunk, a resident
    /// prompt still has chunks left and decodes are ready: an alternating
    /// former then gives this iteration to decode — one chunk, one decode
    /// iteration — instead of letting the prefill monopolize the cohort.
    /// Never true under atomic prefill, where no prompt outlives one
    /// iteration.
    fn decode_turn(&self, inst: usize, cohort: usize) -> bool {
        let co = &self.instances[inst].cohorts[cohort];
        co.last_carried_chunk
            && co.prefilling.iter().any(|rid| {
                let r = &self.requests[rid];
                r.phase == Phase::Prefilling && !r.in_flight && r.remaining_prefill() > 0
            })
            && co
                .members
                .iter()
                .any(|rid| self.requests[rid].phase == Phase::Decoding)
    }

    /// Requests of `inst` in a running phase, O(1): the per-instance
    /// counter replaces the old scan over every live request (which made
    /// each admission round O(#requests) and dominated large-trace runs).
    /// Counter maintenance sites: admission (`collect_prefill_entries`),
    /// completion (`finish`), preemption (`release_preempted`) and the
    /// hand-off instance move (`try_start_handoff_transfer`).
    fn running_count(&self, inst: usize) -> usize {
        debug_assert_eq!(
            self.instances[inst].running,
            self.scan_running(inst),
            "running counter drifted for instance {inst}"
        );
        self.instances[inst].running
    }

    /// The old O(#requests) definition, kept as the debug-mode oracle the
    /// incremental counter is checked against (release builds compile the
    /// `debug_assert_eq!` away).
    fn scan_running(&self, inst: usize) -> usize {
        self.requests
            .values()
            .filter(|r| {
                r.instance == inst
                    && matches!(
                        r.phase,
                        Phase::Prefilling | Phase::Decoding | Phase::Migrating
                    )
            })
            .count()
    }

    /// Marks one request of `inst` as entering a running phase.
    fn running_inc(&mut self, inst: usize) {
        self.instances[inst].running += 1;
    }

    /// Marks one request of `inst` as leaving a running phase.
    fn running_dec(&mut self, inst: usize) {
        debug_assert!(self.instances[inst].running > 0, "running underflow");
        self.instances[inst].running -= 1;
    }

    /// Probes the prefix cache for admission candidate `rid` on `inst`.
    /// Returns the hit's cache key and warm token count — the prompt
    /// span whose KV is adopted without recompute — or `None` on any
    /// miss condition. Only first-admission, never-preempted turns
    /// probe: a recompute preemption regrows the whole context, and the
    /// cached entry only matches the original prompt bytes.
    ///
    /// The probe runs the lazy pressure sweep first: cached prefixes
    /// live in *free* memory, so a device whose free pool shrank below
    /// its cached total has physically overwritten the oldest entries.
    fn probe_prefix(&mut self, rid: RequestId, inst: usize) -> Option<((u64, u32), u32)> {
        if !self.cfg.prefix_reuse {
            return None;
        }
        let (st, eff) = {
            let r = &self.requests[&rid];
            if r.prefilled != 0 || r.preemptions != 0 || r.placement.is_some() {
                return None;
            }
            (r.req.session?, r.effective_input)
        };
        if st.turn == 0 {
            return None;
        }
        let key = (st.session, st.turn - 1);
        self.prefix_probes += 1;
        let devices: Vec<DeviceId> = self.prefix.get(key.0, key.1)?.devices().collect();
        for &d in &devices {
            let free = self.kv.device(d).free_bytes();
            self.prefix.enforce_pressure(d, free);
        }
        let e = self.prefix.get(key.0, key.1)?; // may have just been evicted
        if e.instance != inst || self.topo.instances[e.instance].role == InstanceRole::Down {
            return None;
        }
        if e.placement
            .devices()
            .iter()
            .any(|&d| !self.health[d.index()].accepts_kv())
        {
            return None;
        }
        // Block-floor the warm span (partial blocks are recomputed, as
        // in block-granular radix caches) and keep ≥ 1 cold token so the
        // final chunk still runs attention and emits the first token.
        let warm = (e.tokens.min(eff.saturating_sub(1)) / BLOCK_SIZE) * BLOCK_SIZE;
        if warm == 0 {
            return None;
        }
        Some((key, warm))
    }

    /// Selects this cohort's prefill work — continuing chunks of
    /// mid-prefill residents first (admission order), then new admissions
    /// under the remaining budget — and commits the per-request state
    /// (phase, cohort membership, KV reservation). Returns the scheduled
    /// `(request, chunk, prior)` entries; empty when nothing can form,
    /// and always on a decode-only instance.
    ///
    /// KV reservation is fine-grained under chunked prefill: admission
    /// reserves the *first chunk plus decode headroom* instead of the
    /// whole prompt, and every continuing chunk grows the reservation via
    /// [`Engine::try_grow_tokens`] before its compute is scheduled. A
    /// request whose growth fails after the victim loop is recompute-
    /// preempted and requeued — never silently truncated. Atomic prefill
    /// keeps the legacy full-prompt reservation bit-for-bit.
    fn collect_prefill_entries(
        &mut self,
        inst: usize,
        cohort: usize,
    ) -> Vec<(RequestId, u64, u64)> {
        if self.topo.instances[inst].role == InstanceRole::DecodeOnly {
            return Vec::new();
        }
        // Per-request chunk cap: ∞ (atomic prefill) unless configured.
        // Closed-loop pacing does NOT shrink this budget — it gates how
        // many chunk tokens may ride a *fused* iteration (see
        // `form_iteration`), so paced drains still move full chunks.
        let chunk_cap = self.cfg.prefill_chunk_tokens.unwrap_or(u64::MAX).max(1);
        let incremental = self.cfg.prefill_chunk_tokens.is_some();
        let headroom = DECODE_HEADROOM_TOKENS;
        let budget = self.cfg.max_batch_tokens;

        // 1. Continuing chunks: mid-prefill residents of this cohort go
        // first (admission order), each contributing its next chunk under
        // the iteration budget. Empty in atomic mode — prompts never
        // outlive one microbatch there.
        let mut entries: Vec<(RequestId, u64, u64)> = Vec::new(); // (rid, chunk, prior)
        let mut tokens = 0u64;
        let continuing: Vec<RequestId> = self.instances[inst].cohorts[cohort]
            .prefilling
            .iter()
            .copied()
            .filter(|rid| {
                let r = &self.requests[rid];
                r.phase == Phase::Prefilling && !r.in_flight && r.remaining_prefill() > 0
            })
            .collect();
        for rid in continuing {
            let r = &self.requests[&rid];
            // Re-check the snapshot: an earlier resident's growth victim
            // cascade may have evicted this one (in-repo policies only
            // victimize decoding requests, but the Policy trait doesn't
            // promise that — same staleness guard collect_decode_batch
            // uses).
            if r.phase != Phase::Prefilling || r.in_flight {
                continue;
            }
            let chunk = (r.remaining_prefill() as u64).min(chunk_cap);
            if !entries.is_empty() && tokens + chunk > budget {
                break;
            }
            let prior = r.prefilled as u64;
            // Incremental growth: this chunk's KV must be reserved before
            // its compute runs. `prior + chunk ≤ effective_input` always,
            // so the reservation never exceeds prompt + headroom.
            if incremental {
                let target = ((prior + chunk) as u32).saturating_add(headroom);
                if r.kv_reserved < target && !self.try_grow_tokens(inst, rid, target) {
                    // Preemption-safe failure path: the grower is evicted
                    // and requeued whole (recompute keeps every token).
                    self.kv_grow_failures += 1;
                    self.evict(rid);
                    continue;
                }
            }
            tokens += chunk;
            entries.push((rid, chunk, prior));
            if tokens >= budget {
                break;
            }
        }

        // 2. New admissions under the remaining budget. The admission
        // queue is FIFO or slack-ordered per `cfg.admission` (sorted by
        // `try_dispatch` once per round); a request's budget contribution
        // is its *first chunk*, not its whole prompt, so long prompts no
        // longer block the queue behind them.
        let running = self.running_count(inst);
        let mut candidates: Vec<RequestId> = Vec::new();
        // Per-candidate prefix probe result, parallel to `candidates`
        // (`None` everywhere when reuse is off — the probe is gated).
        let mut hits: Vec<Option<((u64, u32), u32)>> = Vec::new();
        // Closed-loop throttle: while engaged, admissions of every class
        // except the protected one are deferred back to the queue (their
        // slack keys are unchanged, so re-enqueueing restores the exact
        // heap order next round). Designed for `SloSlack` admission;
        // under FIFO a deferred request re-enters at the back.
        let protect = if self.throttle_admission {
            self.cfg.closed_loop.as_ref().map(|c| c.protected_class)
        } else {
            None
        };
        let mut deferred: Vec<SlackKey> = Vec::new();
        if running < MAX_RUNNING && tokens < budget && !self.instances[inst].waiting.is_empty() {
            while let Some(rid) = self.instances[inst].waiting.peek() {
                if let Some(protect) = protect {
                    if self.requests[&rid].req.class != protect {
                        self.instances[inst].waiting.dequeue();
                        deferred.push(slack_key(&self.requests[&rid].req));
                        continue;
                    }
                }
                // A prefix hit's budget contribution is its *cold* span
                // only — the warm prefix enters no prefill chunk.
                let hit = self.probe_prefix(rid, inst);
                let eff = self.requests[&rid].effective_input as u64;
                let cold = hit.map_or(eff, |(_, warm)| eff - warm as u64);
                let chunk = cold.min(chunk_cap);
                if (!entries.is_empty() || !candidates.is_empty())
                    && (tokens + chunk > budget || running + candidates.len() >= MAX_RUNNING)
                {
                    break;
                }
                self.instances[inst].waiting.dequeue();
                candidates.push(rid);
                hits.push(hit);
                tokens += chunk;
            }
        }
        for key in deferred {
            self.instances[inst].waiting.enqueue(key);
        }
        if entries.is_empty() && candidates.is_empty() {
            return entries;
        }

        // Joint placement of the admission batch (the paper's J(t)).
        // Placement always covers the FULL effective prompt (the LP's
        // capacity term stays conservative so later growth fits), but the
        // KV *reservation* is fine-grained: first chunk + decode headroom
        // under chunking, the whole prompt under atomic admission.
        let mut admitted: Vec<RequestId> = Vec::new();
        if !candidates.is_empty() {
            // Joint placement covers the MISS subset only: a prefix hit's
            // placement is pinned to the cached entry's (the warm KV
            // physically sits on those devices — the head-group pinning
            // constraint surfaced to policies via `PolicyCtx::prefix`).
            let pairs: Vec<(RequestId, u32)> = candidates
                .iter()
                .zip(&hits)
                .filter(|(_, h)| h.is_none())
                .map(|(&rid, _)| (rid, self.requests[&rid].effective_input))
                .collect();
            let mut placements = if pairs.is_empty() {
                Vec::new()
            } else {
                self.policy.place_batch(inst, &pairs, &ctx!(self))
            };
            assert_eq!(placements.len(), pairs.len());
            let mut miss_placements = placements.drain(..);

            let mut blocked_from: Option<usize> = None;
            for (k, (&rid, hit)) in candidates.iter().zip(&hits).enumerate() {
                let eff = self.requests[&rid].effective_input;
                let (placement, warm) = match hit {
                    Some(((s, t), warm)) => {
                        let e = self.prefix.get(*s, *t).expect("probed this round");
                        (Some(e.placement.clone()), *warm)
                    }
                    None => (miss_placements.next().expect("miss subset aligned"), 0),
                };
                // A hit reserves warm + first cold chunk; a miss reserves
                // its first chunk (incremental) or the whole prompt
                // (atomic; a hit's cold span is its whole "prompt" there).
                let reserve = if incremental {
                    warm.saturating_add(((eff - warm) as u64).min(chunk_cap) as u32)
                        .saturating_add(headroom)
                } else {
                    eff
                };
                // Incremental admission only reserves the first chunk, so
                // guard against prompts whose FULL KV could never fit the
                // placement even on empty pools: without this they would
                // be admitted cheaply, thrash through grow-fail → evict →
                // re-admit cycles and burn compute forever; with it they
                // stay queued exactly like an atomic admission whose
                // full-prompt allocation fails.
                let ok = match placement {
                    Some(p)
                        if !incremental
                            || self.placement_fits_pool(&p, inst, eff.saturating_add(headroom)) =>
                    {
                        self.try_alloc_prompt(rid, p, reserve)
                    }
                    _ => false,
                };
                if ok {
                    if let Some(((s, t), warm)) = hit {
                        self.consume_prefix_hit(rid, inst, *s, *t, *warm);
                    }
                    admitted.push(rid);
                } else {
                    blocked_from = Some(k);
                    break;
                }
            }
            // Re-queue the blocked request and everything after it (at the
            // front: FIFO keeps positions; slack mode folds the override
            // back into deadline order next round).
            if let Some(k) = blocked_from {
                for &rid in candidates[k..].iter().rev() {
                    let key = slack_key(&self.requests[&rid].req);
                    self.instances[inst].waiting.requeue_front(key);
                }
            }
        }
        if entries.is_empty() && admitted.is_empty() {
            return entries;
        }

        let now = self.clock.now().as_secs();
        for &rid in &admitted {
            let r = self.requests.get_mut(&rid).expect("live");
            r.phase = Phase::Prefilling;
            r.cohort = cohort;
            r.admitted_at = Some(now);
            // `prefilled` is the warm prefix for a hit (set at consume),
            // 0 for a miss — so the first chunk is the cold remainder
            // and its attention prior (`2·p·c`) covers the warm span.
            let chunk = (r.remaining_prefill() as u64).min(chunk_cap);
            let prior = r.prefilled as u64;
            let hit_tokens = r.prefix_hit_tokens;
            entries.push((rid, chunk, prior));
            self.instances[inst].cohorts[cohort].prefilling.push(rid);
            self.running_inc(inst);
            self.tap(FlowEventKind::Admission {
                req: rid,
                instance: inst as u32,
                first_chunk_tokens: chunk as u32,
                prefix_hit_tokens: hit_tokens,
            });
        }
        entries
    }

    /// Commits a prefix hit after its allocation succeeded: consumes the
    /// cache entry (the follow-up turn now *owns* the warm span — its
    /// completion will re-register the grown context), marks the warm
    /// tokens prefilled, and accounts the skipped compute and adopted
    /// KV bytes.
    fn consume_prefix_hit(&mut self, rid: RequestId, inst: usize, s: u64, t: u32, warm: u32) {
        let e = self.prefix.take(s, t).expect("probed this round");
        let gqa = self.model.gqa_ratio();
        let mut warm_bytes = 0u64;
        for (stage, stage_pl) in e.placement.per_stage.iter().enumerate() {
            let layers = self.topo.instances[inst].stages[stage].primary.layers;
            for &(dev, heads) in stage_pl {
                warm_bytes += self.kv.device(dev).bytes_needed(heads / gqa, warm, layers);
            }
        }
        self.prefix_hits += 1;
        self.prefix_hit_tokens += warm as u64;
        self.shared_kv_bytes += warm_bytes;
        let r = self.requests.get_mut(&rid).expect("live");
        r.prefilled = warm;
        r.prefix_hit_tokens = warm;
        r.prefix_shared_bytes = warm_bytes;
    }

    /// Marks `entries` in flight and aggregates them into a
    /// [`PrefillBatch`], updating the prefill counters (an empty `entries`
    /// is no prefill iteration and counts nothing).
    ///
    /// Chunked attention cost: a chunk of c tokens after p already-
    /// prefilled tokens attends to the whole p+c context, so its
    /// quadratic-work share is c² + 2pc. Summed over a prompt's chunks
    /// this telescopes to (Σc)² — the atomic prompt's l² — preserving
    /// the Eq. 7 stage-time model's total work exactly.
    fn prefill_batch_of(&mut self, entries: &[(RequestId, u64, u64)]) -> PrefillBatch {
        let mut batch = PrefillBatch::default();
        if entries.is_empty() {
            return batch;
        }
        for &(rid, chunk, prior) in entries {
            self.requests.get_mut(&rid).expect("live").in_flight = true;
            batch.seqs += 1;
            batch.tokens += chunk;
            batch.sq_sum += (chunk * chunk + 2 * prior * chunk) as f64;
        }
        self.prefill_tokens += batch.tokens;
        self.prefill_iterations += 1;
        self.max_prefill_iter_tokens = self.max_prefill_iter_tokens.max(batch.tokens);
        batch
    }

    /// Forms the cohort's decode batch: appends every ready member's next
    /// token (the policy handles exhaustion) and derives the per-stage
    /// attention loads from the incremental load table. `None` when no
    /// member can decode this iteration, and always on a prefill-only
    /// instance.
    fn collect_decode_batch(
        &mut self,
        inst: usize,
        cohort: usize,
    ) -> Option<(Vec<RequestId>, Vec<Vec<AttnLoad>>)> {
        if self.topo.instances[inst].role == InstanceRole::PrefillOnly {
            return None;
        }
        let ready: Vec<RequestId> = self.instances[inst].cohorts[cohort]
            .members
            .iter()
            .copied()
            .filter(|rid| self.requests[rid].phase == Phase::Decoding)
            .collect();
        if ready.is_empty() {
            return None;
        }

        // Allocate the next token's KV (policy handles exhaustion).
        let mut batch: Vec<RequestId> = Vec::new();
        for rid in ready {
            // The request may have been evicted/migrated by a victim
            // decision taken for an earlier member.
            if self.requests[&rid].phase != Phase::Decoding {
                continue;
            }
            if self.try_append_token(inst, rid) {
                batch.push(rid);
            }
        }
        // One peak observation for the whole batch's appends (each append
        // is tiny; sweeping the cluster ledger per token would tax the
        // hot loop for nothing).
        self.note_kv_peak();
        // A victim decision taken for a *later* member can evict or
        // migrate a request that already joined the batch — drop it (its
        // KV, including the appended token, was released by the eviction).
        batch.retain(|rid| self.requests[rid].phase == Phase::Decoding);
        if batch.is_empty() {
            return None;
        }
        let stage_loads = self.stage_loads_for(inst, cohort, &batch);
        Some((batch, stage_loads))
    }

    /// Per-stage attention loads of `batch`, read from the cohort's
    /// incremental load table: the table's totals cover every registered
    /// decoding member, so the only per-iteration work is subtracting the
    /// (rare) registered members excluded from this batch and converting
    /// the integer aggregates to [`AttnLoad`]s — replacing the old
    /// O(batch × stages × placement-entries) rebuild. The integer
    /// accounting makes the result bit-identical to that rebuild, which
    /// debug builds assert on every formation.
    fn stage_loads_for(
        &self,
        inst: usize,
        cohort: usize,
        batch: &[RequestId],
    ) -> Vec<Vec<AttnLoad>> {
        let gqa = self.model.gqa_ratio() as u64;
        let unit = 2 * self.model.head_dim * self.model.dtype.bytes();
        let co = &self.instances[inst].cohorts[cohort];
        let registered = co
            .members
            .iter()
            .filter(|rid| self.requests[rid].in_load_table)
            .count();
        let mut per_stage: Vec<FxHashMap<DeviceId, (u64, u64)>> = co.load.clone();
        if registered != batch.len() {
            // Some registered members sit this iteration out (stalled on
            // memory, racing a victim decision): take them off the totals.
            let in_batch: std::collections::HashSet<RequestId> = batch.iter().copied().collect();
            for &rid in co.members.iter() {
                let r = &self.requests[&rid];
                if !r.in_load_table || in_batch.contains(&rid) {
                    continue;
                }
                let ctx = r.context_len() as u64 + 1;
                let placement = r.placement.as_ref().expect("registered request placed");
                for (s, stage_pl) in placement.per_stage.iter().enumerate() {
                    for &(dev, heads) in stage_pl {
                        let e = per_stage[s].get_mut(&dev).expect("registered device");
                        e.0 -= heads as u64;
                        e.1 -= heads as u64 / gqa * ctx * unit;
                    }
                }
            }
        }
        let mut stage_loads: Vec<Vec<AttnLoad>> = Vec::with_capacity(per_stage.len());
        for (s, map) in per_stage.iter().enumerate() {
            let primary = &self.topo.instances[inst].stages[s].primary.devices;
            let mut loads: Vec<AttnLoad> = map
                .iter()
                .filter(|&(_, &(h, k))| h != 0 || k != 0)
                .map(|(&device, &(h, k))| AttnLoad {
                    device,
                    work: AttnWork {
                        query_heads: h as f64,
                        kv_bytes: k as f64,
                    },
                    remote: !primary.contains(&device),
                })
                .collect();
            loads.sort_by_key(|l| l.device);
            stage_loads.push(loads);
        }
        #[cfg(debug_assertions)]
        {
            let oracle = self.rebuild_stage_loads(inst, batch);
            debug_assert!(
                loads_equal(&stage_loads, &oracle),
                "incremental load table drifted from the rebuilt map:\n{stage_loads:?}\nvs\n{oracle:?}"
            );
        }
        stage_loads
    }

    /// The old from-scratch load computation, kept as the debug-mode
    /// oracle [`Engine::stage_loads_for`] is checked against.
    #[cfg(debug_assertions)]
    fn rebuild_stage_loads(&self, inst: usize, batch: &[RequestId]) -> Vec<Vec<AttnLoad>> {
        let n_stages = self.topo.instances[inst].depth();
        let mut stage_loads: Vec<Vec<AttnLoad>> = Vec::with_capacity(n_stages);
        let r = self.model.gqa_ratio() as u64;
        let unit = 2 * self.model.head_dim * self.model.dtype.bytes();
        for s in 0..n_stages {
            let mut per_dev: HashMap<DeviceId, AttnWork> = HashMap::new();
            for rid in batch {
                let req = &self.requests[rid];
                let ctx_len = req.context_len() as u64 + 1;
                let placement = req.placement.as_ref().expect("decoding request placed");
                for &(dev, heads) in &placement.per_stage[s] {
                    let w = per_dev.entry(dev).or_default();
                    w.query_heads += heads as f64;
                    w.kv_bytes += (heads as u64 / r * ctx_len * unit) as f64;
                }
            }
            let primary = &self.topo.instances[inst].stages[s].primary.devices;
            let mut loads: Vec<AttnLoad> = per_dev
                .into_iter()
                .map(|(device, work)| AttnLoad {
                    device,
                    work,
                    remote: !primary.contains(&device),
                })
                .collect();
            loads.sort_by_key(|l| l.device);
            stage_loads.push(loads);
        }
        stage_loads
    }

    /// Schedules one iteration on the cohort: the prefill `entries` and
    /// the decode `batch` with its per-stage attention loads, either side
    /// possibly empty but not both. Every iteration is priced by
    /// [`fused_stage_breakdown`], which reduces exactly to the
    /// prefill-only or decode-only breakdown when the other side is empty.
    /// The iteration walks the instance's stages as FIFO resources, each
    /// stage dilated by its slowest participating device, with the
    /// inter-stage hidden-state transfer over the worst primary link.
    fn schedule_iteration(
        &mut self,
        inst: usize,
        cohort: usize,
        entries: Vec<(RequestId, u64, u64)>,
        (batch, stage_loads): (Vec<RequestId>, Vec<Vec<AttnLoad>>),
    ) {
        let chunk = self.prefill_batch_of(&entries);
        for rid in &batch {
            self.requests.get_mut(rid).expect("live").in_flight = true;
        }
        if !entries.is_empty() && !batch.is_empty() {
            self.fused_iterations += 1;
        }
        let n = self.topo.instances[inst].depth();
        let dense_tokens = batch.len() as u64;
        let tokens = chunk.tokens + dense_tokens;
        let mut max_mlp = 0.0_f64;
        let mut max_attn = 0.0_f64;
        let mut arrive = self.clock.now();
        for s in 0..n {
            let loads = stage_loads.get(s).map_or(&[][..], Vec::as_slice);
            let b = fused_stage_breakdown(
                self.cluster,
                self.model,
                &self.topo.instances[inst].stages[s],
                &chunk,
                dense_tokens,
                loads,
                s + 1 == n,
            );
            let b = scale_breakdown(b, self.slow_factor(inst, s, loads));
            max_mlp = max_mlp.max(b.mlp);
            max_attn = max_attn.max(b.attn);
            let start = arrive.max(self.instances[inst].stage_free_at[s]);
            let done = start + b.total;
            self.instances[inst].stage_free_at[s] = done;
            arrive = done;
            if s + 1 < n {
                let from = &self.topo.instances[inst].stages[s].primary.devices;
                let to = &self.topo.instances[inst].stages[s + 1].primary.devices;
                let mut worst = self.cluster.link(from[0], to[0]);
                for &a in from {
                    for &b2 in to {
                        let l = self.cluster.link(a, b2);
                        if l.beta > worst.beta {
                            worst = l;
                        }
                    }
                }
                let bytes = (tokens * self.model.hidden_state_bytes_per_token()) as f64;
                arrive += worst.time(bytes);
            }
        }

        if !batch.is_empty() {
            // Every decode-carrying iteration records the Fig. 13 module
            // sample; in a fused one the chunk's share of MLP time is real
            // work the decode tokens co-schedule with.
            self.module_samples.push(ModuleSample {
                time: self.clock.now().as_secs(),
                mlp: max_mlp * n as f64,
                attn: max_attn * n as f64,
            });
            self.tap(FlowEventKind::DecodeIteration {
                instance: inst as u32,
                cohort: cohort as u32,
                batch_size: batch.len() as u32,
                prefill_tokens: chunk.tokens as u32,
            });
        }
        let co = &mut self.instances[inst].cohorts[cohort];
        co.last_carried_chunk = !entries.is_empty();
        co.in_flight = Some(Ubatch {
            reqs: entries.iter().map(|&(rid, ..)| rid).collect(),
            chunks: entries.iter().map(|&(_, c, _)| c as u32).collect(),
            decode_reqs: batch,
        });
        self.events
            .schedule(arrive, Event::UbatchDone { inst, cohort });
    }

    // ------------------------------------------------------ KV operations

    /// Allocates `tokens` tokens of KV for `rid` per `placement` (the
    /// whole effective prompt under atomic admission, the first chunk +
    /// decode headroom under incremental growth); on failure undoes
    /// everything and returns false.
    fn try_alloc_prompt(&mut self, rid: RequestId, placement: HeadPlacement, tokens: u32) -> bool {
        let r = &self.requests[&rid];
        let gqa = self.model.gqa_ratio();
        if placement.validate(self.model.num_heads, gqa).is_err() {
            return false;
        }
        // Churn guard: dead or draining devices accept no new KV.
        if placement
            .devices()
            .iter()
            .any(|&d| !self.health[d.index()].accepts_kv())
        {
            return false;
        }
        let mut done: Vec<DeviceId> = Vec::new();
        for (s, stage_pl) in placement.per_stage.iter().enumerate() {
            let layers = self.topo.instances[r.instance].stages[s].primary.layers;
            for &(dev, heads) in stage_pl {
                let groups = heads / gqa;
                let res = self
                    .kv
                    .device_mut(dev)
                    .allocate(rid, s as u16, groups, tokens, layers);
                if res.is_err() {
                    for &d in &done {
                        self.kv.device_mut(d).free_request(rid);
                    }
                    // Also free any later-stage entries on the same device
                    // (free_request already removes all stages per device).
                    return false;
                }
                if !done.contains(&dev) {
                    done.push(dev);
                }
            }
        }
        let r = self.requests.get_mut(&rid).expect("live");
        r.placement = Some(placement);
        r.kv_reserved = tokens;
        self.note_kv_peak();
        true
    }

    /// True when `placement` could *ever* hold `tokens` tokens of KV —
    /// each device's full-prompt share vs its absolute pool size
    /// (ignoring current residents, which evictions could clear). The
    /// incremental-admission feasibility guard.
    fn placement_fits_pool(&self, placement: &HeadPlacement, inst: usize, tokens: u32) -> bool {
        let gqa = self.model.gqa_ratio();
        let mut need: HashMap<DeviceId, u64> = HashMap::new();
        for (s, stage_pl) in placement.per_stage.iter().enumerate() {
            let layers = self.topo.instances[inst].stages[s].primary.layers;
            for &(dev, heads) in stage_pl {
                *need.entry(dev).or_insert(0) +=
                    self.kv
                        .device(dev)
                        .bytes_needed(heads / gqa, tokens, layers);
            }
        }
        need.iter()
            .all(|(&d, &n)| n <= self.kv.device(d).pool_bytes())
    }

    /// Grows `rid`'s KV reservation to `new_total` tokens on every device
    /// of its placement — the incremental-growth path run before each
    /// continuing chunk is scheduled. Exhaustion consults the policy's
    /// victim hook exactly like a blocked decode append (§5.3.2: growth
    /// pressure and append pressure are the same memory pressure).
    /// Returns false when the growth cannot be satisfied; a failed
    /// attempt never leaves any device partially grown (the caller
    /// evicts/requeues the grower whole — no truncation).
    fn try_grow_tokens(&mut self, inst: usize, rid: RequestId, new_total: u32) -> bool {
        // Bounded victim loop: each pass either frees memory or gives up.
        for _ in 0..64 {
            let devices = self.requests[&rid]
                .placement
                .as_ref()
                .expect("growing request placed")
                .devices();
            let blocked = devices.iter().copied().find(|&d| {
                let kv = self.kv.device(d);
                kv.grow_cost(rid, new_total) > kv.free_bytes()
            });
            let Some(dev) = blocked else {
                for &d in &devices {
                    self.kv
                        .device_mut(d)
                        .grow_tokens(rid, new_total)
                        .expect("checked headroom");
                }
                self.requests.get_mut(&rid).expect("live").kv_reserved = new_total;
                self.kv_growths += 1;
                self.note_kv_peak();
                return true;
            };
            let action = self.policy.select_victim(inst, dev, rid, &ctx!(self));
            match action {
                // Policies only victimize decoding requests, but guard
                // anyway: the grower itself cannot be evicted here (the
                // caller owns that failure path).
                VictimAction::Evict(victim) | VictimAction::Redispatch(victim, _)
                    if victim == rid =>
                {
                    return false;
                }
                VictimAction::Evict(victim) => self.evict(victim),
                VictimAction::Redispatch(victim, placement) => {
                    if !self.execute_redispatch(victim, placement) {
                        self.evict(victim);
                    }
                }
                VictimAction::Stall => return false,
            }
        }
        false
    }

    /// Appends one decode token's KV across the request's devices,
    /// consulting the policy on exhaustion. Returns false when the request
    /// cannot proceed this iteration.
    fn try_append_token(&mut self, inst: usize, rid: RequestId) -> bool {
        // Decode headroom: tokens inside the admission-time reservation
        // are prepaid — the resident entries already cover them, so the
        // first appends after prefill completion consume the cushion
        // instead of allocating (and can never hit the victim path).
        // Atomic admission reserves exactly the effective prompt, whose
        // context has already outgrown it by the first decode append, so
        // this branch never fires there (bit-identical legacy behavior).
        {
            let r = &self.requests[&rid];
            if r.context_len() < r.kv_reserved {
                return true;
            }
        }
        // Bounded victim loop: each pass either frees memory or stalls.
        for _ in 0..64 {
            let devices = self.requests[&rid]
                .placement
                .as_ref()
                .expect("decoding request placed")
                .devices();
            let blocked = devices.iter().copied().find(|&d| {
                let kv = self.kv.device(d);
                kv.append_cost(rid) > kv.free_bytes()
            });
            let Some(dev) = blocked else {
                for &d in &devices {
                    self.kv
                        .device_mut(d)
                        .append_token(rid)
                        .expect("checked headroom");
                }
                // Peak sampling happens once per decode batch in
                // `collect_decode_batch`, not per append — this is the
                // hottest allocation path.
                return true;
            };
            let action = self.policy.select_victim(inst, dev, rid, &ctx!(self));
            match action {
                VictimAction::Evict(victim) => {
                    self.evict(victim);
                    if victim == rid {
                        return false;
                    }
                }
                VictimAction::Redispatch(victim, placement) => {
                    if !self.execute_redispatch(victim, placement) {
                        // The planned grows no longer fit (block rounding,
                        // racing allocations): fall back to eviction so
                        // the loop always makes progress.
                        self.evict(victim);
                        if victim == rid {
                            return false;
                        }
                    } else if victim == rid {
                        // rid is migrating now; it decodes after landing.
                        return false;
                    }
                }
                VictimAction::Stall => return false,
            }
        }
        false
    }

    /// Recompute-preempts a victim of memory pressure: KV freed
    /// everywhere, back to the front of its instance's waiting queue. A
    /// decode-only instance never admits, so its victims re-queue wherever
    /// arrivals route instead, and that instance is dispatched when the
    /// current dispatch ends.
    fn evict(&mut self, rid: RequestId) {
        debug_assert!(
            matches!(
                self.requests[&rid].phase,
                Phase::Prefilling | Phase::Decoding | Phase::Migrating
            ),
            "victims are always running"
        );
        let (inst, _) = self.release_preempted(rid);
        let req = self.requests[&rid].req;
        let target = if self.topo.instances[inst].role == InstanceRole::DecodeOnly {
            self.route_surviving(req, inst)
        } else {
            inst
        };
        if target != inst {
            self.requests.get_mut(&rid).expect("live").instance = target;
            if !self.rehomed.contains(&target) {
                self.rehomed.push(target);
            }
        }
        let key = slack_key(&req);
        self.instances[target].waiting.requeue_front(key);
    }

    /// The release half of every preemption ([`Self::evict`] and
    /// [`Self::churn_evict`]): takes `rid` off its cohort and load table,
    /// frees its KV everywhere and resets it for a recompute re-prefill.
    /// Returns its instance and the lost context tokens.
    fn release_preempted(&mut self, rid: RequestId) -> (usize, u64) {
        let (inst, lost, was_running) = {
            let r = &self.requests[&rid];
            assert!(!r.in_flight, "cannot preempt an in-flight request");
            let was_running = matches!(
                r.phase,
                Phase::Prefilling | Phase::Decoding | Phase::Migrating
            );
            (r.instance, r.req.input_len + r.generated, was_running)
        };
        self.load_table_remove(inst, rid);
        // Release boundary: observe the peak while the victim's KV is
        // still resident (see `note_kv_peak`).
        self.note_kv_peak();
        self.tap(FlowEventKind::Preemption {
            req: rid,
            instance: inst as u32,
            lost_context: lost,
        });
        self.requests
            .get_mut(&rid)
            .expect("live")
            .preempt_recompute();
        if was_running {
            self.running_dec(inst);
        }
        for d in 0..self.kv.len() {
            self.kv.device_mut(DeviceId(d as u32)).free_request(rid);
        }
        self.remove_cohort_member(inst, rid);
        self.preemptions += 1;
        (inst, lost as u64)
    }

    /// Applies a re-dispatch along the plan of [`HeadPlacement::moves_to`]
    /// (§6's Hauler): grows every destination, all-or-nothing, then
    /// shrinks each move's source and schedules that move's transfer at
    /// once. The request pauses until the last transfer lands. Returns
    /// false if the grows don't fit or the request is not
    /// re-dispatchable.
    fn execute_redispatch(&mut self, rid: RequestId, new_placement: HeadPlacement) -> bool {
        let gqa = self.model.gqa_ratio();
        if new_placement.validate(self.model.num_heads, gqa).is_err() {
            return false;
        }
        // Borrow the old placement in place; everything derived from it
        // is extracted before the request is mutated.
        let (inst, tokens, moves) = {
            let Some(r) = self.requests.get(&rid) else {
                return false;
            };
            if r.phase != Phase::Decoding || r.in_flight {
                return false;
            }
            let old = r.placement.as_ref().expect("decoding request placed");
            if *old == new_placement {
                return false;
            }
            // Token count from any resident entry (uniform across devices).
            let tokens = old.per_stage[0]
                .first()
                .and_then(|&(d, _)| self.kv.device(d).entry(rid, 0))
                .map(|e| e.tokens)
                .expect("resident entry");
            (r.instance, tokens, old.moves_to(&new_placement, gqa))
        };
        if moves.is_empty() {
            return false;
        }
        // Churn guard: never grow KV onto a dead or draining device.
        if moves
            .iter()
            .any(|m| !self.health[m.dst.index()].accepts_kv())
        {
            return false;
        }
        let layers: Vec<u32> = self.topo.instances[inst]
            .stages
            .iter()
            .map(|s| s.primary.layers)
            .collect();

        // All-or-nothing: allocate every destination first.
        for (k, m) in moves.iter().enumerate() {
            let l = layers[m.stage as usize];
            let grown = self
                .kv
                .device_mut(m.dst)
                .grow_groups(rid, m.stage, m.groups, tokens, l);
            if grown.is_err() {
                for m in &moves[..k] {
                    self.kv
                        .device_mut(m.dst)
                        .shrink_groups(rid, m.stage, m.groups);
                }
                return false;
            }
        }
        // High-water point of the move: grown destinations coexist with
        // the not-yet-shrunk sources.
        self.note_kv_peak();
        let now = self.clock.now().as_secs();
        let (mut moved_bytes, mut finish) = (0.0, now);
        for m in &moves {
            let l = layers[m.stage as usize];
            let bytes = self.kv.device(m.src).bytes_needed(m.groups, tokens, l) as f64;
            self.kv
                .device_mut(m.src)
                .shrink_groups(rid, m.stage, m.groups);
            let link = self.cluster.link(m.src, m.dst);
            let done = self.migration.schedule(m.src.0, m.dst.0, link, bytes, now);
            finish = finish.max(done);
            moved_bytes += bytes;
        }

        // The victim leaves the decode set while its KV moves — take its
        // old-placement contribution off the load table before the new
        // placement is installed.
        self.load_table_remove(inst, rid);
        let r = self.requests.get_mut(&rid).expect("live");
        r.placement = Some(new_placement);
        r.redispatches += 1;
        let sources = moves.iter().map(|m| m.src).collect();
        self.begin_migration(rid, sources, moved_bytes, finish);
        self.tap(FlowEventKind::Redispatch {
            req: rid,
            instance: inst as u32,
        });
        true
    }

    /// Parks `rid` in [`Phase::Migrating`] while `bytes` of its KV move
    /// from `sources`, until the transfer lands at `done` (seconds): the
    /// one transfer path behind re-dispatch, Splitwise hand-off and the
    /// post-prefill scatter. The completion event carries a fresh epoch,
    /// so a transfer that churn aborts cannot resume the request early.
    fn begin_migration(&mut self, rid: RequestId, sources: Vec<DeviceId>, bytes: f64, done: f64) {
        let r = self.requests.get_mut(&rid).expect("live");
        r.phase = Phase::Migrating;
        r.migration_sources = sources;
        r.migration_epoch += 1;
        let epoch = r.migration_epoch;
        self.migrations += 1;
        self.migrated_bytes += bytes;
        self.events.schedule(
            SimTime::from_secs(done),
            Event::MigrationDone { req: rid, epoch },
        );
    }

    // ------------------------------------------------- hand-off / scatter

    /// Splitwise-style hand-off: move the whole KV to `target`.
    fn start_handoff(&mut self, rid: RequestId, target: usize) {
        // Try immediately; park in the target's hand-off queue otherwise.
        if !self.try_start_handoff_transfer(rid, target, false) {
            let r = self.requests.get_mut(&rid).expect("live");
            r.phase = Phase::Migrating; // blocked, holding source KV
            self.instances[target].pending_handoff.enqueue(rid);
        }
    }

    fn drain_pending_handoffs(&mut self, target: usize) {
        while let Some(&rid) = self.instances[target].pending_handoff.peek() {
            if !self.try_start_handoff_transfer(rid, target, true) {
                return;
            }
            self.instances[target].pending_handoff.dequeue();
        }
    }

    /// Attempts allocation on the target and schedules the bulk transfer.
    /// `from_queue` marks retries popped from the pending-handoff queue,
    /// whose entry may be stale (the request was churn-evicted and
    /// possibly re-admitted elsewhere since it parked).
    fn try_start_handoff_transfer(
        &mut self,
        rid: RequestId,
        target: usize,
        from_queue: bool,
    ) -> bool {
        if from_queue {
            let r = &self.requests[&rid];
            // Only a parked hand-off (Migrating, idle, placed) may
            // proceed; anything else is a stale entry — drop it.
            if r.phase != Phase::Migrating || r.in_flight || r.placement.is_none() {
                return true;
            }
        } else if self.requests[&rid].placement.is_none() {
            return true;
        }
        let ctx_tokens = self.requests[&rid].context_len();
        let pairs = [(rid, ctx_tokens)];
        let placement = self
            .policy
            .place_batch(target, &pairs, &ctx!(self))
            .pop()
            .flatten();
        let Some(placement) = placement else {
            return false;
        };

        // Source residency before realloc.
        let old_placement = self.requests[&rid].placement.clone().expect("placed");
        let src_anchor = old_placement.per_stage[0][0].0;
        let mut src_bytes = 0.0f64;
        for d in 0..self.kv.len() {
            src_bytes += self.kv.device(DeviceId(d as u32)).request_bytes(rid) as f64;
        }

        // Allocate on target with the *current* context. The request is
        // mid-running (Prefilling or parked Migrating), so the running
        // counter moves with its instance ownership.
        let prev_inst = self.requests[&rid].instance;
        if prev_inst != target {
            self.running_dec(prev_inst);
            self.running_inc(target);
        }
        self.requests.get_mut(&rid).expect("live").instance = target;
        if !self.try_alloc_prompt(rid, placement, ctx_tokens) {
            // Roll back ownership.
            let rollback = old_instance_of(&old_placement, &self.topo).unwrap_or(target);
            if rollback != target {
                self.running_dec(target);
                self.running_inc(rollback);
            }
            let r = self.requests.get_mut(&rid).expect("live");
            r.instance = rollback;
            r.placement = Some(old_placement);
            return false;
        }
        // try_alloc_prompt overwrote the placement — free the old source
        // entries now (they belong to other devices).
        let new_placement = self.requests[&rid].placement.clone().expect("placed");
        let new_devices = new_placement.devices();
        for d in 0..self.kv.len() {
            let dev = DeviceId(d as u32);
            if !new_devices.contains(&dev) {
                self.kv.device_mut(dev).free_request(rid);
            }
        }

        let now = self.clock.now().as_secs();
        let dst_anchor = new_devices[0];
        let link = self.cluster.link(src_anchor, dst_anchor);
        let done = self
            .migration
            .schedule(src_anchor.0, dst_anchor.0, link, src_bytes, now);
        self.begin_migration(rid, vec![src_anchor], src_bytes, done);
        true
    }

    /// After prefill on a Both-role instance: scatter remote head groups'
    /// KV to attention workers if the placement uses any, then decode.
    fn start_decoding_after_scatter(&mut self, rid: RequestId, inst: usize, cohort: usize) {
        let gqa = self.model.gqa_ratio();
        let now = self.clock.now().as_secs();
        let mut finish = now;
        let mut scattered = 0.0f64;
        let mut sources: Vec<DeviceId> = Vec::new();
        // Borrow the placement in place (it used to be cloned per call).
        {
            let req = &self.requests[&rid];
            let placement = req.placement.as_ref().expect("placed");
            let tokens = req.effective_input;
            for (s, stage_pl) in placement.per_stage.iter().enumerate() {
                let stage = &self.topo.instances[inst].stages[s];
                let anchor = stage.primary.devices[0];
                let layers = stage.primary.layers;
                sources.push(anchor);
                for &(dev, heads) in stage_pl {
                    if stage.primary.devices.contains(&dev) {
                        continue;
                    }
                    let groups = heads / gqa;
                    let bytes = self.kv.device(dev).bytes_needed(groups, tokens, layers) as f64;
                    let link = self.cluster.link(anchor, dev);
                    let done = self.migration.schedule(anchor.0, dev.0, link, bytes, now);
                    finish = finish.max(done);
                    scattered += bytes;
                }
            }
        }
        let r = self.requests.get_mut(&rid).expect("live");
        r.cohort = cohort;
        if scattered > 0.0 {
            self.begin_migration(rid, sources, scattered, finish);
        } else {
            r.phase = Phase::Decoding;
            self.ensure_cohort_member(inst, rid);
            self.load_table_add(inst, rid);
        }
    }

    // --------------------------------------------------------- lifecycle

    fn finish(&mut self, rid: RequestId) {
        let inst = self.requests[&rid].instance;
        self.load_table_remove(inst, rid);
        // Release boundary: observe the peak while the finished
        // request's KV is still resident (see `note_kv_peak`).
        self.note_kv_peak();
        // The flow record wants the resident KV footprint, which is gone
        // after the frees below — sum it first (enabled runs only).
        let kv_bytes = if self.telemetry.is_some() {
            (0..self.kv.len())
                .map(|d| self.kv.device(DeviceId(d as u32)).request_bytes(rid))
                .sum()
        } else {
            0
        };
        // Prefix registration reads the per-device footprint before the
        // frees too: the entry's byte vector is what a follow-up turn
        // would re-occupy (the cache itself lives in free memory — the
        // frees below proceed as always).
        let reuse = if self.cfg.prefix_reuse {
            let r = &self.requests[&rid];
            match (r.req.session, r.placement.as_ref()) {
                (Some(st), Some(p)) => {
                    let bytes: Vec<(DeviceId, u64)> = p
                        .devices()
                        .iter()
                        .map(|&d| (d, self.kv.device(d).request_bytes(rid)))
                        .collect();
                    Some((st, p.clone(), r.context_len(), bytes))
                }
                _ => None,
            }
        } else {
            None
        };
        for d in 0..self.kv.len() {
            self.kv.device_mut(DeviceId(d as u32)).free_request(rid);
        }
        if let Some((st, placement, tokens, bytes)) = reuse {
            self.prefix.insert(
                st.session,
                st.turn,
                crate::prefix::PrefixEntry {
                    tokens,
                    instance: inst,
                    placement,
                    bytes,
                    registered: (self.clock.now(), rid),
                },
            );
        }
        let r = self.requests.get_mut(&rid).expect("live");
        r.phase = Phase::Done;
        r.in_flight = false;
        let rec = CompletedRequest {
            id: rid,
            arrival: r.req.arrival,
            first_token: *r.token_times.first().expect("finished with tokens"),
            completion: *r.token_times.last().expect("finished with tokens"),
            input_len: r.req.input_len,
            output_len: r.req.output_len,
            preemptions: r.preemptions,
            redispatches: r.redispatches,
            class: r.req.class,
            tenant: r.req.tenant,
        };
        if let Some(bus) = self.telemetry.as_mut() {
            bus.complete(&FlowCompletion {
                req: rid,
                class: rec.class,
                tenant: rec.tenant,
                instance: inst as u32,
                arrival: rec.arrival,
                first_token: rec.first_token,
                completion: rec.completion,
                input_len: rec.input_len,
                output_len: rec.output_len,
                preemptions: rec.preemptions,
                redispatches: rec.redispatches,
                kv_bytes,
                prefix_hit_tokens: r.prefix_hit_tokens,
                prefix_shared_bytes: r.prefix_shared_bytes,
            });
        }
        self.completed.push(rec);
        self.running_dec(inst);
        self.remove_cohort_member(inst, rid);
    }

    fn ensure_cohort_member(&mut self, inst: usize, rid: RequestId) {
        let cohort = self.requests[&rid]
            .cohort
            .min(self.instances[inst].cohorts.len().saturating_sub(1));
        // If unassigned to a live cohort (hand-off), pick the emptiest.
        if self.instances[inst].cohorts[cohort].members.contains(&rid)
            || (self.requests[&rid].instance == inst
                && self.instances[inst]
                    .cohorts
                    .iter()
                    .any(|c| c.members.contains(&rid)))
        {
            return;
        }
        let (target, _) = self.instances[inst]
            .cohorts
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (c.members.len(), *i))
            .expect("instance has cohorts");
        self.requests.get_mut(&rid).expect("live").cohort = target;
        self.instances[inst].cohorts[target].members.push(rid);
    }

    /// Registers `rid`'s decode attention load in its cohort's
    /// incremental per-device table. All-integer accounting — each
    /// placement entry contributes `(heads, groups·(ctx+1)·unit)` — so
    /// later removals cancel exactly and the formed loads stay
    /// bit-identical to a from-scratch rebuild. Call on every transition
    /// *into* `Phase::Decoding` (after `ensure_cohort_member`).
    fn load_table_add(&mut self, inst: usize, rid: RequestId) {
        let gqa = self.model.gqa_ratio() as u64;
        let unit = 2 * self.model.head_dim * self.model.dtype.bytes();
        {
            let r = &self.requests[&rid];
            debug_assert!(
                r.phase == Phase::Decoding && !r.in_load_table,
                "load-table add of {rid:?} in phase {:?}",
                r.phase
            );
            let ctx = r.context_len() as u64 + 1;
            let placement = r.placement.as_ref().expect("decoding request placed");
            let cohort = &mut self.instances[inst].cohorts[r.cohort];
            for (s, stage_pl) in placement.per_stage.iter().enumerate() {
                for &(dev, heads) in stage_pl {
                    let e = cohort.load[s].entry(dev).or_insert((0, 0));
                    e.0 += heads as u64;
                    e.1 += heads as u64 / gqa * ctx * unit;
                }
            }
        }
        self.requests.get_mut(&rid).expect("live").in_load_table = true;
    }

    /// Removes `rid`'s contribution from its cohort's load table (no-op
    /// when not registered). Must run while the placement and context
    /// that were last mirrored into the table are still intact — i.e.
    /// *before* an eviction clears the placement or a re-dispatch
    /// installs a new one.
    fn load_table_remove(&mut self, inst: usize, rid: RequestId) {
        if !self.requests[&rid].in_load_table {
            return;
        }
        let gqa = self.model.gqa_ratio() as u64;
        let unit = 2 * self.model.head_dim * self.model.dtype.bytes();
        {
            let r = &self.requests[&rid];
            let ctx = r.context_len() as u64 + 1;
            let placement = r.placement.as_ref().expect("registered request placed");
            let cohort = &mut self.instances[inst].cohorts[r.cohort];
            for (s, stage_pl) in placement.per_stage.iter().enumerate() {
                for &(dev, heads) in stage_pl {
                    let e = cohort.load[s]
                        .get_mut(&dev)
                        .expect("registered device present");
                    e.0 -= heads as u64;
                    e.1 -= heads as u64 / gqa * ctx * unit;
                    if *e == (0, 0) {
                        cohort.load[s].remove(&dev);
                    }
                }
            }
        }
        self.requests.get_mut(&rid).expect("live").in_load_table = false;
    }

    /// Mirrors a one-token context growth of a registered request into
    /// its cohort's load table: every resident head group reads one more
    /// token next iteration.
    fn load_table_bump_ctx(&mut self, inst: usize, rid: RequestId) {
        let gqa = self.model.gqa_ratio() as u64;
        let unit = 2 * self.model.head_dim * self.model.dtype.bytes();
        let r = &self.requests[&rid];
        debug_assert!(r.in_load_table);
        let placement = r.placement.as_ref().expect("registered request placed");
        let cohort = &mut self.instances[inst].cohorts[r.cohort];
        for (s, stage_pl) in placement.per_stage.iter().enumerate() {
            for &(dev, heads) in stage_pl {
                let e = cohort.load[s]
                    .get_mut(&dev)
                    .expect("registered device present");
                e.1 += heads as u64 / gqa * unit;
            }
        }
    }

    /// Drops `rid` from its cohort's member and mid-prefill lists,
    /// located via the tracked [`RunningRequest::cohort`] (clamped: a
    /// hand-off may carry a cohort index from a deeper instance until
    /// `ensure_cohort_member` re-homes it).
    fn remove_cohort_member(&mut self, inst: usize, rid: RequestId) {
        let cohorts = &mut self.instances[inst].cohorts;
        let c = self.requests[&rid].cohort.min(cohorts.len() - 1);
        debug_assert!(
            cohorts
                .iter()
                .enumerate()
                .all(|(k, co)| k == c
                    || (!co.members.contains(&rid) && !co.prefilling.contains(&rid))),
            "request {rid:?} resident outside its tracked cohort {c}"
        );
        if let Some(pos) = cohorts[c].members.iter().position(|&m| m == rid) {
            cohorts[c].members.remove(pos);
        }
        if let Some(pos) = cohorts[c].prefilling.iter().position(|&m| m == rid) {
            cohorts[c].prefilling.remove(pos);
        }
    }

    /// Test/diagnostic access to the KV state.
    pub fn kv_state(&self) -> &KvState {
        &self.kv
    }

    /// Diagnostic: the per-instance incrementally-maintained running
    /// counters (requests in Prefilling/Decoding/Migrating). Exposed so
    /// tests can pin them against [`Engine::phase_summary`].
    pub fn running_counts(&self) -> Vec<usize> {
        self.instances.iter().map(|i| i.running).collect()
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
                Phase::Done => "done",
            };
            *out[r.instance].entry(name).or_insert(0) += 1;
        }
        out
    }
}

/// An empty record of a cluster change or replan at `time`.
fn replan_record(time: f64, event: impl Into<String>) -> ReplanRecord {
    ReplanRecord {
        time,
        event: event.into(),
        replan_latency: 0.0,
        evicted: 0,
        migrations_started: 0,
        lost_tokens: 0,
        replanned: false,
    }
}

/// Admission key of a request (see [`SlackKey`]).
fn slack_key(req: &hetis_workload::Request) -> SlackKey {
    SlackKey {
        deadline: req.arrival + req.class.target().ttft,
        arrival: req.arrival,
        id: req.id,
    }
}

/// Exact equality of formed stage loads (debug oracle check: integer
/// table accounting must reproduce the rebuilt map bit-for-bit).
#[cfg(debug_assertions)]
fn loads_equal(a: &[Vec<AttnLoad>], b: &[Vec<AttnLoad>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(l, m)| {
                    l.device == m.device
                        && l.remote == m.remote
                        && l.work.query_heads == m.work.query_heads
                        && l.work.kv_bytes == m.work.kv_bytes
                })
        })
}

/// Dilates a stage breakdown by a device slowdown factor.
fn scale_breakdown(b: StageBreakdown, factor: f64) -> StageBreakdown {
    if factor <= 1.0 {
        return b;
    }
    StageBreakdown {
        proj: b.proj * factor,
        mlp: b.mlp * factor,
        attn: b.attn * factor,
        comm: b.comm * factor,
        total: b.total * factor,
    }
}

/// Finds which instance a placement belongs to (best effort, for hand-off
/// rollback).
fn old_instance_of(placement: &HeadPlacement, topo: &Topology) -> Option<usize> {
    let first_dev = placement.per_stage.first()?.first()?.0;
    topo.instances.iter().position(|i| {
        i.stages
            .iter()
            .any(|s| s.attention_devices().contains(&first_dev))
    })
}
