//! Admission: the per-instance waiting queues, the choice of which
//! waiting requests join a cohort's next prefill, their joint placement
//! and their first KV reservation.

use super::{Engine, Phase};
use crate::config::{AdmissionPolicy, DECODE_HEADROOM_TOKENS, MAX_RUNNING};
use crate::control::PROTECTED_CLASS;
use crate::policy::{Policy, PolicyCtx};
use crate::topology::HeadPlacement;
use hetis_cluster::DeviceId;
use hetis_sim::FifoQueue;
use hetis_telemetry::FlowEventKind;
use hetis_workload::RequestId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Admission-ordering key of one waiting request under
/// [`AdmissionPolicy::SloSlack`]: the *static* TTFT deadline
/// `arrival + target` (slack at any common `now` orders identically),
/// then arrival, then id — a total order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct SlackKey {
    deadline: f64,
    arrival: f64,
    id: RequestId,
}

impl Eq for SlackKey {}

impl Ord for SlackKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Deadlines are finite-or-+inf and arrivals finite, so total_cmp
        // agrees with the partial order.
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

/// Admission key of a request (see [`SlackKey`]).
pub(super) fn slack_key(req: &hetis_workload::Request) -> SlackKey {
    SlackKey {
        deadline: req.arrival + req.class.target().ttft,
        arrival: req.arrival,
        id: req.id,
    }
}

/// An instance's admission queue. FIFO mode is the plain queue;
/// [`AdmissionPolicy::SloSlack`] keeps a deadline-keyed binary heap,
/// O(log n) per enqueue.
///
/// `front` holds requeue-at-front overrides: a blocked or evicted request
/// goes ahead of the deadline order until the next dispatch round folds
/// it back into the heap.
#[derive(Debug)]
pub(super) enum WaitQueue {
    Fifo(FifoQueue<RequestId>),
    Slack {
        heap: BinaryHeap<Reverse<SlackKey>>,
        front: VecDeque<SlackKey>,
    },
}

impl WaitQueue {
    pub(super) fn new(admission: AdmissionPolicy) -> WaitQueue {
        match admission {
            AdmissionPolicy::Fifo => WaitQueue::Fifo(FifoQueue::new()),
            AdmissionPolicy::SloSlack => WaitQueue::Slack {
                heap: BinaryHeap::new(),
                front: VecDeque::new(),
            },
        }
    }

    pub(super) fn enqueue(&mut self, key: SlackKey) {
        match self {
            WaitQueue::Fifo(q) => q.enqueue(key.id),
            WaitQueue::Slack { heap, .. } => heap.push(Reverse(key)),
        }
    }

    pub(super) fn requeue_front(&mut self, key: SlackKey) {
        match self {
            WaitQueue::Fifo(q) => q.requeue_front(key.id),
            WaitQueue::Slack { front, .. } => front.push_front(key),
        }
    }

    pub(super) fn dequeue(&mut self) -> Option<RequestId> {
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

    pub(super) fn len(&self) -> usize {
        match self {
            WaitQueue::Fifo(q) => q.len(),
            WaitQueue::Slack { heap, front } => heap.len() + front.len(),
        }
    }

    /// Folds requeue-at-front overrides back into deadline order, once
    /// per dispatch round (O(k log n) for k overrides).
    pub(super) fn merge_front(&mut self) {
        if let WaitQueue::Slack { heap, front } = self {
            for k in front.drain(..) {
                heap.push(Reverse(k));
            }
        }
    }
}

impl<'a, P: Policy> Engine<'a, P> {
    /// Requests of `inst` in a running phase (Prefilling, Decoding or
    /// Migrating): its live requests less its queue, since every move
    /// into `Phase::Waiting` is followed by an enqueue on the request's
    /// own instance.
    pub(super) fn running_count(&self, inst: usize) -> usize {
        let running = self.live[inst] - self.instances[inst].waiting.len();
        debug_assert_eq!(
            running,
            self.scan_running(inst),
            "running count drifted for instance {inst}"
        );
        running
    }

    /// The O(#requests) definition of [`Self::running_count`], kept as the
    /// debug-build oracle it is checked against.
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

    /// New admissions into `cohort` of `inst` under what the iteration
    /// budget leaves after `tokens` of continuing chunks: dequeues
    /// candidates in queue order (a candidate's budget contribution is
    /// its first chunk, so a long prompt does not block the queue behind
    /// it), places the prefix-cache misses jointly through the policy,
    /// reserves each candidate's KV, and appends each admitted request's
    /// `(request, chunk, prior)` entry to `entries`.
    ///
    /// KV reservation is fine-grained under chunked prefill: admission
    /// reserves the *first chunk plus decode headroom* instead of the
    /// whole prompt, and every continuing chunk grows the reservation
    /// before its compute is scheduled. Atomic prefill reserves the whole
    /// prompt.
    pub(super) fn admit(
        &mut self,
        inst: usize,
        cohort: usize,
        entries: &mut Vec<(RequestId, u64, u64)>,
        mut tokens: u64,
    ) {
        let chunk_cap = self.mode.prefill.chunk().unwrap_or(u64::MAX);
        let incremental = self.mode.prefill.chunk().is_some();
        let headroom = DECODE_HEADROOM_TOKENS;
        let budget = self.mode.max_batch_tokens;
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
        let protect = self.throttle_admission.then_some(PROTECTED_CLASS);
        let mut deferred: Vec<SlackKey> = Vec::new();
        if running < MAX_RUNNING && tokens < budget {
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
        if candidates.is_empty() {
            return;
        }

        // Joint placement of the admission batch (the paper's J(t)).
        // Placement always covers the FULL effective prompt (the LP's
        // capacity term stays conservative so later growth fits), but the
        // KV *reservation* is fine-grained: first chunk + decode headroom
        // under chunking, the whole prompt under atomic admission. It
        // covers the MISS subset only: a prefix hit's placement is pinned
        // to the cached entry's (the warm KV physically sits on those
        // devices).
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

        let mut admitted: Vec<RequestId> = Vec::new();
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
            // A hit reserves warm + first cold chunk; a miss reserves its
            // first chunk (incremental) or the whole prompt (atomic; a
            // hit's cold span is its whole "prompt" there).
            let reserve = if incremental {
                warm.saturating_add(((eff - warm) as u64).min(chunk_cap) as u32)
                    .saturating_add(headroom)
            } else {
                eff
            };
            // Incremental admission only reserves the first chunk, so
            // guard against prompts whose FULL KV could never fit the
            // placement even on empty pools: without this they would be
            // admitted cheaply, thrash through grow-fail → evict →
            // re-admit cycles and burn compute forever; with it they stay
            // queued exactly like an atomic admission whose full-prompt
            // allocation fails.
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
        // front: FIFO keeps positions; slack mode folds the override back
        // into deadline order next round).
        if let Some(k) = blocked_from {
            for &rid in candidates[k..].iter().rev() {
                let key = slack_key(&self.requests[&rid].req);
                self.instances[inst].waiting.requeue_front(key);
            }
        }

        let now = self.clock.now().as_secs();
        for rid in admitted {
            let r = self.requests.get_mut(&rid).expect("live");
            r.phase = Phase::Prefilling;
            r.cohort = cohort;
            r.admitted_at = Some(now);
            // `prefilled` is the warm prefix for a hit (set at consume),
            // 0 for a miss — so the first chunk is the cold remainder and
            // its attention prior (`2·p·c`) covers the warm span.
            let chunk = (r.remaining_prefill() as u64).min(chunk_cap);
            let prior = r.prefilled as u64;
            entries.push((rid, chunk, prior));
            self.instances[inst].cohorts[cohort].prefilling.push(rid);
            self.tap(FlowEventKind::Admission { req: rid });
        }
    }

    /// Allocates `tokens` tokens of KV for `rid` per `placement` (the
    /// whole effective prompt under atomic admission, the first chunk +
    /// decode headroom under incremental growth); on failure undoes
    /// everything and returns false.
    pub(super) fn try_alloc_prompt(
        &mut self,
        rid: RequestId,
        placement: HeadPlacement,
        tokens: u32,
    ) -> bool {
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
        let blocks = self.kv.blocks_for(tokens);
        let mut done: Vec<DeviceId> = Vec::new();
        for (s, stage_pl) in placement.per_stage.iter().enumerate() {
            let layers = self.topo.instances[r.instance].stages[s].primary.layers;
            for &(dev, heads) in stage_pl {
                let groups = heads / gqa;
                let res = self
                    .kv
                    .device_mut(dev)
                    .allocate(rid, s as u16, groups, blocks, layers);
                if res.is_err() {
                    // `free_request` drops every stage's entry on a device.
                    for &d in &done {
                        self.kv.device_mut(d).free_request(rid);
                    }
                    return false;
                }
                if !done.contains(&dev) {
                    done.push(dev);
                }
            }
        }
        let r = self.requests.get_mut(&rid).expect("live");
        r.placement = Some(placement);
        r.reserve(tokens);
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
}
