//! The decode hot path: the iteration former, microbatch completion, KV
//! growth and its victim loop, eviction, and each cohort's incremental
//! decode load table.

use super::{slack_key, Engine, Event};
use crate::config::DECODE_HEADROOM_TOKENS;
use crate::metrics::{CompletedRequest, ModuleSample};
use crate::policy::{Policy, PolicyCtx, VictimAction};
use crate::request::{Phase, RunningRequest};
use crate::stage::{fused_stage_breakdown, AttnLoad, StageBreakdown};
use crate::topology::InstanceRole;
use hetis_cluster::{AttnWork, DeviceId};
use hetis_model::ModelSpec;
use hetis_parallel::PrefillBatch;
use hetis_sim::FxHashMap;
use hetis_telemetry::{FlowCompletion, FlowEventKind};
use hetis_workload::RequestId;

/// One in-flight iteration of a cohort. Either side may be empty, not
/// both; both are populated only for a fused iteration.
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
    /// The decode participants' query heads, summed per (stage, device):
    /// what their tokens add to the cohort's load table on completion.
    decode_heads: StageHeads,
}

/// Query-head totals per (stage index, device), in no particular order.
type StageHeads = Vec<(usize, DeviceId, u64)>;

/// A formed decode batch: its participants, their per-stage attention
/// loads and their head totals.
type DecodeBatch = (Vec<RequestId>, Vec<Vec<AttnLoad>>, StageHeads);

#[derive(Debug, Clone, Default)]
pub(super) struct Cohort {
    /// Decoding-phase requests owned by this cohort.
    members: Vec<RequestId>,
    /// Requests mid-prefill in this cohort, in admission order. Under
    /// chunked prefill a request stays here across chunks; with atomic
    /// prefill it enters and leaves within one microbatch lifetime.
    pub(super) prefilling: Vec<RequestId>,
    /// True when the last iteration this cohort executed carried a
    /// prefill chunk; the alternating disciplines give the next one to
    /// decode so a long chunked prompt cannot starve resident decodes
    /// (see [`Engine::decode_turn`]).
    last_carried_chunk: bool,
    in_flight: Option<Ubatch>,
    /// Incremental per-stage decode attention loads: for every pipeline
    /// stage, `device → (query heads, decode KV read bytes)` summed over
    /// the cohort's registered decoding members at their *current*
    /// context ([`load_entries`]). All-integer, so adds and removes are
    /// exact and the formed loads are bit-identical to a from-scratch
    /// rebuild — which `debug_assert` checks on every formation.
    /// Maintained on decode entry/exit, re-dispatch and eviction, and
    /// advanced once per completed iteration by its participants' head
    /// totals ([`Ubatch::decode_heads`]).
    load: Vec<FxHashMap<DeviceId, (u64, u64)>>,
    /// Members registered in `load`: kept by `load_table_add` and
    /// `load_table_remove`, and checked against a scan of `members` in
    /// debug builds.
    registered: usize,
}

impl Cohort {
    /// An empty cohort of an instance with `depth` pipeline stages.
    pub(super) fn new(depth: usize) -> Cohort {
        Cohort {
            load: vec![FxHashMap::default(); depth],
            ..Cohort::default()
        }
    }
}

/// What the victim loop made of a growth attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grow {
    /// Every entry of the grower reached the target.
    Grown,
    /// The policy stalled, or 64 victims freed too little: nothing grew.
    Blocked,
    /// A victim decision took the grower itself (evicted or
    /// re-dispatched): nothing grew.
    Gone,
}

/// `r`'s entries in its cohort's load table at its current context, one
/// per placement entry: `(stage, device, query heads, decode KV read
/// bytes)`, the read being `heads / gqa × (ctx + 1) × unit` bytes. The
/// one definition behind the table's adds and removals, the sit-out
/// subtraction of [`Engine::stage_loads_for`] and the churn subtraction
/// of [`Engine::on_ubatch_done`]; integer-valued, so a removal cancels
/// its add exactly.
fn load_entries<'r>(
    model: &ModelSpec,
    r: &'r RunningRequest,
) -> impl Iterator<Item = (usize, DeviceId, u64, u64)> + 'r {
    let gqa = model.gqa_ratio() as u64;
    let unit = 2 * model.head_dim * model.dtype.bytes();
    let ctx = r.context_len() as u64 + 1;
    let placement = r.placement.as_ref().expect("decoding request placed");
    placement
        .per_stage
        .iter()
        .enumerate()
        .flat_map(move |(s, stage_pl)| {
            stage_pl.iter().map(move |&(dev, heads)| {
                let heads = heads as u64;
                (s, dev, heads, heads / gqa * ctx * unit)
            })
        })
}

impl<'a, P: Policy> Engine<'a, P> {
    // ------------------------------------------------------------ dispatch

    pub(super) fn try_dispatch(&mut self, inst: usize) {
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

        // The cohort loop below only dequeues from the front and
        // re-queues blocked prefixes in order, both of which preserve the
        // admission order; this round's requeue-at-front overrides fold
        // back into it first (no-op under FIFO).
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

    /// Runs dispatch on every instance — after anything that may have
    /// re-homed requests onto instances with no event of their own.
    pub(super) fn dispatch_all(&mut self) {
        for i in 0..self.instances.len() {
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
        let fused = self.mode.prefill.fused();
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
            && co
                .prefilling
                .iter()
                .any(|rid| chunk_pending(&self.requests[rid]))
            && co
                .members
                .iter()
                .any(|rid| self.requests[rid].phase == Phase::Decoding)
    }

    /// Selects this cohort's prefill work — continuing chunks of
    /// mid-prefill residents first (admission order), then new admissions
    /// ([`Self::admit`]) under the remaining budget — and commits the
    /// per-request state (phase, cohort membership, KV reservation).
    /// Returns the scheduled `(request, chunk, prior)` entries; empty
    /// when nothing can form, and always on a decode-only instance.
    ///
    /// Every continuing chunk grows its request's KV reservation
    /// ([`Self::try_grow_tokens`]) before its compute is scheduled; a
    /// request whose growth fails is recompute-preempted and requeued —
    /// never silently truncated.
    fn collect_prefill_entries(
        &mut self,
        inst: usize,
        cohort: usize,
    ) -> Vec<(RequestId, u64, u64)> {
        if self.topo.instances[inst].role == InstanceRole::DecodeOnly {
            return Vec::new();
        }
        // Closed-loop pacing does NOT shrink the chunk cap — it gates how
        // many chunk tokens may ride a *fused* iteration (see
        // `form_iteration`), so paced drains still move full chunks.
        let chunk_cap = self.mode.prefill.chunk().unwrap_or(u64::MAX);
        let budget = self.mode.max_batch_tokens;

        // Continuing chunks: mid-prefill residents of this cohort go first
        // (admission order), each contributing its next chunk under the
        // iteration budget. Empty in atomic mode — prompts never outlive
        // one microbatch there.
        let mut entries: Vec<(RequestId, u64, u64)> = Vec::new(); // (rid, chunk, prior)
        let mut tokens = 0u64;
        let continuing: Vec<RequestId> = self.instances[inst].cohorts[cohort]
            .prefilling
            .iter()
            .copied()
            .filter(|rid| chunk_pending(&self.requests[rid]))
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
            // This chunk's KV must be reserved before its compute runs.
            // `prior + chunk ≤ effective_input` always, so the reservation
            // never exceeds prompt + headroom.
            let target = ((prior + chunk) as u32).saturating_add(DECODE_HEADROOM_TOKENS);
            if r.kv_reserved < target && !self.try_grow_tokens(inst, rid, target) {
                continue;
            }
            tokens += chunk;
            entries.push((rid, chunk, prior));
            if tokens >= budget {
                break;
            }
        }
        self.admit(inst, cohort, &mut entries, tokens);
        entries
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
        self.tally.prefill_tokens += batch.tokens;
        self.tally.prefill_iterations += 1;
        self.tally.max_prefill_iter_tokens = self.tally.max_prefill_iter_tokens.max(batch.tokens);
        batch
    }

    /// Forms the cohort's decode batch: appends every ready member's next
    /// token (the policy handles exhaustion) and derives the per-stage
    /// attention loads and head totals from the incremental load table.
    /// `None` when no member can decode this iteration, and always on a
    /// prefill-only instance.
    fn collect_decode_batch(&mut self, inst: usize, cohort: usize) -> Option<DecodeBatch> {
        if self.topo.instances[inst].role == InstanceRole::PrefillOnly {
            return None;
        }
        let members = self.instances[inst].cohorts[cohort].members.clone();
        // Evictions and re-dispatches so far: a victim move is the only
        // way a member leaves `Decoding` during the appends below (no
        // member enters it there).
        let moves = self.tally.preemptions + self.tally.migrations;

        let mut batch: Vec<RequestId> = Vec::with_capacity(members.len());
        let mut any_decoding = false;
        for rid in members {
            // A member whose KV is moving sits out, as does one that a
            // victim decision for an earlier member evicted or migrated.
            if self.requests[&rid].phase != Phase::Decoding {
                continue;
            }
            any_decoding = true;
            if self.try_append_token(inst, rid) {
                batch.push(rid);
            }
        }
        if !any_decoding {
            return None;
        }
        // One peak observation for the whole batch's appends (each append
        // is tiny; sweeping the cluster ledger per token would tax the
        // hot loop for nothing).
        self.note_kv_peak();
        // A victim decision taken for a *later* member can evict or
        // migrate a request that already joined the batch — drop it (its
        // KV, including the appended token, was released by the eviction).
        if self.tally.preemptions + self.tally.migrations != moves {
            batch.retain(|rid| self.requests[rid].phase == Phase::Decoding);
        }
        if batch.is_empty() {
            return None;
        }
        let (stage_loads, heads) = self.stage_loads_for(inst, cohort, &batch);
        Some((batch, stage_loads, heads))
    }

    /// Per-stage attention loads and query-head totals of `batch`, read
    /// from the cohort's incremental load table: the table's totals cover
    /// every registered decoding member, so the only per-iteration work is
    /// subtracting the (rare) registered members excluded from this batch,
    /// from a copy of the table, and converting the integer aggregates to
    /// [`AttnLoad`]s. Debug builds check the result bit for bit against
    /// [`Self::rebuild_stage_loads`] on every formation.
    fn stage_loads_for(
        &self,
        inst: usize,
        cohort: usize,
        batch: &[RequestId],
    ) -> (Vec<Vec<AttnLoad>>, StageHeads) {
        let co = &self.instances[inst].cohorts[cohort];
        debug_assert_eq!(
            co.registered,
            co.members
                .iter()
                .filter(|rid| self.requests[rid].in_load_table)
                .count(),
            "registered-member counter drifted for cohort {cohort} of instance {inst}"
        );
        let adjusted: Vec<FxHashMap<DeviceId, (u64, u64)>>;
        let mut per_stage = &co.load;
        if co.registered != batch.len() {
            // Some registered members sit this iteration out (stalled on
            // memory, racing a victim decision): take them off the totals.
            let mut copy = co.load.clone();
            let in_batch: std::collections::HashSet<RequestId> = batch.iter().copied().collect();
            for &rid in co.members.iter() {
                let r = &self.requests[&rid];
                if !r.in_load_table || in_batch.contains(&rid) {
                    continue;
                }
                for (s, dev, heads, kv) in load_entries(self.model, r) {
                    let e = copy[s].get_mut(&dev).expect("registered device");
                    e.0 -= heads;
                    e.1 -= kv;
                }
            }
            adjusted = copy;
            per_stage = &adjusted;
        }
        let mut stage_loads: Vec<Vec<AttnLoad>> = Vec::with_capacity(per_stage.len());
        let mut heads: StageHeads = Vec::new();
        for (s, map) in per_stage.iter().enumerate() {
            let primary = &self.topo.instances[inst].stages[s].primary.devices;
            let mut loads: Vec<AttnLoad> = map
                .iter()
                .filter(|&(_, &(h, k))| h != 0 || k != 0)
                .map(|(&device, &(h, k))| {
                    heads.push((s, device, h));
                    AttnLoad {
                        device,
                        work: AttnWork {
                            query_heads: h as f64,
                            kv_bytes: k as f64,
                        },
                        remote: !primary.contains(&device),
                    }
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
        (stage_loads, heads)
    }

    /// The from-scratch load computation, kept as the debug-build oracle
    /// [`Engine::stage_loads_for`] is checked against: it restates the
    /// per-request read on its own rather than through [`load_entries`].
    #[cfg(debug_assertions)]
    fn rebuild_stage_loads(&self, inst: usize, batch: &[RequestId]) -> Vec<Vec<AttnLoad>> {
        let n_stages = self.topo.instances[inst].depth();
        let mut stage_loads: Vec<Vec<AttnLoad>> = Vec::with_capacity(n_stages);
        let r = self.model.gqa_ratio() as u64;
        let unit = 2 * self.model.head_dim * self.model.dtype.bytes();
        for s in 0..n_stages {
            let mut per_dev: std::collections::HashMap<DeviceId, AttnWork> =
                std::collections::HashMap::new();
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
        (batch, stage_loads, heads): DecodeBatch,
    ) {
        let chunk = self.prefill_batch_of(&entries);
        for rid in &batch {
            self.requests.get_mut(rid).expect("live").in_flight = true;
        }
        if !entries.is_empty() && !batch.is_empty() {
            self.tally.fused_iterations += 1;
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
            self.tally.module_samples.push(ModuleSample {
                time: self.clock.now().as_secs(),
                mlp: max_mlp * n as f64,
                attn: max_attn * n as f64,
            });
        }
        let co = &mut self.instances[inst].cohorts[cohort];
        co.last_carried_chunk = !entries.is_empty();
        co.in_flight = Some(Ubatch {
            reqs: entries.iter().map(|&(rid, ..)| rid).collect(),
            chunks: entries.iter().map(|&(_, c, _)| c as u32).collect(),
            decode_reqs: batch,
            decode_heads: heads,
        });
        self.events
            .schedule(arrive, Event::UbatchDone { inst, cohort });
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

    // ---------------------------------------------------------- completion

    pub(super) fn on_ubatch_done(&mut self, inst: usize, cohort: usize) {
        let now = self.clock.now().as_secs();
        let ub = self.instances[inst].cohorts[cohort]
            .in_flight
            .take()
            .expect("completion without in-flight microbatch");
        let mut evicted_any = false;
        // Without a dead device or a downed instance no participant can
        // have lost its KV, so the per-participant check is skipped.
        let churned = self.churn_struck();
        // Prefill participants first (chunk bookkeeping, prefill→decode
        // transitions), then decode participants — within one fused
        // iteration the order is immaterial (both sets are disjoint and
        // complete at the same simulated instant).
        for (rid, chunk) in ub.reqs.into_iter().zip(ub.chunks) {
            let invalidated = churned && self.churn_invalidated(rid);
            let r = self.requests.get_mut(&rid).expect("live request");
            r.in_flight = false;
            if invalidated {
                // The instance died or the KV landed (partly) on a
                // dead device mid-flight: the prefill is lost.
                self.churn_evict(rid);
                evicted_any = true;
                continue;
            }
            r.prefilled += chunk;
            let mid_prefill = r.prefilled < r.effective_input;
            self.tap(FlowEventKind::PrefillChunk {
                req: rid,
                chunk_tokens: chunk,
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
            self.remove_cohort_member(inst, rid);
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
        // Every surviving decode participant's context grows a token:
        // advance the load table by the survivors' head totals before
        // any removal reads it. A churn-invalidated participant loses its
        // token, so its heads leave the totals and it leaves the table
        // below at the context the table still holds for it.
        // Empty unless churn struck: participant `k` is invalidated when
        // `invalidated[k]` is true.
        let invalidated: Vec<bool> = if churned {
            ub.decode_reqs
                .iter()
                .map(|&rid| self.churn_invalidated(rid))
                .collect()
        } else {
            Vec::new()
        };
        let mut heads = ub.decode_heads;
        for (rid, _) in ub.decode_reqs.iter().zip(&invalidated).filter(|(_, &i)| i) {
            for (s, dev, h, _) in load_entries(self.model, &self.requests[rid]) {
                let total = heads
                    .iter_mut()
                    .find(|&&mut (st, d, _)| st == s && d == dev)
                    .expect("participant counted at formation");
                total.2 -= h;
            }
        }
        self.load_table_advance(inst, cohort, &heads);
        for (k, rid) in ub.decode_reqs.into_iter().enumerate() {
            let r = self.requests.get_mut(&rid).expect("live request");
            r.in_flight = false;
            if invalidated.get(k) == Some(&true) {
                self.churn_evict(rid);
                evicted_any = true;
                continue;
            }
            r.push_token(now);
            if r.is_complete() {
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

    /// Retires a request whose last token was produced: frees its KV,
    /// registers its context for prefix reuse, closes its flow record and
    /// records its completion.
    fn finish(&mut self, rid: RequestId) {
        let inst = self.requests[&rid].instance;
        // The flow record wants the resident KV footprint, which is gone
        // after the release below — sum it first (enabled runs only).
        let kv_bytes = if self.telemetry.is_some() {
            (0..self.kv.len())
                .map(|d| self.kv.device(DeviceId(d as u32)).request_bytes(rid))
                .sum()
        } else {
            0
        };
        self.register_prefix(rid, inst);
        self.release_kv(inst, rid);
        // Retire the request: the map holds live requests only, so no
        // per-event scan pays for the history of the run.
        let r = self.requests.remove(&rid).expect("live");
        self.live[inst] -= 1;
        let rec = CompletedRequest {
            id: rid,
            arrival: r.req.arrival,
            first_token: r.first_token_at.expect("finished with tokens"),
            completion: r.last_token_at.expect("finished with tokens"),
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
        self.tally.completed.push(rec);
    }

    // ---------------------------------------------------------- KV growth

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
    pub(super) fn note_kv_peak(&mut self) {
        let used: u64 = (0..self.kv.len())
            .map(|d| self.kv.device(DeviceId(d as u32)).used_bytes())
            .sum();
        self.tally.peak_kv_reserved_bytes = self.tally.peak_kv_reserved_bytes.max(used);
    }

    /// Grows `rid`'s KV reservation to `new_total` tokens on every device
    /// of its placement — run before each continuing chunk is scheduled.
    /// Returns false when the growth failed: the grower has then been
    /// evicted and requeued whole (recompute keeps every token; nothing
    /// is truncated), and the failure is counted.
    fn try_grow_tokens(&mut self, inst: usize, rid: RequestId, new_total: u32) -> bool {
        let blocks = self.kv.blocks_for(new_total);
        match self.grow_under_pressure(inst, rid, blocks) {
            Grow::Grown => {
                self.requests
                    .get_mut(&rid)
                    .expect("live")
                    .reserve(new_total);
                self.tally.kv_growths += 1;
                self.note_kv_peak();
                return true;
            }
            Grow::Blocked => self.evict(rid),
            Grow::Gone => {}
        }
        self.tally.kv_grow_failures += 1;
        false
    }

    /// Appends one decode token to `rid`'s KV. Only a token that opens a
    /// block touches the ledger: it grows every entry by one block,
    /// all-or-nothing, consulting the policy on exhaustion. Returns false
    /// when the request cannot proceed this iteration.
    fn try_append_token(&mut self, inst: usize, rid: RequestId) -> bool {
        let r = self.requests.get_mut(&rid).expect("live");
        // Decode headroom: tokens inside the admission-time reservation
        // are prepaid — the resident entries already cover them, so the
        // first appends after prefill completion consume the cushion
        // instead of allocating (and can never hit the victim path).
        // Atomic admission reserves exactly the effective prompt, whose
        // context has already outgrown it by the first decode append, so
        // this branch never fires there.
        if r.context_len() < r.decode_prepaid {
            return true;
        }
        let blocks = self.kv.blocks_for(r.kv_reserved + 1);
        // The token lands in the last block's free slots: no device.
        if blocks == self.kv.blocks_for(r.kv_reserved) {
            r.kv_reserved += 1;
            return true;
        }
        // Peak sampling happens once per decode batch in
        // `collect_decode_batch`, not per append.
        if self.grow_under_pressure(inst, rid, blocks) != Grow::Grown {
            return false;
        }
        self.requests.get_mut(&rid).expect("live").kv_reserved += 1;
        true
    }

    /// The victim loop behind both growth paths (§5.3.2: chunk growth
    /// and decode appends are the same memory pressure): grows every
    /// entry of `rid` to `blocks` blocks, asking the policy for a victim
    /// on the lowest-id device that lacks the room. Each pass evicts or
    /// re-dispatches one victim or ends the loop; 64 passes bound it.
    fn grow_under_pressure(&mut self, inst: usize, rid: RequestId, blocks: u32) -> Grow {
        for _ in 0..64 {
            let Some(dev) = self.grow_or_blocked(rid, blocks) else {
                return Grow::Grown;
            };
            let victim = match self.policy.select_victim(inst, dev, rid, &ctx!(self)) {
                VictimAction::Stall => return Grow::Blocked,
                VictimAction::Evict(victim) => {
                    self.evict(victim);
                    victim
                }
                VictimAction::Redispatch(victim, placement) => {
                    // The planned grows may no longer fit (block rounding,
                    // racing allocations): fall back to eviction so the
                    // loop always makes progress.
                    if !self.execute_redispatch(victim, placement) {
                        self.evict(victim);
                    }
                    victim
                }
            };
            if victim == rid {
                return Grow::Gone;
            }
        }
        Grow::Blocked
    }

    /// Grows every entry of `rid` to `blocks` blocks when each device of
    /// its placement has the room, and returns `None`; otherwise returns
    /// the lowest-id device that lacks it, and changes nothing. Reads the
    /// placement in place: a device serving several stages is checked and
    /// grown once per stage, and every visit after the first finds its
    /// entries already at `blocks`.
    fn grow_or_blocked(&mut self, rid: RequestId, blocks: u32) -> Option<DeviceId> {
        let placement = self.requests[&rid]
            .placement
            .as_ref()
            .expect("growing request placed");
        let devices = || placement.per_stage.iter().flatten().map(|&(d, _)| d);
        let blocked = devices()
            .filter(|&d| {
                let kv = self.kv.device(d);
                kv.grow_cost(rid, blocks) > kv.free_bytes()
            })
            .min();
        if blocked.is_none() {
            for d in devices() {
                self.kv
                    .device_mut(d)
                    .grow_blocks(rid, blocks)
                    .expect("checked headroom");
            }
        }
        blocked
    }

    // ------------------------------------------------------------ eviction

    /// Recompute-preempts a victim of memory pressure: KV freed
    /// everywhere, back to the front of its instance's waiting queue. A
    /// decode-only instance never admits, so its victims re-queue wherever
    /// arrivals route instead, and that instance is dispatched when the
    /// current dispatch ends.
    pub(super) fn evict(&mut self, rid: RequestId) {
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
            self.set_instance(rid, target);
            if !self.rehomed.contains(&target) {
                self.rehomed.push(target);
            }
        }
        let key = slack_key(&req);
        self.instances[target].waiting.requeue_front(key);
    }

    /// The release half of every preemption ([`Self::evict`] and
    /// [`Self::churn_evict`]): releases `rid`'s KV and resets it for a
    /// recompute re-prefill. Returns its instance and the lost context
    /// tokens.
    pub(super) fn release_preempted(&mut self, rid: RequestId) -> (usize, u64) {
        let (inst, lost) = {
            let r = &self.requests[&rid];
            assert!(!r.in_flight, "cannot preempt an in-flight request");
            (r.instance, r.req.input_len + r.generated)
        };
        self.release_kv(inst, rid);
        self.requests
            .get_mut(&rid)
            .expect("live")
            .preempt_recompute();
        self.tally.preemptions += 1;
        (inst, lost as u64)
    }

    /// Takes `rid` off its cohort and load table and frees its KV
    /// everywhere — the release common to completion and preemption. The
    /// peak is observed first, while the KV is still resident (see
    /// [`Self::note_kv_peak`]).
    fn release_kv(&mut self, inst: usize, rid: RequestId) {
        self.load_table_remove(inst, rid);
        self.note_kv_peak();
        for d in 0..self.kv.len() {
            self.kv.device_mut(DeviceId(d as u32)).free_request(rid);
        }
        self.remove_cohort_member(inst, rid);
    }

    // -------------------------------------------------- cohorts and loads

    /// Makes `rid`, a request of `inst` entering `Phase::Decoding`, a
    /// member of one of its cohorts: a re-dispatched request is still a
    /// member of its own; anyone else (after prefill or a hand-off) joins
    /// the emptiest.
    pub(super) fn ensure_cohort_member(&mut self, inst: usize, rid: RequestId) {
        debug_assert_eq!(self.requests[&rid].instance, inst);
        let cohorts = &self.instances[inst].cohorts;
        if cohorts.iter().any(|c| c.members.contains(&rid)) {
            return;
        }
        let (target, _) = cohorts
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (c.members.len(), *i))
            .expect("instance has cohorts");
        self.requests.get_mut(&rid).expect("live").cohort = target;
        self.instances[inst].cohorts[target].members.push(rid);
    }

    /// Registers `rid`'s decode attention load ([`load_entries`]) in its
    /// cohort's table. Call on every transition *into*
    /// `Phase::Decoding` (after `ensure_cohort_member`).
    pub(super) fn load_table_add(&mut self, inst: usize, rid: RequestId) {
        let r = &self.requests[&rid];
        debug_assert!(
            r.phase == Phase::Decoding && !r.in_load_table,
            "load-table add of {rid:?} in phase {:?}",
            r.phase
        );
        let cohort = &mut self.instances[inst].cohorts[r.cohort];
        for (s, dev, heads, kv) in load_entries(self.model, r) {
            let e = cohort.load[s].entry(dev).or_insert((0, 0));
            e.0 += heads;
            e.1 += kv;
        }
        cohort.registered += 1;
        self.requests.get_mut(&rid).expect("live").in_load_table = true;
    }

    /// Removes `rid`'s contribution from its cohort's load table (no-op
    /// when not registered). Must run while the placement and context
    /// that were last mirrored into the table are still intact — i.e.
    /// *before* an eviction clears the placement or a re-dispatch
    /// installs a new one.
    pub(super) fn load_table_remove(&mut self, inst: usize, rid: RequestId) {
        let r = &self.requests[&rid];
        if !r.in_load_table {
            return;
        }
        let cohort = &mut self.instances[inst].cohorts[r.cohort];
        for (s, dev, heads, kv) in load_entries(self.model, r) {
            let e = cohort.load[s]
                .get_mut(&dev)
                .expect("registered device present");
            e.0 -= heads;
            e.1 -= kv;
            if *e == (0, 0) {
                cohort.load[s].remove(&dev);
            }
        }
        cohort.registered -= 1;
        self.requests.get_mut(&rid).expect("live").in_load_table = false;
    }

    /// Mirrors one decoded token of every survivor of an iteration into
    /// the cohort's load table, given their query-head totals: every
    /// resident head group reads one more token next iteration. Each
    /// placement entry's heads are a whole number of groups, so one
    /// `heads / gqa × unit` per device equals the per-request sum.
    fn load_table_advance(&mut self, inst: usize, cohort: usize, heads: &[(usize, DeviceId, u64)]) {
        let gqa = self.model.gqa_ratio() as u64;
        let unit = 2 * self.model.head_dim * self.model.dtype.bytes();
        let load = &mut self.instances[inst].cohorts[cohort].load;
        for &(s, dev, h) in heads.iter().filter(|&&(.., h)| h > 0) {
            let e = load[s].get_mut(&dev).expect("registered device present");
            e.1 += h / gqa * unit;
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
}

/// Whether `r` is mid-prefill, idle, with a chunk left to run.
fn chunk_pending(r: &RunningRequest) -> bool {
    r.phase == Phase::Prefilling && !r.in_flight && r.remaining_prefill() > 0
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
