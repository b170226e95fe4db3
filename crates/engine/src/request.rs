//! Runtime request state inside the engine.

use crate::topology::HeadPlacement;
use hetis_cluster::DeviceId;
use hetis_workload::Request;

/// Lifecycle phase of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// In an instance's waiting queue (not yet prefilled, or preempted).
    Waiting,
    /// In a prefill microbatch in flight.
    Prefilling,
    /// Decoding: has KV resident, produces one token per iteration.
    Decoding,
    /// Temporarily blocked on a KV migration (post-prefill scatter,
    /// Splitwise handoff, or a re-dispatch move).
    Migrating,
}

/// A request being served.
#[derive(Debug, Clone)]
pub struct RunningRequest {
    /// The immutable workload request.
    pub req: Request,
    /// Current phase.
    pub phase: Phase,
    /// Instance currently responsible.
    pub instance: usize,
    /// Cohort (virtual engine) within the instance, assigned at admission.
    pub cohort: usize,
    /// Tokens generated so far (the prefill iteration produces the first).
    pub generated: u32,
    /// Prompt tokens *for the current prefill* — grows on recompute
    /// preemption (prompt + already-generated are re-prefilled together).
    pub effective_input: u32,
    /// Prompt tokens already processed by completed prefill chunks of the
    /// current prefill (0 unless mid-chunked-prefill; always 0 when
    /// chunking is off, where a prefill completes atomically). Reset on
    /// recompute preemption — the whole context re-prefills.
    pub prefilled: u32,
    /// The token count every KV entry of the request covers: each entry
    /// holds `ceil(kv_reserved / block size)` blocks, on every device of
    /// the placement. Atomic admission reserves the whole effective
    /// prompt; incremental growth (chunked prefill) reserves the first
    /// chunk plus decode headroom and grows per completed chunk; every
    /// decode append past [`Self::decode_prepaid`] adds one token, and
    /// only a token that opens a block touches the ledger. 0 while
    /// unplaced.
    pub kv_reserved: u32,
    /// Decode appends are prepaid while the context is shorter than this:
    /// the count the last admission or chunk growth reserved, which
    /// appends leave alone. Past it every formed decode token advances
    /// `kv_reserved`, even a token whose iteration a victim move cancels
    /// before it runs. 0 while unplaced.
    pub decode_prepaid: u32,
    /// True while this request's decode attention load is registered in
    /// its cohort's incremental per-device load table (engine-internal;
    /// see the engine's `load_table_add`).
    pub in_load_table: bool,
    /// Time of the first produced token (`None` before it). A recompute
    /// preemption keeps it: an emitted token stays emitted.
    pub first_token_at: Option<f64>,
    /// Time of the latest produced token (`None` before the first).
    pub last_token_at: Option<f64>,
    /// Time the request was admitted to a prefill batch (for queueing
    /// analysis).
    pub admitted_at: Option<f64>,
    /// Per-stage head placement (None until placed).
    pub placement: Option<HeadPlacement>,
    /// True while the request sits inside an in-flight microbatch.
    pub in_flight: bool,
    /// Warm prompt tokens adopted from the prefix cache at admission
    /// (0 for a cold admission; informational — kept across a later
    /// preemption, whose recompute re-prefills the warm span too).
    pub prefix_hit_tokens: u32,
    /// KV bytes the admission adopted warm (reserved without a prefill
    /// writing them); the flow record carries both at completion.
    pub prefix_shared_bytes: u64,
    /// Number of preemptions suffered (stats).
    pub preemptions: u32,
    /// Number of re-dispatches applied (stats).
    pub redispatches: u32,
    /// Incremented whenever a KV transfer is scheduled for this request;
    /// completion events carry the epoch they belong to, so transfers
    /// aborted by churn cannot resume the request early.
    pub migration_epoch: u32,
    /// Devices the in-flight KV transfer reads from (empty when no
    /// transfer is running); a death of any of them aborts the transfer.
    pub migration_sources: Vec<DeviceId>,
}

impl RunningRequest {
    /// Wraps an arriving request.
    pub fn new(req: Request, instance: usize) -> Self {
        RunningRequest {
            effective_input: req.input_len,
            prefilled: 0,
            kv_reserved: 0,
            decode_prepaid: 0,
            in_load_table: false,
            req,
            phase: Phase::Waiting,
            instance,
            cohort: 0,
            generated: 0,
            first_token_at: None,
            last_token_at: None,
            admitted_at: None,
            placement: None,
            in_flight: false,
            prefix_hit_tokens: 0,
            prefix_shared_bytes: 0,
            preemptions: 0,
            redispatches: 0,
            migration_epoch: 0,
            migration_sources: Vec::new(),
        }
    }

    /// Current context length (prompt + generated tokens).
    #[inline]
    pub fn context_len(&self) -> u32 {
        self.req.input_len + self.generated
    }

    /// Prompt tokens of the current prefill not yet chunk-processed.
    #[inline]
    pub fn remaining_prefill(&self) -> u32 {
        self.effective_input.saturating_sub(self.prefilled)
    }

    /// True once all output tokens exist.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.generated >= self.req.output_len
    }

    /// Records a reservation of `tokens` tokens (admission or chunk
    /// growth): the entries now cover that many, and decode appends below
    /// it are prepaid.
    pub fn reserve(&mut self, tokens: u32) {
        self.kv_reserved = tokens;
        self.decode_prepaid = tokens;
    }

    /// Records a produced token at `now`.
    pub fn push_token(&mut self, now: f64) {
        self.generated += 1;
        self.first_token_at.get_or_insert(now);
        self.last_token_at = Some(now);
    }

    /// Applies recompute preemption: KV dropped, generated tokens become
    /// part of the next prefill.
    pub fn preempt_recompute(&mut self) {
        self.effective_input = self.req.input_len + self.generated;
        self.prefilled = 0;
        self.reserve(0);
        self.phase = Phase::Waiting;
        self.placement = None;
        self.in_flight = false;
        self.preemptions += 1;
        self.migration_sources.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_workload::RequestId;

    fn req() -> Request {
        Request {
            id: RequestId(1),
            arrival: 0.0,
            input_len: 100,
            output_len: 10,
            class: Default::default(),
            tenant: Default::default(),
            session: None,
        }
    }

    #[test]
    fn lifecycle_arithmetic() {
        let mut r = RunningRequest::new(req(), 0);
        assert_eq!(r.context_len(), 100);
        r.push_token(1.0);
        r.push_token(1.5);
        assert_eq!(r.generated, 2);
        assert_eq!(r.context_len(), 102);
        assert!(!r.is_complete());
        for i in 0..8 {
            r.push_token(2.0 + i as f64);
        }
        assert!(r.is_complete());
        assert_eq!(r.first_token_at, Some(1.0));
        assert_eq!(r.last_token_at, Some(9.0));
    }

    #[test]
    fn recompute_preemption_folds_generated_into_prompt() {
        let mut r = RunningRequest::new(req(), 0);
        r.phase = Phase::Decoding;
        r.push_token(1.0);
        r.push_token(2.0);
        r.preempt_recompute();
        assert_eq!(r.phase, Phase::Waiting);
        assert_eq!(r.effective_input, 102);
        assert_eq!(r.generated, 2); // emitted tokens stay emitted
        assert_eq!(r.preemptions, 1);
        assert!(r.placement.is_none());
        // The first token stays first; the next token moves only the last.
        assert_eq!(r.first_token_at, Some(1.0));
        assert_eq!(r.last_token_at, Some(2.0));
        r.push_token(5.0);
        assert_eq!(r.first_token_at, Some(1.0));
        assert_eq!(r.last_token_at, Some(5.0));
    }
}
