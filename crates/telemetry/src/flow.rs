//! Per-request flow records, in the style of deepflow's `l7_flow_log`:
//! one row per finished request carrying identity, phase timestamps and
//! resource footprints, assembled incrementally from bus events and
//! finalized at completion from the engine's `CompletedRequest` fields.

use std::collections::HashMap;

use hetis_workload::{RequestId, SloClass, TenantId};

use crate::event::{FlowEvent, FlowEventKind};

/// Completion-time fields the engine already tracks in its
/// `CompletedRequest`; passed by value so this crate needs no engine
/// dependency (the engine depends on telemetry, not the reverse).
#[derive(Debug, Clone, Copy)]
pub struct FlowCompletion {
    /// The request.
    pub req: RequestId,
    /// SLO class.
    pub class: SloClass,
    /// Issuing tenant.
    pub tenant: TenantId,
    /// Completing instance.
    pub instance: u32,
    /// Arrival time.
    pub arrival: f64,
    /// First-token time (prefill completion).
    pub first_token: f64,
    /// Completion time.
    pub completion: f64,
    /// Prompt tokens.
    pub input_len: u32,
    /// Output tokens.
    pub output_len: u32,
    /// Recompute preemptions suffered.
    pub preemptions: u32,
    /// Re-dispatches applied.
    pub redispatches: u32,
    /// KV bytes resident across all devices just before release.
    pub kv_bytes: u64,
    /// Warm prompt tokens adopted from the engine's prefix cache at
    /// admission (0 for cold admissions and when reuse is off).
    pub prefix_hit_tokens: u32,
    /// KV bytes the admission adopted warm instead of prefilling.
    pub prefix_shared_bytes: u64,
}

/// One finished request's flow record. Timestamps the bus never observed
/// (e.g. admission when the engine started tapping mid-run) are the
/// sentinel `-1.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// The request.
    pub req: RequestId,
    /// SLO class.
    pub class: SloClass,
    /// Issuing tenant.
    pub tenant: TenantId,
    /// Completing instance.
    pub instance: u32,
    /// Arrival time.
    pub arrival: f64,
    /// First admission into a cohort (`-1` if unobserved).
    pub admitted: f64,
    /// First prefill-chunk completion (`-1` if unobserved).
    pub first_chunk: f64,
    /// First output token.
    pub first_token: f64,
    /// Completion time.
    pub completion: f64,
    /// Prompt tokens.
    pub input_len: u32,
    /// Output tokens.
    pub output_len: u32,
    /// Prefill chunks executed, recompute re-prefills included.
    pub prefill_chunks: u32,
    /// Largest single prefill chunk (tokens).
    pub max_chunk_tokens: u32,
    /// Recompute preemptions suffered.
    pub preemptions: u32,
    /// Re-dispatches applied.
    pub redispatches: u32,
    /// KV bytes resident at completion.
    pub kv_bytes: u64,
    /// Warm prompt tokens adopted from the engine's prefix cache at
    /// admission (0 for cold admissions and when reuse is off).
    pub prefix_hit_tokens: u32,
    /// KV bytes the admission adopted warm instead of prefilling.
    pub prefix_shared_bytes: u64,
}

impl FlowRecord {
    /// Time to first token (matches `CompletedRequest::ttft`).
    pub fn ttft(&self) -> f64 {
        self.first_token - self.arrival
    }

    /// Mean time per output token after the first (matches
    /// `CompletedRequest::tpot`).
    pub fn tpot(&self) -> f64 {
        if self.output_len <= 1 {
            0.0
        } else {
            (self.completion - self.first_token) / (self.output_len - 1) as f64
        }
    }

    /// Serializes the record as one JSON object on a single line (the
    /// JSONL sink's row format). All floats are finite, so the output is
    /// always valid JSON.
    pub fn to_jsonl(&self) -> String {
        format!(
            concat!(
                "{{\"req_id\":{},\"class\":\"{}\",\"tenant\":\"{}\",\"instance\":{},",
                "\"arrival\":{},\"admitted\":{},\"first_chunk\":{},\"first_token\":{},",
                "\"completion\":{},\"input_len\":{},\"output_len\":{},",
                "\"prefill_chunks\":{},\"max_chunk_tokens\":{},",
                "\"preemptions\":{},\"redispatches\":{},\"kv_bytes\":{},",
                "\"prefix_hit_tokens\":{},\"prefix_shared_bytes\":{}}}"
            ),
            self.req.0,
            self.class.name(),
            self.tenant,
            self.instance,
            self.arrival,
            self.admitted,
            self.first_chunk,
            self.first_token,
            self.completion,
            self.input_len,
            self.output_len,
            self.prefill_chunks,
            self.max_chunk_tokens,
            self.preemptions,
            self.redispatches,
            self.kv_bytes,
            self.prefix_hit_tokens,
            self.prefix_shared_bytes,
        )
    }
}

/// Per-request accumulator for edges that only events carry (admission
/// and chunk timing); everything else arrives with the completion.
#[derive(Debug, Clone)]
struct PendingFlow {
    admitted: f64,
    first_chunk: f64,
    prefill_chunks: u32,
    max_chunk_tokens: u32,
}

impl Default for PendingFlow {
    fn default() -> Self {
        PendingFlow {
            admitted: -1.0,
            first_chunk: -1.0,
            prefill_chunks: 0,
            max_chunk_tokens: 0,
        }
    }
}

/// Tracks in-flight requests' partial flow state and finalizes records
/// at completion.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    open: HashMap<RequestId, PendingFlow>,
}

impl FlowTable {
    /// A table pre-sized for `capacity` concurrent in-flight requests.
    pub fn with_capacity(capacity: usize) -> Self {
        FlowTable {
            open: HashMap::with_capacity(capacity),
        }
    }

    /// Requests with partial flow state (arrived or admitted, not yet
    /// completed).
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// Folds one bus event into the per-request state.
    pub fn observe(&mut self, ev: &FlowEvent) {
        match ev.kind {
            FlowEventKind::Arrival { req } => {
                self.open.entry(req).or_default();
            }
            FlowEventKind::Admission { req } => {
                let p = self.open.entry(req).or_default();
                if p.admitted < 0.0 {
                    p.admitted = ev.time;
                }
            }
            FlowEventKind::PrefillChunk { req, chunk_tokens } => {
                let p = self.open.entry(req).or_default();
                if p.first_chunk < 0.0 {
                    p.first_chunk = ev.time;
                }
                p.prefill_chunks += 1;
                p.max_chunk_tokens = p.max_chunk_tokens.max(chunk_tokens);
            }
            _ => {}
        }
    }

    /// Removes the request's partial state and builds its final record.
    pub fn finalize(&mut self, done: &FlowCompletion) -> FlowRecord {
        let p = self.open.remove(&done.req).unwrap_or_default();
        FlowRecord {
            req: done.req,
            class: done.class,
            tenant: done.tenant,
            instance: done.instance,
            arrival: done.arrival,
            admitted: p.admitted,
            first_chunk: p.first_chunk,
            first_token: done.first_token,
            completion: done.completion,
            input_len: done.input_len,
            output_len: done.output_len,
            prefill_chunks: p.prefill_chunks,
            max_chunk_tokens: p.max_chunk_tokens,
            preemptions: done.preemptions,
            redispatches: done.redispatches,
            kv_bytes: done.kv_bytes,
            prefix_hit_tokens: done.prefix_hit_tokens,
            prefix_shared_bytes: done.prefix_shared_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json_line;

    fn completion(req: u64) -> FlowCompletion {
        FlowCompletion {
            req: RequestId(req),
            class: SloClass::Interactive,
            tenant: TenantId(3),
            instance: 1,
            arrival: 1.0,
            first_token: 1.5,
            completion: 2.5,
            input_len: 128,
            output_len: 11,
            preemptions: 0,
            redispatches: 1,
            kv_bytes: 4096,
            prefix_hit_tokens: 0,
            prefix_shared_bytes: 0,
        }
    }

    #[test]
    fn chunk_edges_accumulate() {
        let mut t = FlowTable::default();
        let rid = RequestId(9);
        let chunk = |time, tokens| FlowEvent {
            time,
            kind: FlowEventKind::PrefillChunk {
                req: rid,
                chunk_tokens: tokens,
            },
        };
        t.observe(&FlowEvent {
            time: 1.1,
            kind: FlowEventKind::Admission { req: rid },
        });
        t.observe(&chunk(1.2, 64));
        t.observe(&chunk(1.4, 64));
        assert_eq!(t.open_len(), 1);
        let rec = t.finalize(&completion(9));
        assert_eq!(t.open_len(), 0);
        assert_eq!(rec.admitted, 1.1);
        assert_eq!(rec.first_chunk, 1.2);
        assert_eq!((rec.prefill_chunks, rec.max_chunk_tokens), (2, 64));
        assert_eq!(rec.ttft(), 0.5);
        assert!((rec.tpot() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn unobserved_edges_use_sentinel() {
        let mut t = FlowTable::default();
        let rec = t.finalize(&completion(1));
        assert_eq!(rec.admitted, -1.0);
        assert_eq!(rec.first_chunk, -1.0);
        assert_eq!(rec.prefill_chunks, 0);
    }

    #[test]
    fn jsonl_round_trip_is_valid_json() {
        let mut t = FlowTable::default();
        let line = t.finalize(&completion(2)).to_jsonl();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        validate_json_line(&line).expect("flow record serializes to valid JSON");
        assert!(line.contains("\"class\":\"interactive\""));
        assert!(line.contains("\"tenant\":\"tenant3\""));
    }
}
