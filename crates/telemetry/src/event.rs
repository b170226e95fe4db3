//! Flow events: the unit the engine taps onto the telemetry bus.
//!
//! Each variant is one request-lifecycle edge (or one periodic sample).
//! Events are plain `Copy` structs — publishing one is a fixed-size store
//! into the pre-allocated ring, never a heap allocation.

use hetis_workload::{RequestId, SloClass, TenantId};

/// One timestamped telemetry event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEvent {
    /// Simulated time the edge occurred.
    pub time: f64,
    /// What happened.
    pub kind: FlowEventKind,
}

/// The lifecycle edges and periodic samples the engine publishes.
///
/// Instance/cohort identifiers are plain indices into the engine's
/// topology; `u32::MAX` is never used, so indices are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowEventKind {
    /// A request entered the admission queue of `instance`.
    Arrival {
        /// The request.
        req: RequestId,
        /// Its SLO class.
        class: SloClass,
        /// Its issuing tenant.
        tenant: TenantId,
        /// Routed instance.
        instance: u32,
    },
    /// A queued request was admitted into a cohort (KV reserved).
    Admission {
        /// The request.
        req: RequestId,
        /// Admitting instance.
        instance: u32,
        /// Tokens of its first prefill chunk (the whole effective prompt
        /// under atomic admission; the cold remainder on a prefix hit).
        first_chunk_tokens: u32,
        /// Warm prompt tokens adopted from the engine's prefix cache at
        /// this admission (0 for cold admissions and when reuse is off).
        prefix_hit_tokens: u32,
    },
    /// One prefill chunk of a request finished (atomic prefills publish
    /// exactly one with `prior_tokens == 0`).
    PrefillChunk {
        /// The request.
        req: RequestId,
        /// Executing instance.
        instance: u32,
        /// Tokens this chunk processed.
        chunk_tokens: u32,
        /// Prompt tokens already prefilled before this chunk.
        prior_tokens: u32,
    },
    /// The request produced its first output token (prefill completion).
    FirstToken {
        /// The request.
        req: RequestId,
        /// Executing instance.
        instance: u32,
    },
    /// One decode (or fused prefill+decode) microbatch was scheduled.
    DecodeIteration {
        /// Executing instance.
        instance: u32,
        /// Cohort (virtual engine) index within the instance.
        cohort: u32,
        /// Decoding requests in the microbatch.
        batch_size: u32,
        /// Prefill tokens fused into the same microbatch (0 for pure
        /// decode iterations).
        prefill_tokens: u32,
    },
    /// The request was recompute-preempted (victim loop or churn).
    Preemption {
        /// The request.
        req: RequestId,
        /// Instance it was evicted from.
        instance: u32,
        /// Context tokens whose KV was discarded (prompt + generated).
        lost_context: u32,
    },
    /// The request's head placement was re-dispatched (KV migrated).
    Redispatch {
        /// The request.
        req: RequestId,
        /// Owning instance.
        instance: u32,
    },
    /// The request completed; its flow record is finalized.
    Completion {
        /// The request.
        req: RequestId,
        /// Completing instance.
        instance: u32,
        /// Output tokens generated.
        output_len: u32,
        /// KV bytes resident across all devices at completion.
        kv_bytes: u64,
    },
    /// Periodic per-instance queue sample (telemetry tick).
    QueueDepth {
        /// Sampled instance.
        instance: u32,
        /// Requests waiting in the admission queue.
        waiting: u32,
        /// Requests resident (prefilling + decoding).
        running: u32,
    },
    /// Periodic cluster-wide KV-pool occupancy sample (telemetry tick).
    KvOccupancy {
        /// Reserved bytes across all devices.
        used_bytes: u64,
        /// Total pool bytes across all devices.
        pool_bytes: u64,
    },
}

impl FlowEventKind {
    /// Short kind label for logs and tables.
    pub fn name(&self) -> &'static str {
        use FlowEventKind::*;
        match self {
            Arrival { .. } => "arrival",
            Admission { .. } => "admission",
            PrefillChunk { .. } => "prefill_chunk",
            FirstToken { .. } => "first_token",
            DecodeIteration { .. } => "decode_iteration",
            Preemption { .. } => "preemption",
            Redispatch { .. } => "redispatch",
            Completion { .. } => "completion",
            QueueDepth { .. } => "queue_depth",
            KvOccupancy { .. } => "kv_occupancy",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_extraction() {
        let k = FlowEventKind::Arrival {
            req: RequestId(7),
            class: SloClass::Interactive,
            tenant: TenantId(2),
            instance: 1,
        };
        assert_eq!(k.name(), "arrival");
        let s = FlowEventKind::QueueDepth {
            instance: 0,
            waiting: 3,
            running: 9,
        };
        assert_eq!(s.name(), "queue_depth");
    }
}
