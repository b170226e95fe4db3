//! Flow events: the unit the engine taps onto the telemetry bus.
//!
//! Each variant is one request edge a flow record needs, or one periodic
//! sample. Events are plain `Copy` structs — publishing one folds it into
//! the bus's aggregates on the spot, with no heap allocation beyond a
//! request's first flow-table entry.

use hetis_workload::{RequestId, SloClass, TenantId};

/// One timestamped telemetry event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEvent {
    /// Simulated time the edge occurred.
    pub time: f64,
    /// What happened.
    pub kind: FlowEventKind,
}

/// The request edges and periodic samples the engine publishes.
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
    /// One prefill chunk of a request finished (an atomic prefill
    /// publishes exactly one, with `prior_tokens == 0`; a recompute
    /// re-prefill after a preemption publishes its own).
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
