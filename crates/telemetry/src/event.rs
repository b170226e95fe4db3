//! Flow events: the unit the engine taps onto the telemetry bus.
//!
//! Each variant is one request edge a flow record needs, or one periodic
//! sample. Events are plain `Copy` structs — publishing one folds it into
//! the bus's aggregates on the spot, with no heap allocation beyond a
//! request's first flow-table entry.

use hetis_workload::RequestId;

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
/// Instance identifiers are plain indices into the engine's topology;
/// `u32::MAX` is never used, so indices are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowEventKind {
    /// A request entered an admission queue.
    Arrival {
        /// The request.
        req: RequestId,
    },
    /// A queued request was admitted into a cohort (KV reserved).
    Admission {
        /// The request.
        req: RequestId,
    },
    /// One prefill chunk of a request finished (an atomic prefill
    /// publishes exactly one; a recompute re-prefill after a preemption
    /// publishes its own).
    PrefillChunk {
        /// The request.
        req: RequestId,
        /// Tokens this chunk processed.
        chunk_tokens: u32,
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
