//! Engine tuning knobs.

use hetis_telemetry::TelemetryConfig;

/// How the admission queue is ordered when prefill batches are formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Strict arrival order (the pre-SLO behavior).
    #[default]
    Fifo,
    /// Least TTFT slack first: requests are ordered by their static TTFT
    /// deadline `arrival + class.target().ttft` ascending, so
    /// latency-critical classes overtake queued long-context work whose
    /// deadline is far away. Ties break by arrival then id, keeping runs
    /// deterministic.
    SloSlack,
}

/// Tokens per KV block (vLLM's default).
pub const BLOCK_SIZE: u32 = 16;

/// Maximum concurrently running sequences per instance (vLLM
/// `max_num_seqs`).
pub const MAX_RUNNING: usize = 512;

/// Decode-headroom tokens reserved at admission on top of the first chunk
/// under incremental KV growth. The reservation *prepays* the first
/// `DECODE_HEADROOM_TOKENS` decode appends after prefill completion: they
/// consume the cushion instead of allocating, so they can never hit the
/// victim path. Applies only when chunking is on; atomic admission
/// reserves exactly the effective prompt (whose context has already
/// outgrown it at the first append).
pub const DECODE_HEADROOM_TOKENS: u32 = 16;

/// Engine configuration, mirroring vLLM's serving knobs where they exist.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Prefill token budget per iteration (vLLM `max_num_batched_tokens`).
    pub max_batch_tokens: u64,
    /// Chunked prefill: cap on prompt tokens one request contributes to a
    /// single prefill iteration (vLLM `long_prefill_token_threshold`
    /// family). `None` prefills prompts atomically (the pre-chunking
    /// behavior); `Some(c)` splits longer prompts into `c`-token chunks
    /// interleaved with decode iterations, bounding the head-of-line
    /// blocking a long prompt can inflict. A chunk size at or above the
    /// longest effective prompt schedules identically to `None`
    /// (digest-pinned on uncontended pools); its KV reservation still
    /// carries [`DECODE_HEADROOM_TOKENS`] on top of the prompt, so under
    /// memory pressure victim timing can differ from atomic mode.
    pub prefill_chunk_tokens: Option<u64>,
    /// Fused prefill+decode microbatches (vLLM-style chunked prefill's
    /// mixed batches): when chunking is on, each cohort iteration runs
    /// ONE breakdown combining the current prefill chunk(s) with the
    /// resident decode batch — weights stream once, decode tokens ride
    /// the chunk's dense pass — instead of alternating chunk and decode
    /// iterations. Cuts decode TPOT during long prefills at a small TTFT
    /// cost. Ignored when `prefill_chunk_tokens` is `None` (atomic
    /// prefills keep the legacy prefill-priority loop).
    pub fused_microbatches: bool,
    /// Admission-queue ordering.
    pub admission: AdmissionPolicy,
    /// Period of cache/head time-series sampling, seconds (Fig. 14).
    pub trace_sample_period: f64,
    /// Stop simulating this long after the last arrival even if requests
    /// are still running (guards against pathological stalls).
    pub drain_timeout: f64,
    /// Streaming telemetry bus (`None` = off, the default). When `Some`,
    /// the engine taps the request edges flow records need (arrival,
    /// admission, prefill chunks) and every completion onto a
    /// [`hetis_telemetry::TelemetryBus`] and samples queue depths / KV
    /// occupancy on the config's tick. Strictly zero-cost when `None`:
    /// no bus is constructed, no event is published, and the run's
    /// behavior digest is bit-identical either way (DESIGN.md §T).
    pub telemetry: Option<TelemetryConfig>,
    /// Closed-loop control on the telemetry bus (`None` = open loop, the
    /// default). When `Some`, every periodic telemetry tick hands the
    /// policy a fresh snapshot via
    /// [`crate::policy::Policy::on_telemetry_tick`] and applies the
    /// returned actuations (scale replans, admission throttling, chunk
    /// pacing — see [`crate::control`]). Requires `telemetry` to be
    /// `Some` with a positive `sample_period` (the loop is tick-edge
    /// driven). `None` is bit-identical to pre-closed-loop behavior:
    /// the hook is never called.
    pub closed_loop: Option<crate::control::ClosedLoopConfig>,
    /// Ignored: the engine always runs one sequential event loop. The
    /// field is kept only so configurations that still set it compile.
    pub sim_shards: usize,
    /// Session-keyed prefix/KV reuse. When on, a finished request's KV
    /// stays probe-able in *free* pool memory keyed by its session turn;
    /// a returning turn that extends that context routes to the holding
    /// instance, re-admits only the cold suffix (warm full blocks skip
    /// both the chunk-prefill iterations and their KV reservations —
    /// `RunReport::prefix_hit_tokens`), and adopts the warm bytes.
    /// Cached entries are evicted oldest-first per device whenever live
    /// allocations need the memory, so reuse never displaces live KV.
    /// `false` (the default) is bit-identical to the pre-reuse engine.
    pub prefix_reuse: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch_tokens: 8192,
            prefill_chunk_tokens: None,
            fused_microbatches: false,
            admission: AdmissionPolicy::Fifo,
            trace_sample_period: 1.0,
            drain_timeout: 600.0,
            telemetry: None,
            closed_loop: None,
            sim_shards: 1,
            prefix_reuse: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = EngineConfig::default();
        assert!(c.max_batch_tokens >= 2048);
        assert_eq!(c.prefill_chunk_tokens, None);
        assert!(!c.fused_microbatches);
        assert_eq!(c.admission, AdmissionPolicy::Fifo);
        assert!(c.telemetry.is_none(), "telemetry is opt-in");
        assert!(c.closed_loop.is_none(), "closed loop is opt-in");
        assert!(!c.prefix_reuse, "prefix reuse is opt-in");
    }
}
