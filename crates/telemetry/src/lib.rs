//! Streaming telemetry bus for the serving engine.
//!
//! `RunReport` is end-of-run only; this crate is the live counterpart —
//! the online signal an autoscaler or SLO controller polls *mid-run*:
//!
//! * **flow events** ([`FlowEvent`]) — the engine taps the bus at the
//!   request edges a flow record needs (arrival, admission, prefill
//!   chunks) plus periodic queue-depth and KV-occupancy samples; the bus
//!   folds each event into its aggregates and keeps no event log;
//! * **flow records** ([`FlowRecord`]) — one deepflow-`l7_flow_log`-style
//!   row per finished request (identity, phase timestamps, KV bytes,
//!   chunk/batch sizes), finalized from the engine's `CompletedRequest`
//!   fields and written to an optional JSON Lines file ([`JsonlSink`]);
//! * **streaming aggregators** — per-SLO-class sliding-window p50/p95/p99
//!   for TTFT/TPOT/normalized latency ([`SlidingWindow`], ring-of-buckets,
//!   O(1) per event) using the *same* [`hetis_sim::percentile`] as the
//!   report, so a full-run window reproduces end-of-run percentiles
//!   exactly; latest per-instance queue depths; KV-pool occupancy;
//! * **query handle** — [`TelemetryBus::snapshot`] returns a
//!   [`TelemetrySnapshot`] a controller can poll: the engine hands one
//!   to `Policy::on_telemetry_tick` at every tick of a closed loop, and
//!   `Engine::telemetry_snapshot` serves live pollers.
//!
//! The engine enables all of this only when `EngineConfig::telemetry` is
//! `Some`; disabled, no event is constructed, no bus exists and the
//! behavior digests are bit-identical — the zero-cost gating contract
//! (DESIGN.md §T).

pub mod bus;
pub mod event;
pub mod flow;
pub mod json;
pub mod sink;
pub mod window;

pub use bus::{
    ClassLatencyStats, KvOccupancySample, QueueDepthStat, TelemetryBus, TelemetryConfig,
    TelemetrySnapshot,
};
pub use event::{FlowEvent, FlowEventKind};
pub use flow::{FlowCompletion, FlowRecord, FlowTable};
pub use json::validate_json_line;
pub use sink::JsonlSink;
pub use window::{SlidingWindow, WindowSummary};
