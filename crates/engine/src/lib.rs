//! Discrete-event LLM serving engine with continuous batching.
//!
//! This crate replaces the vLLM runtime the paper builds on. It simulates,
//! at iteration granularity, a set of data-parallel serving instances, each
//! a pipeline of tensor-parallel stages over the calibrated cluster model:
//!
//! * **continuous batching** — prefill-priority scheduling with a token
//!   budget, per-cohort microbatches keeping every pipeline stage busy
//!   (vLLM's "virtual engines"),
//! * **chunked prefill & SLO scheduling** — long prompts optionally
//!   split into token-budget chunks interleaved with decode iterations
//!   or fused with them into single mixed microbatches, and an
//!   admission queue ordered by TTFT slack instead of FIFO
//!   (see [`config::EngineConfig::prefill_chunk_tokens`],
//!   [`config::EngineConfig::fused_microbatches`] and
//!   [`config::AdmissionPolicy`]),
//! * **fine-grained paged KV admission** — byte-accurate per-device
//!   pools with block rounding; under chunking, admission reserves only
//!   the first chunk + decode headroom and the reservation grows with
//!   each completed chunk (`grow_blocks`); a decode token allocates,
//!   before its iteration runs, only when it opens a block; both paths
//!   trigger the policy's preemption hooks on exhaustion,
//! * **head placements** — every request carries a per-stage map of which
//!   device computes which query heads (trivially stage-local for the
//!   baselines; LP-dispatched for Hetis),
//! * **metrics** — TTFT / TPOT / normalized latency, per-SLO-class
//!   attainment and goodput, per-module latency contributions
//!   (max-stage × stage-count, the paper's Fig. 13 metric), and
//!   time-series traces of cache usage and head counts (Fig. 14).
//!
//! Systems plug in through the [`policy::Policy`] trait: the engine owns
//! execution and accounting, policies own decisions (topology, routing,
//! placement, re-dispatch, victim selection).

pub mod churn;
pub mod config;
pub mod control;
pub mod engine;
pub mod memory;
pub mod metrics;
pub mod policy;
pub mod prefix;
pub mod request;
pub mod stage;
pub mod topology;

pub use churn::{
    ClusterEvent, ClusterEventKind, DeviceHealth, HealthView, ReplanRecord, ReplanResponse,
};
pub use config::{AdmissionPolicy, EngineConfig};
pub use control::{ClosedLoopConfig, ControlAction, ControlRecord, ControlResponse};
pub use engine::{run, run_with_churn, Engine};
pub use memory::{DeviceKv, KvAllocError, KvState};
pub use metrics::{ClassStats, CompletedRequest, CostReport, ModuleSample, RunReport, TraceSample};
pub use policy::{Handoff, Policy, PolicyCtx, RedispatchOp, VictimAction};
pub use prefix::{PrefixCache, PrefixEntry};
pub use request::{Phase, RunningRequest};
pub use stage::{
    decode_stage_breakdown, fused_stage_breakdown, prefill_stage_breakdown, AttnLoad,
    StageBreakdown,
};
pub use topology::{HeadPlacement, InstanceRole, InstanceTopo, StageTopo, Topology};
