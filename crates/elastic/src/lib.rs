//! # `hetis-elastic` — cluster churn, failure injection, and live
//! re-planning
//!
//! Hetis's headline claim is *dynamic* parallelism, but a static
//! reproduction only ever exercises the Parallelizer once, at startup.
//! This crate makes the cluster itself dynamic:
//!
//! * [`ChurnProcess`] — a seeded generator of deterministic cluster-change
//!   schedules (spot preemptions with notice, hard failures, joins,
//!   thermal slowdowns) with per-device-class rates, built on `sim-core`'s
//!   RNG so every scenario reproduces bit-for-bit.
//! * [`ElasticController`] — on each event, re-runs the Parallelizer's
//!   hierarchical search on the surviving device set to price the
//!   re-plan, and emits a [`ReplanPlan`]: a constrained topology
//!   (surviving primaries keep their weights), Hauler-planned KV drains
//!   off devices under preemption notice, and a deterministic re-plan
//!   latency that the engine charges to the pipelines.
//! * [`ElasticPolicy`] — wraps Hetis (or any baseline) behind the
//!   engine's `on_cluster_change` hook; [`ElasticPolicy::frozen`] is the
//!   no-replan ablation every scenario compares against.
//! * [`ClosedLoopController`] — the telemetry feedback automaton: at
//!   every telemetry tick it reads the bus's windowed per-class
//!   percentiles/attainment and emits scale proposals (breach-for-N
//!   with cooldown hysteresis), admission throttling, and chunk-pacing
//!   actions, which `ElasticPolicy` routes into the engine through the
//!   `on_telemetry_tick` hook. Open loop (`EngineConfig::closed_loop:
//!   None`) is bit-identical to not having the subsystem at all.
//! * [`ChurnScenario`] — trace + churn schedule generated together from
//!   one seed, including the headline *preemption storm* (all devices of
//!   one class revoked inside a window while the request rate spikes).
//! * [`CostMeter`] / [`AcquisitionPolicy`] — the economics axis: a
//!   deterministic spot-price trace (`hetis_workload::PriceTrace`) priced
//!   against every capacity acquisition. The controller classes `Join`
//!   replacements spot vs on-demand; after the run the meter replays the
//!   same schedule into a `CostReport` (per-class dollars,
//!   `cost_per_in_slo_token`) attached to the `RunReport` — a pure
//!   billing overlay that never perturbs the simulation.
//!
//! The engine-side halves (device health, forced eviction of lost KV,
//! Down instances, `replan_latency` / `lost_tokens` accounting in
//! `RunReport`) live in `hetis_engine::churn`. See `DESIGN.md` §E for the
//! subsystem walk-through and `crates/bench/benches/scenario_elastic_churn.rs`
//! for the end-to-end comparison.

pub mod churn;
pub mod closed_loop;
pub mod controller;
pub mod cost;
pub mod policy;
pub mod scenario;

pub use churn::{ChurnProcess, ClassRates};
pub use closed_loop::ClosedLoopController;
pub use controller::{ElasticConfig, ElasticController, ReplanPlan, TopologyDiff};
pub use cost::{
    AcquisitionClass, AcquisitionPolicy, AcquisitionRecord, BilledInterval, BillingLedger,
    CostMeter,
};
pub use policy::{elastic_hetis, frozen_hetis, ElasticPolicy};
pub use scenario::ChurnScenario;
