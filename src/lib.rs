//! # Hetis — reproduction facade crate
//!
//! Re-exports every subsystem of the Hetis reproduction under one roof.
//! See `DESIGN.md` at the repository root for the full system inventory
//! and the per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results.

pub use hetis_baselines as baselines;
pub use hetis_cluster as cluster;
pub use hetis_core as core;
pub use hetis_elastic as elastic;
pub use hetis_engine as engine;
pub use hetis_kvcache as kvcache;
pub use hetis_lp as lp;
pub use hetis_model as model;
pub use hetis_parallel as parallel;
pub use hetis_sim as sim;
pub use hetis_telemetry as telemetry;
pub use hetis_workload as workload;
