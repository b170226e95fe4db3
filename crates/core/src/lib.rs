//! # Hetis — fine-grained and dynamic parallelism for heterogeneous LLM
//! serving
//!
//! This crate is the paper's primary contribution, reproduced in full on
//! the simulated substrate:
//!
//! * [`parallelizer`] — **Parallelizer** (§4.1, Fig. 4): the hierarchical
//!   search that picks primary workers (devices running dense modules and
//!   prefill attention) and leaves the rest as pooled attention workers,
//!   driven by the exclusion criterion `C_p(σ−κ)/C_p(σ) ≤ 1+Δ`.
//! * [`profiler`] — **Profiler** (§5.1): fits the linear attention-time
//!   model `τᵢ = aᵢhᵢ + bᵢgᵢ + cᵢ` (Eq. 3) and the alpha–beta transfer
//!   model `ρᵢ = γᵢdᵢ + βᵢ` (Eq. 4) from an 8×8 grid of simulated kernel
//!   measurements, with optional noise and perturbation (Fig. 16b).
//! * [`dispatcher`] — **Dispatcher** (§5.2): the online head-wise LP
//!   dispatch of Eq. 7 (min–max over per-device attention time, subject
//!   to cache capacity and head-count equality), plus group-integral
//!   rounding (Eq. 5).
//! * [`redispatch`] — **Re-dispatching** (§5.3): the Θ-gated computation
//!   balancer and the memory-aware victim logic that replaces plain LIFO.
//!   The engine executes the re-dispatches it returns: its own planner
//!   moves only the head groups whose device changed (§6's Hauler), on
//!   low-priority migration streams.
//! * [`split`] — the Fig. 5 analysis: head-wise vs sequence-wise vs
//!   request-wise partitioning communication overhead.
//! * [`system`] — [`HetisPolicy`]: the complete system wired into the
//!   serving engine's policy interface.

pub mod config;
pub mod dispatcher;
pub mod parallelizer;
pub mod profiler;
pub mod redispatch;
pub mod split;
pub mod system;

pub use config::{DispatchSolver, HetisConfig, WorkloadProfile};
pub use dispatcher::{BalanceCounts, DispatchOutcome, Dispatcher, StageBalance};
pub use parallelizer::{search_topology, SearchOutcome};
pub use profiler::{AttnModel, LinkModel, Profiler};
pub use system::HetisPolicy;
