//! Synthetic LLM serving workloads and arrival processes.
//!
//! The paper evaluates with three real datasets — ShareGPT (chatbot),
//! HumanEval (code completion), LongBench (long-article summarization) —
//! under Poisson and piecewise-varying arrival rates. Those datasets only
//! enter the experiments as *(input length, output length)* pairs, so this
//! crate replaces them with seeded samplers matched to each dataset's
//! published length statistics (see [`datasets`] for the exact parameters
//! and their provenance).
//!
//! Everything is deterministic given a seed: the same `(dataset, rate,
//! seed, duration)` tuple always yields the same trace, which keeps every
//! figure harness reproducible.
//!
//! The [`slo`] module adds the multi-tenant vocabulary on top: SLO
//! classes with TTFT/TPOT targets, tenant tags, and a builder that
//! merges per-tenant streams into one arrival-sorted trace. The
//! [`price`] module extends the same determinism discipline to the
//! economics axis: seeded spot-price multiplier traces that the elastic
//! controller's acquisition policy and the cost meter both consume.

pub mod arrivals;
pub mod datasets;
pub mod dist;
pub mod price;
pub mod request;
pub mod sessions;
pub mod slo;
pub mod trace;

pub use arrivals::{ArrivalProcess, PiecewiseRate, Poisson};
pub use datasets::{Dataset, DatasetKind};
pub use dist::{Distribution, LogNormal, TruncatedLogNormal};
pub use price::PriceTrace;
pub use request::{Request, RequestId, SessionTurn};
pub use sessions::{multi_turn_trace, SessionWorkload};
pub use slo::{multi_tenant_trace, SloClass, SloTarget, TenantId, TenantSpec};
pub use trace::{Trace, TraceBuilder};
