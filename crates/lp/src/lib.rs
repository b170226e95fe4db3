//! LP solvers for the Hetis Dispatcher: a structure-exploiting
//! water-fill fast path and a dense two-phase simplex oracle.
//!
//! The Hetis Dispatcher solves, on every batch of newly arrived requests,
//! the head-wise dispatching problem of Eq. (7): minimize the *maximum*
//! per-device attention time subject to per-device cache capacity and a
//! per-request head-count equality. The paper hands this to cvxpy/MOSEK;
//! we implement:
//!
//! * [`waterfill`] — the default fast path: Eq. (7)'s special structure
//!   (one affine max term per device, one capacity row per device, one
//!   equality per request, rank-2 costs) reduces to parametric
//!   water-filling with a Monge-greedy feasibility oracle — no tableau,
//!   no pivots. One request whose capacity binds is solved in closed
//!   form, and a batch of several on two devices by a bottleneck
//!   certificate: a fractional knapsack over the capacity-bound device,
//!   accepted only when its optimum is Eq. (7)'s unique optimum. The
//!   rest of the capacity-bound batches (ratio ties at the fill
//!   boundary, balanced batches, three or more devices) fall back to the
//!   simplex.
//! * [`simplex`] — a dense two-phase primal simplex with Bland's rule on
//!   a single flat row-major tableau (these LPs have a handful of
//!   variables per request × device, so dense is the right choice),
//!   pricing from an in-basis bitmap; the water-fill's fallback and the
//!   exact oracle the fast path is property-tested against,
//! * [`minmax`] — the epigraph transformation `min t s.t. fᵢ(x) ≤ t`,
//!   with flat row storage so a long-lived builder solves without
//!   per-row allocation,
//! * [`rounding`] — largest-remainder rounding of fractional head counts
//!   to multiples of the GQA group ratio `r`, respecting capacities
//!   (Eq. 5's integrality requirement `xᵢʲ/r ∈ ℕ`).

pub mod minmax;
pub mod rounding;
pub mod simplex;
pub mod waterfill;

pub use minmax::{AffineExpr, MinMaxBuilder, MinMaxSolution};
pub use rounding::round_to_groups;
pub use simplex::{Constraint, ConstraintOp, LinearProgram, LpError, LpSolution};
pub use waterfill::{WaterFill, WfDemand, WfDevice, WfOutcome};
