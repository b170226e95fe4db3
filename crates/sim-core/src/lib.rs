//! Deterministic discrete-event simulation core for the Hetis reproduction.
//!
//! This crate provides the time base, event queue, deterministic RNG and
//! statistics helpers shared by every simulated subsystem (cluster, serving
//! engine, workloads). It intentionally has no dependencies: determinism and
//! total ordering of simulated time are the only contracts it exports.
//!
//! # Design notes
//!
//! * Simulated time is an `f64` number of seconds wrapped in [`SimTime`],
//!   which enforces finiteness and therefore provides a total order that can
//!   be used inside a [`std::collections::BinaryHeap`].
//! * Events with equal timestamps are dequeued in insertion order (FIFO),
//!   which makes entire simulations reproducible bit-for-bit across runs.
//! * [`rng::SplitMix64`] is a tiny, seedable generator used where pulling in
//!   the `rand` crate would be overkill (e.g. tie-breaking, jitter).
//! * [`hash::FxHashMap`] is a `HashMap` on the cheap Fx hasher, for maps
//!   keyed by ids the simulator assigns itself.

pub mod clock;
pub mod events;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod stats;

pub use clock::{Clock, SimTime};
pub use events::{EventQueue, ScheduledEvent};
pub use hash::FxHashMap;
pub use queue::FifoQueue;
pub use rng::SplitMix64;
pub use stats::{percentile, percentile_sorted, sort_samples, OnlineStats, Summary};
