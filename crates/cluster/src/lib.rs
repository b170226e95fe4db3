//! Heterogeneous GPU cluster model: devices, kernel timing, memory and
//! network.
//!
//! This crate is the substitute for the paper's physical testbed (a host
//! with 4×A100-80GB, two hosts with 2×RTX-3090 each, and a host with
//! 4×P100, joined by a 100 Gbps LAN with PCIe inside each host). Every
//! performance number it produces is derived from an analytic device model
//! *calibrated against the paper's own measurements*:
//!
//! * Table 1 — OPT-2.7B whole-model iteration times per GPU
//!   (prefill ratio A100 : 3090 : P100 = 1 : 2.45 : 24.5,
//!   decode ratio 1 : 1.47 : 7.93);
//! * Fig. 2 — per-module decode gaps for Llama-70B (MLP up to ~40×,
//!   Attention only ~2–5×);
//! * §5.1 — the alpha–beta point-to-point network model.
//!
//! The calibration constants and the tests that pin them live in
//! [`calib`]. See `DESIGN.md` §5 for the derivation.

pub mod calib;
pub mod cluster;
pub mod device;
pub mod kernels;
pub mod memory;
pub mod net;

pub use cluster::{Cluster, ClusterBuilder, HostId};
pub use device::{Device, DeviceId, DeviceSpec, GpuType};
pub use kernels::attention::{attn_decode_time, attn_prefill_time, AttnWork};
pub use kernels::dense::{dense_decode_time, dense_prefill_time, DenseWork};
pub use memory::MemoryLedger;
pub use net::collective::{all_reduce_time, p2p_time};
pub use net::link::{AlphaBeta, LinkKind};
pub use net::stream::MigrationStream;
