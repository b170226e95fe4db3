//! Paged and head-granular KV cache block tables (Fig. 15b).
//!
//! Two allocators over fixed-size token blocks:
//!
//! * [`paged::PagedAllocator`] — vLLM-style: one block table per sequence,
//!   a block spans *all* KV heads of the layers it covers.
//! * [`headwise::HeadwiseAllocator`] — Hetis-style (§6 "KV cache
//!   management"): block tables are keyed by *(sequence, KV-head group)*,
//!   so different head groups of the same request can live on different
//!   devices and be freed partially.
//!
//! [`index`] implements the block-index assembly that the paper
//! accelerates with "multi-core parallelization on the CPU": building the
//! flat (sequence, position, head-group) → physical-slot arrays consumed
//! by the paged-attention kernel each decode step. Both a serial and a
//! rayon-parallel version exist; Fig. 15b is reproduced by timing them.
//!
//! The serving engine does not use these tables: it keeps a byte ledger
//! with the same block rounding (`hetis_engine::DeviceKv`) and plans
//! head-group migrations itself (`HeadPlacement::moves_to` in
//! `hetis-engine`).

pub mod block;
pub mod headwise;
pub mod index;
pub mod paged;

pub use block::{BlockConfig, BlockId, SeqId};
pub use headwise::{GroupId, HeadwiseAllocator};
pub use index::{build_fetch_index_parallel, build_fetch_index_serial, FetchIndex};
pub use paged::{AllocError, PagedAllocator};
