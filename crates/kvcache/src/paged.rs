//! vLLM-style token-granular paged allocator: one block table per sequence.

use crate::block::{BlockConfig, BlockId, SeqId};
use std::collections::HashMap;

/// Allocation failure: the pool is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// Blocks requested by the failing call.
    pub requested: u32,
    /// Blocks that were free.
    pub free: u32,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KV pool exhausted: requested {} blocks, {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for AllocError {}

/// Per-sequence block table.
#[derive(Debug, Clone, Default)]
struct BlockTable {
    blocks: Vec<BlockId>,
    tokens: u32,
}

/// Token-granular paged KV allocator (the vLLM baseline design).
///
/// A block covers `block_size` tokens of *all* KV heads for the layers the
/// pool represents. Blocks are recycled LIFO, which mirrors vLLM's free
/// list and keeps allocation O(1).
#[derive(Debug, Clone)]
pub struct PagedAllocator {
    config: BlockConfig,
    free: Vec<BlockId>,
    tables: HashMap<SeqId, BlockTable>,
    /// Cumulative count of block-table write operations (storage ops in
    /// Fig. 15b's terms).
    store_ops: u64,
}

impl PagedAllocator {
    /// A fresh pool.
    pub fn new(config: BlockConfig) -> Self {
        // LIFO free list: highest ids pop first; deterministic.
        let free = (0..config.num_blocks).rev().map(BlockId).collect();
        PagedAllocator {
            config,
            free,
            tables: HashMap::new(),
            store_ops: 0,
        }
    }

    /// Pops a free block, counting the table write.
    fn take_free(&mut self) -> BlockId {
        let b = self.free.pop().expect("free list checked by caller");
        self.store_ops += 1;
        b
    }

    /// Pool geometry.
    pub fn config(&self) -> BlockConfig {
        self.config
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u32 {
        self.free.len() as u32
    }

    /// Blocks in use.
    pub fn used_blocks(&self) -> u32 {
        self.config.num_blocks - self.free_blocks()
    }

    /// Pool utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.config.num_blocks == 0 {
            0.0
        } else {
            self.used_blocks() as f64 / self.config.num_blocks as f64
        }
    }

    /// Whether `tokens` more tokens could be allocated right now for a new
    /// sequence.
    pub fn can_allocate(&self, tokens: u32) -> bool {
        self.config.blocks_for(tokens) <= self.free_blocks()
    }

    /// Registers a new sequence holding `tokens` tokens (its prompt).
    pub fn allocate_seq(&mut self, seq: SeqId, tokens: u32) -> Result<(), AllocError> {
        assert!(
            !self.tables.contains_key(&seq),
            "sequence {seq:?} already allocated"
        );
        let need = self.config.blocks_for(tokens);
        if need > self.free_blocks() {
            return Err(AllocError {
                requested: need,
                free: self.free_blocks(),
            });
        }
        let mut blocks = Vec::with_capacity(need as usize);
        for _ in 0..need {
            blocks.push(self.take_free());
        }
        self.tables.insert(seq, BlockTable { blocks, tokens });
        Ok(())
    }

    /// Appends one generated token; may consume one new block.
    pub fn append_token(&mut self, seq: SeqId) -> Result<(), AllocError> {
        let table = self.tables.get(&seq).expect("unknown sequence");
        let need_block =
            table.tokens.is_multiple_of(self.config.block_size) && self.config.block_size > 0;
        // A full table (tokens exactly filling blocks) needs a new block
        // for the next token; a fresh empty table too.
        if need_block || table.blocks.is_empty() {
            if self.free_blocks() == 0 {
                return Err(AllocError {
                    requested: 1,
                    free: 0,
                });
            }
            let b = self.take_free();
            self.tables.get_mut(&seq).expect("present").blocks.push(b);
        }
        self.tables.get_mut(&seq).expect("present").tokens += 1;
        Ok(())
    }

    /// Returns all of the sequence's blocks to the pool (completion or
    /// preemption).
    pub fn free_seq(&mut self, seq: SeqId) {
        if let Some(table) = self.tables.remove(&seq) {
            self.free.extend(table.blocks);
        }
    }

    /// Tokens currently cached for a sequence (None if unknown).
    pub fn tokens_of(&self, seq: SeqId) -> Option<u32> {
        self.tables.get(&seq).map(|t| t.tokens)
    }

    /// The block list of a sequence, for index building.
    pub fn blocks_of(&self, seq: SeqId) -> Option<&[BlockId]> {
        self.tables.get(&seq).map(|t| t.blocks.as_slice())
    }

    /// Sequences currently resident.
    pub fn sequences(&self) -> impl Iterator<Item = SeqId> + '_ {
        self.tables.keys().copied()
    }

    /// Cumulative block-table write operations.
    pub fn store_ops(&self) -> u64 {
        self.store_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(num_blocks: u32) -> PagedAllocator {
        PagedAllocator::new(BlockConfig {
            block_size: 16,
            num_blocks,
        })
    }

    #[test]
    fn allocate_and_free_roundtrip() {
        let mut a = alloc(10);
        a.allocate_seq(SeqId(1), 40).unwrap(); // 3 blocks
        assert_eq!(a.used_blocks(), 3);
        assert_eq!(a.tokens_of(SeqId(1)), Some(40));
        a.free_seq(SeqId(1));
        assert_eq!(a.used_blocks(), 0);
        assert_eq!(a.free_blocks(), 10);
    }

    #[test]
    fn append_allocates_on_boundary() {
        let mut a = alloc(10);
        a.allocate_seq(SeqId(1), 16).unwrap(); // exactly 1 block, full
        assert_eq!(a.used_blocks(), 1);
        a.append_token(SeqId(1)).unwrap(); // 17th token → new block
        assert_eq!(a.used_blocks(), 2);
        for _ in 0..15 {
            a.append_token(SeqId(1)).unwrap(); // fills block 2
        }
        assert_eq!(a.used_blocks(), 2);
        a.append_token(SeqId(1)).unwrap(); // 33rd token → block 3
        assert_eq!(a.used_blocks(), 3);
        assert_eq!(a.tokens_of(SeqId(1)), Some(33));
    }

    #[test]
    fn exhaustion_reported() {
        let mut a = alloc(2);
        let err = a.allocate_seq(SeqId(1), 100).unwrap_err();
        assert_eq!(err.requested, 7);
        assert_eq!(err.free, 2);
        // Failed allocation leaves the pool untouched.
        assert_eq!(a.free_blocks(), 2);
        // Fill completely, then the append fails.
        a.allocate_seq(SeqId(2), 32).unwrap();
        assert!(a.append_token(SeqId(2)).is_err());
    }

    #[test]
    fn can_allocate_is_accurate() {
        let mut a = alloc(4);
        assert!(a.can_allocate(64));
        assert!(!a.can_allocate(65));
        a.allocate_seq(SeqId(9), 33).unwrap(); // 3 blocks
        assert!(a.can_allocate(16));
        assert!(!a.can_allocate(17));
    }

    #[test]
    fn store_ops_count_block_writes() {
        let mut a = alloc(10);
        a.allocate_seq(SeqId(1), 32).unwrap(); // 2 writes
        a.append_token(SeqId(1)).unwrap(); // boundary → 1 write
        a.append_token(SeqId(1)).unwrap(); // no write
        assert_eq!(a.store_ops(), 3);
    }

    #[test]
    #[should_panic]
    fn double_allocate_panics() {
        let mut a = alloc(10);
        a.allocate_seq(SeqId(1), 1).unwrap();
        let _ = a.allocate_seq(SeqId(1), 1);
    }

    #[test]
    fn utilization() {
        let mut a = alloc(10);
        a.allocate_seq(SeqId(1), 80).unwrap();
        assert!((a.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_token_sequence() {
        let mut a = alloc(4);
        a.allocate_seq(SeqId(5), 0).unwrap();
        assert_eq!(a.used_blocks(), 0);
        // First append on an empty table allocates its first block.
        a.append_token(SeqId(5)).unwrap();
        assert_eq!(a.used_blocks(), 1);
        assert_eq!(a.tokens_of(SeqId(5)), Some(1));
    }
}
