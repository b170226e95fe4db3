//! Hetis head-granular allocator: block tables keyed by
//! *(sequence, KV-head group)* (§6 "KV cache management").
//!
//! Splitting cache blocks on the head dimension is what lets the
//! Dispatcher place different head groups of one request on different
//! devices, migrate groups independently, and free partially. The price is
//! more block-table entries per token — the paper measures a 13% storage
//! overhead (Fig. 15b), which the `store_ops` counters here and in the
//! paged allocator let us reproduce.

use crate::block::{BlockConfig, BlockId, SeqId};
use crate::paged::AllocError;
use std::collections::HashMap;

/// KV-head-group index within a layer (one KV head + its `r` query heads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u16);

#[derive(Debug, Clone, Default)]
struct GroupTable {
    blocks: Vec<BlockId>,
    tokens: u32,
}

/// Head-granular paged KV allocator for one device.
///
/// A block covers `block_size` tokens of *one* head group. The pool's
/// `num_blocks` should be sized so that
/// `num_blocks × block_bytes(one group)` equals the device's KV pool.
#[derive(Debug, Clone)]
pub struct HeadwiseAllocator {
    config: BlockConfig,
    free: Vec<BlockId>,
    tables: HashMap<(SeqId, GroupId), GroupTable>,
    /// Groups resident per sequence (maintained for O(groups) per-seq ops).
    groups: HashMap<SeqId, Vec<GroupId>>,
    store_ops: u64,
}

impl HeadwiseAllocator {
    /// A fresh pool.
    pub fn new(config: BlockConfig) -> Self {
        HeadwiseAllocator {
            config,
            free: (0..config.num_blocks).rev().map(BlockId).collect(),
            tables: HashMap::new(),
            groups: HashMap::new(),
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

    /// Whether `groups` head groups of `tokens` tokens each fit right now.
    pub fn can_allocate(&self, groups: u32, tokens: u32) -> bool {
        groups
            .checked_mul(self.config.blocks_for(tokens))
            .map(|need| need <= self.free_blocks())
            .unwrap_or(false)
    }

    /// Registers head groups of a sequence, each holding `tokens` tokens.
    /// All-or-nothing: on failure the pool is unchanged.
    pub fn allocate_groups(
        &mut self,
        seq: SeqId,
        groups: &[GroupId],
        tokens: u32,
    ) -> Result<(), AllocError> {
        let per_group = self.config.blocks_for(tokens);
        let need = per_group * groups.len() as u32;
        if need > self.free_blocks() {
            return Err(AllocError {
                requested: need,
                free: self.free_blocks(),
            });
        }
        for &g in groups {
            assert!(
                !self.tables.contains_key(&(seq, g)),
                "group {g:?} of {seq:?} already allocated"
            );
        }
        for &g in groups {
            let mut blocks = Vec::with_capacity(per_group as usize);
            for _ in 0..per_group {
                blocks.push(self.take_free());
            }
            self.tables.insert((seq, g), GroupTable { blocks, tokens });
            self.groups.entry(seq).or_default().push(g);
        }
        Ok(())
    }

    /// Appends one token to *every* resident group of `seq` (each decode
    /// step extends all groups of the request that live on this device).
    /// All-or-nothing per call.
    pub fn append_token_all_groups(&mut self, seq: SeqId) -> Result<(), AllocError> {
        let groups = self
            .groups
            .get(&seq)
            .cloned()
            .expect("unknown sequence on this device");
        // A group whose tokens exactly fill its blocks (or that has none)
        // needs a fresh block for the next token.
        let block_size = self.config.block_size;
        let crosses = |t: &GroupTable| t.tokens.is_multiple_of(block_size) || t.blocks.is_empty();
        let need = groups
            .iter()
            .filter(|&&g| crosses(&self.tables[&(seq, g)]))
            .count() as u32;
        if need > self.free_blocks() {
            return Err(AllocError {
                requested: need,
                free: self.free_blocks(),
            });
        }
        for &g in &groups {
            if crosses(&self.tables[&(seq, g)]) {
                let b = self.take_free();
                self.tables
                    .get_mut(&(seq, g))
                    .expect("present")
                    .blocks
                    .push(b);
            }
            self.tables.get_mut(&(seq, g)).expect("present").tokens += 1;
        }
        Ok(())
    }

    /// Frees every group of a sequence; returns blocks reclaimed to the
    /// pool.
    pub fn free_seq(&mut self, seq: SeqId) -> u32 {
        let Some(groups) = self.groups.remove(&seq) else {
            return 0;
        };
        let mut released = 0;
        for g in groups {
            if let Some(table) = self.tables.remove(&(seq, g)) {
                released += table.blocks.len() as u32;
                self.free.extend(table.blocks);
            }
        }
        released
    }

    /// Groups of `seq` resident on this device (empty slice if none).
    pub fn groups_of(&self, seq: SeqId) -> &[GroupId] {
        self.groups.get(&seq).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Tokens cached for one group.
    pub fn tokens_of(&self, seq: SeqId, group: GroupId) -> Option<u32> {
        self.tables.get(&(seq, group)).map(|t| t.tokens)
    }

    /// Block list of one group, for index building.
    pub fn blocks_of(&self, seq: SeqId, group: GroupId) -> Option<&[BlockId]> {
        self.tables.get(&(seq, group)).map(|t| t.blocks.as_slice())
    }

    /// Sequences with at least one group here.
    pub fn sequences(&self) -> impl Iterator<Item = SeqId> + '_ {
        self.groups.keys().copied()
    }

    /// Cumulative block-table write operations.
    pub fn store_ops(&self) -> u64 {
        self.store_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(num_blocks: u32) -> HeadwiseAllocator {
        HeadwiseAllocator::new(BlockConfig {
            block_size: 16,
            num_blocks,
        })
    }

    fn groups(ids: &[u16]) -> Vec<GroupId> {
        ids.iter().map(|&i| GroupId(i)).collect()
    }

    #[test]
    fn partial_residency() {
        let mut a = alloc(100);
        // Request 1 keeps groups 0..4 here; groups 4..8 live elsewhere.
        a.allocate_groups(SeqId(1), &groups(&[0, 1, 2, 3]), 40)
            .unwrap();
        assert_eq!(a.used_blocks(), 4 * 3);
        assert_eq!(a.groups_of(SeqId(1)).len(), 4);
        assert_eq!(a.tokens_of(SeqId(1), GroupId(0)), Some(40));
        assert_eq!(a.tokens_of(SeqId(1), GroupId(7)), None);
    }

    #[test]
    fn append_extends_all_resident_groups() {
        let mut a = alloc(100);
        a.allocate_groups(SeqId(1), &groups(&[0, 1]), 16).unwrap();
        assert_eq!(a.used_blocks(), 2);
        a.append_token_all_groups(SeqId(1)).unwrap();
        // Both groups crossed the boundary → 2 new blocks.
        assert_eq!(a.used_blocks(), 4);
        assert_eq!(a.tokens_of(SeqId(1), GroupId(0)), Some(17));
        assert_eq!(a.tokens_of(SeqId(1), GroupId(1)), Some(17));
    }

    #[test]
    fn append_all_or_nothing_on_exhaustion() {
        let mut a = alloc(3);
        a.allocate_groups(SeqId(1), &groups(&[0, 1, 2]), 16)
            .unwrap();
        assert_eq!(a.free_blocks(), 0);
        let err = a.append_token_all_groups(SeqId(1)).unwrap_err();
        assert_eq!(err.requested, 3);
        // No group advanced.
        for g in 0..3 {
            assert_eq!(a.tokens_of(SeqId(1), GroupId(g)), Some(16));
        }
    }

    #[test]
    fn allocation_atomic_on_failure() {
        let mut a = alloc(5);
        let err = a
            .allocate_groups(SeqId(1), &groups(&[0, 1, 2]), 32)
            .unwrap_err();
        assert_eq!(err.requested, 6);
        assert_eq!(a.free_blocks(), 5);
        assert!(a.groups_of(SeqId(1)).is_empty());
    }

    #[test]
    fn storage_overhead_vs_paged() {
        // The Fig. 15b storage effect at the bench's shape: 512 sequences
        // of 700 tokens plus 100 decode appends end at 800 tokens, 50
        // blocks each. Head-wise tables write one block per group where
        // token-wise tables write one per sequence: 8x the storage ops.
        use crate::paged::PagedAllocator;
        let mut p = PagedAllocator::new(BlockConfig {
            block_size: 16,
            num_blocks: 64_000,
        });
        // Head-wise pool: 8 groups → blocks are 1/8 the bytes; same bytes
        // = 8x the blocks.
        let mut h = HeadwiseAllocator::new(BlockConfig {
            block_size: 16,
            num_blocks: 8 * 64_000,
        });
        let all_groups = groups(&[0, 1, 2, 3, 4, 5, 6, 7]);
        for s in 0..512u64 {
            p.allocate_seq(SeqId(s), 700).unwrap();
            h.allocate_groups(SeqId(s), &all_groups, 700).unwrap();
        }
        for _ in 0..100 {
            for s in 0..512u64 {
                p.append_token(SeqId(s)).unwrap();
                h.append_token_all_groups(SeqId(s)).unwrap();
            }
        }
        assert_eq!(p.store_ops(), 25_600);
        assert_eq!(h.store_ops(), 204_800);
    }

    #[test]
    fn can_allocate_overflow_safe() {
        let a = alloc(10);
        assert!(!a.can_allocate(u32::MAX, u32::MAX));
    }
}
