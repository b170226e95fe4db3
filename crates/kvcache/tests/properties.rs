//! Property tests: both allocators conserve blocks.

use hetis_kvcache::{BlockConfig, GroupId, HeadwiseAllocator, PagedAllocator, SeqId};
use proptest::prelude::*;

proptest! {
    /// Paged allocator conserves blocks across an arbitrary workload of
    /// allocate / append / free operations.
    #[test]
    fn paged_block_conservation(ops in proptest::collection::vec((0u8..3, 0u64..8, 1u32..80), 1..200)) {
        let cfg = BlockConfig { block_size: 16, num_blocks: 64 };
        let mut a = PagedAllocator::new(cfg);
        let mut live: Vec<u64> = Vec::new();
        for (kind, seq, tokens) in ops {
            match kind {
                0 => {
                    if !live.contains(&seq) && a.allocate_seq(SeqId(seq), tokens).is_ok() {
                        live.push(seq);
                    }
                }
                1 => {
                    if live.contains(&seq) {
                        let _ = a.append_token(SeqId(seq));
                    }
                }
                _ => {
                    a.free_seq(SeqId(seq));
                    live.retain(|&s| s != seq);
                }
            }
            // Invariant: used + free == total.
            prop_assert_eq!(a.used_blocks() + a.free_blocks(), cfg.num_blocks);
            // Invariant: used blocks exactly cover the live sequences.
            let expect: u32 = live.iter()
                .map(|&s| cfg.blocks_for(a.tokens_of(SeqId(s)).unwrap()))
                .sum();
            prop_assert_eq!(a.used_blocks(), expect);
        }
    }

    /// Headwise allocator conserves blocks under group-level churn.
    #[test]
    fn headwise_block_conservation(
        ops in proptest::collection::vec((0u8..4, 0u64..6, 0u16..8, 1u32..60), 1..150)
    ) {
        let cfg = BlockConfig { block_size: 16, num_blocks: 256 };
        let mut a = HeadwiseAllocator::new(cfg);
        for (kind, seq, group, tokens) in ops {
            match kind {
                0 => {
                    if a.tokens_of(SeqId(seq), GroupId(group)).is_none() {
                        let _ = a.allocate_groups(SeqId(seq), &[GroupId(group)], tokens);
                    }
                }
                1 => {
                    if !a.groups_of(SeqId(seq)).is_empty() {
                        let _ = a.append_token_all_groups(SeqId(seq));
                    }
                }
                2 => {
                    let _ = a.free_group(SeqId(seq), GroupId(group));
                }
                _ => {
                    let _ = a.free_seq(SeqId(seq));
                }
            }
            prop_assert_eq!(a.used_blocks() + a.free_blocks(), cfg.num_blocks);
        }
        // Free everything → pool returns to pristine.
        let seqs: Vec<SeqId> = a.sequences().collect();
        for s in seqs {
            a.free_seq(s);
        }
        prop_assert_eq!(a.free_blocks(), cfg.num_blocks);
    }
}
