//! Block primitives shared by both allocators.

/// Physical block id within one device's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Sequence (request) identifier as the cache layer sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqId(pub u64);

/// Pool geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockConfig {
    /// Tokens per block (vLLM default 16; the paper keeps it).
    pub block_size: u32,
    /// Total blocks in the pool.
    pub num_blocks: u32,
}

impl BlockConfig {
    /// Blocks needed to hold `tokens` tokens.
    #[inline]
    pub fn blocks_for(&self, tokens: u32) -> u32 {
        tokens.div_ceil(self.block_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_for_rounds_up() {
        let c = BlockConfig {
            block_size: 16,
            num_blocks: 100,
        };
        assert_eq!(c.blocks_for(0), 0);
        assert_eq!(c.blocks_for(1), 1);
        assert_eq!(c.blocks_for(16), 1);
        assert_eq!(c.blocks_for(17), 2);
    }
}
