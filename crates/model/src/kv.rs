//! KV-cache footprint arithmetic, in both token-granular (vLLM-style) and
//! head-granular (Hetis) units.

use crate::spec::ModelSpec;

/// KV-cache sizing for a model.
///
/// Hetis manages caches at *(KV-head-group, token-block)* granularity, where
/// a head group is one KV head together with its `r` query heads (§6). A
/// vLLM-style manager instead treats all KV heads of a layer as one unit.
/// Both granularities are derived here so the two allocators in
/// `hetis-kvcache` agree byte-for-byte on totals.
#[derive(Debug, Clone, Copy)]
pub struct KvFootprint<'a> {
    spec: &'a ModelSpec,
}

impl<'a> KvFootprint<'a> {
    /// Footprint calculator for `spec`.
    pub fn new(spec: &'a ModelSpec) -> Self {
        KvFootprint { spec }
    }

    /// Bytes of K+V for one token, one layer, one KV head (= one head
    /// group). The Hetis allocator's base unit.
    #[inline]
    pub fn bytes_per_token_per_layer_per_group(&self) -> u64 {
        2 * self.spec.head_dim * self.spec.dtype.bytes()
    }

    /// Bytes of K+V for one token, one layer, all KV heads. The vLLM
    /// allocator's base unit.
    #[inline]
    pub fn bytes_per_token_per_layer(&self) -> u64 {
        self.spec.num_kv_heads as u64 * self.bytes_per_token_per_layer_per_group()
    }

    /// Bytes of K+V for one token across all layers (whole model).
    #[inline]
    pub fn bytes_per_token(&self) -> u64 {
        self.spec.num_layers as u64 * self.bytes_per_token_per_layer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{llama_13b, llama_70b, opt_13b};

    #[test]
    fn paper_motivating_example_13b_10k_tokens() {
        // §1: "decoding a single sequence with a length of 10k in a
        // LLaMA2-13B model requires more than 8 GB". Llama-13B shares the
        // 13B architecture.
        let m = llama_13b();
        let kv = KvFootprint::new(&m);
        let gb = (kv.bytes_per_token() * 10_000) as f64 / 1e9;
        assert!(gb > 8.0, "10k tokens = {gb} GB, expected > 8 GB");
        assert!(gb < 12.0, "10k tokens = {gb} GB, expected < 12 GB");
        // Same check via opt_13b (MHA, same hidden size/layers).
        let opt = opt_13b();
        let kv2 = KvFootprint::new(&opt);
        assert_eq!(kv2.bytes_per_token(), kv.bytes_per_token());
    }

    #[test]
    fn gqa_reduces_footprint_by_r() {
        let m = llama_70b();
        let kv = KvFootprint::new(&m);
        // 8 kv heads instead of 64: footprint per token per layer is
        // 8 * 2 * 128 * 2 = 4096 bytes.
        assert_eq!(kv.bytes_per_token_per_layer(), 4096);
        assert_eq!(kv.bytes_per_token(), 80 * 4096);
    }

    #[test]
    fn group_and_full_units_consistent() {
        let m = llama_70b();
        let kv = KvFootprint::new(&m);
        assert_eq!(
            kv.bytes_per_token_per_layer(),
            kv.bytes_per_token_per_layer_per_group() * m.num_kv_heads as u64
        );
    }
}
