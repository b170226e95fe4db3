//! Per-module FLOP and byte arithmetic for one transformer layer.
//!
//! The paper's central observation (§2.3, Fig. 2) is that *dense* modules
//! (QKV projection, attention output projection, MLP) and the *Attention*
//! module have very different arithmetic intensity, so they deserve
//! different parallelization. This module provides the raw operation counts
//! that the cluster's device model turns into time.

use crate::spec::ModelSpec;

/// The dense (parameter-carrying) operators of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DenseOp {
    /// Fused Q/K/V projection.
    Qkv,
    /// Attention output projection.
    OutProj,
    /// The feed-forward block (2 or 3 matrices).
    Mlp,
}

impl DenseOp {
    /// All dense ops in execution order.
    pub const ALL: [DenseOp; 3] = [DenseOp::Qkv, DenseOp::OutProj, DenseOp::Mlp];
}

/// Cost calculator for one layer of a given model.
///
/// Construction borrows the spec; all methods are pure arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct ModuleCosts<'a> {
    spec: &'a ModelSpec,
}

impl<'a> ModuleCosts<'a> {
    /// Cost calculator for `spec`.
    pub fn new(spec: &'a ModelSpec) -> Self {
        ModuleCosts { spec }
    }

    /// The underlying model.
    pub fn spec(&self) -> &ModelSpec {
        self.spec
    }

    // ---------------------------------------------------------------- dense

    /// FLOPs of a dense op over `tokens` input tokens (one layer).
    pub fn dense_flops(&self, op: DenseOp, tokens: u64) -> f64 {
        let h = self.spec.hidden_size as f64;
        let t = tokens as f64;
        match op {
            DenseOp::Qkv => {
                let kv_dim = (self.spec.num_kv_heads as u64 * self.spec.head_dim) as f64;
                2.0 * t * h * (h + 2.0 * kv_dim)
            }
            DenseOp::OutProj => 2.0 * t * h * h,
            DenseOp::Mlp => {
                let f = self.spec.ffn_dim as f64;
                2.0 * t * h * f * self.spec.mlp.matrices() as f64
            }
        }
    }

    /// Weight bytes touched by a dense op (one layer). In the decode regime
    /// dense ops are bound by streaming these weights from HBM.
    pub fn dense_weight_bytes(&self, op: DenseOp) -> u64 {
        let h = self.spec.hidden_size;
        let b = self.spec.dtype.bytes();
        match op {
            DenseOp::Qkv => {
                let kv_dim = self.spec.num_kv_heads as u64 * self.spec.head_dim;
                (h * h + 2 * h * kv_dim) * b
            }
            DenseOp::OutProj => h * h * b,
            DenseOp::Mlp => self.spec.mlp.matrices() * h * self.spec.ffn_dim * b,
        }
    }

    /// Total dense FLOPs of one layer over `tokens` tokens.
    pub fn dense_flops_total(&self, tokens: u64) -> f64 {
        DenseOp::ALL
            .iter()
            .map(|&op| self.dense_flops(op, tokens))
            .sum()
    }

    // ------------------------------------------------------------ attention

    /// KV-cache bytes read by decode attention for `query_heads` heads over
    /// `context_len` tokens (one layer). With GQA, `r` query heads share one
    /// KV head, so the traffic is divided by `r` — this is exactly why the
    /// paper's Eq. 6 capacity constraint carries the `r/2` factor.
    pub fn attn_decode_kv_bytes(&self, query_heads: u64, context_len: u64) -> f64 {
        let r = self.spec.gqa_ratio() as f64;
        2.0 * (query_heads as f64 / r)
            * context_len as f64
            * self.spec.head_dim as f64
            * self.spec.dtype.bytes() as f64
    }

    /// Prefill-attention FLOPs for one request of `prompt_len` tokens with
    /// all `num_heads` query heads (one layer, causal ≈ ½ of the dense
    /// quadratic → `2·L²·d` per head).
    pub fn attn_prefill_flops(&self, prompt_len: u64) -> f64 {
        2.0 * self.spec.num_heads as f64
            * (prompt_len as f64)
            * (prompt_len as f64)
            * self.spec.head_dim as f64
    }

    // -------------------------------------------------------- communication

    /// Bytes of Q/K/V/output chunks shipped per layer per request when
    /// `query_heads` heads are computed remotely (Eq. 4's `d_i`):
    /// `(2 + 2/r) · heads · head_dim · dtype` — one q vector and one result
    /// per query head, plus k and v vectors per KV group.
    pub fn attn_transfer_bytes(&self, query_heads: u64) -> f64 {
        let r = self.spec.gqa_ratio() as f64;
        (2.0 + 2.0 / r)
            * query_heads as f64
            * self.spec.head_dim as f64
            * self.spec.dtype.bytes() as f64
    }

    /// Bytes of the activation tensor for `tokens` tokens (TP all-reduce
    /// payload and PP stage-boundary payload).
    pub fn activation_bytes(&self, tokens: u64) -> u64 {
        tokens * self.spec.hidden_state_bytes_per_token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{llama_70b, opt_2_7b};

    #[test]
    fn dense_flops_scale_linearly_in_tokens() {
        let m = opt_2_7b();
        let c = ModuleCosts::new(&m);
        for op in DenseOp::ALL {
            let f1 = c.dense_flops(op, 100);
            let f2 = c.dense_flops(op, 200);
            assert!((f2 / f1 - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mlp_dominates_dense_flops() {
        // MLP is the heavyweight dense module in every paper model.
        for m in [opt_2_7b(), llama_70b()] {
            let c = ModuleCosts::new(&m);
            let mlp = c.dense_flops(DenseOp::Mlp, 10);
            let qkv = c.dense_flops(DenseOp::Qkv, 10);
            assert!(mlp > qkv, "{}", m.name);
        }
    }

    #[test]
    fn gqa_cuts_kv_traffic_by_r() {
        let m = llama_70b();
        let c = ModuleCosts::new(&m);
        let bytes = c.attn_decode_kv_bytes(64, 1000);
        // 64 query heads = 8 kv heads; 2*8*1000*128*2 bytes
        assert!((bytes - 2.0 * 8.0 * 1000.0 * 128.0 * 2.0).abs() < 1e-6);
    }

    #[test]
    fn transfer_bytes_formula() {
        let m = llama_70b(); // r = 8
        let c = ModuleCosts::new(&m);
        let d = c.attn_transfer_bytes(8);
        // (2 + 2/8) * 8 heads * 128 * 2 bytes = 2.25*8*256 = 4608
        assert!((d - 4608.0).abs() < 1e-9);
    }

    #[test]
    fn prefill_attention_quadratic() {
        let m = opt_2_7b();
        let c = ModuleCosts::new(&m);
        let f1 = c.attn_prefill_flops(128);
        let f2 = c.attn_prefill_flops(256);
        assert!((f2 / f1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn weight_bytes_match_spec_layer_bytes() {
        for m in [opt_2_7b(), llama_70b()] {
            let c = ModuleCosts::new(&m);
            let total: u64 = DenseOp::ALL
                .iter()
                .map(|&op| c.dense_weight_bytes(op))
                .sum();
            assert_eq!(total, m.weight_bytes_per_layer());
        }
    }

    #[test]
    fn activation_bytes() {
        let m = opt_2_7b();
        let c = ModuleCosts::new(&m);
        assert_eq!(c.activation_bytes(3), 3 * 2560 * 2);
    }
}
