//! Architecture description of a decoder-only transformer.

use crate::dtype::DType;

/// Shape of the feed-forward block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlpKind {
    /// Two matrices (up, down) with GELU — the OPT family.
    Standard,
    /// Three matrices (gate, up, down) with SiLU — the Llama family.
    Gated,
}

impl MlpKind {
    /// Number of weight matrices of shape `hidden × ffn` in the block.
    #[inline]
    pub fn matrices(self) -> u64 {
        match self {
            MlpKind::Standard => 2,
            MlpKind::Gated => 3,
        }
    }
}

/// A decoder-only transformer architecture.
///
/// All models in the paper share this structure; MHA vs GQA is captured by
/// `num_kv_heads` (`num_kv_heads == num_heads` for MHA, smaller for GQA —
/// e.g. 8 for Llama-70B). The paper's head-dispatch arithmetic works in
/// *query heads* with the group ratio `r = num_heads / num_kv_heads` (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Human-readable name, e.g. `"Llama-70B"`.
    pub name: String,
    /// Number of transformer layers.
    pub num_layers: u32,
    /// Model (embedding) dimension.
    pub hidden_size: u64,
    /// Number of attention query heads per layer.
    pub num_heads: u32,
    /// Number of key/value heads per layer (GQA groups).
    pub num_kv_heads: u32,
    /// Per-head dimension (`hidden_size / num_heads` in all paper models).
    pub head_dim: u64,
    /// Feed-forward intermediate dimension.
    pub ffn_dim: u64,
    /// Feed-forward topology.
    pub mlp: MlpKind,
    /// Vocabulary size (embedding + LM-head footprint).
    pub vocab_size: u64,
    /// Serving data type.
    pub dtype: DType,
}

impl ModelSpec {
    /// Query-heads-per-KV-head group ratio `r` (1 for MHA, 8 for Llama-70B).
    #[inline]
    pub fn gqa_ratio(&self) -> u32 {
        debug_assert!(self.num_heads.is_multiple_of(self.num_kv_heads));
        self.num_heads / self.num_kv_heads
    }

    /// Parameters in one transformer layer.
    ///
    /// QKV projection (`h×h` for Q plus `h×(kv_heads·head_dim)` for each of
    /// K and V), output projection (`h×h`), and the MLP matrices. Biases and
    /// layer norms are negligible (<0.1%) and deliberately omitted — the
    /// paper's capacity arithmetic also works from matrix shapes.
    pub fn params_per_layer(&self) -> u64 {
        let h = self.hidden_size;
        let kv_dim = self.num_kv_heads as u64 * self.head_dim;
        let qkv = h * h + 2 * h * kv_dim;
        let out_proj = h * h;
        let mlp = self.mlp.matrices() * h * self.ffn_dim;
        qkv + out_proj + mlp
    }

    /// Total parameter count, including input embeddings and the LM head
    /// (weight-tied models still materialize one copy per device group).
    pub fn total_params(&self) -> u64 {
        self.num_layers as u64 * self.params_per_layer() + 2 * self.vocab_size * self.hidden_size
    }

    /// Bytes of weights for the whole model at the serving dtype.
    pub fn weight_bytes_total(&self) -> u64 {
        self.total_params() * self.dtype.bytes()
    }

    /// Bytes of weights for one layer.
    pub fn weight_bytes_per_layer(&self) -> u64 {
        self.params_per_layer() * self.dtype.bytes()
    }

    /// Bytes of the embedding + LM-head tables.
    pub fn weight_bytes_embeddings(&self) -> u64 {
        2 * self.vocab_size * self.hidden_size * self.dtype.bytes()
    }

    /// Bytes of one token's hidden state (the tensor shipped between
    /// pipeline stages).
    #[inline]
    pub fn hidden_state_bytes_per_token(&self) -> u64 {
        self.hidden_size * self.dtype.bytes()
    }

    /// Sanity checks on the architecture; used by the registry tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_heads == 0 || self.num_kv_heads == 0 || self.num_layers == 0 {
            return Err(format!("{}: zero-sized dimension", self.name));
        }
        if !self.num_heads.is_multiple_of(self.num_kv_heads) {
            return Err(format!(
                "{}: num_heads {} not divisible by num_kv_heads {}",
                self.name, self.num_heads, self.num_kv_heads
            ));
        }
        if self.head_dim * self.num_heads as u64 != self.hidden_size {
            return Err(format!(
                "{}: head_dim*num_heads = {} != hidden_size {}",
                self.name,
                self.head_dim * self.num_heads as u64,
                self.hidden_size
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> ModelSpec {
        ModelSpec {
            name: "toy".into(),
            num_layers: 2,
            hidden_size: 64,
            num_heads: 8,
            num_kv_heads: 2,
            head_dim: 8,
            ffn_dim: 256,
            mlp: MlpKind::Gated,
            vocab_size: 1000,
            dtype: DType::F16,
        }
    }

    #[test]
    fn gqa_ratio() {
        let m = toy();
        assert_eq!(m.gqa_ratio(), 4);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn params_per_layer_arithmetic() {
        let m = toy();
        // qkv: 64*64 + 2*64*16 = 4096+2048 = 6144; out: 4096; mlp: 3*64*256=49152
        assert_eq!(m.params_per_layer(), 6144 + 4096 + 49152);
        assert_eq!(m.total_params(), 2 * m.params_per_layer() + 2 * 1000 * 64);
        assert_eq!(m.weight_bytes_total(), m.total_params() * 2);
    }

    #[test]
    fn validate_catches_bad_heads() {
        let mut m = toy();
        m.num_kv_heads = 3;
        assert!(m.validate().is_err());
        let mut m2 = toy();
        m2.head_dim = 9;
        assert!(m2.validate().is_err());
    }

    #[test]
    fn hidden_state_bytes() {
        assert_eq!(toy().hidden_state_bytes_per_token(), 128);
    }
}
