//! The concrete model zoo used throughout the paper's evaluation.

use crate::dtype::DType;
use crate::spec::{MlpKind, ModelSpec};

/// Identifiers for the models exercised in the paper, convenient for
/// iterating experiments over the full zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// OPT-2.7B (Table 1 profiling model).
    Opt2_7b,
    /// Llama2-7B (motivation §1/§2 examples).
    Llama2_7b,
    /// Llama-13B (Fig. 8).
    Llama13b,
    /// OPT-13B (extra zoo entry for sweeps).
    Opt13b,
    /// OPT-30B (Fig. 9).
    Opt30b,
    /// Llama-70B — GQA, r=8 (Fig. 10 and most module studies).
    Llama70b,
}

impl ModelId {
    /// Materializes the architecture description.
    pub fn spec(self) -> ModelSpec {
        match self {
            ModelId::Opt2_7b => opt_2_7b(),
            ModelId::Llama2_7b => llama2_7b(),
            ModelId::Llama13b => llama_13b(),
            ModelId::Opt13b => opt_13b(),
            ModelId::Opt30b => opt_30b(),
            ModelId::Llama70b => llama_70b(),
        }
    }

    /// The three end-to-end evaluation models (Figs. 8–10).
    pub fn eval_models() -> [ModelId; 3] {
        [ModelId::Llama13b, ModelId::Opt30b, ModelId::Llama70b]
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ModelId::Opt2_7b => "OPT-2.7B",
            ModelId::Llama2_7b => "Llama2-7B",
            ModelId::Llama13b => "Llama-13B",
            ModelId::Opt13b => "OPT-13B",
            ModelId::Opt30b => "OPT-30B",
            ModelId::Llama70b => "Llama-70B",
        })
    }
}

/// OPT-2.7B: 32 layers, hidden 2560, 32 heads, FFN 4×hidden.
pub fn opt_2_7b() -> ModelSpec {
    ModelSpec {
        name: "OPT-2.7B".into(),
        num_layers: 32,
        hidden_size: 2560,
        num_heads: 32,
        num_kv_heads: 32,
        head_dim: 80,
        ffn_dim: 10240,
        mlp: MlpKind::Standard,
        vocab_size: 50272,
        dtype: DType::F16,
    }
}

/// Llama2-7B: 32 layers, hidden 4096, 32 heads, gated FFN 11008.
pub fn llama2_7b() -> ModelSpec {
    ModelSpec {
        name: "Llama2-7B".into(),
        num_layers: 32,
        hidden_size: 4096,
        num_heads: 32,
        num_kv_heads: 32,
        head_dim: 128,
        ffn_dim: 11008,
        mlp: MlpKind::Gated,
        vocab_size: 32000,
        dtype: DType::F16,
    }
}

/// Llama-13B: 40 layers, hidden 5120, 40 heads, gated FFN 13824.
pub fn llama_13b() -> ModelSpec {
    ModelSpec {
        name: "Llama-13B".into(),
        num_layers: 40,
        hidden_size: 5120,
        num_heads: 40,
        num_kv_heads: 40,
        head_dim: 128,
        ffn_dim: 13824,
        mlp: MlpKind::Gated,
        vocab_size: 32000,
        dtype: DType::F16,
    }
}

/// OPT-13B: 40 layers, hidden 5120, 40 heads, FFN 4×hidden.
pub fn opt_13b() -> ModelSpec {
    ModelSpec {
        name: "OPT-13B".into(),
        num_layers: 40,
        hidden_size: 5120,
        num_heads: 40,
        num_kv_heads: 40,
        head_dim: 128,
        ffn_dim: 20480,
        mlp: MlpKind::Standard,
        vocab_size: 50272,
        dtype: DType::F16,
    }
}

/// OPT-30B: 48 layers, hidden 7168, 56 heads, FFN 4×hidden.
pub fn opt_30b() -> ModelSpec {
    ModelSpec {
        name: "OPT-30B".into(),
        num_layers: 48,
        hidden_size: 7168,
        num_heads: 56,
        num_kv_heads: 56,
        head_dim: 128,
        ffn_dim: 28672,
        mlp: MlpKind::Standard,
        vocab_size: 50272,
        dtype: DType::F16,
    }
}

/// Llama-70B: 80 layers, hidden 8192, 64 query heads / 8 KV heads (GQA,
/// r = 8), gated FFN 28672.
pub fn llama_70b() -> ModelSpec {
    ModelSpec {
        name: "Llama-70B".into(),
        num_layers: 80,
        hidden_size: 8192,
        num_heads: 64,
        num_kv_heads: 8,
        head_dim: 128,
        ffn_dim: 28672,
        mlp: MlpKind::Gated,
        vocab_size: 32000,
        dtype: DType::F16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_validate() {
        for id in [
            ModelId::Opt2_7b,
            ModelId::Llama2_7b,
            ModelId::Llama13b,
            ModelId::Opt13b,
            ModelId::Opt30b,
            ModelId::Llama70b,
        ] {
            let spec = id.spec();
            spec.validate().unwrap();
        }
    }

    #[test]
    fn param_counts_near_nominal() {
        // Param counts must land near the models' nominal sizes.
        let cases = [
            (ModelId::Opt2_7b, 2.7e9),
            (ModelId::Llama2_7b, 6.7e9),
            (ModelId::Llama13b, 13.0e9),
            (ModelId::Opt30b, 30.0e9),
            (ModelId::Llama70b, 69.0e9),
        ];
        for (id, nominal) in cases {
            let p = id.spec().total_params() as f64;
            let rel = (p - nominal).abs() / nominal;
            assert!(rel < 0.12, "{id}: {p:.3e} vs nominal {nominal:.3e}");
        }
    }

    #[test]
    fn llama70b_is_gqa_with_r8() {
        let m = llama_70b();
        assert_eq!(m.gqa_ratio(), 8);
    }

    #[test]
    fn fp16_weight_footprints() {
        // Llama-70B in FP16 is ~138 GB — more than one A100, which is why
        // the paper must shard it.
        let gb = llama_70b().weight_bytes_total() as f64 / 1e9;
        assert!((125.0..150.0).contains(&gb), "got {gb} GB");
        // Llama2-7B FP16 ~13.5 GB (the §2.3 example: A100 + 3090 hosting).
        let gb7 = llama2_7b().weight_bytes_total() as f64 / 1e9;
        assert!((12.0..15.0).contains(&gb7), "got {gb7} GB");
    }

    #[test]
    fn eval_models_list() {
        let names: Vec<String> = ModelId::eval_models()
            .iter()
            .map(|m| m.to_string())
            .collect();
        assert_eq!(names, vec!["Llama-13B", "OPT-30B", "Llama-70B"]);
    }
}
