//! Weight footprints and KV-pool sizing for a parallel configuration —
//! the arithmetic behind Fig. 1 and Fig. 11.

use crate::config::ParallelConfig;
use hetis_cluster::{Cluster, DeviceId, MemoryLedger};
use hetis_model::ModelSpec;
use std::collections::HashMap;

/// Memory outcome of placing a configuration on a cluster.
#[derive(Debug, Clone)]
pub struct PlacementSummary {
    /// Weight bytes per device.
    pub weights: HashMap<DeviceId, u64>,
    /// KV-pool bytes per device (after weights + activation reserve).
    pub kv_pool: HashMap<DeviceId, u64>,
}

/// Weight bytes each device must hold under `config`: its stage's layer
/// shard plus the embedding table (first stage) / LM head (last stage),
/// both TP-sharded.
pub fn device_weight_bytes(config: &ParallelConfig, model: &ModelSpec) -> HashMap<DeviceId, u64> {
    let mut out = HashMap::new();
    let emb_half = model.weight_bytes_embeddings() / 2; // embed vs LM head
    for inst in &config.instances {
        let last = inst.stages.len() - 1;
        for (si, stage) in inst.stages.iter().enumerate() {
            let tp = stage.tp() as u64;
            let mut stage_bytes = stage.layers as u64 * model.weight_bytes_per_layer();
            if si == 0 {
                stage_bytes += emb_half;
            }
            if si == last {
                stage_bytes += emb_half;
            }
            let per_device = stage_bytes / tp;
            for &d in &stage.devices {
                *out.entry(d).or_insert(0) += per_device;
            }
        }
    }
    out
}

/// KV-pool bytes per device after placing weights, or an error naming the
/// first device whose weights do not fit.
pub fn kv_pool_bytes(
    cluster: &Cluster,
    config: &ParallelConfig,
    model: &ModelSpec,
) -> Result<PlacementSummary, String> {
    let weights = device_weight_bytes(config, model);
    let mut kv_pool = HashMap::new();
    for (&d, &w) in &weights {
        let mut ledger = MemoryLedger::new(cluster.spec(d).mem_bytes);
        ledger
            .reserve_weights(w)
            .map_err(|e| format!("{d}: weights do not fit: {e}"))?;
        kv_pool.insert(d, ledger.kv_pool());
    }
    Ok(PlacementSummary { weights, kv_pool })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ParallelConfig, StageConfig};
    use hetis_cluster::cluster::paper_cluster;
    use hetis_cluster::GpuType;
    use hetis_model::{llama_13b, llama_70b};

    #[test]
    fn weights_cover_whole_model() {
        let c = paper_cluster();
        let m = llama_13b();
        let a100 = c.devices_of_type(GpuType::A100);
        let cfg = ParallelConfig::single(vec![StageConfig {
            devices: a100.clone(),
            layers: 40,
        }]);
        let w = device_weight_bytes(&cfg, &m);
        let total: u64 = w.values().sum();
        // TP sharding loses at most tp bytes to integer division.
        assert!(m.weight_bytes_total() - total < 16);
        // Even shards.
        let per = w[&a100[0]];
        assert!(w.values().all(|&b| b == per));
    }

    #[test]
    fn pipeline_splits_by_layers() {
        let c = paper_cluster();
        let m = llama_13b();
        let a100 = c.devices_of_type(GpuType::A100);
        let r3090 = c.devices_of_type(GpuType::Rtx3090);
        let cfg = ParallelConfig::single(vec![
            StageConfig {
                devices: a100[..2].to_vec(),
                layers: 30,
            },
            StageConfig {
                devices: r3090[..2].to_vec(),
                layers: 10,
            },
        ]);
        let w = device_weight_bytes(&cfg, &m);
        // Stage 0 devices hold 3x the layer bytes of stage 1 devices
        // (modulo the embedding/LM-head split).
        let w0 = w[&a100[0]] as f64;
        let w1 = w[&r3090[0]] as f64;
        assert!(w0 / w1 > 2.0 && w0 / w1 < 3.5, "ratio {}", w0 / w1);
    }

    #[test]
    fn llama70b_does_not_fit_one_a100() {
        let c = paper_cluster();
        let m = llama_70b();
        let a100 = c.devices_of_type(GpuType::A100);
        let cfg = ParallelConfig::single(vec![StageConfig {
            devices: vec![a100[0]],
            layers: 80,
        }]);
        assert!(kv_pool_bytes(&c, &cfg, &m).is_err());
    }

    #[test]
    fn kv_pool_positive_when_fitting() {
        let c = paper_cluster();
        let m = llama_13b();
        let a100 = c.devices_of_type(GpuType::A100);
        let cfg = ParallelConfig::single(vec![StageConfig {
            devices: a100.clone(),
            layers: 40,
        }]);
        let summary = kv_pool_bytes(&c, &cfg, &m).unwrap();
        assert_eq!(summary.kv_pool.len(), 4);
        // Each A100 holds ~6.5 GB of weights, leaving a large pool.
        for (&d, &pool) in &summary.kv_pool {
            assert!(pool > 60_000_000_000, "{d}: pool {pool}");
        }
        let total_pool: u64 = summary.kv_pool.values().sum();
        let total_weights: u64 = summary.weights.values().sum();
        assert!(total_pool > total_weights);
    }
}
