//! Parallel configuration types: DP instances → PP stages → TP groups.

use hetis_cluster::{Cluster, DeviceId};
use hetis_model::ModelSpec;
use std::collections::HashSet;

/// One pipeline stage: a tensor-parallel group executing a contiguous
/// range of layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageConfig {
    /// Devices of the TP group (degree = `devices.len()`).
    pub devices: Vec<DeviceId>,
    /// Number of transformer layers assigned to this stage.
    pub layers: u32,
}

impl StageConfig {
    /// Tensor-parallel degree.
    #[inline]
    pub fn tp(&self) -> usize {
        self.devices.len()
    }
}

/// One serving instance (data-parallel replica): an ordered pipeline of
/// stages covering all model layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceConfig {
    /// Pipeline stages in execution order.
    pub stages: Vec<StageConfig>,
}

impl InstanceConfig {
    /// All devices of the instance in stage order.
    pub fn devices(&self) -> Vec<DeviceId> {
        self.stages
            .iter()
            .flat_map(|s| s.devices.iter().copied())
            .collect()
    }

    /// Total layers covered.
    pub fn total_layers(&self) -> u32 {
        self.stages.iter().map(|s| s.layers).sum()
    }
}

/// A full cluster parallelization: one or more DP instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Data-parallel instances.
    pub instances: Vec<InstanceConfig>,
}

impl ParallelConfig {
    /// All devices used by any instance.
    pub fn devices(&self) -> Vec<DeviceId> {
        self.instances.iter().flat_map(|i| i.devices()).collect()
    }

    /// Structural validation against a model and cluster:
    /// * every instance covers exactly `model.num_layers` layers;
    /// * no device appears twice;
    /// * every stage has at least one device and one layer;
    /// * TP degrees divide the head counts (required to split heads).
    pub fn validate(&self, cluster: &Cluster, model: &ModelSpec) -> Result<(), String> {
        if self.instances.is_empty() {
            return Err("no instances".into());
        }
        let mut seen: HashSet<DeviceId> = HashSet::new();
        for (ii, inst) in self.instances.iter().enumerate() {
            if inst.stages.is_empty() {
                return Err(format!("instance {ii} has no stages"));
            }
            if inst.total_layers() != model.num_layers {
                return Err(format!(
                    "instance {ii} covers {} layers, model has {}",
                    inst.total_layers(),
                    model.num_layers
                ));
            }
            for (si, stage) in inst.stages.iter().enumerate() {
                if stage.devices.is_empty() {
                    return Err(format!("instance {ii} stage {si} has no devices"));
                }
                if stage.layers == 0 {
                    return Err(format!("instance {ii} stage {si} has zero layers"));
                }
                let tp = stage.tp() as u32;
                if !model.num_heads.is_multiple_of(tp)
                    || !model
                        .num_kv_heads
                        .is_multiple_of(tp.min(model.num_kv_heads))
                {
                    return Err(format!(
                        "instance {ii} stage {si}: TP {tp} does not divide heads \
                         ({}/{} q/kv)",
                        model.num_heads, model.num_kv_heads
                    ));
                }
                for &d in &stage.devices {
                    if d.index() >= cluster.len() {
                        return Err(format!("unknown device {d}"));
                    }
                    if !seen.insert(d) {
                        return Err(format!("device {d} used twice"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_cluster::cluster::paper_cluster;
    use hetis_cluster::GpuType;
    use hetis_model::llama_13b;

    impl ParallelConfig {
        /// A single-instance configuration.
        pub(crate) fn single(stages: Vec<StageConfig>) -> Self {
            ParallelConfig {
                instances: vec![InstanceConfig { stages }],
            }
        }
    }

    fn two_stage_config(cluster: &Cluster) -> ParallelConfig {
        let a100 = cluster.devices_of_type(GpuType::A100);
        let r3090 = cluster.devices_of_type(GpuType::Rtx3090);
        ParallelConfig::single(vec![
            StageConfig {
                devices: a100[..4].to_vec(),
                layers: 30,
            },
            StageConfig {
                devices: r3090[..2].to_vec(),
                layers: 10,
            },
        ])
    }

    #[test]
    fn valid_config_passes() {
        let c = paper_cluster();
        let m = llama_13b();
        let cfg = two_stage_config(&c);
        cfg.validate(&c, &m).unwrap();
        assert_eq!(cfg.instances.len(), 1);
        assert_eq!(cfg.instances[0].stages.len(), 2);
        assert_eq!(cfg.devices().len(), 6);
    }

    #[test]
    fn wrong_layer_total_rejected() {
        let c = paper_cluster();
        let m = llama_13b();
        let mut cfg = two_stage_config(&c);
        cfg.instances[0].stages[1].layers = 11;
        assert!(cfg.validate(&c, &m).is_err());
    }

    #[test]
    fn duplicate_device_rejected() {
        let c = paper_cluster();
        let m = llama_13b();
        let mut cfg = two_stage_config(&c);
        let dup = cfg.instances[0].stages[0].devices[0];
        cfg.instances[0].stages[1].devices.push(dup);
        assert!(cfg.validate(&c, &m).is_err());
    }

    #[test]
    fn bad_tp_degree_rejected() {
        let c = paper_cluster();
        let m = llama_13b(); // 40 heads
        let a100 = c.devices_of_type(GpuType::A100);
        let cfg = ParallelConfig::single(vec![StageConfig {
            devices: a100[..3].to_vec(), // TP3 does not divide 40
            layers: 40,
        }]);
        assert!(cfg.validate(&c, &m).is_err());
    }
}
