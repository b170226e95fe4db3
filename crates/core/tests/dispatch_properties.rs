//! Property tests on the Hetis dispatcher: every outcome respects the
//! paper's constraints (Eq. 5 integrality, Eq. 7b capacity, Eq. 7c head
//! integrity) under randomized resident load.

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::GpuType;
use hetis_core::{Dispatcher, HetisConfig, Profiler};
use hetis_engine::{KvState, StageTopo};
use hetis_model::llama_70b;
use hetis_parallel::StageConfig;
use hetis_workload::RequestId;
use proptest::prelude::*;
use std::collections::HashMap;

fn setup(
    resident: &[(usize, u32, u32)],
) -> (
    hetis_cluster::Cluster,
    hetis_model::ModelSpec,
    KvState,
    StageTopo,
    Dispatcher,
) {
    let cluster = paper_cluster();
    let model = llama_70b();
    let mut kv = KvState::new(&cluster, &model, 16, &HashMap::new()).unwrap();
    let mut stage = StageTopo::plain(StageConfig {
        devices: cluster.devices_of_type(GpuType::A100),
        layers: 80,
    });
    stage.attention_workers = cluster.devices_of_type(GpuType::P100)[..2].to_vec();
    let devices = stage.attention_devices();
    for (k, &(dev_idx, groups, tokens)) in resident.iter().enumerate() {
        let dev = devices[dev_idx % devices.len()];
        let _ = kv.device_mut(dev).allocate(
            RequestId(10_000 + k as u64),
            0,
            groups.clamp(1, 8),
            tokens.max(16),
            80,
        );
    }
    let profiler = Profiler::profile(&cluster, 8, 0.0, 17);
    (
        cluster,
        model,
        kv,
        stage,
        Dispatcher::new(profiler, HetisConfig::default()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dispatch_respects_all_constraints(
        resident in proptest::collection::vec((0usize..6, 1u32..9, 16u32..4000), 0..40),
        lens in proptest::collection::vec(16u32..4000, 1..5),
    ) {
        let (cluster, model, kv, stage, dispatcher) = setup(&resident);
        let devices = stage.attention_devices();
        let Some(out) = dispatcher.dispatch(&cluster, &model, &kv, &stage, 0, &lens) else {
            // Infeasible is a legal outcome under heavy residency.
            return Ok(());
        };
        prop_assert_eq!(out.heads.len(), lens.len());
        let kappa = Dispatcher::head_token_bytes(&model);
        let mut added_per_dev = vec![0.0f64; devices.len()];
        for (j, per_req) in out.heads.iter().enumerate() {
            // Eq. 7c: heads sum to H.
            prop_assert_eq!(per_req.iter().sum::<u32>(), model.num_heads);
            for (i, &h) in per_req.iter().enumerate() {
                // Eq. 5: group-integral.
                prop_assert!(h % model.gqa_ratio() == 0);
                added_per_dev[i] += h as f64 * lens[j] as f64 * kappa;
            }
        }
        // Eq. 7b: per-device free capacity honored (per-layer units).
        for (i, &dev) in devices.iter().enumerate() {
            let free = kv.device(dev).free_bytes() as f64 / 80.0;
            prop_assert!(
                added_per_dev[i] <= free + 1e-6,
                "device {dev} over capacity: {} > {}",
                added_per_dev[i],
                free
            );
        }
        // Predicted max must be positive when anything was placed.
        prop_assert!(out.predicted_max >= 0.0);
    }

    #[test]
    fn ideal_never_exceeds_current(
        resident in proptest::collection::vec((0usize..6, 1u32..9, 64u32..3000), 1..40),
    ) {
        let (cluster, model, kv, stage, dispatcher) = setup(&resident);
        let (current, _) = dispatcher.current_attention_time(&cluster, &model, &kv, &stage, 0);
        if let Some(ideal) = dispatcher.ideal_attention_time(&cluster, &model, &kv, &stage, 0) {
            // §5.3.1: f* is a relaxation — never worse than the status quo
            // (small tolerance for LP roundoff).
            prop_assert!(ideal <= current * 1.001 + 1e-9, "ideal {ideal} > current {current}");
        }
    }
}
