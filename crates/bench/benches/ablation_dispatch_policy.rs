//! Ablation A3: the dispatch LP vs naive head-placement policies.
//!
//! Compares, on one stage with mixed primaries and attention workers:
//! * the Eq. 7 LP (Hetis),
//! * proportional-to-speed greedy placement,
//! * static even split across all devices,
//!
//! scored by the ground-truth attention phase time each placement yields.

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::{attn_decode_time, AttnWork, GpuType};
use hetis_core::{Dispatcher, Profiler};
use hetis_engine::{KvState, StageTopo};
use hetis_model::{llama_70b, KvFootprint};
use hetis_parallel::StageConfig;
use std::collections::HashMap;

fn main() {
    let cluster = paper_cluster();
    let model = llama_70b();
    let kvf = KvFootprint::new(&model);
    let mut kv = KvState::new(&cluster, &model, 16, &HashMap::new()).unwrap();
    let mut stage = StageTopo::plain(StageConfig {
        devices: cluster.devices_of_type(GpuType::A100),
        layers: 80,
    });
    stage.attention_workers = cluster.devices_of_type(GpuType::P100);
    let devices: Vec<_> = stage.attention_devices().collect();
    let dispatcher = Dispatcher::new(Profiler::profile(&cluster, 8, 0.0, 9));

    // Background load on the primaries so the decision is non-trivial.
    let blocks = kv.blocks_for(2500);
    for (k, &dev) in stage.primary.devices.iter().enumerate() {
        for q in 0..30u64 {
            kv.device_mut(dev)
                .allocate(
                    hetis_workload::RequestId(900 + k as u64 * 50 + q),
                    0,
                    8,
                    blocks,
                    80,
                )
                .unwrap();
        }
    }

    let new_ctx = 2000u32;
    let n = devices.len();

    // Candidate placements for one new request (64 heads).
    let lp = dispatcher
        .dispatch(&cluster, &model, &kv, &stage, 0, &[new_ctx], None)
        .unwrap()
        .heads[0]
        .clone();
    let speeds: Vec<f64> = devices.iter().map(|&d| cluster.spec(d).attn_bw).collect();
    let speed_sum: f64 = speeds.iter().sum();
    let prop: Vec<u32> = {
        let frac: Vec<f64> = speeds.iter().map(|s| 64.0 * s / speed_sum).collect();
        hetis_lp::round_to_groups(&frac, 8, 64, &vec![64; n]).unwrap()
    };
    let even: Vec<u32> = {
        let frac = vec![64.0 / n as f64; n];
        hetis_lp::round_to_groups(&frac, 8, 64, &vec![64; n]).unwrap()
    };

    // Ground-truth attention phase under each placement (resident + new).
    let phase = |alloc: &[u32]| -> f64 {
        devices
            .iter()
            .zip(alloc)
            .map(|(&d, &heads)| {
                let resident_h = kv.device(d).stage_query_heads(0, 8) as f64;
                let resident_g = kv.device(d).stage_kv_bytes_per_layer(0);
                let new_g = (heads as u64 / 8) as f64
                    * new_ctx as f64
                    * kvf.bytes_per_token_per_layer_per_group() as f64;
                attn_decode_time(
                    cluster.spec(d),
                    AttnWork {
                        query_heads: resident_h + heads as f64,
                        kv_bytes: resident_g + new_g,
                    },
                )
            })
            .fold(0.0, f64::max)
    };

    println!("# A3: attention phase time (us/layer) by dispatch policy");
    println!("policy\tplacement\tphase_us");
    for (name, alloc) in [("lp", &lp), ("proportional", &prop), ("even", &even)] {
        println!("{name}\t{alloc:?}\t{:.2}", phase(alloc) * 1e6);
    }
}
