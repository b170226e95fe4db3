//! Criterion micro-benchmarks of the hot scheduling paths: the dispatch
//! solvers (water-fill fast path vs the simplex oracle, at the paper's
//! 6-device × 4-request shape and a 12×16 stress shape), the ideal-time
//! relaxation (a memo hit and a real solve), head rounding and
//! fetch-index assembly.
//!
//! `BENCH_4.json` at the repository root records the old-vs-new numbers
//! for the dispatch pairs.

use criterion::{criterion_group, criterion_main, Criterion};
use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::GpuType;
use hetis_core::{DispatchSolver, Dispatcher, HetisConfig, Profiler};
use hetis_engine::{KvState, StageTopo};
use hetis_kvcache::index::build_headwise_index_serial;
use hetis_kvcache::{build_fetch_index_parallel, BlockConfig, GroupId, HeadwiseAllocator, SeqId};
use hetis_lp::{
    round_to_groups, AffineExpr, ConstraintOp, MinMaxBuilder, WaterFill, WfDemand, WfDevice,
    WfOutcome,
};
use hetis_model::llama_70b;
use hetis_parallel::StageConfig;
use std::collections::HashMap;

/// Builds the shared Eq.-(7)-shaped instance (`n` devices × `j`
/// requests) as the generic epigraph LP. `cap` keeps the 6×4 shape
/// bit-identical to the historical `lp_minmax_6dev_4req` instance while
/// staying non-binding on the stress shape.
fn minmax_instance(n: usize, j: usize, cap_rhs: f64) -> MinMaxBuilder {
    let nv = n * j;
    let mut builder = MinMaxBuilder::new(nv);
    for i in 0..n {
        let speed = 1.0 + i as f64 * 0.5;
        let mut coeffs = vec![0.0; nv];
        for jj in 0..j {
            coeffs[jj * n + i] = speed * (1.0 + jj as f64 * 0.1);
        }
        builder.add_max_term(AffineExpr {
            constant: 0.01 * i as f64,
            coeffs,
        });
        let mut cap = vec![0.0; nv];
        for jj in 0..j {
            cap[jj * n + i] = 1.0;
        }
        builder.add_constraint(cap, ConstraintOp::Le, cap_rhs);
    }
    for jj in 0..j {
        let mut row = vec![0.0; nv];
        for i in 0..n {
            row[jj * n + i] = 1.0;
        }
        builder.add_constraint(row, ConstraintOp::Eq, 64.0);
    }
    builder
}

/// The same instance posed structurally for the water-fill solver.
fn waterfill_instance(wf: &mut WaterFill, n: usize, j: usize, cap_rhs: f64) {
    wf.clear();
    for i in 0..n {
        let speed = 1.0 + i as f64 * 0.5;
        wf.push_device(WfDevice {
            constant: 0.01 * i as f64,
            alpha: speed,
            beta: speed,
            capacity: cap_rhs,
        });
    }
    for jj in 0..j {
        // speed·(1 + 0.1·jj) = α·p + β·q with p + q = 1 + 0.1·jj.
        wf.push_demand(WfDemand {
            amount: 64.0,
            p: 1.0,
            q: 0.1 * jj as f64,
            u: 1.0,
        });
    }
}

fn bench_lp(c: &mut Criterion) {
    for (n, j, cap_rhs, old_id, new_id) in [
        (6, 4, 100.0, "lp_minmax_6dev_4req", "lp_waterfill_6dev_4req"),
        (
            12,
            16,
            1600.0,
            "lp_minmax_12dev_16req",
            "lp_waterfill_12dev_16req",
        ),
    ] {
        c.bench_function(old_id, |b| {
            b.iter(|| minmax_instance(n, j, cap_rhs).solve().unwrap())
        });
        let mut wf = WaterFill::new();
        // The two solvers must agree before the timings mean anything.
        waterfill_instance(&mut wf, n, j, cap_rhs);
        let WfOutcome::Solved(s) = wf.solve() else {
            panic!("{new_id}: fast path must engage on the bench shape");
        };
        let lp = minmax_instance(n, j, cap_rhs).solve().unwrap();
        assert!(
            (s.max_value - lp.max_value).abs() <= 1e-6 * lp.max_value.abs().max(1.0),
            "{new_id}: solvers disagree: {} vs {}",
            s.max_value,
            lp.max_value
        );
        c.bench_function(new_id, |b| {
            b.iter(|| {
                waterfill_instance(&mut wf, n, j, cap_rhs);
                match wf.solve() {
                    WfOutcome::Solved(s) => s.max_value,
                    other => panic!("fast path lost: {other:?}"),
                }
            })
        });
    }

    c.bench_function("round_to_groups_8dev", |b| {
        let x = vec![10.3, 7.7, 12.1, 5.9, 8.0, 6.4, 9.6, 4.0];
        let cap = vec![64u32; 8];
        b.iter(|| round_to_groups(&x, 8, 64, &cap).unwrap())
    });
}

fn bench_dispatch(c: &mut Criterion) {
    let cluster = paper_cluster();
    let model = llama_70b();
    let mut kv = KvState::new(&cluster, &model, 16, &HashMap::new()).unwrap();
    let mut stage = StageTopo::plain(StageConfig {
        devices: cluster.devices_of_type(GpuType::A100),
        layers: 80,
    });
    stage.attention_workers = cluster.devices_of_type(GpuType::P100);
    for (k, &dev) in stage.primary.devices.iter().enumerate() {
        for q in 0..25u64 {
            kv.device_mut(dev)
                .allocate(
                    hetis_workload::RequestId(k as u64 * 100 + q),
                    0,
                    8,
                    2000,
                    80,
                )
                .unwrap();
        }
    }
    let simplex_cfg = HetisConfig {
        solver: DispatchSolver::Simplex,
        ..HetisConfig::default()
    };
    let simplex = Dispatcher::new(Profiler::profile(&cluster, 8, 0.0, 3), simplex_cfg);
    // HetisConfig::default() selects the water-fill fast path.
    let waterfill = Dispatcher::new(
        Profiler::profile(&cluster, 8, 0.0, 3),
        HetisConfig::default(),
    );

    // Dispatcher-level old-vs-new on the identical stage and batch.
    c.bench_function("dispatch_eq7_batch4", |b| {
        b.iter(|| {
            simplex
                .dispatch(&cluster, &model, &kv, &stage, 0, &[512, 1024, 2048, 300])
                .unwrap()
        })
    });
    c.bench_function("dispatch_waterfill_6dev_4req", |b| {
        b.iter(|| {
            waterfill
                .dispatch(&cluster, &model, &kv, &stage, 0, &[512, 1024, 2048, 300])
                .unwrap()
        });
        // Smoke assertion for CI quick mode: the fast path must actually
        // have run (zero fallbacks would silently re-time the simplex).
        let (fast, slow) = waterfill.solver_counts();
        assert!(
            fast > 0 && slow == 0,
            "water-fill fast path did not engage: fast={fast} slow={slow}"
        );
    });

    // The balance-check memo answers a repeated query without solving:
    // `_repeat` times that lookup, and asserts for CI quick mode that no
    // solve ran; the `_solve` rows alternate two KV states, so that every
    // call solves.
    let mut kv_b = kv.clone();
    kv_b.device_mut(stage.primary.devices[0])
        .allocate(hetis_workload::RequestId(10_000), 0, 8, 2000, 80)
        .unwrap();
    let states = [&kv, &kv_b].map(|kv| {
        let (current, _) = waterfill.current_attention_time(&cluster, &model, kv, &stage, 0);
        (kv, current)
    });
    c.bench_function("ideal_attention_time_repeat", |b| {
        let (kv, current) = states[0];
        let ideal = |d: &Dispatcher| {
            d.ideal_attention_time(&cluster, &model, kv, &stage, 0, current)
                .unwrap()
        };
        ideal(&waterfill);
        let before = waterfill.solver_counts();
        b.iter(|| ideal(&waterfill));
        assert_eq!(
            waterfill.solver_counts(),
            before,
            "balance-check memo did not engage on a repeated query"
        );
    });
    for (id, d) in [
        ("ideal_attention_time_solve", &waterfill),
        ("ideal_attention_time_simplex_solve", &simplex),
    ] {
        c.bench_function(id, |b| {
            let (fast, slow) = d.solver_counts();
            let mut calls = 0u64;
            b.iter(|| {
                calls += 1;
                let (kv, current) = states[calls as usize % 2];
                d.ideal_attention_time(&cluster, &model, kv, &stage, 0, current)
                    .unwrap()
            });
            let (fast2, slow2) = d.solver_counts();
            assert_eq!(
                fast2 + slow2 - fast - slow,
                calls,
                "{id}: a call skipped its solve"
            );
        });
    }
}

fn bench_kvcache(c: &mut Criterion) {
    let cfg = BlockConfig {
        block_size: 16,
        num_blocks: 200_000,
    };
    let mut alloc = HeadwiseAllocator::new(cfg);
    let groups: Vec<GroupId> = (0..8).map(GroupId).collect();
    let mut items = Vec::new();
    for s in 0..256u64 {
        alloc.allocate_groups(SeqId(s), &groups, 600).unwrap();
        for &g in &groups {
            items.push((SeqId(s), g));
        }
    }
    c.bench_function("fetch_index_serial_2048items", |b| {
        b.iter(|| build_headwise_index_serial(&alloc, &items).total_slots())
    });
    c.bench_function("fetch_index_parallel_2048items", |b| {
        b.iter(|| build_fetch_index_parallel(&alloc, &items).total_slots())
    });
}

criterion_group!(benches, bench_lp, bench_dispatch, bench_kvcache);
criterion_main!(benches);
