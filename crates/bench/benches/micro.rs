//! Criterion micro-benchmarks of the hot scheduling paths: the Eq. (7)
//! solvers on the same instance (the water-fill vs the generic simplex,
//! at the paper's 6-device × 4-request shape and a 12×16 stress shape),
//! the dispatcher's water-fill dispatch, the two capacity-bound dispatch
//! shapes of a saturated Hetis run (one request, settled by the
//! water-fill's closed form, and eight requests on two devices, the
//! simplex fallback), the §5.3.1 balance check (a memo hit, a certified
//! miss and the relaxed-ideal solve), head rounding and fetch-index
//! assembly.
//!
//! `BENCH_4.json` at the repository root records the old-vs-new numbers
//! for the solver pairs.

use criterion::{criterion_group, criterion_main, Criterion};
use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::{Cluster, GpuType};
use hetis_core::{Dispatcher, HetisConfig, Profiler, StageBalance};
use hetis_engine::{KvState, StageTopo};
use hetis_kvcache::index::build_headwise_index_serial;
use hetis_kvcache::{build_fetch_index_parallel, BlockConfig, GroupId, HeadwiseAllocator, SeqId};
use hetis_lp::{
    round_to_groups, AffineExpr, ConstraintOp, MinMaxBuilder, WaterFill, WfDemand, WfDevice,
    WfOutcome,
};
use hetis_model::{llama_70b, ModelSpec};
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
    let blocks = kv.blocks_for(2000);
    for (k, &dev) in stage.primary.devices.iter().enumerate() {
        for q in 0..25u64 {
            kv.device_mut(dev)
                .allocate(
                    hetis_workload::RequestId(k as u64 * 100 + q),
                    0,
                    8,
                    blocks,
                    80,
                )
                .unwrap();
        }
    }
    let waterfill = Dispatcher::new(Profiler::profile(&cluster, 8, 0.0, 3));

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

    bench_capacity_bound_dispatch(c, &cluster, &model, &waterfill);

    // The §5.3.1 balance check, with CI quick-mode asserts that no solve
    // ran: `stage_balance_repeat` checks an unchanged balanced stage (a
    // memo hit), `stage_balance_certified` alternates two balanced states
    // (every call misses the memo and the level certificate settles it).
    // `ideal_attention_time_solve` times the relaxed-ideal solve itself,
    // alternating the same two states, so that every call solves.
    let mut kv_b = kv.clone();
    kv_b.device_mut(stage.primary.devices[0])
        .allocate(hetis_workload::RequestId(10_000), 0, 8, blocks, 80)
        .unwrap();
    let theta = HetisConfig::default().theta;
    let balanced = |kv: &KvState| {
        let verdict = waterfill.stage_balance(&cluster, &model, kv, &stage, 0, theta);
        assert_eq!(verdict, StageBalance::Balanced);
    };
    c.bench_function("stage_balance_repeat", |b| {
        balanced(&kv);
        let before = waterfill.solver_counts();
        b.iter(|| balanced(&kv));
        assert_eq!(
            waterfill.solver_counts(),
            before,
            "the balance-check memo did not answer a repeated check"
        );
    });
    c.bench_function("stage_balance_certified", |b| {
        let states = [&kv, &kv_b];
        let before = (waterfill.solver_counts(), waterfill.balance_counts());
        let mut calls = 0u64;
        b.iter(|| {
            calls += 1;
            balanced(states[calls as usize % 2]);
        });
        let counts = waterfill.balance_counts();
        assert_eq!(
            waterfill.solver_counts(),
            before.0,
            "a balanced state was solved instead of certified"
        );
        assert_eq!(counts.certified - before.1.certified, calls);
    });
    let states = [&kv, &kv_b].map(|kv| {
        let (current, _) = waterfill.current_attention_time(&cluster, &model, kv, &stage, 0);
        (kv, current)
    });
    c.bench_function("ideal_attention_time_solve", |b| {
        let (fast, slow) = waterfill.solver_counts();
        let mut calls = 0u64;
        b.iter(|| {
            calls += 1;
            let (kv, current) = states[calls as usize % 2];
            waterfill
                .ideal_attention_time(&cluster, &model, kv, &stage, 0, current)
                .unwrap()
        });
        let (fast2, slow2) = waterfill.solver_counts();
        assert_eq!(
            fast2 + slow2 - fast - slow,
            calls,
            "ideal_attention_time_solve: a call skipped its solve"
        );
    });
}

/// Eq. (7) for one request of `len` tokens on stage 0 `stage`, posed
/// from the profiler's models and solved by the simplex, in seconds: the
/// oracle the water-fill's one-request closed form must match. It
/// restates the dispatcher's cost and capacity rows (milliseconds and
/// per-layer gigabytes, as the dispatcher poses them).
fn eq7_simplex_one_request(
    d: &Dispatcher,
    cluster: &Cluster,
    model: &ModelSpec,
    kv: &KvState,
    stage: &StageTopo,
    len: u32,
) -> f64 {
    let r = model.gqa_ratio();
    let kappa = Dispatcher::head_token_bytes(model);
    let per_head_bytes =
        (2.0 + 2.0 / r as f64) * model.head_dim as f64 * model.dtype.bytes() as f64;
    let layers = stage.primary.layers as f64;
    let n = stage.attention_devices().count();
    let mut b = MinMaxBuilder::new(n);
    for (i, dev) in stage.attention_devices().enumerate() {
        let m = d.profiler().attn_model(dev);
        let (gamma, beta) = if stage.primary.devices.contains(&dev) {
            (0.0, 0.0)
        } else {
            let lm = d
                .profiler()
                .link_model(cluster, stage.primary.devices[0], dev);
            (lm.gamma, lm.beta)
        };
        let a_eff = m.a + gamma * per_head_bytes;
        let on = kv.device(dev);
        let (h, g) = (
            on.stage_query_heads(0, r) as f64,
            on.stage_kv_bytes_per_layer(0),
        );
        b.push_max_term((a_eff * h + m.b * g + m.c + beta) * 1e3)[i] =
            (a_eff + m.b * kappa * len as f64) * 1e3;
        b.push_constraint(ConstraintOp::Le, on.free_bytes() as f64 / layers * 1e-9)[i] =
            len as f64 * kappa * 1e-9;
    }
    b.push_constraint(ConstraintOp::Eq, model.num_heads as f64)
        .fill(1.0);
    b.solve().expect("the one-request LP is feasible").max_value / 1e3
}

/// The two capacity-bound dispatch shapes of a saturated Hetis run, on a
/// two-device stage (one A100 primary, one P100 attention worker) whose
/// A100 pool is cut to a few hundred megabytes, so that its capacity row
/// binds. `dispatch_1req_capacity_bound` asserts that the water-fill's
/// closed form settles the one-request replan shape (no fallback), that
/// capacity does bind (the uncut stage predicts less) and that the
/// prediction equals the simplex optimum within 1e-9.
/// `dispatch_8req_2dev_fallback` asserts that every eight-request batch
/// still falls back to the simplex, the one shape left to it.
fn bench_capacity_bound_dispatch(
    c: &mut Criterion,
    cluster: &Cluster,
    model: &ModelSpec,
    d: &Dispatcher,
) {
    let a100 = cluster.devices_of_type(GpuType::A100)[0];
    let mut stage = StageTopo::plain(StageConfig {
        devices: vec![a100],
        layers: 80,
    });
    stage.attention_workers = vec![cluster.devices_of_type(GpuType::P100)[0]];
    let loose = KvState::new(cluster, model, 16, &HashMap::new()).unwrap();
    let cut = loose.device(a100).free_bytes() - 300_000_000;
    let mut kv = KvState::new(cluster, model, 16, &HashMap::from([(a100, cut)])).unwrap();
    // Resident load on both devices, so that the constants differ.
    for (k, dev) in stage.attention_devices().enumerate() {
        kv.device_mut(dev)
            .allocate(hetis_workload::RequestId(20_000 + k as u64), 0, 4, 8, 80)
            .unwrap();
    }
    let len = 2000;
    let predicted = |kv: &KvState| {
        d.dispatch(cluster, model, kv, &stage, 0, &[len])
            .expect("the request fits the stage")
            .predicted_max
    };
    let bound = predicted(&kv);
    assert!(
        bound > predicted(&loose) * (1.0 + 1e-6),
        "dispatch_1req_capacity_bound: the A100 capacity row does not bind"
    );
    let reference = eq7_simplex_one_request(d, cluster, model, &kv, &stage, len);
    assert!(
        (bound - reference).abs() <= 1e-9 * reference,
        "dispatch_1req_capacity_bound: closed form {bound} vs the simplex {reference}"
    );
    c.bench_function("dispatch_1req_capacity_bound", |b| {
        let (fast, slow) = d.solver_counts();
        let mut calls = 0u64;
        b.iter(|| {
            calls += 1;
            predicted(&kv)
        });
        assert_eq!(
            d.solver_counts(),
            (fast + calls, slow),
            "dispatch_1req_capacity_bound: a one-request solve fell back"
        );
    });

    let lens = [300, 700, 1200, 1800, 2500, 3100, 900, 1500];
    c.bench_function("dispatch_8req_2dev_fallback", |b| {
        let (fast, slow) = d.solver_counts();
        let mut calls = 0u64;
        b.iter(|| {
            calls += 1;
            d.dispatch(cluster, model, &kv, &stage, 0, &lens)
                .expect("the batch fits the stage")
        });
        assert_eq!(
            d.solver_counts(),
            (fast, slow + calls),
            "dispatch_8req_2dev_fallback: the batch did not reach the simplex"
        );
    });
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
