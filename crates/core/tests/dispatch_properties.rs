//! Property tests on the Hetis dispatcher: every outcome respects the
//! paper's constraints (Eq. 5 integrality, Eq. 7b capacity, Eq. 7c head
//! integrity) under randomized resident load, the pooled-capacity bound
//! never cuts a placeable prefix, and the §5.3.1 balance check returns
//! the reference verdict.

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::{DeviceId, GpuType};
use hetis_core::{Dispatcher, Profiler, StageBalance};
use hetis_engine::{KvState, StageTopo};
use hetis_model::llama_70b;
use hetis_parallel::StageConfig;
use hetis_sim::SplitMix64;
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
    let devices: Vec<DeviceId> = stage.attention_devices().collect();
    for (k, &(dev_idx, groups, tokens)) in resident.iter().enumerate() {
        let dev = devices[dev_idx % devices.len()];
        let blocks = kv.blocks_for(tokens.max(16));
        let _ = kv.device_mut(dev).allocate(
            RequestId(10_000 + k as u64),
            0,
            groups.clamp(1, 8),
            blocks,
            80,
        );
    }
    let profiler = Profiler::profile(&cluster, 8, 0.0, 17);
    (cluster, model, kv, stage, Dispatcher::new(profiler))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dispatch_respects_all_constraints(
        resident in proptest::collection::vec((0usize..6, 1u32..9, 16u32..4000), 0..40),
        lens in proptest::collection::vec(16u32..4000, 1..5),
    ) {
        let (cluster, model, kv, stage, dispatcher) = setup(&resident);
        let devices: Vec<DeviceId> = stage.attention_devices().collect();
        let Some(out) = dispatcher.dispatch(&cluster, &model, &kv, &stage, 0, &lens, None) else {
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
        if let Some(ideal) =
            dispatcher.ideal_attention_time(&cluster, &model, &kv, &stage, 0, current)
        {
            // §5.3.1: f* is a relaxation — never worse than the status quo
            // (small tolerance for LP roundoff).
            prop_assert!(ideal <= current * 1.001 + 1e-9, "ideal {ideal} > current {current}");
        }
    }
}

/// `Dispatcher::pooled_prefix` is exact: `dispatch` rejects every prefix
/// longer than the bound, so the longest prefix it accepts is never
/// longer. Resident loads and prompts are sized so that the bound cuts
/// some batches and `dispatch` places the whole bounded prefix of others,
/// and so that some solves bind a capacity row and fall back to the
/// simplex.
#[test]
fn pooled_prefix_bounds_every_accepted_prefix() {
    let mut rng = SplitMix64::new(0x5eed);
    let (mut cut, mut attained, mut fallbacks) = (0, 0, 0);
    for _ in 0..40 {
        let resident: Vec<(usize, u32, u32)> = (0..rng.next_below(30))
            .map(|_| {
                (
                    rng.next_below(6) as usize,
                    1 + rng.next_below(8) as u32,
                    16 + rng.next_below(120_000) as u32,
                )
            })
            .collect();
        let lens: Vec<u32> = (0..1 + rng.next_below(8))
            .map(|_| 16 + rng.next_below(300_000) as u32)
            .collect();
        let (cluster, model, kv, stage, d) = setup(&resident);
        let bound = Dispatcher::pooled_prefix(&model, &kv, &stage, &lens);
        let mut longest = 0;
        for k in 1..=lens.len() {
            let placed = d
                .dispatch(&cluster, &model, &kv, &stage, 0, &lens[..k], None)
                .is_some();
            assert!(
                !(placed && k > bound),
                "prefix {k} placed beyond bound {bound}"
            );
            if placed {
                longest = k;
            }
        }
        assert!(longest <= bound, "{longest} > {bound}");
        if bound < lens.len() {
            // The bound is the longest prefix whose need fits the pool,
            // not a shorter one.
            let pooled: f64 = stage
                .attention_devices()
                .map(|dev| kv.device(dev).free_bytes() as f64 / 80.0)
                .sum();
            let per_token = model.num_heads as f64 * Dispatcher::head_token_bytes(&model);
            let need: f64 = lens[..=bound].iter().map(|&l| per_token * l as f64).sum();
            assert!(need > pooled, "prefix {} fits", bound + 1);
        }
        cut += usize::from(bound < lens.len());
        attained += usize::from(bound > 0 && longest == bound);
        fallbacks += d.solver_counts().1;
    }
    assert!(cut > 0, "the bound never cut a batch");
    assert!(attained > 0, "no bounded prefix was placed");
    assert!(fallbacks > 0, "no dispatch reached the simplex fallback");
}

/// One KV state of [`stage_balance_matches_reference`]: its residency as
/// `(stage, device, groups, tokens)` entries, the device whose pool a
/// weight reservation cuts to exactly its resident bytes (if any), the
/// attention workers of each of the two stages, and Θ.
#[derive(Clone)]
struct MemoCase {
    resident: Vec<(u16, DeviceId, u32, u32)>,
    cut_pool: Option<DeviceId>,
    workers: [Vec<DeviceId>; 2],
    theta: f64,
}

/// `Dispatcher::stage_balance` returns the reference verdict. One
/// long-lived dispatcher is driven through random KV states on two
/// stages: fresh states, states that pile their load onto one device,
/// revisits of earlier ones, and copies of the last one that change only
/// a stage's worker list, only one device's pool or only Θ. Every verdict must equal the reference
/// a fresh dispatcher computes, and checking again must solve nothing.
/// Memo hits, certificates, full solves, simplex fallbacks and both
/// verdict kinds must all occur.
#[test]
fn stage_balance_matches_reference() {
    let (cluster, model, _, stage0, memo) = setup(&[]);
    let a100 = cluster.devices_of_type(GpuType::A100);
    let r3090 = cluster.devices_of_type(GpuType::Rtx3090);
    let p100 = cluster.devices_of_type(GpuType::P100);
    let stage1 = StageTopo::plain(StageConfig {
        devices: r3090[..2].to_vec(),
        layers: 80,
    });
    // Residency sits on the stages' primaries and on the first two P100s
    // only, and every worker list keeps those two for stage 0, so a
    // worker-list change never moves a stage total.
    let holders: [Vec<DeviceId>; 2] = [
        a100.iter().chain(&p100[..2]).copied().collect(),
        r3090[..2].to_vec(),
    ];
    let worker_lists: [Vec<Vec<DeviceId>>; 2] = [
        vec![
            p100[..2].to_vec(),
            vec![p100[1], p100[0]],
            p100[..3].to_vec(),
            vec![p100[0], p100[1], r3090[3]],
        ],
        vec![
            r3090[2..].to_vec(),
            vec![r3090[2]],
            vec![r3090[2], r3090[3], p100[2]],
        ],
    ];
    let build = |case: &MemoCase| {
        let fill = |weights: &HashMap<DeviceId, u64>| {
            let mut kv = KvState::new(&cluster, &model, 16, weights).unwrap();
            for (k, &(s, dev, groups, tokens)) in case.resident.iter().enumerate() {
                let blocks = kv.blocks_for(tokens);
                kv.device_mut(dev)
                    .allocate(RequestId(k as u64), s, groups, blocks, 80)
                    .expect("residency fits the pool");
            }
            kv
        };
        let mut kv = fill(&HashMap::new());
        if let Some(dev) = case.cut_pool {
            kv = fill(&HashMap::from([(dev, kv.device(dev).free_bytes())]));
        }
        let mut stages = [stage0.clone(), stage1.clone()];
        for (stage, workers) in stages.iter_mut().zip(&case.workers) {
            stage.attention_workers = workers.clone();
        }
        (kv, stages)
    };

    let mut rng = SplitMix64::new(0x3e30);
    let mut cases: Vec<MemoCase> = Vec::new();
    let (mut hits, mut balanced, mut imbalanced) = (0, 0, 0);
    for _ in 0..120 {
        let case = match (cases.last(), rng.next_below(6)) {
            (Some(_), 0) => cases[rng.next_below(cases.len() as u64) as usize].clone(),
            (Some(last), 1) => {
                let mut case = last.clone();
                let s = rng.next_below(2) as usize;
                let lists = &worker_lists[s];
                case.workers[s] = lists[rng.next_below(lists.len() as u64) as usize].clone();
                case
            }
            (Some(last), 2) => {
                let mut case = last.clone();
                let devices: Vec<DeviceId> = stage0
                    .primary
                    .devices
                    .iter()
                    .chain(&stage1.primary.devices)
                    .chain(&p100)
                    .chain(&r3090)
                    .copied()
                    .collect();
                case.cut_pool = Some(devices[rng.next_below(devices.len() as u64) as usize]);
                case
            }
            (Some(last), 3) => MemoCase {
                theta: [0.3, 0.5][rng.next_below(2) as usize],
                ..last.clone()
            },
            (_, pick) => {
                // Odd picks pile each stage's load onto one device,
                // so that imbalanced verdicts occur.
                let piled = [0, 1].map(|s| {
                    let on = &holders[s];
                    (pick % 2 == 1).then(|| on[rng.next_below(on.len() as u64) as usize])
                });
                MemoCase {
                    resident: (0..rng.next_below(12))
                        .map(|_| {
                            let s = rng.next_below(2) as u16;
                            let on = &holders[s as usize];
                            let dev = piled[s as usize]
                                .unwrap_or_else(|| on[rng.next_below(on.len() as u64) as usize]);
                            (
                                s,
                                dev,
                                1 + rng.next_below(8) as u32,
                                16 + rng.next_below(2000) as u32,
                            )
                        })
                        .collect(),
                    cut_pool: None,
                    workers: [worker_lists[0][0].clone(), worker_lists[1][0].clone()],
                    theta: 0.5,
                }
            }
        };
        let (kv, stages) = build(&case);
        cases.push(case.clone());
        // Both stages in a random order, so a stage's slot must
        // survive checks of the other.
        let first = rng.next_below(2) as usize;
        for s in [first, 1 - first] {
            let stage = &stages[s];
            let check = |d: &Dispatcher| {
                d.stage_balance(&cluster, &model, &kv, stage, s as u16, case.theta)
            };
            let before = memo.balance_counts();
            let got = check(&memo);
            hits += memo.balance_counts().memo_hits - before.memo_hits;
            let fresh = Dispatcher::new(memo.profiler().clone());
            let reference =
                fresh.stage_balance_reference(&cluster, &model, &kv, stage, s as u16, case.theta);
            assert_eq!(
                got, reference,
                "stage {s}: checked {got:?}, the reference {reference:?}"
            );
            match got {
                StageBalance::Balanced => balanced += 1,
                StageBalance::Imbalanced { .. } => imbalanced += 1,
                StageBalance::Unsolvable => panic!("resident load is always solvable"),
            }
            let counts = memo.solver_counts();
            let before = memo.balance_counts();
            assert_eq!(check(&memo), got);
            assert_eq!(memo.solver_counts(), counts, "a repeated check solved");
            assert_eq!(
                memo.balance_counts().memo_hits,
                before.memo_hits + 1,
                "a repeated check missed the memo"
            );
        }
    }
    let c = memo.balance_counts();
    assert!(
        hits > 0 && c.certified > 0 && c.solved > 0 && balanced > 0 && imbalanced > 0,
        "{hits} first-check hits, {c:?}, {balanced} balanced, {imbalanced} imbalanced"
    );
    assert!(
        memo.solver_counts().1 > 0,
        "no balance check reached the simplex fallback"
    );
}
