//! Prefix/KV reuse invariants on multi-turn session traffic.
//!
//! Four properties pin the reuse path:
//!
//! 1. **Gating** — with `prefix_reuse` off (the default) the engine
//!    never probes the cache and all reuse counters stay zero; the
//!    cross-version digest identity of the off path is enforced by the
//!    CI pins, these tests enforce the counters.
//! 2. **Conservation** — reuse changes *which tokens prefill*, never
//!    which requests complete: same completion set, zero lost tokens,
//!    and warm + cold tokens telescope to each prompt's length.
//! 3. **Benefit** — on a session trace, reuse strictly reduces total
//!    prefill tokens and strictly improves non-first-turn TTFT.
//! 4. **Determinism** — same-seed reuse-on runs produce the same digest.

use std::collections::HashMap;

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::DeviceId;
use hetis_engine::policy::StaticPolicy;
use hetis_engine::{run, EngineConfig, InstanceRole, InstanceTopo, RunReport, StageTopo, Topology};
use hetis_model::llama_13b;
use hetis_parallel::StageConfig;
use hetis_workload::{multi_turn_trace, DatasetKind, SessionWorkload, SloClass, Trace};

/// Two device-disjoint TP-2 instances over the four A100s.
fn dp2_topo() -> Topology {
    let stage = |a: u32, b: u32| {
        StageTopo::plain(StageConfig {
            devices: vec![DeviceId(a), DeviceId(b)],
            layers: 40,
        })
    };
    Topology {
        instances: vec![
            InstanceTopo {
                stages: vec![stage(0, 1)],
                role: InstanceRole::Both,
            },
            InstanceTopo {
                stages: vec![stage(2, 3)],
                role: InstanceRole::Both,
            },
        ],
    }
}

fn session_trace(seed: u64) -> Trace {
    multi_turn_trace(
        &SessionWorkload {
            sessions: 24,
            turns: 4,
            session_rate: 1.2,
            mean_think: 6.0,
            dataset: DatasetKind::ShareGpt,
            class: SloClass::Interactive,
        },
        seed,
    )
}

fn run_sessions(reuse: bool, seed: u64) -> RunReport {
    let cluster = paper_cluster();
    let model = llama_13b();
    let trace = session_trace(seed);
    let cfg = EngineConfig {
        prefix_reuse: reuse,
        prefill_chunk_tokens: Some(512),
        drain_timeout: 600.0,
        ..EngineConfig::default()
    };
    run(
        StaticPolicy::new("dp2-a100", dp2_topo()),
        &cluster,
        &model,
        cfg,
        &trace,
    )
}

/// With reuse off the probe path is never entered: zero probes, zero
/// hits, zero warm tokens, zero shared bytes.
#[test]
fn reuse_off_never_probes() {
    let r = run_sessions(false, 7);
    assert!(r.completed.len() > 50, "trace must mostly complete");
    assert_eq!(
        (
            r.prefix_probes,
            r.prefix_hits,
            r.prefix_hit_tokens,
            r.shared_kv_bytes
        ),
        (0, 0, 0, 0)
    );
    assert_eq!(r.prefix_hit_rate(), 0.0);
}

/// With reuse on, follow-up turns hit the cache; the engine skips their
/// warm prefixes, so total prefill work strictly drops while the same
/// requests complete with no lost tokens.
#[test]
fn reuse_on_skips_warm_prefixes_conserving_completions() {
    let off = run_sessions(false, 7);
    let on = run_sessions(true, 7);
    assert!(on.prefix_probes > 0, "follow-up turns must probe");
    assert!(on.prefix_hits > 0, "think gaps leave time for hits");
    assert!(on.prefix_hits <= on.prefix_probes);
    assert!(on.prefix_hit_tokens > 0);
    assert!(on.shared_kv_bytes > 0);
    assert!(on.prefix_hit_rate() > 0.0 && on.prefix_hit_rate() <= 1.0);
    // Warm tokens are exactly the prefill work the engine no longer does.
    assert_eq!(off.preemptions, 0, "baseline run must be preemption-free");
    assert_eq!(on.preemptions, 0, "reuse run must be preemption-free");
    assert_eq!(
        on.prefill_tokens + on.prefix_hit_tokens,
        off.prefill_tokens,
        "warm + cold tokens must telescope to the baseline prefill total"
    );
    assert_eq!(on.lost_tokens, 0);
    // Same completion set.
    let ids = |r: &RunReport| {
        let mut v: Vec<u64> = r.completed.iter().map(|c| c.id.0).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ids(&on), ids(&off));
}

/// Reuse strictly improves the mean TTFT of non-first turns (the turns
/// whose prompts replay already-served context) and never regresses
/// first turns' completions.
#[test]
fn reuse_improves_follow_up_turn_ttft() {
    let off = run_sessions(false, 11);
    let on = run_sessions(true, 11);
    assert!(on.prefix_hits > 0);
    // Map request ids to turns via the (deterministic) trace.
    let trace = session_trace(11);
    let turn_of: HashMap<u64, u32> = trace
        .requests()
        .iter()
        .map(|r| (r.id.0, r.session.expect("session trace").turn))
        .collect();
    let mean_followup_ttft = |r: &RunReport| {
        let (mut sum, mut n) = (0.0, 0u32);
        for c in &r.completed {
            if turn_of[&c.id.0] > 0 {
                sum += c.first_token - c.arrival;
                n += 1;
            }
        }
        assert!(n > 0);
        sum / n as f64
    };
    assert!(
        mean_followup_ttft(&on) < mean_followup_ttft(&off),
        "reuse must strictly improve follow-up-turn TTFT"
    );
    assert!(on.peak_kv_reserved_bytes <= off.peak_kv_reserved_bytes);
}

/// Reuse-on runs are deterministic: every registration and eviction
/// replays in simulated-time order.
#[test]
fn reuse_on_is_deterministic() {
    let first = run_sessions(true, 7);
    assert!(first.prefix_hits > 0, "the run must exercise the cache");
    assert_eq!(
        first.digest(),
        run_sessions(true, 7).digest(),
        "determinism"
    );
}

/// Single-turn traffic never probes even with reuse on: turn 0 has no
/// predecessor, so the feature is inert on non-session workloads.
#[test]
fn first_turns_never_probe() {
    let cluster = paper_cluster();
    let model = llama_13b();
    let trace = multi_turn_trace(
        &SessionWorkload {
            sessions: 16,
            turns: 1,
            session_rate: 2.0,
            mean_think: 1.0,
            dataset: DatasetKind::ShareGpt,
            class: SloClass::Interactive,
        },
        3,
    );
    let cfg = EngineConfig {
        prefix_reuse: true,
        drain_timeout: 600.0,
        ..EngineConfig::default()
    };
    let r = run(
        StaticPolicy::new("dp2-a100", dp2_topo()),
        &cluster,
        &model,
        cfg,
        &trace,
    );
    assert!(r.completed.len() > 10);
    assert_eq!((r.prefix_probes, r.prefix_hits), (0, 0));
}
