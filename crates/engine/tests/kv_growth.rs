//! Incremental KV growth + fused microbatch invariants.
//!
//! Property suite for the `grow_tokens` path (ISSUE 5):
//!
//! 1. **Token conservation across chunks** — growing reservations
//!    chunk-by-chunk never changes what gets prefilled or which requests
//!    complete, for any chunk size.
//! 2. **Reservation bound** — while a request runs, its reserved KV
//!    tokens never exceed `effective prompt + generated + headroom`
//!    (block rounding aside, enforced below at token granularity via the
//!    engine's entry bookkeeping).
//! 3. **Growth-failure eviction balances the allocator** — runs forced
//!    into growth failures still terminate with every pool back at zero
//!    bytes once all requests finish (nothing leaks, nothing truncates).
//!
//! Plus the fused-microbatch cadence experiment: during a long chunked
//! prefill, resident decode requests must receive tokens *faster* under
//! fusion than under the alternating loop.

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::{DeviceId, GpuType};
use hetis_engine::policy::StaticPolicy;
use hetis_engine::{
    run, AdmissionPolicy, Engine, EngineConfig, HeadPlacement, InstanceRole, InstanceTopo, Phase,
    Policy, PolicyCtx, RunReport, StageTopo, Topology, VictimAction,
};
use hetis_model::llama_13b;
use hetis_parallel::StageConfig;
use hetis_workload::{
    DatasetKind, Poisson, Request, RequestId, SloClass, TenantId, Trace, TraceBuilder,
};
use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;

fn a100_topo() -> Topology {
    let c = paper_cluster();
    Topology {
        instances: vec![InstanceTopo {
            stages: vec![StageTopo::plain(StageConfig {
                devices: c.devices_of_type(GpuType::A100),
                layers: 40,
            })],
            role: InstanceRole::Both,
        }],
    }
}

fn run_with(cfg: EngineConfig, seed: u64, rate: f64) -> RunReport {
    let cluster = paper_cluster();
    let model = llama_13b();
    let trace = TraceBuilder::new(DatasetKind::ShareGpt, seed).build(&Poisson::new(rate), 20.0);
    run(
        StaticPolicy::new("vllm", a100_topo()),
        &cluster,
        &model,
        cfg,
        &trace,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Incremental growth conserves prefill tokens and the completion set
    /// against the atomic engine, and actually grows (at least one chunk
    /// per multi-chunk prompt extends a live reservation).
    #[test]
    fn incremental_growth_conserves_tokens(
        seed in 0u64..1000,
        chunk in 64u64..1024,
        rate in 1.0f64..4.0,
    ) {
        let atomic = run_with(EngineConfig::default(), seed, rate);
        let grown = run_with(
            EngineConfig {
                prefill_chunk_tokens: Some(chunk),
                ..EngineConfig::default()
            },
            seed,
            rate,
        );
        prop_assert_eq!(atomic.preemptions, 0);
        prop_assert_eq!(grown.preemptions, 0);
        prop_assert_eq!(grown.kv_grow_failures, 0);
        prop_assert_eq!(atomic.prefill_tokens, grown.prefill_tokens,
            "growth changed total prefill tokens");
        let mut a: Vec<u64> = atomic.completed.iter().map(|c| c.id.0).collect();
        let mut b: Vec<u64> = grown.completed.iter().map(|c| c.id.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        // Multi-chunk prompts exist at these sizes, so growth must fire.
        // (No per-run peak comparison here: chunking reshapes admission
        // overlap, so light-load peaks can legitimately differ either
        // way — the dedicated long-prompt test below pins the memory
        // claim where it bites.)
        prop_assert!(grown.kv_growths > 0, "no reservation ever grew");
    }

    /// Fused microbatches conserve outcomes too: same completions, same
    /// total prefill tokens, within the iteration budget.
    #[test]
    fn fused_mode_conserves_tokens(
        seed in 0u64..1000,
        chunk in 64u64..1024,
        rate in 1.0f64..4.0,
    ) {
        let alternating = run_with(
            EngineConfig {
                prefill_chunk_tokens: Some(chunk),
                ..EngineConfig::default()
            },
            seed,
            rate,
        );
        let fused = run_with(
            EngineConfig {
                prefill_chunk_tokens: Some(chunk),
                fused_microbatches: true,
                ..EngineConfig::default()
            },
            seed,
            rate,
        );
        prop_assert_eq!(alternating.prefill_tokens, fused.prefill_tokens);
        let budget = EngineConfig::default().max_batch_tokens;
        prop_assert!(fused.max_prefill_iter_tokens <= budget);
        let mut a: Vec<u64> = alternating.completed.iter().map(|c| c.id.0).collect();
        let mut b: Vec<u64> = fused.completed.iter().map(|c| c.id.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}

/// Builds the controlled long-prefill experiment: `residents` short
/// requests admitted first (they decode long outputs), then one long
/// prompt whose chunked prefill overlaps their decode.
fn overlap_trace(residents: u64, long_input: u32) -> Trace {
    let mut requests: Vec<Request> = (0..residents)
        .map(|i| Request {
            id: RequestId(i),
            arrival: 0.0,
            input_len: 64,
            output_len: 400,
            class: SloClass::Interactive,
            tenant: TenantId(0),
            session: None,
        })
        .collect();
    requests.push(Request {
        id: RequestId(residents),
        arrival: 0.5,
        input_len: long_input,
        output_len: 8,
        class: SloClass::Batch,
        tenant: TenantId(1),
        session: None,
    });
    Trace::from_requests(requests, DatasetKind::ShareGpt)
}

fn overlap_run(fused: bool) -> RunReport {
    let cluster = paper_cluster();
    let model = llama_13b();
    let cfg = EngineConfig {
        prefill_chunk_tokens: Some(256),
        fused_microbatches: fused,
        ..EngineConfig::default()
    };
    run(
        StaticPolicy::new("vllm", a100_topo()),
        &cluster,
        &model,
        cfg,
        &overlap_trace(16, 4000),
    )
}

/// The fusion claim, isolated: while a 4000-token prompt prefills in
/// 256-token chunks, resident decodes must emit tokens at a strictly
/// faster cadence under fusion than under chunk/decode alternation (one
/// fused iteration beats a chunk iteration *plus* a decode iteration).
#[test]
fn fusion_cuts_decode_stall_during_long_prefill() {
    let alternating = overlap_run(false);
    let fused = overlap_run(true);
    assert!(fused.fused_iterations > 0, "no iteration actually fused");
    assert_eq!(alternating.completed.len(), fused.completed.len());
    // Mean TPOT over the resident interactive requests.
    let mean_tpot = |r: &RunReport| {
        let v: Vec<f64> = r
            .completed
            .iter()
            .filter(|c| c.class == SloClass::Interactive)
            .map(|c| c.tpot())
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let t_alt = mean_tpot(&alternating);
    let t_fused = mean_tpot(&fused);
    assert!(
        t_fused < t_alt,
        "fusion must cut resident decode TPOT: fused {t_fused} vs alternating {t_alt}"
    );
}

/// Forty-eight 6,000-token prompts chunked at 256 onto one A100: far
/// more concurrent long prompts than its KV pool can hold at once.
fn long_prompt_storm() -> (Topology, Trace, EngineConfig) {
    let topo = Topology {
        instances: vec![InstanceTopo {
            stages: vec![StageTopo::plain(StageConfig {
                devices: vec![DeviceId(0)],
                layers: 40,
            })],
            role: InstanceRole::Both,
        }],
    };
    let requests: Vec<Request> = (0..48)
        .map(|i| Request {
            id: RequestId(i),
            arrival: 0.05 * i as f64,
            input_len: 6000,
            output_len: 64,
            class: SloClass::Batch,
            tenant: TenantId(0),
            session: None,
        })
        .collect();
    let trace = Trace::from_requests(requests, DatasetKind::LongBench);
    let cfg = EngineConfig {
        prefill_chunk_tokens: Some(256),
        max_batch_tokens: 2048,
        drain_timeout: 3000.0,
        ..EngineConfig::default()
    };
    (topo, trace, cfg)
}

/// Reservation bound + terminal balance under forced growth failures: a
/// pool small enough that long prompts cannot reserve whole exercises
/// the victim loop and the growth-failure eviction path; every pool must
/// end the run at exactly zero bytes and every completion must carry its
/// full output (no truncation).
#[test]
fn growth_failure_eviction_balances_allocator() {
    let cluster = paper_cluster();
    let model = llama_13b();
    let (topo, trace, cfg) = long_prompt_storm();
    let policy = StaticPolicy::new("vllm", topo.clone());
    let mut engine = Engine::new(policy, &cluster, &model, cfg, topo, &trace);
    engine.run_to_completion();
    // Terminal zero: every request done ⇒ every pool balanced at zero.
    let kv = engine.kv_state();
    for d in 0..kv.len() {
        assert_eq!(
            kv.device(DeviceId(d as u32)).used_bytes(),
            0,
            "device {d} leaked KV after the run"
        );
    }
    let report = engine.into_report();
    assert_eq!(report.unfinished, 0, "run must drain fully");
    assert_eq!(report.completed.len(), 48);
    // No truncation: every completion produced its full output.
    for c in &report.completed {
        assert_eq!(c.output_len, 64);
    }
}

/// A policy that answers a growing prefill's memory pressure by naming
/// the grower itself as the victim, and a decode append's by the usual
/// LIFO pick; it counts the evictions it orders.
struct SelfVictim {
    inner: StaticPolicy,
    evictions: Rc<Cell<u64>>,
    self_victims: Rc<Cell<u64>>,
}

impl Policy for SelfVictim {
    fn name(&self) -> String {
        "self-victim".into()
    }
    fn topology(
        &mut self,
        c: &hetis_cluster::Cluster,
        m: &hetis_model::ModelSpec,
        cfg: &EngineConfig,
    ) -> Topology {
        self.inner.topology(c, m, cfg)
    }
    fn route(&mut self, req: &Request, ctx: &PolicyCtx<'_>) -> usize {
        self.inner.route(req, ctx)
    }
    fn place_batch(
        &mut self,
        instance: usize,
        reqs: &[(RequestId, u32)],
        ctx: &PolicyCtx<'_>,
    ) -> Vec<Option<HeadPlacement>> {
        self.inner.place_batch(instance, reqs, ctx)
    }
    fn select_victim(
        &mut self,
        instance: usize,
        device: DeviceId,
        blocked: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> VictimAction {
        let action = if ctx.requests[&blocked].phase == Phase::Prefilling {
            self.self_victims.set(self.self_victims.get() + 1);
            VictimAction::Evict(blocked)
        } else {
            self.inner.select_victim(instance, device, blocked, ctx)
        };
        if matches!(action, VictimAction::Evict(_)) {
            self.evictions.set(self.evictions.get() + 1);
        }
        action
    }
}

/// A grower that a victim decision evicts is gone: its failed growth is
/// counted once and it is not evicted a second time, so every eviction
/// the policy orders is exactly one preemption.
#[test]
fn grower_chosen_as_its_own_victim_is_evicted_once() {
    let (topo, trace, cfg) = long_prompt_storm();
    let (evictions, self_victims) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let policy = SelfVictim {
        inner: StaticPolicy::new("vllm", topo),
        evictions: evictions.clone(),
        self_victims: self_victims.clone(),
    };
    let report = run(policy, &paper_cluster(), &llama_13b(), cfg, &trace);
    assert_eq!(report.unfinished, 0, "run must drain fully");
    assert!(self_victims.get() > 0, "no grower was its own victim");
    assert_eq!(report.kv_grow_failures, self_victims.get());
    assert_eq!(report.preemptions, evictions.get());
}

/// The reservation bound, measured where it bites: a long-prompt-only
/// trace must show a *much* lower KV peak under incremental growth than
/// under atomic admission (admission holds one chunk + headroom, not the
/// whole prompt).
#[test]
fn long_prompt_peak_kv_drops_under_incremental_growth() {
    let cluster = paper_cluster();
    let model = llama_13b();
    let requests: Vec<Request> = (0..24)
        .map(|i| Request {
            id: RequestId(i),
            arrival: 0.05 * i as f64,
            input_len: 12000,
            output_len: 4,
            class: SloClass::Batch,
            tenant: TenantId(0),
            session: None,
        })
        .collect();
    let trace = Trace::from_requests(requests, DatasetKind::LongBench);
    let mk = |chunk: Option<u64>| {
        let cfg = EngineConfig {
            prefill_chunk_tokens: chunk,
            max_batch_tokens: 8192,
            drain_timeout: 1200.0,
            ..EngineConfig::default()
        };
        run(
            StaticPolicy::new("vllm", a100_topo()),
            &cluster,
            &model,
            cfg,
            &trace,
        )
    };
    let atomic = mk(None);
    let grown = mk(Some(512));
    assert_eq!(atomic.completed.len(), grown.completed.len());
    assert_eq!(grown.lost_tokens, 0);
    // Printed so bench records (BENCH_5.json) can quote the measured
    // peaks directly from this pinned experiment.
    eprintln!(
        "long_prompt peak_kv: atomic={} grown={} ratio={:.3}",
        atomic.peak_kv_reserved_bytes,
        grown.peak_kv_reserved_bytes,
        grown.peak_kv_reserved_bytes as f64 / atomic.peak_kv_reserved_bytes as f64
    );
    assert!(
        (grown.peak_kv_reserved_bytes as f64) < 0.75 * atomic.peak_kv_reserved_bytes as f64,
        "long-prompt peak must drop substantially: grown {} vs atomic {}",
        grown.peak_kv_reserved_bytes,
        atomic.peak_kv_reserved_bytes
    );
    // Regression pin for the peak itself (≈155.5 GB). `note_kv_peak` now
    // also samples at the top of the release paths (eviction, churn
    // eviction, completion) while the departing KV is still resident, so
    // a free-then-grow interleaving inside one decode batch can no
    // longer hide the true maximum. Any scheduler or allocator change
    // that moves this number must update the pin deliberately.
    assert_eq!(grown.peak_kv_reserved_bytes, 155_516_928_000);
}

/// A prompt whose full KV can never fit its placement must stay queued
/// (exactly like an atomic admission whose allocation fails) instead of
/// thrashing through admit → grow-fail → evict → re-admit cycles that
/// burn prefill compute forever.
#[test]
fn never_fitting_prompt_stays_queued_without_thrash() {
    let cluster = paper_cluster();
    let model = llama_13b();
    let requests = vec![Request {
        id: RequestId(0),
        arrival: 0.0,
        input_len: 10_000_000, // far beyond any pool on the cluster
        output_len: 8,
        class: SloClass::Batch,
        tenant: TenantId(0),
        session: None,
    }];
    let trace = Trace::from_requests(requests, DatasetKind::LongBench);
    let mk = |chunk: Option<u64>| {
        let cfg = EngineConfig {
            prefill_chunk_tokens: chunk,
            drain_timeout: 120.0,
            ..EngineConfig::default()
        };
        run(
            StaticPolicy::new("vllm", a100_topo()),
            &cluster,
            &model,
            cfg,
            &trace,
        )
    };
    let atomic = mk(None);
    let grown = mk(Some(512));
    assert_eq!(atomic.unfinished, 1);
    assert_eq!(grown.unfinished, 1);
    // Parity with atomic: never admitted, so no compute burned and no
    // recompute-preemption churn.
    assert_eq!(grown.prefill_iterations, 0, "thrash: prompt was admitted");
    assert_eq!(grown.preemptions, 0);
    assert_eq!(grown.kv_grow_failures, 0);
}

/// The decode headroom is a real prepaid cushion: the first appends
/// after prefill completion consume the reservation without allocating,
/// so a chunked run's used bytes right after prefill already cover the
/// early decode tokens.
#[test]
fn decode_headroom_prepays_first_appends() {
    let cluster = paper_cluster();
    let model = llama_13b();
    // One short prompt, long output: the request decodes alone.
    let requests = vec![Request {
        id: RequestId(0),
        arrival: 0.0,
        input_len: 100,
        output_len: 64,
        class: SloClass::Interactive,
        tenant: TenantId(0),
        session: None,
    }];
    let trace = Trace::from_requests(requests, DatasetKind::ShareGpt);
    let cfg = EngineConfig {
        prefill_chunk_tokens: Some(256),
        ..EngineConfig::default()
    };
    let report = run(
        StaticPolicy::new("vllm", a100_topo()),
        &cluster,
        &model,
        cfg,
        &trace,
    );
    assert_eq!(report.completed.len(), 1);
    // Reservation = 100 (prompt) + 16 (headroom) = 116 tokens; with the
    // 164-token final context (100 + 64) the peak must cover exactly the
    // content blocks, not reservation + content (the cushion is consumed
    // by the first appends, not stacked under them).
    let per_layer = 16u64 * 2 * 128 * 2; // block bytes per group per layer
    let blocks_final = (164u32.div_ceil(16)) as u64; // 11 blocks
    let kv_heads = model.num_heads / model.gqa_ratio();
    let expect = blocks_final * kv_heads as u64 * model.num_layers as u64 * per_layer;
    assert_eq!(
        report.peak_kv_reserved_bytes, expect,
        "peak {} should equal the content blocks {}, cushion consumed",
        report.peak_kv_reserved_bytes, expect
    );
}

/// Oversized-chunk degeneration still holds with growth + fusion off the
/// table: a chunk ≥ the longest prompt admits whole and reserves whole,
/// so the engine is digest-identical to atomic mode (the PR-2 invariant
/// carried forward over the new reservation path).
#[test]
fn oversized_chunk_still_digest_identical() {
    let atomic = run_with(EngineConfig::default(), 77, 4.0);
    let chunked = run_with(
        EngineConfig {
            prefill_chunk_tokens: Some(1 << 20),
            ..EngineConfig::default()
        },
        77,
        4.0,
    );
    assert_eq!(atomic.digest(), chunked.digest());
}

/// Chunked + slack + fused runs stay deterministic.
#[test]
fn fused_run_is_deterministic() {
    let cfg = || EngineConfig {
        prefill_chunk_tokens: Some(256),
        fused_microbatches: true,
        admission: AdmissionPolicy::SloSlack,
        ..EngineConfig::default()
    };
    let a = run_with(cfg(), 42, 5.0);
    let b = run_with(cfg(), 42, 5.0);
    assert_eq!(a.digest(), b.digest());
    assert!(a.completed.len() > 10);
}
