//! Multi-tenant SLO scenario: an interactive chat tenant (tight
//! TTFT/TPOT targets) shares one heterogeneous cluster with a
//! long-context summarization tenant (loose batch deadlines). The
//! FIFO-atomic baseline admits whole prefills in arrival order, so a
//! single multi-thousand-token summarization prompt head-of-line-blocks
//! every chat turn behind it; the SLO-aware scheduler splits prefills
//! into token-budget chunks interleaved with decode and admits by TTFT
//! slack.
//!
//! Two of the systems exercise the fine-grained memory/compute paths:
//! `chunked+priority` reserves KV chunk-by-chunk (admission holds only
//! the first chunk + decode headroom; the reservation grows with each
//! completed chunk), and `fused+priority` additionally fuses every
//! prefill chunk with the resident decode batch into ONE iteration
//! (vLLM-style mixed batches) instead of alternating.
//!
//! Prints one TSV row per (system, class) plus goodput, memory
//! (peak-reserved-KV), behavior-digest and determinism rows. Exits
//! non-zero unless chunked+priority beats FIFO-atomic on interactive
//! p99 TTFT at equal-or-better total goodput, incremental growth lowers
//! peak reserved KV without losing tokens, and fusing lowers
//! interactive TPOT vs the alternating loop — with bit-identical
//! digests across same-seed reruns.

use hetis_bench::{bench_engine_config, bench_profile_for, f, tsv_header};
use hetis_cluster::cluster::paper_cluster;
use hetis_core::{HetisConfig, HetisPolicy};
use hetis_engine::{run, AdmissionPolicy, RunReport};
use hetis_model::llama_13b;
use hetis_telemetry::TelemetryConfig;
use hetis_workload::{multi_tenant_trace, DatasetKind, SloClass, TenantId, TenantSpec};

fn main() {
    let cluster = paper_cluster();
    let model = llama_13b();

    // Two tenants, one cluster: chatbot turns arrive at 6 req/s (tripling
    // inside a 10 s demand burst) with a 1 s TTFT target; article
    // summarization at 2 req/s brings ~1.8k-token prompts with a 30 s
    // deadline. The burst is what makes admission *order* matter: queues
    // only form while demand transiently exceeds service capacity.
    let specs = [
        TenantSpec::steady(
            TenantId(0),
            DatasetKind::ShareGpt,
            SloClass::Interactive,
            6.0,
        )
        .with_burst(20.0, 10.0, 3.0),
        TenantSpec::steady(TenantId(1), DatasetKind::LongBench, SloClass::Batch, 2.0),
    ];
    let trace = multi_tenant_trace(&specs, 4242, 60.0);

    let profile = bench_profile_for(DatasetKind::ShareGpt, &cluster, &model);
    let run_named = |which: &str| -> RunReport {
        let mut cfg = bench_engine_config();
        match which {
            "fifo-atomic" => {}
            "chunked-only" => cfg.prefill_chunk_tokens = Some(512),
            "priority-only" => cfg.admission = AdmissionPolicy::SloSlack,
            "chunked+priority" => {
                cfg.prefill_chunk_tokens = Some(512);
                cfg.admission = AdmissionPolicy::SloSlack;
            }
            "fused+priority" => {
                cfg.prefill_chunk_tokens = Some(512);
                cfg.admission = AdmissionPolicy::SloSlack;
                cfg.fused_microbatches = true;
            }
            _ => unreachable!(),
        }
        run(
            HetisPolicy::new(HetisConfig::default(), profile),
            &cluster,
            &model,
            cfg,
            &trace,
        )
    };

    tsv_header(&[
        "scenario",
        "system",
        "class",
        "completed",
        "slo_met",
        "attainment",
        "p99_ttft_s",
        "p95_ttft_s",
        "p95_tpot_s",
        "goodput_tok_s",
    ]);

    let mut p99_interactive = std::collections::HashMap::new();
    let mut mean_tpot_interactive = std::collections::HashMap::new();
    let mut goodput = std::collections::HashMap::new();
    let mut token_throughput = std::collections::HashMap::new();
    let mut peak_kv = std::collections::HashMap::new();
    let mut completed = std::collections::HashMap::new();
    for which in [
        "fifo-atomic",
        "chunked-only",
        "priority-only",
        "chunked+priority",
        "fused+priority",
    ] {
        let wall_start = std::time::Instant::now();
        let report = run_named(which);
        let wall = wall_start.elapsed().as_secs_f64();
        // Engine-speed line: simulated seconds per wall second and raw
        // event throughput — the solver fast path and engine hot-loop
        // work land here (wall time is machine-dependent; the digest
        // rows, not these, pin behavior).
        println!(
            "slo_mix\tsim-throughput\t{which}\tsim_s={}\twall_s={}\tsim_per_wall={}\tevents={}\tevents_per_s={}",
            f(report.duration),
            f(wall),
            f(report.duration / wall),
            report.events_processed,
            f(report.events_processed as f64 / wall),
        );
        // Memory line: the incremental-growth headline (peak reserved KV
        // across all devices) plus the growth/fusion mechanics counters.
        println!(
            "slo_mix\tmemory\t{which}\tpeak_kv_gb={}\tkv_growths={}\tkv_grow_failures={}\tfused_iters={}\tlost_tokens={}",
            f(report.peak_kv_reserved_bytes as f64 / 1e9),
            report.kv_growths,
            report.kv_grow_failures,
            report.fused_iterations,
            report.lost_tokens,
        );
        // Behavior digest per system — the CI gate pins all of these.
        println!(
            "slo_mix\tbehavior-digest\t{which}\t{:016x}",
            report.digest()
        );
        // Decode-cadence line: mean interactive TPOT (the fused-loop
        // comparison metric — per-token cadence over every interactive
        // token, where p95-of-per-request-means hides the stall mix).
        let tpots: Vec<f64> = report
            .completed
            .iter()
            .filter(|c| c.class == SloClass::Interactive && c.output_len > 1)
            .map(|c| c.tpot())
            .collect();
        println!(
            "slo_mix\tcadence\t{which}\tmean_interactive_tpot={}",
            f(tpots.iter().sum::<f64>() / tpots.len().max(1) as f64)
        );
        for s in report.class_stats() {
            println!(
                "slo_mix\t{which}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.class,
                s.completed,
                s.slo_met,
                f(s.attainment()),
                f(s.p99_ttft),
                f(s.p95_ttft),
                f(s.p95_tpot),
                f(s.goodput_tokens as f64 / report.duration),
            );
        }
        println!(
            "slo_mix\t{which}\ttotal\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            report.completed.len(),
            report.completed.iter().filter(|c| c.slo_met()).count(),
            f(report.slo_attainment()),
            f(report.p99_ttft_of_class(SloClass::Interactive)),
            f(report.p95_ttft()),
            f(report.p95_tpot()),
            f(report.goodput()),
        );
        p99_interactive.insert(which, report.p99_ttft_of_class(SloClass::Interactive));
        mean_tpot_interactive.insert(which, tpots.iter().sum::<f64>() / tpots.len().max(1) as f64);
        goodput.insert(which, report.goodput());
        token_throughput.insert(which, report.token_throughput());
        peak_kv.insert(which, report.peak_kv_reserved_bytes);
        completed.insert(which, report.completed.len());
    }

    // Determinism: the same seed reproduces the full report (including
    // the per-class SLO tables folded into the digest) bit-for-bit.
    let a = run_named("chunked+priority");
    let b = run_named("chunked+priority");
    let deterministic = a.digest() == b.digest();
    println!(
        "slo_mix\tdeterminism\tdigest_a={:016x}\tdigest_b={:016x}\t{}",
        a.digest(),
        b.digest(),
        if deterministic {
            "IDENTICAL"
        } else {
            "DIVERGED"
        }
    );

    assert!(deterministic, "same seed must reproduce the run");

    // Telemetry: the same chunked+priority run with the full-run
    // streaming bus attached must (a) reproduce the disabled run's
    // digest bit-for-bit — the zero-cost gating contract; the CI digest
    // pins above are the telemetry-OFF side of this comparison — (b)
    // stream per-class p99 TTFTs equal to the end-of-run report's
    // (full-run windows hold the identical sample multiset and use the
    // same percentile function). Its wall-time overhead is printed
    // (min-of-3, interleaved with fresh OFF runs so machine noise hits
    // both sides) but not asserted: runs this short swing by more than
    // any sensible bound. No behavior-digest row is printed for this
    // run: the digest is asserted equal to the pinned chunked+priority
    // one, so a separate pin would be redundant.
    let run_telemetry = || -> RunReport {
        let mut cfg = bench_engine_config();
        cfg.prefill_chunk_tokens = Some(512);
        cfg.admission = AdmissionPolicy::SloSlack;
        cfg.telemetry = Some(TelemetryConfig::full_run());
        run(
            HetisPolicy::new(HetisConfig::default(), profile),
            &cluster,
            &model,
            cfg,
            &trace,
        )
    };
    let mut wall_off = f64::INFINITY;
    let mut wall_on = f64::INFINITY;
    let mut on = None;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let off = run_named("chunked+priority");
        wall_off = wall_off.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        let with_bus = run_telemetry();
        wall_on = wall_on.min(t.elapsed().as_secs_f64());
        assert_eq!(
            off.digest(),
            with_bus.digest(),
            "telemetry must be digest-neutral"
        );
        on = Some(with_bus);
    }
    let on = on.expect("three telemetry runs happened");
    let snap = on.telemetry.as_ref().expect("telemetry was enabled");
    assert_eq!(snap.completions, on.completed.len() as u64);
    for s in on.class_stats() {
        if s.completed == 0 {
            continue;
        }
        let streamed = snap
            .p99_ttft(s.class)
            .expect("completed class has streaming stats");
        assert!(
            (streamed - s.p99_ttft).abs() <= 1e-9,
            "streaming p99 TTFT diverged from report for {}: {streamed} vs {}",
            s.class,
            s.p99_ttft
        );
    }
    let overhead_pct = 100.0 * (wall_on - wall_off) / wall_off;
    println!(
        "slo_mix\ttelemetry\tchunked+priority\twall_off_s={}\twall_on_s={}\toverhead_pct={}\tevents={}",
        f(wall_off),
        f(wall_on),
        f(overhead_pct),
        snap.events_published,
    );
    // sim-throughput-style row for the telemetry-ON run so BENCH records
    // can quote on/off side by side (not floor-gated: the floors file
    // only lists the plain systems).
    println!(
        "slo_mix\tsim-throughput\tchunked+priority+telemetry\tsim_s={}\twall_s={}\tsim_per_wall={}\tevents={}\tevents_per_s={}",
        f(on.duration),
        f(wall_on),
        f(on.duration / wall_on),
        on.events_processed,
        f(on.events_processed as f64 / wall_on),
    );
    let p99_slo = p99_interactive["chunked+priority"];
    let p99_fifo = p99_interactive["fifo-atomic"];
    assert!(
        p99_slo < p99_fifo,
        "chunked+priority must beat FIFO-atomic on interactive p99 TTFT: \
         {p99_slo} vs {p99_fifo}"
    );
    assert!(
        goodput["chunked+priority"] >= goodput["fifo-atomic"],
        "SLO scheduling must not cost goodput: {} vs {}",
        goodput["chunked+priority"],
        goodput["fifo-atomic"]
    );
    // Incremental KV growth: admission no longer reserves full-prompt
    // KV, so the long-prompt tenant's chunks must show up as a lower
    // cluster-wide reserved-KV peak — with every request still served
    // whole (no lost or truncated tokens on this churn-free trace).
    assert!(
        peak_kv["chunked+priority"] < peak_kv["fifo-atomic"],
        "incremental growth must lower peak reserved KV: {} vs {}",
        peak_kv["chunked+priority"],
        peak_kv["fifo-atomic"]
    );
    for which in [
        "chunked-only",
        "chunked+priority",
        "fused+priority",
        "fifo-atomic",
        "priority-only",
    ] {
        assert_eq!(
            completed[which], completed["fifo-atomic"],
            "{which} must complete the same requests"
        );
    }
    // Fused microbatches: decode tokens ride every chunk iteration
    // instead of stalling behind prefill-only iterations, so the mean
    // interactive decode cadence AND the raw token throughput (same
    // completions, shorter makespan) must improve over the alternating
    // loop, while the in-SLO goodput stays above the FIFO-atomic
    // baseline. (Fusion's TTFT tax under the burst — the chunk drain
    // co-schedules decode attention — reclassifies a few tail requests
    // against the tight 1 s interactive target, so in-SLO goodput vs the
    // *alternating* loop is workload-dependent; that tradeoff is exactly
    // why `fused_microbatches` is a config knob.)
    assert!(
        mean_tpot_interactive["fused+priority"] < mean_tpot_interactive["chunked+priority"],
        "fusing must cut interactive TPOT vs the alternating loop: {} vs {}",
        mean_tpot_interactive["fused+priority"],
        mean_tpot_interactive["chunked+priority"]
    );
    assert!(
        token_throughput["fused+priority"] >= token_throughput["chunked+priority"],
        "fusing must not cost token throughput: {} vs {}",
        token_throughput["fused+priority"],
        token_throughput["chunked+priority"]
    );
    assert!(
        goodput["fused+priority"] >= goodput["fifo-atomic"],
        "fusing must keep the SLO win over the FIFO baseline: {} vs {}",
        goodput["fused+priority"],
        goodput["fifo-atomic"]
    );
}
