//! Closed-loop control scenario: the burst-storm SLO mix from
//! `scenario_slo_mix`, served by the fused-microbatch system, with the
//! telemetry feedback loop closed. Three systems:
//!
//! * `chunked-alternating` — chunked+priority with the alternating
//!   prefill/decode loop (the PR 5 TTFT champion; its digest must equal
//!   the pinned `slo_mix` chunked+priority digest).
//! * `open-loop` — fused+priority behind the elastic wrapper with the
//!   windowed telemetry bus attached but `closed_loop: None`; its digest
//!   must equal the pinned `slo_mix` fused+priority digest (wrapper and
//!   bus are both digest-neutral).
//! * `closed-loop` — the same system with the `ClosedLoopController`
//!   driving scale proposals, best-effort throttling, and chunk pacing
//!   off the windowed percentiles.
//!
//! Exits non-zero unless the closed loop beats the open loop on
//! interactive p99 TTFT at equal-or-better goodput, pacing pulls fused
//! p99 TTFT down to (or under) the alternating loop's while keeping the
//! fused TPOT win, at least one action actually fired, and every digest
//! reproduces bit-for-bit across a same-seed rerun.

use hetis_bench::{bench_engine_config, bench_profile_for, f, tsv_header};
use hetis_cluster::cluster::paper_cluster;
use hetis_core::{HetisConfig, HetisPolicy};
use hetis_elastic::elastic_hetis;
use hetis_engine::{run, AdmissionPolicy, ClosedLoopConfig, RunReport};
use hetis_model::llama_13b;
use hetis_telemetry::TelemetryConfig;
use hetis_workload::{multi_tenant_trace, DatasetKind, SloClass, TenantId, TenantSpec};

fn main() {
    let cluster = paper_cluster();
    let model = llama_13b();

    // Same two tenants and seed as scenario_slo_mix: chat turns at
    // 6 req/s tripling inside a 10 s burst against 2 req/s long-prompt
    // summarization. The burst is the control problem — windows breach
    // only while demand transiently exceeds capacity.
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
        cfg.prefill_chunk_tokens = Some(512);
        cfg.admission = AdmissionPolicy::SloSlack;
        match which {
            "chunked-alternating" => {
                // Plain policy, no bus: must reproduce the slo_mix
                // chunked+priority pin.
                return run(
                    HetisPolicy::new(HetisConfig::default(), profile),
                    &cluster,
                    &model,
                    cfg,
                    &trace,
                );
            }
            "open-loop" => {
                cfg.fused_microbatches = true;
                // 15 s windows, 250 ms control ticks: the feedback loop's
                // reaction time is one tick past the first breaching
                // window, so the tick period bounds how much burst
                // backlog accrues before pacing engages.
                cfg.telemetry = Some(TelemetryConfig {
                    window_secs: 15.0,
                    sample_period: 0.25,
                    ..TelemetryConfig::default()
                });
            }
            "closed-loop" => {
                cfg.fused_microbatches = true;
                cfg.telemetry = Some(TelemetryConfig {
                    window_secs: 15.0,
                    sample_period: 0.25,
                    ..TelemetryConfig::default()
                });
                cfg.closed_loop = Some(ClosedLoopConfig::default());
            }
            _ => unreachable!(),
        }
        run(
            elastic_hetis(HetisConfig::default(), profile),
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
    let mut reports = std::collections::HashMap::new();
    for which in ["chunked-alternating", "open-loop", "closed-loop"] {
        let wall_start = std::time::Instant::now();
        let report = run_named(which);
        let wall = wall_start.elapsed().as_secs_f64();
        println!(
            "closed_loop\tsim-throughput\t{which}\tsim_s={}\twall_s={}\tsim_per_wall={}\tevents={}\tevents_per_s={}",
            f(report.duration),
            f(wall),
            f(report.duration / wall),
            report.events_processed,
            f(report.events_processed as f64 / wall),
        );
        // Control line: the actuation tally — what the loop actually did.
        println!(
            "closed_loop\tcontrol\t{which}\tactions={}\tscale_out={}\tscale_in={}\tthrottle_on={}\tpace_on={}\treplans={}",
            report.control_log.len(),
            report.scale_out_proposals(),
            report.scale_in_proposals(),
            report.throttle_engagements(),
            report.pace_engagements(),
            report.replans.len(),
        );
        for r in &report.control_log {
            println!(
                "closed_loop\taction\t{which}\tt={}\t{}",
                f(r.time),
                r.action.kind()
            );
        }
        println!(
            "closed_loop\tbehavior-digest\t{which}\t{:016x}",
            report.digest()
        );
        let tpots: Vec<f64> = report
            .completed
            .iter()
            .filter(|c| c.class == SloClass::Interactive && c.output_len > 1)
            .map(|c| c.tpot())
            .collect();
        println!(
            "closed_loop\tcadence\t{which}\tmean_interactive_tpot={}",
            f(tpots.iter().sum::<f64>() / tpots.len().max(1) as f64)
        );
        for s in report.class_stats() {
            println!(
                "closed_loop\t{which}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
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
        p99_interactive.insert(which, report.p99_ttft_of_class(SloClass::Interactive));
        mean_tpot_interactive.insert(which, tpots.iter().sum::<f64>() / tpots.len().max(1) as f64);
        goodput.insert(which, report.goodput());
        reports.insert(which, report);
    }

    // Determinism: the closed loop's actuation sequence replays
    // bit-for-bit — same digest, same control log.
    let a = &reports["closed-loop"];
    let b = run_named("closed-loop");
    let deterministic = a.digest() == b.digest() && a.control_log == b.control_log;
    println!(
        "closed_loop\tdeterminism\tdigest_a={:016x}\tdigest_b={:016x}\t{}",
        a.digest(),
        b.digest(),
        if deterministic {
            "IDENTICAL"
        } else {
            "DIVERGED"
        }
    );
    assert!(
        deterministic,
        "same seed must replay the actuation sequence"
    );

    // The loop must have closed: at least one action fired, and the
    // open-loop run took none.
    assert!(
        !reports["closed-loop"].control_log.is_empty(),
        "the storm must engage the controller"
    );
    assert!(
        reports["open-loop"].control_log.is_empty(),
        "the open loop must not log control actions"
    );

    // Feedback must pay: better interactive tail latency at
    // equal-or-better in-SLO goodput than the same system open loop.
    assert!(
        p99_interactive["closed-loop"] < p99_interactive["open-loop"],
        "closing the loop must cut interactive p99 TTFT: {} vs {}",
        p99_interactive["closed-loop"],
        p99_interactive["open-loop"]
    );
    assert!(
        goodput["closed-loop"] >= goodput["open-loop"],
        "closing the loop must not cost goodput: {} vs {}",
        goodput["closed-loop"],
        goodput["open-loop"]
    );
    // Pacing closes fusion's TTFT gap: fused p99 TTFT lands at or under
    // the alternating loop's, while fusion's decode-cadence win stands.
    assert!(
        p99_interactive["closed-loop"] <= p99_interactive["chunked-alternating"],
        "paced fusion must match the alternating loop's p99 TTFT: {} vs {}",
        p99_interactive["closed-loop"],
        p99_interactive["chunked-alternating"]
    );
    assert!(
        mean_tpot_interactive["closed-loop"] < mean_tpot_interactive["chunked-alternating"],
        "paced fusion must keep the TPOT win: {} vs {}",
        mean_tpot_interactive["closed-loop"],
        mean_tpot_interactive["chunked-alternating"]
    );
}
