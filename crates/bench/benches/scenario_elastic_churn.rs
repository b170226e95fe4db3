//! Elastic churn scenario: a seeded preemption storm revokes every
//! attention-class GPU while the request rate spikes, then the capacity
//! rejoins. Compares Hetis with live re-planning (`hetis+elastic`)
//! against the no-replan ablation (`hetis+frozen`) and the static
//! baselines, including Helix's max-flow-planned routing.
//!
//! Prints one TSV row per system plus a determinism check (same seed run
//! twice ⇒ identical `RunReport` digest). Exits non-zero if the elastic
//! controller does not sustain a strictly lower p99 normalized latency
//! than the frozen baseline.

use hetis_baselines::{HelixPolicy, HexgenPolicy, SplitwisePolicy};
use hetis_bench::{bench_engine_config, bench_profile_for, f, tsv_header, Scale};
use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::GpuType;
use hetis_core::HetisConfig;
use hetis_elastic::{elastic_hetis, frozen_hetis, ChurnScenario};
use hetis_engine::RunReport;
use hetis_model::llama_70b;
use hetis_workload::DatasetKind;

fn main() {
    let scale = Scale::from_env();
    let cluster = paper_cluster();
    let model = llama_70b();
    let dataset = DatasetKind::ShareGpt;
    let profile = bench_profile_for(dataset, &cluster, &model);
    let horizon = match scale {
        Scale::Quick => 60.0,
        Scale::Full => 180.0,
    };
    let storm_start = horizon / 3.0;

    // Every P100 (the attention-worker class for Llama-70B) receives a
    // preemption notice inside a 5 s window; capacity rejoins 20 s after
    // revocation; the arrival rate spikes 2× during the storm.
    let scenario = ChurnScenario::preemption_storm(
        &cluster,
        dataset,
        4242,
        2.0,
        horizon,
        GpuType::P100,
        storm_start,
        5.0,
        10.0,
        Some(20.0),
        2.0,
    );

    let cfg = bench_engine_config();
    let run_named = |which: &str| -> RunReport {
        match which {
            "hetis+elastic" => scenario.run(
                elastic_hetis(HetisConfig::default(), profile),
                &cluster,
                &model,
                cfg.clone(),
            ),
            "hetis+frozen" => scenario.run(
                frozen_hetis(HetisConfig::default(), profile),
                &cluster,
                &model,
                cfg.clone(),
            ),
            "hexgen" => scenario.run(HexgenPolicy::new(), &cluster, &model, cfg.clone()),
            "splitwise" => scenario.run(SplitwisePolicy::new(), &cluster, &model, cfg.clone()),
            "helix" => scenario.run(HelixPolicy::new(), &cluster, &model, cfg.clone()),
            _ => unreachable!(),
        }
    };

    tsv_header(&[
        "scenario",
        "system",
        "completed",
        "unfinished",
        "mean_norm_lat",
        "p99_norm_lat",
        "p95_ttft_s",
        "preempts",
        "churn_evicts",
        "lost_tokens",
        "replans",
        "replan_lat_s",
        "migrated_gb",
    ]);

    let mut p99_elastic = f64::INFINITY;
    let mut p99_frozen = f64::INFINITY;
    for which in [
        "hetis+elastic",
        "hetis+frozen",
        "hexgen",
        "splitwise",
        "helix",
    ] {
        let wall_start = std::time::Instant::now();
        let report = run_named(which);
        let wall = wall_start.elapsed().as_secs_f64();
        // Engine-speed line (machine-dependent; digests pin behavior).
        println!(
            "elastic_storm\tsim-throughput\t{which}\tsim_s={}\twall_s={}\tsim_per_wall={}\tevents={}\tevents_per_s={}",
            f(report.duration),
            f(wall),
            f(report.duration / wall),
            report.events_processed,
            f(report.events_processed as f64 / wall),
        );
        // Behavior digest per system — the CI gate pins all of these.
        println!(
            "elastic_storm\tbehavior-digest\t{which}\t{:016x}",
            report.digest()
        );
        let p99 = report.p99_normalized_latency();
        match which {
            "hetis+elastic" => p99_elastic = p99,
            "hetis+frozen" => p99_frozen = p99,
            _ => {}
        }
        println!(
            "elastic_storm\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            report.policy,
            report.completed.len(),
            report.unfinished,
            f(report.mean_normalized_latency()),
            f(p99),
            f(report.p95_ttft()),
            report.preemptions,
            report.churn_evictions,
            report.lost_tokens,
            report.replans.len(),
            f(report.total_replan_latency()),
            f(report.migrated_bytes / 1e9),
        );
    }

    // Determinism: the same seed reproduces the full report bit-for-bit.
    let a = run_named("hetis+elastic");
    let b = run_named("hetis+elastic");
    let deterministic = a.digest() == b.digest();
    println!(
        "elastic_storm\tdeterminism\tdigest_a={:016x}\tdigest_b={:016x}\t{}",
        a.digest(),
        b.digest(),
        if deterministic {
            "IDENTICAL"
        } else {
            "DIVERGED"
        }
    );

    assert!(deterministic, "same seed must reproduce the run");
    assert!(
        p99_elastic < p99_frozen,
        "elastic re-planning must beat the frozen baseline under the storm: \
         p99 elastic {p99_elastic} vs frozen {p99_frozen}"
    );
}
