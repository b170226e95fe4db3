//! Helix race: Hetis's dynamic dispatch vs Helix's max-flow-planned
//! static routing, head-to-head on the same preemption-storm churn
//! trace, plus the spot-acquisition cost comparison.
//!
//! Two halves, both digest-pinned by the CI gate:
//!
//! 1. **The race** — `hetis+elastic` and `helix` run the identical
//!    scenario (trace + churn schedule from one seed). Helix plans a
//!    max-flow routing once at startup and never re-plans; Hetis
//!    re-dispatches per iteration and re-plans on every churn event.
//! 2. **The economics** — the same `hetis+elastic` run billed twice:
//!    always-on-demand vs the cost-aware spot policy. Billing is a pure
//!    post-run replay, so the two priced runs have *identical* serving
//!    behavior and SLO attainment — only dollars (and the digest, which
//!    folds the attached `CostReport`) differ. The bench asserts the
//!    cost-aware policy undercuts on-demand on `cost_per_in_slo_token`
//!    at equal-or-better attainment.

use hetis_baselines::HelixPolicy;
use hetis_bench::{bench_engine_config, bench_profile_for, f, tsv_header, Scale};
use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::GpuType;
use hetis_core::HetisConfig;
use hetis_elastic::{elastic_hetis, AcquisitionPolicy, ChurnScenario, CostMeter};
use hetis_engine::RunReport;
use hetis_model::llama_70b;
use hetis_workload::{DatasetKind, PriceTrace};

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

    // Same storm shape as elastic_storm, different seed: every P100
    // revoked in a 5 s window, rejoining 20 s later, 2x rate spike.
    let scenario = ChurnScenario::preemption_storm(
        &cluster,
        dataset,
        7777,
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
    // Spot market: piecewise-constant multiplier in [0.25, 0.95] of the
    // on-demand rate, re-quoted every 10 s. The cost-aware policy takes
    // spot below 0.7 and falls back to on-demand above it.
    let prices = PriceTrace::seeded(7777, horizon, 10.0, 0.25, 0.95);
    let spot_aware = AcquisitionPolicy::SpotAware { threshold: 0.7 };

    let elastic = || elastic_hetis(HetisConfig::default(), profile);

    let run_named = |which: &str| -> RunReport {
        let priced = |policy| {
            let meter = CostMeter::new(prices.clone(), policy);
            scenario.run_priced(elastic(), &cluster, &model, cfg.clone(), &meter)
        };
        match which {
            "hetis+elastic" => scenario.run(elastic(), &cluster, &model, cfg.clone()),
            "helix" => scenario.run(HelixPolicy::new(), &cluster, &model, cfg.clone()),
            "hetis+ondemand" => priced(AcquisitionPolicy::AlwaysOnDemand),
            "hetis+spot" => priced(spot_aware),
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
        "slo_attainment",
        "dollars",
        "cost_per_in_slo_tok",
        "spot_acq",
        "ondemand_acq",
    ]);

    let mut reports: Vec<(&str, RunReport)> = Vec::new();
    for which in ["hetis+elastic", "helix", "hetis+ondemand", "hetis+spot"] {
        let wall_start = std::time::Instant::now();
        let report = run_named(which);
        let wall = wall_start.elapsed().as_secs_f64();
        println!(
            "helix_race\tsim-throughput\t{which}\tsim_s={}\twall_s={}\tsim_per_wall={}\tevents={}\tevents_per_s={}",
            f(report.duration),
            f(wall),
            f(report.duration / wall),
            report.events_processed,
            f(report.events_processed as f64 / wall),
        );
        println!(
            "helix_race\tbehavior-digest\t{which}\t{:016x}",
            report.digest()
        );
        let (dollars, cpt, spot_acq, od_acq) = match &report.cost {
            Some(c) => (
                c.total_dollars(),
                c.cost_per_in_slo_token,
                c.spot_acquisitions,
                c.on_demand_acquisitions,
            ),
            None => (0.0, f64::INFINITY, 0, 0),
        };
        println!(
            "helix_race\t{which}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            report.completed.len(),
            report.unfinished,
            f(report.mean_normalized_latency()),
            f(report.p99_normalized_latency()),
            f(report.p95_ttft()),
            f(report.slo_attainment()),
            f(dollars),
            f(cpt),
            spot_acq,
            od_acq,
        );
        reports.push((which, report));
    }
    let get =
        |which: &str| -> &RunReport { &reports.iter().find(|(w, _)| *w == which).expect("ran").1 };

    // Determinism: both racers reproduce bit-for-bit from the seed.
    for which in ["hetis+elastic", "helix"] {
        let again = run_named(which);
        let identical = again.digest() == get(which).digest();
        println!(
            "helix_race\tdeterminism\t{which}\tdigest_a={:016x}\tdigest_b={:016x}\t{}",
            get(which).digest(),
            again.digest(),
            if identical { "IDENTICAL" } else { "DIVERGED" }
        );
        assert!(identical, "{which}: same seed must reproduce the run");
    }

    // The race must be a real race: Helix's static plan has to serve the
    // storm, not collapse (its flow-weighted routing keeps every entry
    // instance fed even while the worker class is revoked).
    let helix = get("helix");
    assert!(
        !helix.completed.is_empty(),
        "helix must complete requests through the storm"
    );

    // Economics: billing never perturbs serving...
    let od = get("hetis+ondemand");
    let spot = get("hetis+spot");
    assert!(
        spot.slo_attainment() >= od.slo_attainment(),
        "billing must not change serving: spot attainment {} vs on-demand {}",
        spot.slo_attainment(),
        od.slo_attainment(),
    );
    // ...so the cost-aware policy must win purely on dollars.
    let od_cpt = od.cost_per_in_slo_token();
    let spot_cpt = spot.cost_per_in_slo_token();
    println!(
        "helix_race\tcost-comparison\tspot_vs_ondemand\tcpt_spot={}\tcpt_ondemand={}\tsaving_pct={}",
        f(spot_cpt),
        f(od_cpt),
        f((1.0 - spot_cpt / od_cpt) * 100.0),
    );
    assert!(
        spot_cpt < od_cpt,
        "cost-aware acquisition must undercut always-on-demand: {spot_cpt} vs {od_cpt}"
    );
}
