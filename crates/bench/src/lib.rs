//! Benchmark harness reproducing every table and figure of the Hetis
//! paper.
//!
//! Each experiment is a `harness = false` bench target (run by `cargo
//! bench`) that prints the paper's rows/series as TSV to stdout. The
//! sweep sizes honor `HETIS_BENCH_SCALE`:
//!
//! * `quick` (default) — reduced trace horizons; every series keeps its
//!   shape, total runtime stays in minutes.
//! * `full` — the paper's full rate grids and longer horizons.
//!
//! `EXPERIMENTS.md` at the repository root records paper-vs-measured for
//! every target here.

use hetis_baselines::{HexgenPolicy, SplitwisePolicy};
use hetis_cluster::Cluster;
use hetis_core::{HetisConfig, HetisPolicy, WorkloadProfile};
use hetis_engine::{run, EngineConfig, RunReport};
use hetis_model::ModelSpec;
use hetis_workload::{DatasetKind, Poisson, Trace, TraceBuilder};

/// Experiment scale selected via `HETIS_BENCH_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short horizons (default).
    Quick,
    /// Paper-sized sweeps.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("HETIS_BENCH_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Trace horizon in seconds for end-to-end sweeps.
    pub fn horizon(self) -> f64 {
        match self {
            Scale::Quick => 40.0,
            Scale::Full => 120.0,
        }
    }
}

/// The three competing systems, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Hetis (this paper).
    Hetis,
    /// HexGen (static asymmetric parallelism).
    Hexgen,
    /// Splitwise (phase splitting).
    Splitwise,
}

impl System {
    /// All three, in the paper's legend order.
    pub const ALL: [System; 3] = [System::Splitwise, System::Hexgen, System::Hetis];

    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            System::Hetis => "hetis",
            System::Hexgen => "hexgen",
            System::Splitwise => "splitwise",
        }
    }
}

/// Default engine config for experiments (bounded drain).
pub fn bench_engine_config() -> EngineConfig {
    EngineConfig {
        drain_timeout: 180.0,
        ..EngineConfig::default()
    }
}

/// Builds a trace for a dataset at a rate (fixed seed per dataset so the
/// same requests arrive faster or slower across the rate sweep).
pub fn bench_trace(dataset: DatasetKind, rate: f64, horizon: f64) -> Trace {
    let seed = match dataset {
        DatasetKind::ShareGpt => 4242,
        DatasetKind::HumanEval => 4243,
        DatasetKind::LongBench => 4244,
    };
    TraceBuilder::new(dataset, seed).build(&Poisson::new(rate), horizon)
}

/// Workload profile for Hetis's Parallelizer per dataset: R sized to the
/// concurrency the cluster's *compute* can sustain at saturation (≈30% of
/// best-case KV capacity for these workloads) — the capacity
/// side-condition must reflect reachable peak load, not memory-fill, or
/// the search trades real latency for capacity no workload ever uses.
pub fn bench_profile_for(
    dataset: DatasetKind,
    cluster: &Cluster,
    model: &ModelSpec,
) -> WorkloadProfile {
    WorkloadProfile::for_cluster(dataset, cluster, model, 0.3)
}

/// Runs one `(system, model, dataset, rate)` cell and returns the report.
pub fn run_system(
    system: System,
    cluster: &Cluster,
    model: &ModelSpec,
    dataset: DatasetKind,
    trace: &Trace,
) -> RunReport {
    let cfg = bench_engine_config();
    match system {
        System::Hetis => run(
            HetisPolicy::new(
                HetisConfig::default(),
                bench_profile_for(dataset, cluster, model),
            ),
            cluster,
            model,
            cfg,
            trace,
        ),
        System::Hexgen => run(HexgenPolicy::new(), cluster, model, cfg, trace),
        System::Splitwise => run(SplitwisePolicy::new(), cluster, model, cfg, trace),
    }
}

/// Prints a TSV header line.
pub fn tsv_header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Shared driver for the end-to-end figures (Figs. 8/9/10): sweeps
/// request rate × dataset × system for one model and prints mean
/// normalized latency (s/token) plus completion counts, then one
/// behavior-digest row per system — every cell's `RunReport::digest`
/// folded (FNV-1a, grid order) into a single pinnable word, so a CI pin
/// on three rows covers the whole sweep. Each cell also prints a
/// `sim-throughput` row in the scenario benches' format, its system
/// column `<system>@<dataset>-<rate>` (e.g. `hetis@HE-75`), which the
/// CI throughput floors read.
pub fn run_e2e_figure(figure: &str, model: &ModelSpec, grids: &[(DatasetKind, &[f64])]) {
    let scale = Scale::from_env();
    let cluster = hetis_cluster::cluster::paper_cluster();
    tsv_header(&[
        "figure",
        "dataset",
        "rate",
        "system",
        "norm_latency_s_per_tok",
        "p95_ttft_s",
        "p95_tpot_s",
        "completed",
        "issued",
    ]);
    let mut digests: Vec<(System, u64)> = System::ALL
        .iter()
        .map(|&s| (s, 0xcbf2_9ce4_8422_2325u64))
        .collect();
    for &(dataset, rates) in grids {
        for &rate in rates {
            let trace = bench_trace(dataset, rate, scale.horizon());
            for system in System::ALL {
                let wall_start = std::time::Instant::now();
                let report = run_system(system, &cluster, model, dataset, &trace);
                let wall = wall_start.elapsed().as_secs_f64();
                let d = digests
                    .iter_mut()
                    .find(|(s, _)| *s == system)
                    .expect("system registered");
                d.1 ^= report.digest();
                d.1 = d.1.wrapping_mul(0x1000_0000_01b3);
                println!(
                    "{figure}\t{}\t{rate}\t{}\t{}\t{}\t{}\t{}\t{}",
                    dataset.abbrev(),
                    system.name(),
                    f(report.mean_normalized_latency()),
                    f(report.p95_ttft()),
                    f(report.p95_tpot()),
                    report.completed.len(),
                    trace.len(),
                );
                println!(
                    "{figure}\tsim-throughput\t{}@{}-{rate}\tsim_s={}\twall_s={}\tsim_per_wall={}\tevents={}\tevents_per_s={}",
                    system.name(),
                    dataset.abbrev(),
                    f(report.duration),
                    f(wall),
                    f(report.duration / wall),
                    report.events_processed,
                    f(report.events_processed as f64 / wall),
                );
            }
        }
    }
    // Digest rows carry the scale tag: quick and full horizons cover
    // different traces, so their pins are distinct rows.
    let tag = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    for (system, digest) in digests {
        println!(
            "{figure}_e2e\tbehavior-digest\t{}-{tag}\t{digest:016x}",
            system.name()
        );
    }
}

/// Formats a float for the tables.
pub fn f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.5}")
    } else {
        "inf".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_quick() {
        // Without the env var the scale is quick.
        std::env::remove_var("HETIS_BENCH_SCALE");
        assert_eq!(Scale::from_env(), Scale::Quick);
        assert!(Scale::Quick.horizon() < Scale::Full.horizon());
    }

    #[test]
    fn system_names() {
        assert_eq!(System::Hetis.name(), "hetis");
        assert_eq!(System::ALL.len(), 3);
    }
}
