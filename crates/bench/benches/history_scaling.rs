//! History-scaling guard: the engine's wall time per request must not
//! grow with the number of requests it has already served.
//!
//! Serves Hetis on ShareGPT at 6 req/s (paper cluster, Llama-13B,
//! default Hetis and engine configs, a 64-sequence workload profile)
//! three times in one process: about
//! 3k requests, then about 24k, then about 3k again. Only the serving
//! loop is timed; the topology search and engine construction are not.
//! Prints one TSV row per run (requests, wall seconds, µs per request,
//! behavior digest) and exits non-zero when the long run's µs per
//! request exceeds 1.5× the mean of the two short runs. The bound is a
//! ratio within one process, so it does not depend on the machine's
//! absolute speed; running the short trace on both sides of the long
//! one spreads drift in machine speed over both.
//!
//! ```bash
//! cargo bench --bench history_scaling
//! ```

use hetis_cluster::cluster::paper_cluster;
use hetis_core::{HetisConfig, HetisPolicy, WorkloadProfile};
use hetis_engine::{Engine, EngineConfig, Policy};
use hetis_model::llama_13b;
use hetis_workload::{DatasetKind, Poisson, TraceBuilder};
use std::time::Instant;

/// Arrival rate, requests per second.
const RATE: f64 = 6.0;
/// Trace horizons of the short and the long run, simulated seconds.
const SHORT_S: f64 = 500.0;
const LONG_S: f64 = 4000.0;
/// The long run's µs per request may exceed the short runs' mean by
/// this factor at most.
const MAX_RATIO: f64 = 1.5;

fn main() {
    let cluster = paper_cluster();
    let model = llama_13b();
    println!("# history scaling: Hetis, ShareGPT at {RATE} req/s, trace seed 7");
    println!("run\trequests\tcompleted\twall_s\tus_per_request\tdigest");
    let mut per_request = Vec::new();
    for (label, horizon) in [("short", SHORT_S), ("long", LONG_S), ("short", SHORT_S)] {
        let trace = TraceBuilder::new(DatasetKind::ShareGpt, 7).build(&Poisson::new(RATE), horizon);
        let mut policy = HetisPolicy::new(
            HetisConfig::default(),
            WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 64),
        );
        let cfg = EngineConfig::default();
        let topo = policy.topology(&cluster, &model, &cfg);
        let mut engine = Engine::new(policy, &cluster, &model, cfg, topo, &trace);
        let t0 = Instant::now();
        engine.run_to_completion();
        let wall = t0.elapsed().as_secs_f64();
        let report = engine.into_report();
        let us = wall * 1e6 / trace.len() as f64;
        per_request.push(us);
        println!(
            "{label}\t{}\t{}\t{wall:.3}\t{us:.1}\t{:016x}",
            trace.len(),
            report.completed.len(),
            report.digest()
        );
    }
    let short_mean = (per_request[0] + per_request[2]) / 2.0;
    let ratio = per_request[1] / short_mean;
    println!("history-scaling\tratio\t{ratio:.3}\tbound\t{MAX_RATIO}");
    if ratio > MAX_RATIO {
        eprintln!(
            "FAIL: the long run took {:.1} us per request, {ratio:.2}x the short runs' {short_mean:.1}",
            per_request[1]
        );
        std::process::exit(1);
    }
}
