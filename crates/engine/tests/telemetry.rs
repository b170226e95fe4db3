//! Telemetry bus integration gates (ISSUE 6).
//!
//! 1. **Digest neutrality** — enabling telemetry (any ring size, any
//!    window) must not perturb the simulation: behavior digests are
//!    bit-identical with the bus on and off. The scenario gate pins the
//!    same property on the scenario benches.
//! 2. **Flow-record completeness** — one JSONL flow record per completed
//!    request, every line valid JSON, snapshot completion counts equal to
//!    the report's.
//! 3. **Exact percentile convergence** — with `TelemetryConfig::full_run`
//!    the streaming per-class p99 TTFT equals the end-of-run report p99
//!    bit for bit (same samples, same `hetis_sim::percentile`).
//! 4. **Drop accounting** — a tiny ring wraps, `telemetry_dropped`
//!    surfaces the overwrites in the report, and the digest still
//!    matches the disabled run (drops are a bus-side artifact).

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::GpuType;
use hetis_engine::policy::StaticPolicy;
use hetis_engine::{
    run, AdmissionPolicy, EngineConfig, InstanceRole, InstanceTopo, RunReport, StageTopo, Topology,
};
use hetis_model::llama_13b;
use hetis_parallel::StageConfig;
use hetis_telemetry::{validate_json_line, TelemetryConfig};
use hetis_workload::{DatasetKind, Poisson, SloClass, TraceBuilder};

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

/// Chunked + slack-ordered run over a mixed ShareGPT trace — the same
/// harness shape as the kv_growth suite, exercising every tap site
/// (arrival, admission, chunks, first token, decode, completion).
fn run_with(telemetry: Option<TelemetryConfig>, seed: u64, rate: f64) -> RunReport {
    let cluster = paper_cluster();
    let model = llama_13b();
    let trace = TraceBuilder::new(DatasetKind::ShareGpt, seed).build(&Poisson::new(rate), 20.0);
    let cfg = EngineConfig {
        prefill_chunk_tokens: Some(256),
        admission: AdmissionPolicy::SloSlack,
        telemetry,
        ..EngineConfig::default()
    };
    run(
        StaticPolicy::new("vllm", a100_topo()),
        &cluster,
        &model,
        cfg,
        &trace,
    )
}

/// The zero-cost gating contract, measured: default bus, full-run bus and
/// a deliberately wrapping 8-slot ring all reproduce the disabled run's
/// digest exactly.
#[test]
fn telemetry_is_digest_neutral() {
    let off = run_with(None, 42, 5.0);
    assert!(off.completed.len() > 10, "trace too light to mean anything");
    assert_eq!(off.telemetry_dropped, 0);
    assert!(off.telemetry.is_none());

    let on = run_with(Some(TelemetryConfig::default()), 42, 5.0);
    assert_eq!(off.digest(), on.digest(), "telemetry perturbed the run");

    let full = run_with(Some(TelemetryConfig::full_run()), 42, 5.0);
    assert_eq!(off.digest(), full.digest());

    let tiny = run_with(
        Some(TelemetryConfig {
            ring_capacity: 8,
            ..TelemetryConfig::default()
        }),
        42,
        5.0,
    );
    assert_eq!(off.digest(), tiny.digest());
}

/// Satellite: ring-wrap drops surface in the report without touching the
/// digest (asserted above) — and a roomy ring drops nothing.
#[test]
fn dropped_counter_counts_ring_wrap() {
    let tiny = run_with(
        Some(TelemetryConfig {
            ring_capacity: 8,
            ..TelemetryConfig::default()
        }),
        42,
        5.0,
    );
    let snap = tiny.telemetry.as_ref().expect("bus was enabled");
    assert!(
        tiny.telemetry_dropped > 0,
        "an 8-slot ring must wrap on this trace"
    );
    assert_eq!(snap.dropped, tiny.telemetry_dropped);
    assert_eq!(snap.events_buffered, 8, "ring stays at capacity after wrap");

    let roomy = run_with(Some(TelemetryConfig::default()), 42, 5.0);
    assert_eq!(roomy.telemetry_dropped, 0);
    let snap = roomy.telemetry.as_ref().unwrap();
    assert_eq!(
        snap.events_published, snap.events_buffered as u64,
        "nothing dropped ⇒ everything still buffered"
    );
}

/// Every completion produces exactly one flow record; the JSONL sink
/// writes one parseable line per record; the snapshot agrees with the
/// report on counts and leaves no flow open after drain.
#[test]
fn flow_records_cover_every_completion() {
    let path = std::env::temp_dir().join("hetis_telemetry_test_flows.jsonl");
    let report = run_with(
        Some(TelemetryConfig {
            jsonl_path: Some(path.to_str().unwrap().to_string()),
            ..TelemetryConfig::full_run()
        }),
        7,
        4.0,
    );
    let snap = report.telemetry.as_ref().expect("bus was enabled");
    assert_eq!(snap.completions, report.completed.len() as u64);
    assert_eq!(report.unfinished, 0);
    assert_eq!(snap.open_flows, 0, "drained run must close every flow");

    let text = std::fs::read_to_string(&path).expect("jsonl sink wrote the flow log");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), report.completed.len());
    for line in &lines {
        validate_json_line(line).expect("flow record line must be valid JSON");
    }
    // Spot-check identity: every completed request id appears in the log.
    for c in &report.completed {
        let needle = format!("\"req_id\":{},", c.id.0);
        assert!(
            text.contains(&needle),
            "completion {} missing from flow log",
            c.id.0
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The convergence gate: full-run windows feed the *same* latency samples
/// through the *same* percentile function as the report, so streaming
/// per-class percentiles equal report percentiles exactly — not within a
/// tolerance, `==`.
#[test]
fn full_run_streaming_p99_matches_report_exactly() {
    let report = run_with(Some(TelemetryConfig::full_run()), 1234, 6.0);
    let snap = report.telemetry.as_ref().expect("bus was enabled");
    let mut checked = 0;
    for s in report.class_stats() {
        if s.completed == 0 {
            continue;
        }
        let c = snap
            .class(s.class)
            .expect("class with completions has stats");
        assert_eq!(c.ttft.count, s.completed, "window holds every sample");
        assert_eq!(
            snap.p99_ttft(s.class),
            Some(s.p99_ttft),
            "streaming p99 TTFT diverged for {:?}",
            s.class
        );
        checked += 1;
    }
    assert!(checked > 0, "no class completed anything");
    // Cross-class totals line up too.
    let total: usize = snap.classes.iter().map(|c| c.ttft.count).sum();
    assert_eq!(total, report.completed.len());
    let _ = SloClass::ALL; // (imported for readers grepping class order)
}

/// The periodic tick populates the operational series: per-instance queue
/// depths and a cluster KV-occupancy sample, all timestamped within the
/// run; disabling the tick (`sample_period: 0.0`) leaves them empty while
/// lifecycle edges still flow.
#[test]
fn periodic_tick_samples_queues_and_kv() {
    let ticked = run_with(Some(TelemetryConfig::default()), 42, 5.0);
    let snap = ticked.telemetry.as_ref().unwrap();
    assert_eq!(snap.queue_depths.len(), 1, "one instance in the topo");
    let q = &snap.queue_depths[0];
    assert!(q.time > 0.0 && q.time <= snap.now);
    let kv = snap.kv.expect("tick samples KV occupancy");
    assert!(kv.pool_bytes > 0);
    assert!(kv.utilization() >= 0.0 && kv.utilization() <= 1.0);

    let untick = run_with(
        Some(TelemetryConfig {
            sample_period: 0.0,
            ..TelemetryConfig::default()
        }),
        42,
        5.0,
    );
    let snap = untick.telemetry.as_ref().unwrap();
    assert!(snap.queue_depths.is_empty());
    assert!(snap.kv.is_none());
    assert!(snap.completions > 0, "lifecycle edges still flow untick'd");
}
