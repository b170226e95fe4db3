//! Live telemetry during a request storm: an interactive tenant bursts
//! to 3× its base rate while a batch tenant streams long prompts, and the
//! example polls the streaming telemetry bus *mid-run* — queue depths,
//! KV occupancy and sliding-window p99 TTFT — while every finished
//! request lands in a JSONL flow log.
//!
//! ```bash
//! cargo run --release --example live_telemetry
//! ```
//!
//! The `snapshot-ok` / `jsonl-ok` markers at the end are grepped by
//! `ci/scenario_gate.sh` as the telemetry-enabled smoke gate.

use hetis::cluster::cluster::paper_cluster;
use hetis::cluster::GpuType;
use hetis::engine::policy::StaticPolicy;
use hetis::engine::{
    AdmissionPolicy, Engine, EngineConfig, InstanceRole, InstanceTopo, StageTopo, Topology,
};
use hetis::model::llama_13b;
use hetis::parallel::StageConfig;
use hetis::telemetry::{validate_json_line, TelemetryConfig};
use hetis::workload::{multi_tenant_trace, DatasetKind, SloClass, TenantId, TenantSpec};

fn main() {
    let cluster = paper_cluster();
    let model = llama_13b();

    // 1. The storm: a chat tenant at 6 req/s that bursts to 18 req/s
    //    over [20 s, 30 s), plus a steady long-context batch tenant.
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
    println!(
        "storm: {} requests over 60 s (burst at t=20 s)",
        trace.len()
    );

    // 2. Telemetry on: 1-second queue/KV sampling, 15-second latency
    //    windows, flow log to target/.
    std::fs::create_dir_all("target").expect("create target/");
    let flow_log = "target/live_telemetry_flows.jsonl";
    let cfg = EngineConfig {
        prefill_chunk_tokens: Some(512),
        admission: AdmissionPolicy::SloSlack,
        telemetry: Some(TelemetryConfig {
            window_secs: 15.0,
            jsonl_path: Some(flow_log.to_string()),
            ..TelemetryConfig::default()
        }),
        ..EngineConfig::default()
    };
    let topo = Topology {
        instances: vec![InstanceTopo {
            stages: vec![StageTopo::plain(StageConfig {
                devices: cluster.devices_of_type(GpuType::A100),
                layers: 40,
            })],
            role: InstanceRole::Both,
        }],
    };
    let mut engine = Engine::new(
        StaticPolicy::new("vllm", topo.clone()),
        &cluster,
        &model,
        cfg,
        topo,
        &trace,
    );

    // 3. Drive the simulation step by step, polling the bus every 5
    //    simulated seconds and keeping the deepest queue seen (the
    //    simplest scale-pressure signal).
    let (mut polls, mut max_depth) = (0, 0);
    println!("\n  t(s)  completions  open  queue  kv-util  p99-ttft(interactive, 15s window)");
    let mut next_poll = 5.0;
    while engine.step() {
        let snap = engine.telemetry_snapshot().expect("telemetry is enabled");
        if snap.now < next_poll {
            continue;
        }
        next_poll += 5.0;
        let depth = snap.max_queue_depth();
        polls += 1;
        max_depth = max_depth.max(depth);
        let util = snap.kv.map(|k| k.utilization()).unwrap_or(0.0);
        let p99 = snap.p99_ttft(SloClass::Interactive);
        println!(
            "  {:>4.0}  {:>11}  {:>4}  {:>5}  {:>6.1}%  {}",
            snap.now,
            snap.completions,
            snap.open_flows,
            depth,
            100.0 * util,
            p99.map(|v| format!("{v:.3} s"))
                .unwrap_or_else(|| "-".into()),
        );
    }

    // 4. End of run: the final snapshot rides the report, the flow log
    //    holds one record per completion.
    let report = engine.into_report();
    let snap = report.telemetry.as_ref().expect("telemetry is enabled");
    println!(
        "\nrun done: {} completed, {} events published",
        report.completed.len(),
        snap.events_published,
    );
    println!("polled {polls} snapshots, max queue depth {max_depth}");
    assert!(!snap.is_empty(), "bus saw no events");
    assert_eq!(snap.completions, report.completed.len() as u64);
    println!(
        "snapshot-ok: {} completions aggregated live",
        snap.completions
    );

    let text = std::fs::read_to_string(flow_log).expect("flow log written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        report.completed.len(),
        "one record per completion"
    );
    for line in &lines {
        validate_json_line(line).expect("flow record is valid JSON");
    }
    println!("\nflow-log tail ({flow_log}):");
    for line in lines.iter().rev().take(3).rev() {
        println!("  {line}");
    }
    println!("jsonl-ok: {} flow records validated", lines.len());
}
