//! End-to-end elasticity properties: bit-for-bit determinism under a
//! seeded churn scenario, no lost requests across preemptions, and KV
//! draining on preemption notices.

use hetis_cluster::cluster::{ablation_cluster, paper_cluster};
use hetis_cluster::GpuType;
use hetis_core::{HetisConfig, HetisPolicy, WorkloadProfile};
use hetis_elastic::{elastic_hetis, ChurnScenario, ElasticController, ElasticPolicy};
use hetis_engine::{
    ClusterEvent, ClusterEventKind, EngineConfig, InstanceRole, InstanceTopo, StageTopo, Topology,
};
use hetis_model::llama_13b;
use hetis_parallel::StageConfig;
use hetis_workload::DatasetKind;

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        drain_timeout: 300.0,
        ..EngineConfig::default()
    }
}

/// A100 primary with two 3090 attention workers (the Fig. 14 layout) on
/// the ablation cluster — guarantees worker-resident KV.
fn worker_heavy_policy(profile: WorkloadProfile) -> ElasticPolicy<HetisPolicy> {
    let cluster = ablation_cluster();
    let a100 = cluster.devices_of_type(GpuType::A100)[0];
    let workers = cluster.devices_of_type(GpuType::Rtx3090);
    let mut stage = StageTopo::plain(StageConfig {
        devices: vec![a100],
        layers: 40,
    });
    stage.attention_workers = workers;
    let topo = Topology {
        instances: vec![InstanceTopo {
            stages: vec![stage],
            role: InstanceRole::Both,
        }],
    };
    let cfg = HetisConfig::default();
    ElasticPolicy::with_controller(
        HetisPolicy::new(cfg.clone(), profile).with_fixed_topology(topo),
        ElasticController::new(cfg, profile),
    )
}

#[test]
fn storm_scenario_is_bit_for_bit_deterministic() {
    let cluster = paper_cluster();
    let model = llama_13b();
    let profile = WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 48);
    let scenario = ChurnScenario::preemption_storm(
        &cluster,
        DatasetKind::ShareGpt,
        21,
        2.0,
        40.0,
        GpuType::P100,
        10.0,
        5.0,
        8.0,
        Some(12.0),
        2.0,
    );
    let run = || {
        scenario.run(
            elastic_hetis(HetisConfig::default(), profile),
            &cluster,
            &model,
            engine_cfg(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.digest(), b.digest(), "same seed must reproduce the run");
    assert_eq!(a.completed.len(), b.completed.len());
    assert_eq!(a.replans.len(), b.replans.len());
    assert!(!a.replans.is_empty(), "the storm must actually fire");
}

#[test]
fn preemption_mid_decode_never_loses_a_request() {
    let cluster = ablation_cluster();
    let model = llama_13b();
    let profile = WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 24);
    // Abrupt failure of one 3090 worker mid-run: every request whose KV
    // touched it must recompute and still complete.
    let victim = cluster.devices_of_type(GpuType::Rtx3090)[0];
    let events = vec![ClusterEvent {
        time: 8.0,
        device: victim,
        kind: ClusterEventKind::Fail,
    }];
    let scenario = ChurnScenario::custom(
        DatasetKind::ShareGpt,
        17,
        &hetis_workload::Poisson::new(2.0),
        20.0,
        events,
    );
    let report = scenario.run(worker_heavy_policy(profile), &cluster, &model, engine_cfg());
    assert_eq!(
        report.completed.len() + report.unfinished,
        scenario.trace.len()
    );
    assert_eq!(
        report.unfinished, 0,
        "every request must complete after the re-plan"
    );
    assert!(
        report.churn_evictions > 0,
        "the failure must have hit resident KV (churn_evictions = 0)"
    );
    assert!(report.lost_tokens > 0);
}

#[test]
fn preemption_notice_drains_kv_ahead_of_revocation() {
    let cluster = ablation_cluster();
    let model = llama_13b();
    let profile = WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 24);
    let victim = cluster.devices_of_type(GpuType::Rtx3090)[1];
    // Generous notice: the controller should move KV off the device
    // incrementally before revocation.
    let events = vec![ClusterEvent {
        time: 8.0,
        device: victim,
        kind: ClusterEventKind::PreemptNotice { notice: 6.0 },
    }];
    let scenario = ChurnScenario::custom(
        DatasetKind::ShareGpt,
        19,
        &hetis_workload::Poisson::new(2.0),
        20.0,
        events,
    );
    let with_drain = scenario.run(worker_heavy_policy(profile), &cluster, &model, engine_cfg());
    assert_eq!(with_drain.unfinished, 0);
    assert!(with_drain.replans[0].event.starts_with("preempt("));
    assert!(with_drain.replans[0].replan_latency > 0.0);
    // Revocation is recorded as a separate forced event.
    assert!(with_drain
        .replans
        .iter()
        .any(|r| r.event.starts_with("revoke(")));

    // Ablation: the identical scenario without draining must lose
    // strictly more work at revocation.
    let cfg = HetisConfig::default();
    let no_drain_policy = ElasticPolicy::with_controller(
        worker_heavy_policy(profile).into_inner(),
        ElasticController::new(cfg, profile).with_config(hetis_elastic::ElasticConfig {
            drain_on_notice: false,
        }),
    );
    let without = scenario.run(no_drain_policy, &cluster, &model, engine_cfg());
    assert_eq!(without.unfinished, 0);
    assert!(
        with_drain.lost_tokens < without.lost_tokens,
        "draining must save work: with={} without={}",
        with_drain.lost_tokens,
        without.lost_tokens
    );
}

#[test]
fn down_instance_requests_reroute_to_survivors() {
    let cluster = paper_cluster();
    let model = llama_13b();
    let profile = WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 48);
    // Kill one A100 mid-run. If the search went data-parallel, one
    // instance goes Down and its requests must finish elsewhere; if there
    // is a single instance, nothing can complete after the failure and
    // the run must still terminate cleanly.
    let victim = cluster.devices_of_type(GpuType::A100)[0];
    let events = vec![ClusterEvent {
        time: 10.0,
        device: victim,
        kind: ClusterEventKind::Fail,
    }];
    let scenario = ChurnScenario::custom(
        DatasetKind::ShareGpt,
        23,
        &hetis_workload::Poisson::new(2.0),
        25.0,
        events,
    );
    let report = scenario.run(
        elastic_hetis(HetisConfig::default(), profile),
        &cluster,
        &model,
        engine_cfg(),
    );
    assert!(!report.replans.is_empty());
    assert_eq!(
        report.completed.len() + report.unfinished,
        scenario.trace.len()
    );
}
