//! Regression tests for the per-instance running counts
//! (`Engine::running_counts`), which the engine derives as each
//! instance's live requests less its waiting queue.
//!
//! In debug builds every admission round checks that count against a
//! scan of the request map (`debug_assert_eq!` inside `running_count`),
//! so driving the engine through each transition path — admission,
//! completion, recompute eviction, Splitwise hand-off (instance move
//! mid-running), churn eviction — exercises the equivalence thousands of
//! times. These tests additionally pin the terminal state: when
//! everything completed, every count is zero.

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::GpuType;
use hetis_engine::policy::StaticPolicy;
use hetis_engine::{
    ClusterEvent, ClusterEventKind, Engine, EngineConfig, Handoff, InstanceRole, InstanceTopo,
    Policy, PolicyCtx, StageTopo, Topology, VictimAction,
};
use hetis_model::llama_13b;
use hetis_parallel::StageConfig;
use hetis_workload::{DatasetKind, Poisson, Request, RequestId, TraceBuilder};

fn two_instance_topo(roles: (InstanceRole, InstanceRole)) -> Topology {
    let c = paper_cluster();
    let a100 = c.devices_of_type(GpuType::A100);
    Topology {
        instances: vec![
            InstanceTopo {
                stages: vec![StageTopo::plain(StageConfig {
                    devices: a100[..2].to_vec(),
                    layers: 40,
                })],
                role: roles.0,
            },
            InstanceTopo {
                stages: vec![StageTopo::plain(StageConfig {
                    devices: a100[2..].to_vec(),
                    layers: 40,
                })],
                role: roles.1,
            },
        ],
    }
}

/// Splitwise-shaped harness policy: instance 0 prefills, instance 1
/// decodes; every prefill hands off, moving the request's instance while
/// it is mid-running (the trickiest counter transition).
struct HandoffPolicy(StaticPolicy);

impl Policy for HandoffPolicy {
    fn name(&self) -> String {
        "handoff-test".into()
    }
    fn topology(
        &mut self,
        c: &hetis_cluster::Cluster,
        m: &hetis_model::ModelSpec,
        cfg: &EngineConfig,
    ) -> Topology {
        self.0.topology(c, m, cfg)
    }
    fn route(&mut self, req: &Request, ctx: &PolicyCtx<'_>) -> usize {
        self.0.route(req, ctx)
    }
    fn place_batch(
        &mut self,
        instance: usize,
        reqs: &[(RequestId, u32)],
        ctx: &PolicyCtx<'_>,
    ) -> Vec<Option<hetis_engine::HeadPlacement>> {
        self.0.place_batch(instance, reqs, ctx)
    }
    fn after_prefill(
        &mut self,
        instance: usize,
        _req: RequestId,
        _ctx: &PolicyCtx<'_>,
    ) -> Option<Handoff> {
        (instance == 0).then_some(Handoff { target_instance: 1 })
    }
    fn select_victim(
        &mut self,
        instance: usize,
        device: hetis_cluster::DeviceId,
        blocked: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> VictimAction {
        self.0.select_victim(instance, device, blocked, ctx)
    }
}

#[test]
fn counters_zero_after_clean_run() {
    let cluster = paper_cluster();
    let model = llama_13b();
    let topo = two_instance_topo((InstanceRole::Both, InstanceRole::Both));
    let trace = TraceBuilder::new(DatasetKind::ShareGpt, 7).build(&Poisson::new(4.0), 20.0);
    let n = trace.len();
    let mut engine = Engine::new(
        StaticPolicy::new("counters", topo),
        &cluster,
        &model,
        EngineConfig::default(),
        two_instance_topo((InstanceRole::Both, InstanceRole::Both)),
        &trace,
    );
    engine.run_to_completion();
    assert!(
        engine.running_counts().iter().all(|&c| c == 0),
        "counters must drain to zero: {:?}",
        engine.running_counts()
    );
    // Finished requests leave the engine's request map.
    assert!(
        engine.phase_summary().iter().all(|m| m.is_empty()),
        "finished requests kept: {:?}",
        engine.phase_summary()
    );
    let report = engine.into_report();
    assert_eq!(report.completed.len(), n);
}

#[test]
fn counters_follow_handoff_instance_moves() {
    let cluster = paper_cluster();
    let model = llama_13b();
    let topo = two_instance_topo((InstanceRole::PrefillOnly, InstanceRole::DecodeOnly));
    let trace = TraceBuilder::new(DatasetKind::ShareGpt, 11).build(&Poisson::new(4.0), 20.0);
    let n = trace.len();
    let mut engine = Engine::new(
        HandoffPolicy(StaticPolicy::new("handoff", topo.clone())),
        &cluster,
        &model,
        EngineConfig::default(),
        topo,
        &trace,
    );
    engine.run_to_completion();
    assert!(
        engine.running_counts().iter().all(|&c| c == 0),
        "counters must drain to zero after hand-offs: {:?}",
        engine.running_counts()
    );
    let report = engine.into_report();
    assert_eq!(
        report.completed.len(),
        n,
        "unfinished {}",
        report.unfinished
    );
    assert!(report.migrations > 0, "hand-offs must have moved KV");
}

#[test]
fn counters_survive_churn_evictions() {
    let cluster = paper_cluster();
    let model = llama_13b();
    let topo = two_instance_topo((InstanceRole::Both, InstanceRole::Both));
    let trace = TraceBuilder::new(DatasetKind::ShareGpt, 13).build(&Poisson::new(5.0), 25.0);
    // Kill one primary of instance 0 mid-run (downs the instance and
    // churn-evicts its residents), then bring it back.
    let dev = cluster.devices_of_type(GpuType::A100)[0];
    let events = vec![
        ClusterEvent {
            time: 8.0,
            device: dev,
            kind: ClusterEventKind::Fail,
        },
        ClusterEvent {
            time: 16.0,
            device: dev,
            kind: ClusterEventKind::Join,
        },
    ];
    let mut engine = Engine::new_with_churn(
        StaticPolicy::new("churny", topo.clone()),
        &cluster,
        &model,
        EngineConfig::default(),
        topo,
        &trace,
        &events,
    );
    engine.run_to_completion();
    assert!(
        engine.running_counts().iter().all(|&c| c == 0),
        "counters must drain to zero after churn: {:?}",
        engine.running_counts()
    );
    assert!(
        engine.phase_summary().iter().all(|m| m.is_empty()),
        "finished requests kept after churn: {:?}",
        engine.phase_summary()
    );
    let report = engine.into_report();
    assert!(report.churn_evictions > 0, "the failure must evict work");
    assert!(report.completed.len() + report.unfinished == trace.len());
}
