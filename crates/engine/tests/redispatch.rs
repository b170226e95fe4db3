//! Re-dispatch transfers: a request decodes again only once every source
//! of its re-dispatch has delivered its head groups.

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::{Cluster, DeviceId, MigrationStream};
use hetis_engine::{
    run, EngineConfig, HeadPlacement, InstanceRole, InstanceTopo, Phase, Policy, PolicyCtx,
    RedispatchOp, StageTopo, Topology, VictimAction,
};
use hetis_model::{llama_13b, ModelSpec};
use hetis_parallel::StageConfig;
use hetis_workload::{DatasetKind, Request, RequestId, Trace};
use std::cell::Cell;
use std::rc::Rc;

/// The primary: an A100 on host 0.
const A: DeviceId = DeviceId(0);
/// The destination: an A100 attention worker on the same host.
const C: DeviceId = DeviceId(1);
/// A P100 attention worker on another host: its link to C is slower.
const B: DeviceId = DeviceId(8);
const LAYERS: u32 = 40;
const REQ: RequestId = RequestId(0);

/// Places the request's 40 heads on A and B, then, once it decodes,
/// re-dispatches it to A and C: A and B both shrink, C grows. Records
/// when B's transfer to C lands and when the request decodes again.
struct MoveToC {
    lands: Rc<Cell<Option<f64>>>,
    resumed: Rc<Cell<Option<f64>>>,
}

impl Policy for MoveToC {
    fn name(&self) -> String {
        "move-to-c".into()
    }

    fn topology(&mut self, _: &Cluster, _: &ModelSpec, _: &EngineConfig) -> Topology {
        let mut stage = StageTopo::plain(StageConfig {
            devices: vec![A],
            layers: LAYERS,
        });
        stage.attention_workers = vec![C, B];
        Topology {
            instances: vec![InstanceTopo {
                stages: vec![stage],
                role: InstanceRole::Both,
            }],
        }
    }

    fn route(&mut self, _: &Request, _: &PolicyCtx<'_>) -> usize {
        0
    }

    fn place_batch(
        &mut self,
        _: usize,
        reqs: &[(RequestId, u32)],
        _: &PolicyCtx<'_>,
    ) -> Vec<Option<HeadPlacement>> {
        let p = HeadPlacement {
            per_stage: vec![vec![(A, 20), (B, 20)]],
        };
        reqs.iter().map(|_| Some(p.clone())).collect()
    }

    fn before_decode(&mut self, _: usize, ctx: &PolicyCtx<'_>) -> Vec<RedispatchOp> {
        let Some(r) = ctx.requests.get(&REQ) else {
            return Vec::new();
        };
        if r.phase != Phase::Decoding || r.in_flight {
            return Vec::new();
        }
        if r.redispatches > 0 {
            if self.resumed.get().is_none() {
                self.resumed.set(Some(ctx.now));
            }
            return Vec::new();
        }
        // B's 20 groups go to C on an idle path, starting now.
        let e = ctx.kv.device(B).entry(REQ, 0).expect("B holds KV");
        assert_eq!(e.groups, 20);
        let bytes = ctx.kv.device(B).entry_bytes(&e) as f64;
        let link = ctx.cluster.link(B, C);
        let lands = MigrationStream::new().schedule(B.0, C.0, link, bytes, ctx.now);
        self.lands.set(Some(lands));
        vec![RedispatchOp {
            req: REQ,
            new_placement: HeadPlacement {
                per_stage: vec![vec![(A, 10), (C, 30)]],
            },
        }]
    }

    fn select_victim(
        &mut self,
        _: usize,
        _: DeviceId,
        _: RequestId,
        _: &PolicyCtx<'_>,
    ) -> VictimAction {
        VictimAction::Stall
    }
}

#[test]
fn redispatch_waits_for_the_slowest_source() {
    let cluster = paper_cluster();
    assert_ne!(cluster.device(B).host, cluster.device(C).host);
    assert_eq!(cluster.device(A).host, cluster.device(C).host);
    let model = llama_13b();
    let trace = Trace::from_requests(
        vec![Request {
            id: REQ,
            arrival: 0.0,
            input_len: 512,
            output_len: 64,
            class: Default::default(),
            tenant: Default::default(),
            session: None,
        }],
        DatasetKind::ShareGpt,
    );
    let lands = Rc::new(Cell::new(None));
    let resumed = Rc::new(Cell::new(None));
    let policy = MoveToC {
        lands: lands.clone(),
        resumed: resumed.clone(),
    };
    let report = run(policy, &cluster, &model, EngineConfig::default(), &trace);
    assert_eq!(report.completed.len(), 1);
    // The post-prefill scatter to B, then the re-dispatch.
    assert_eq!(report.migrations, 2);
    let lands = lands.get().expect("re-dispatch issued");
    let resumed = resumed.get().expect("request decoded again");
    assert!(
        resumed >= lands,
        "resumed at {resumed} s, before B's groups landed on C at {lands} s"
    );
}
