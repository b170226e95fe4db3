//! Helix (arXiv 2406.01566): max-flow request routing over heterogeneous
//! GPUs and network.
//!
//! Helix models the cluster as a flow network — per-device compute
//! capacities as node-split arcs, network links as bandwidth arcs — and
//! serves along a *static* routing plan that realizes the network's
//! maximum flow. It is the strongest published global-routing competitor
//! to Hetis: where Hetis re-balances attention head-by-head every
//! iteration, Helix commits to the best coarse token-rate split the
//! topology admits and never looks at the live queue.
//!
//! Three pieces, mirroring the paper's decomposition:
//!
//! * [`FlowNetwork`] — integer-capacity max flow via Edmonds–Karp (BFS
//!   augmenting paths), the textbook core the planner and the property
//!   suite both exercise.
//! * [`HelixPlanner`] — derives the network from the existing cluster +
//!   link model (device FLOP/s → tokens/s arcs, alpha–beta link
//!   bandwidth → inter-stage arcs) for a candidate model partition.
//! * [`HelixPolicy`] — searches the same partition space as HexGen but
//!   scores candidates by *max-flow value* instead of iteration cost,
//!   then routes requests by smooth weighted round-robin over each
//!   instance's planned flow share. Placement stays stage-local and
//!   preemption LIFO: no dynamic parallelism, exactly the ablation axis
//!   the race scenarios measure.

use hetis_cluster::{Cluster, DeviceId};
use hetis_engine::policy::StaticPolicy;
use hetis_engine::{
    EngineConfig, HeadPlacement, InstanceRole, InstanceTopo, Policy, PolicyCtx, StageTopo,
    Topology, VictimAction,
};
use hetis_model::ModelSpec;
use hetis_parallel::{
    balance_layers, dp_groupings, kv_pool_bytes, tp_pp_shapes, CostModel, InstanceConfig,
    ParallelConfig, StageConfig,
};
use hetis_workload::{Request, RequestId};

/// Arc capacity used for "unbounded" source/sink edges — large enough to
/// never bind, small enough that augmenting sums cannot overflow.
const UNBOUNDED: u64 = u64::MAX / 8;

/// An integer-capacity flow network with Edmonds–Karp max flow.
///
/// Edges are stored in forward/reverse pairs (edge `e` and `e ^ 1`);
/// capacities are residual, so the flow on a forward edge is its original
/// capacity minus the residual. BFS scans adjacency in insertion order,
/// making the maximum flow — value *and* assignment — deterministic for a
/// given construction order.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// Per-node adjacency: indices into `to`/`cap`.
    adj: Vec<Vec<usize>>,
    /// Head node of each directed edge.
    to: Vec<usize>,
    /// Residual capacity of each directed edge.
    cap: Vec<u64>,
    /// Original capacity of each directed edge (reverse edges start at 0).
    cap0: Vec<u64>,
}

impl FlowNetwork {
    /// An empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            to: Vec::new(),
            cap: Vec::new(),
            cap0: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.adj.len()
    }

    /// Appends a fresh node, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Adds a directed edge `u → v` with capacity `cap`, returning its id
    /// (the paired residual reverse edge is `id ^ 1`).
    pub fn add_edge(&mut self, u: usize, v: usize, cap: u64) -> usize {
        let id = self.to.len();
        self.to.push(v);
        self.cap.push(cap);
        self.cap0.push(cap);
        self.adj[u].push(id);
        self.to.push(u);
        self.cap.push(0);
        self.cap0.push(0);
        self.adj[v].push(id + 1);
        id
    }

    /// Flow currently assigned to forward edge `e`.
    pub fn flow(&self, e: usize) -> u64 {
        self.cap0[e] - self.cap[e]
    }

    /// Original capacity of edge `e`.
    pub fn capacity(&self, e: usize) -> u64 {
        self.cap0[e]
    }

    /// All forward edges as `(id, from, to, capacity, flow)`.
    pub fn forward_edges(&self) -> Vec<(usize, usize, usize, u64, u64)> {
        let mut out = Vec::with_capacity(self.to.len() / 2);
        for (u, edges) in self.adj.iter().enumerate() {
            for &e in edges {
                if e % 2 == 0 {
                    out.push((e, u, self.to[e], self.cap0[e], self.flow(e)));
                }
            }
        }
        out.sort_by_key(|&(e, ..)| e);
        out
    }

    /// Net flow out of `node` (outgoing minus incoming). Zero at every
    /// node except the source (positive) and sink (negative) once a flow
    /// is assigned — the conservation property the test suite pins.
    pub fn net_flow(&self, node: usize) -> i128 {
        let mut net: i128 = 0;
        for (e, u, v, _, f) in self.forward_edges() {
            let _ = e;
            if u == node {
                net += f as i128;
            }
            if v == node {
                net -= f as i128;
            }
        }
        net
    }

    /// Edmonds–Karp: repeatedly augments along a BFS-shortest residual
    /// path until none remains. Returns the maximum flow value.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        assert!(s != t, "source and sink must differ");
        let n = self.nodes();
        let mut total: u64 = 0;
        loop {
            // BFS for the shortest augmenting path, recording the edge
            // used to reach each node.
            let mut pred: Vec<Option<usize>> = vec![None; n];
            let mut seen = vec![false; n];
            seen[s] = true;
            let mut queue = std::collections::VecDeque::from([s]);
            'bfs: while let Some(u) = queue.pop_front() {
                for &e in &self.adj[u] {
                    let v = self.to[e];
                    if !seen[v] && self.cap[e] > 0 {
                        seen[v] = true;
                        pred[v] = Some(e);
                        if v == t {
                            break 'bfs;
                        }
                        queue.push_back(v);
                    }
                }
            }
            if !seen[t] {
                return total;
            }
            // Bottleneck along the path, then augment.
            let mut bottleneck = u64::MAX;
            let mut v = t;
            while v != s {
                let e = pred[v].expect("path edge");
                bottleneck = bottleneck.min(self.cap[e]);
                v = self.to[e ^ 1];
            }
            let mut v = t;
            while v != s {
                let e = pred[v].expect("path edge");
                self.cap[e] -= bottleneck;
                self.cap[e ^ 1] += bottleneck;
                v = self.to[e ^ 1];
            }
            total += bottleneck;
        }
    }

    /// A greedy feasible flow: augments along BFS paths using *forward
    /// residual capacity only* (no flow cancellation), so it can get
    /// stuck below the optimum. The property suite uses it as the lower
    /// bound any true max flow must dominate.
    pub fn greedy_flow(&mut self, s: usize, t: usize) -> u64 {
        assert!(s != t, "source and sink must differ");
        let n = self.nodes();
        let mut total: u64 = 0;
        loop {
            let mut pred: Vec<Option<usize>> = vec![None; n];
            let mut seen = vec![false; n];
            seen[s] = true;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &e in &self.adj[u] {
                    let v = self.to[e];
                    // Forward edges only: greedy never undoes a decision.
                    if e % 2 == 0 && !seen[v] && self.cap[e] > 0 {
                        seen[v] = true;
                        pred[v] = Some(e);
                        queue.push_back(v);
                    }
                }
            }
            if !seen[t] {
                return total;
            }
            let mut bottleneck = u64::MAX;
            let mut v = t;
            while v != s {
                let e = pred[v].expect("path edge");
                bottleneck = bottleneck.min(self.cap[e]);
                v = self.to[e ^ 1];
            }
            let mut v = t;
            while v != s {
                let e = pred[v].expect("path edge");
                self.cap[e] -= bottleneck;
                self.cap[e ^ 1] += bottleneck;
                v = self.to[e ^ 1];
            }
            total += bottleneck;
        }
    }
}

/// The static routing plan a max-flow solve produces: a sustainable token
/// rate per serving instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePlan {
    /// Planned tokens/s per instance (0 for instances the flow skips).
    pub instance_rate: Vec<u64>,
    /// Total max-flow value (tokens/s the whole cluster sustains).
    pub total_rate: u64,
}

/// Builds flow networks from the cluster + link model for a candidate
/// partition and extracts routing plans from their maximum flows.
pub struct HelixPlanner;

impl HelixPlanner {
    /// Effective dense-compute FLOPs one token costs through a stage of
    /// `layers` transformer layers (forward pass ≈ 2 FLOPs per parameter).
    fn stage_flops_per_token(model: &ModelSpec, layers: u32) -> f64 {
        2.0 * model.params_per_layer() as f64 * layers.max(1) as f64
    }

    /// Activation bytes one token carries across an inter-stage boundary.
    fn activation_bytes_per_token(model: &ModelSpec) -> f64 {
        (model.hidden_size * model.dtype.bytes()) as f64
    }

    /// Constructs the flow network of a topology: source → per-instance
    /// entry arcs → per-device compute arcs (node-split, capacity in
    /// tokens/s from `dense_flops`) per stage → inter-stage arcs capped by
    /// the best link bandwidth between consecutive stage groups → sink.
    ///
    /// Returns the network, the source and sink nodes, and the id of each
    /// instance's source arc (whose flow is that instance's planned rate).
    pub fn build_network(
        cluster: &Cluster,
        model: &ModelSpec,
        topology: &Topology,
    ) -> (FlowNetwork, usize, usize, Vec<usize>) {
        let mut net = FlowNetwork::new(2);
        let (source, sink) = (0, 1);
        let mut entry_arcs = Vec::with_capacity(topology.instances.len());
        for inst in &topology.instances {
            if inst.role == InstanceRole::Down || inst.stages.is_empty() {
                entry_arcs.push(usize::MAX);
                continue;
            }
            let mut prev_out: Option<(usize, &StageTopo)> = None;
            let mut entry_arc = usize::MAX;
            for stage in &inst.stages {
                let s_in = net.add_node();
                let s_out = net.add_node();
                // Node-split per device: each primary device contributes
                // its share of the stage's token rate as its own arc, so
                // per-device compute capacity is visible to the flow.
                let flops_per_token = Self::stage_flops_per_token(model, stage.primary.layers);
                for &d in &stage.primary.devices {
                    let rate = cluster.spec(d).dense_flops / flops_per_token;
                    net.add_edge(s_in, s_out, (rate as u64).max(1));
                }
                match prev_out {
                    None => entry_arc = net.add_edge(source, s_in, UNBOUNDED),
                    Some((prev, prev_stage)) => {
                        let cap = Self::link_tokens_per_s(
                            cluster,
                            model,
                            &prev_stage.primary.devices,
                            &stage.primary.devices,
                        );
                        net.add_edge(prev, s_in, cap);
                    }
                }
                prev_out = Some((s_out, stage));
            }
            if let Some((last, _)) = prev_out {
                net.add_edge(last, sink, UNBOUNDED);
            }
            entry_arcs.push(entry_arc);
        }
        (net, source, sink, entry_arcs)
    }

    /// Tokens/s an inter-stage boundary sustains: the best point-to-point
    /// bandwidth between the two device groups (the router picks the best
    /// path) divided by the per-token activation payload.
    fn link_tokens_per_s(
        cluster: &Cluster,
        model: &ModelSpec,
        from: &[DeviceId],
        to: &[DeviceId],
    ) -> u64 {
        let bytes = Self::activation_bytes_per_token(model);
        let mut best: f64 = 0.0;
        for &a in from {
            for &b in to {
                let link = cluster.link(a, b);
                let bw = if link.beta > 0.0 {
                    link.bandwidth()
                } else {
                    // Loopback (same device): effectively unbounded.
                    return UNBOUNDED;
                };
                best = best.max(bw);
            }
        }
        ((best / bytes) as u64).max(1)
    }

    /// Solves the max flow of `topology` and reads off the per-instance
    /// routing plan.
    pub fn plan(cluster: &Cluster, model: &ModelSpec, topology: &Topology) -> RoutePlan {
        let (mut net, source, sink, entry_arcs) = Self::build_network(cluster, model, topology);
        let total_rate = net.max_flow(source, sink);
        let instance_rate = entry_arcs
            .iter()
            .map(|&e| if e == usize::MAX { 0 } else { net.flow(e) })
            .collect();
        RoutePlan {
            instance_rate,
            total_rate,
        }
    }
}

/// The Helix policy: max-flow placement + static flow-weighted routing.
pub struct HelixPolicy {
    /// The routing plan, computed once from the startup topology.
    plan: Option<RoutePlan>,
    /// Smooth weighted round-robin state (one credit per instance).
    credits: Vec<i128>,
}

impl HelixPolicy {
    /// A fresh Helix policy (plans at topology construction).
    pub fn new() -> Self {
        HelixPolicy {
            plan: None,
            credits: Vec::new(),
        }
    }

    /// The routing plan, once `topology` has run.
    pub fn plan(&self) -> Option<&RoutePlan> {
        self.plan.as_ref()
    }

    /// The placement search: enumerates the same DP groupings × TP/PP
    /// shapes × balanced layer splits as HexGen, but scores each feasible
    /// candidate by its **max-flow value** (ties broken toward lower
    /// iteration cost, then stable enumeration order) — Helix places the
    /// model to maximize what its router can push, not to minimize one
    /// batch's latency.
    pub fn search(cluster: &Cluster, model: &ModelSpec) -> Topology {
        let cost_model = CostModel::new(cluster, model);
        let probe = hetis_parallel::DecodeBatch {
            seqs: 64,
            sum_context: 64 * 512,
        };
        let mut best: Option<(u64, f64, Vec<InstanceConfig>)> = None;

        for dp in hetis_parallel::enumerate::candidate_dp_degrees(cluster) {
            let Some(instances) = dp_groupings(cluster, dp) else {
                continue;
            };
            let groups = &instances[0];
            let per_type: Vec<Vec<Vec<Vec<DeviceId>>>> = groups
                .iter()
                .map(|g| tp_pp_shapes(cluster, &g.devices))
                .collect();
            if per_type.iter().any(|s| s.is_empty()) {
                continue;
            }
            let mut idx = vec![0usize; per_type.len()];
            'combos: loop {
                let chain: Vec<Vec<DeviceId>> = idx
                    .iter()
                    .enumerate()
                    .flat_map(|(t, &i)| per_type[t][i].iter().cloned())
                    .collect();
                let n_stages = chain.len() as u32;
                let tp_ok = chain.iter().all(|g| {
                    let tp = g.len() as u32;
                    model.num_heads.is_multiple_of(tp) && tp <= model.num_kv_heads
                });
                if tp_ok && n_stages >= 1 && model.num_layers >= n_stages {
                    let speeds: Vec<f64> = chain
                        .iter()
                        .map(|g| g.iter().map(|&d| cluster.spec(d).dense_flops).sum())
                        .collect();
                    let layers = balance_layers(model.num_layers, &speeds);
                    let inst0 = InstanceConfig {
                        stages: chain
                            .iter()
                            .zip(&layers)
                            .map(|(g, &l)| StageConfig {
                                devices: g.clone(),
                                layers: l,
                            })
                            .collect(),
                    };
                    if let Some(all) = crate::hexgen::replicate_shape(cluster, &instances, &inst0) {
                        let pcfg = ParallelConfig {
                            instances: all.clone(),
                        };
                        if kv_pool_bytes(cluster, &pcfg, model).is_ok() {
                            let topo = Self::instances_to_topology(&all);
                            let flow = HelixPlanner::plan(cluster, model, &topo).total_rate;
                            let cost = cost_model.decode_iteration(&all[0], &probe);
                            let better = match &best {
                                None => true,
                                Some((bf, bc, _)) => flow > *bf || (flow == *bf && cost < *bc),
                            };
                            if better {
                                best = Some((flow, cost, all));
                            }
                        }
                    }
                }
                let mut t = 0;
                loop {
                    if t == idx.len() {
                        break 'combos;
                    }
                    idx[t] += 1;
                    if idx[t] < per_type[t].len() {
                        break;
                    }
                    idx[t] = 0;
                    t += 1;
                }
            }
        }

        let (_, _, instances) = best.expect("Helix found no feasible placement");
        Self::instances_to_topology(&instances)
    }

    fn instances_to_topology(instances: &[InstanceConfig]) -> Topology {
        Topology {
            instances: instances
                .iter()
                .map(|i| InstanceTopo {
                    stages: i.stages.iter().cloned().map(StageTopo::plain).collect(),
                    role: InstanceRole::Both,
                })
                .collect(),
        }
    }
}

impl Default for HelixPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for HelixPolicy {
    fn name(&self) -> String {
        "helix".into()
    }

    fn topology(&mut self, cluster: &Cluster, model: &ModelSpec, _cfg: &EngineConfig) -> Topology {
        let topo = Self::search(cluster, model);
        let plan = HelixPlanner::plan(cluster, model, &topo);
        self.credits = vec![0; plan.instance_rate.len()];
        self.plan = Some(plan);
        topo
    }

    fn route(&mut self, _req: &Request, ctx: &PolicyCtx<'_>) -> usize {
        // Smooth weighted round-robin over the planned per-instance flow:
        // each entry instance accrues credit proportional to its planned
        // rate; the richest entry serves and pays the full round back.
        // Degenerates to plain round-robin when the plan is flat, stays
        // deterministic always, and skips instances the engine downed.
        let entries = ctx.topology.entry_instances();
        let plan = self.plan.as_ref().expect("topology() planned the flow");
        if self.credits.len() < ctx.topology.instances.len() {
            self.credits.resize(ctx.topology.instances.len(), 0);
        }
        let weight = |i: usize| -> i128 {
            plan.instance_rate
                .get(i)
                .copied()
                .map(|w| w.max(1) as i128)
                .unwrap_or(1)
        };
        let total: i128 = entries.iter().map(|&i| weight(i)).sum();
        let mut pick = entries[0];
        for &i in &entries {
            self.credits[i] += weight(i);
            if self.credits[i] > self.credits[pick] {
                pick = i;
            }
        }
        self.credits[pick] -= total;
        pick
    }

    fn place_batch(
        &mut self,
        instance: usize,
        reqs: &[(RequestId, u32)],
        ctx: &PolicyCtx<'_>,
    ) -> Vec<Option<HeadPlacement>> {
        let stages = &ctx.topology.instances[instance].stages;
        let p = HeadPlacement::stage_local(stages, ctx.model.num_heads);
        reqs.iter().map(|_| Some(p.clone())).collect()
    }

    fn select_victim(
        &mut self,
        instance: usize,
        _device: DeviceId,
        _blocked: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> VictimAction {
        match StaticPolicy::lifo_victim_anywhere(instance, ctx) {
            Some(v) => VictimAction::Evict(v),
            None => VictimAction::Stall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_cluster::cluster::paper_cluster;
    use hetis_engine::run;
    use hetis_model::{llama_13b, llama_70b};
    use hetis_workload::{DatasetKind, Poisson, TraceBuilder};

    #[test]
    fn edmonds_karp_textbook_network() {
        // CLRS figure: max flow 23.
        let mut n = FlowNetwork::new(6);
        n.add_edge(0, 1, 16);
        n.add_edge(0, 2, 13);
        n.add_edge(1, 2, 10);
        n.add_edge(2, 1, 4);
        n.add_edge(1, 3, 12);
        n.add_edge(3, 2, 9);
        n.add_edge(2, 4, 14);
        n.add_edge(4, 3, 7);
        n.add_edge(3, 5, 20);
        n.add_edge(4, 5, 4);
        assert_eq!(n.max_flow(0, 5), 23);
        // Conservation at every interior node.
        for v in 1..5 {
            assert_eq!(n.net_flow(v), 0, "node {v}");
        }
        assert_eq!(n.net_flow(0), 23);
        assert_eq!(n.net_flow(5), -23);
        // Capacity respected everywhere.
        for (e, _, _, cap, flow) in n.forward_edges() {
            assert!(flow <= cap, "edge {e}: {flow} > {cap}");
        }
    }

    #[test]
    fn greedy_is_dominated_by_max_flow() {
        // The classic trap: greedy sends 1 unit through the cross edge
        // and strands capacity; max flow recovers it.
        let build = || {
            let mut n = FlowNetwork::new(4);
            n.add_edge(0, 1, 1);
            n.add_edge(0, 2, 1);
            n.add_edge(1, 2, 1);
            n.add_edge(1, 3, 1);
            n.add_edge(2, 3, 1);
            n
        };
        let greedy = build().greedy_flow(0, 3);
        let max = build().max_flow(0, 3);
        assert!(max >= greedy);
        assert_eq!(max, 2);
    }

    #[test]
    fn plan_is_deterministic_and_positive() {
        let c = paper_cluster();
        let m = llama_70b();
        let t = HelixPolicy::search(&c, &m);
        let a = HelixPlanner::plan(&c, &m, &t);
        let b = HelixPlanner::plan(&c, &m, &t);
        assert_eq!(a, b);
        assert!(a.total_rate > 0);
        assert_eq!(
            a.instance_rate.iter().sum::<u64>(),
            a.total_rate,
            "entry arcs carry the whole flow"
        );
    }

    #[test]
    fn search_uses_every_gpu_for_70b() {
        let c = paper_cluster();
        let m = llama_70b();
        let t = HelixPolicy::search(&c, &m);
        let used: usize = t
            .instances
            .iter()
            .map(|i| i.stages.iter().map(|s| s.primary.tp()).sum::<usize>())
            .sum();
        assert_eq!(used, 12, "Helix must not leave GPUs idle");
        for i in &t.instances {
            for s in &i.stages {
                assert!(s.attention_workers.is_empty(), "static parallelism only");
            }
        }
    }

    #[test]
    fn serves_a_trace() {
        let c = paper_cluster();
        let m = llama_13b();
        let trace = TraceBuilder::new(DatasetKind::ShareGpt, 77).build(&Poisson::new(2.0), 20.0);
        let n = trace.len();
        let report = run(HelixPolicy::new(), &c, &m, EngineConfig::default(), &trace);
        assert_eq!(report.policy, "helix");
        assert_eq!(
            report.completed.len(),
            n,
            "unfinished {}",
            report.unfinished
        );
        assert_eq!(report.migrations, 0, "no dynamic parallelism");
    }

    #[test]
    fn downed_instances_are_skipped() {
        let c = paper_cluster();
        let m = llama_70b();
        let mut p = HelixPolicy::new();
        let mut topo = p.topology(&c, &m, &EngineConfig::default());
        if topo.instances.len() < 2 {
            return; // single-instance plan: nothing to down
        }
        topo.instances[0].role = InstanceRole::Down;
        let entries = topo.entry_instances();
        assert!(!entries.contains(&0));
    }
}
