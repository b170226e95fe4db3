//! [`ElasticPolicy`]: wraps any serving policy with live re-planning.
//!
//! The wrapper delegates every scheduling decision to the inner policy
//! and adds the [`crate::ElasticController`] behind the engine's
//! cluster-change hook. Two modes:
//!
//! * [`ElasticPolicy::with_controller`] — full elasticity: on every churn
//!   event the controller re-plans the worker pool, drains KV off
//!   devices under preemption notice, and charges a deterministic
//!   re-plan latency.
//! * [`ElasticPolicy::frozen`] — the no-replanning baseline: the engine
//!   still enforces safety (dead devices pruned, lost instances downed,
//!   orphaned requests re-enqueued) but nothing is re-planned, drained,
//!   or reclaimed. This is the "vLLM-style failover" every elastic
//!   scenario compares against.

use crate::closed_loop::ClosedLoopController;
use crate::controller::ElasticController;
use hetis_cluster::{Cluster, DeviceId};
use hetis_core::{HetisConfig, HetisPolicy, WorkloadProfile};
use hetis_engine::{
    ClosedLoopConfig, ClusterEvent, ControlAction, ControlResponse, EngineConfig, Handoff,
    HeadPlacement, HealthView, Policy, PolicyCtx, RedispatchOp, ReplanResponse, Topology,
    VictimAction,
};
use hetis_model::ModelSpec;
use hetis_telemetry::TelemetrySnapshot;
use hetis_workload::{Request, RequestId};

/// A policy wrapper adding (or explicitly withholding) elasticity.
pub struct ElasticPolicy<P: Policy> {
    inner: P,
    controller: Option<ElasticController>,
    /// Health as of the last cluster event (drives incremental drains).
    health: Option<HealthView>,
    /// Closed-loop automaton, fed only while the engine runs a closed
    /// loop (`EngineConfig::closed_loop`).
    closed_loop: ClosedLoopController,
    /// Attention workers added by *actuated* closed-loop scale-outs and
    /// not yet returned. Scale-in proposals actuate only while this is
    /// positive: the loop never shrinks the pool below its pre-loop
    /// capacity (proposals whose plan came back `None` — nothing spare
    /// to reclaim — add nothing here).
    scaled_out_workers: usize,
}

impl<P: Policy> ElasticPolicy<P> {
    /// Full elasticity around `inner`.
    pub fn with_controller(inner: P, controller: ElasticController) -> Self {
        ElasticPolicy {
            inner,
            controller: Some(controller),
            health: None,
            closed_loop: ClosedLoopController::default(),
            scaled_out_workers: 0,
        }
    }

    /// The no-replan baseline: engine-enforced safety only.
    pub fn frozen(inner: P) -> Self {
        ElasticPolicy {
            inner,
            controller: None,
            health: None,
            closed_loop: ClosedLoopController::default(),
            scaled_out_workers: 0,
        }
    }

    /// Unwraps the inner policy.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

/// Hetis with its matching elastic controller (same config + profile).
pub fn elastic_hetis(cfg: HetisConfig, profile: WorkloadProfile) -> ElasticPolicy<HetisPolicy> {
    let controller = ElasticController::new(cfg.clone(), profile);
    ElasticPolicy::with_controller(HetisPolicy::new(cfg, profile), controller)
}

/// Hetis with churn safety but no re-planning (the ablation baseline).
pub fn frozen_hetis(cfg: HetisConfig, profile: WorkloadProfile) -> ElasticPolicy<HetisPolicy> {
    ElasticPolicy::frozen(HetisPolicy::new(cfg, profile))
}

impl<P: Policy> Policy for ElasticPolicy<P> {
    fn name(&self) -> String {
        match self.controller {
            Some(_) => format!("{}+elastic", self.inner.name()),
            None => format!("{}+frozen", self.inner.name()),
        }
    }

    fn topology(&mut self, cluster: &Cluster, model: &ModelSpec, cfg: &EngineConfig) -> Topology {
        self.inner.topology(cluster, model, cfg)
    }

    fn route(&mut self, req: &Request, ctx: &PolicyCtx<'_>) -> usize {
        self.inner.route(req, ctx)
    }

    fn place_batch(
        &mut self,
        instance: usize,
        reqs: &[(RequestId, u32)],
        ctx: &PolicyCtx<'_>,
    ) -> Vec<Option<HeadPlacement>> {
        self.inner.place_batch(instance, reqs, ctx)
    }

    fn after_prefill(
        &mut self,
        instance: usize,
        req: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> Option<Handoff> {
        self.inner.after_prefill(instance, req, ctx)
    }

    fn before_decode(&mut self, instance: usize, ctx: &PolicyCtx<'_>) -> Vec<RedispatchOp> {
        // Incremental KV drain off devices under preemption notice:
        // requests are movable only between iterations, so each
        // scheduling round carries another slice of the drain. Drains
        // preempt the inner policy's balancing this round.
        if let (Some(controller), Some(health)) = (&self.controller, &self.health) {
            let drains = controller.drain_plans(health, ctx, Some(instance));
            if !drains.is_empty() {
                return drains;
            }
        }
        self.inner.before_decode(instance, ctx)
    }

    fn select_victim(
        &mut self,
        instance: usize,
        device: DeviceId,
        blocked: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> VictimAction {
        self.inner.select_victim(instance, device, blocked, ctx)
    }

    fn on_cluster_change(
        &mut self,
        event: &ClusterEvent,
        health: &HealthView,
        ctx: &PolicyCtx<'_>,
    ) -> ReplanResponse {
        self.health = Some(health.clone());
        let Some(controller) = &self.controller else {
            return ReplanResponse::default();
        };
        let plan = controller.replan(event, health, ctx);
        ReplanResponse {
            new_topology: Some(plan.topology),
            migrations: plan.migrations,
            replan_latency: plan.replan_latency,
        }
    }

    fn on_telemetry_tick(
        &mut self,
        snapshot: &TelemetrySnapshot,
        _closed_loop: &ClosedLoopConfig,
        health: &HealthView,
        ctx: &PolicyCtx<'_>,
    ) -> ControlResponse {
        let actions = self.closed_loop.on_tick(snapshot);
        let mut replan = None;
        // The engine applies throttle and pace actions itself. Scale
        // proposals route through the elastic controller's replan path;
        // a frozen policy records the proposal (it lands in the control
        // log) but has no planner to actuate it. A no-op plan (already at
        // full pool / nothing to retire) skips the replan — and its stall
        // — entirely. Scale-ins actuate only while earlier scale-outs
        // actually grew the pool: the loop never retires pre-loop
        // capacity.
        if let Some(controller) = &self.controller {
            for &action in &actions {
                let out = match action {
                    ControlAction::ScaleOut { .. } => true,
                    ControlAction::ScaleIn if self.scaled_out_workers > 0 => false,
                    _ => continue,
                };
                if let Some(plan) = controller.scale_plan(out, health, ctx) {
                    if out {
                        self.scaled_out_workers += plan.diff.workers_added.len();
                    } else {
                        self.scaled_out_workers = self
                            .scaled_out_workers
                            .saturating_sub(plan.diff.workers_removed.len().max(1));
                    }
                    replan = Some(ReplanResponse {
                        new_topology: Some(plan.topology),
                        migrations: plan.migrations,
                        replan_latency: plan.replan_latency,
                    });
                }
            }
        }
        ControlResponse { actions, replan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_workload::DatasetKind;

    #[test]
    fn names_distinguish_modes() {
        let profile = WorkloadProfile::from_dataset(DatasetKind::ShareGpt, 16);
        let e = elastic_hetis(HetisConfig::default(), profile);
        assert_eq!(e.name(), "hetis+elastic");
        let f = frozen_hetis(HetisConfig::default(), profile);
        assert_eq!(f.name(), "hetis+frozen");
    }
}
