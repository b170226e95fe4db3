//! Churn and replans: device health transitions, the forced bookkeeping
//! of a device death, churn evictions and re-routing, and applying a
//! policy's replan (new topology, drain migrations, planning stall).

use super::{slack_key, Engine, Event};
use crate::churn::{ClusterEventKind, DeviceHealth, HealthView, ReplanRecord, ReplanResponse};
use crate::policy::{Policy, PolicyCtx};
use crate::request::Phase;
use crate::topology::{InstanceRole, Topology};
use hetis_cluster::DeviceId;
use hetis_sim::SimTime;
use hetis_workload::RequestId;

/// An empty record of a cluster change or replan at `time`.
pub(super) fn replan_record(time: f64, event: impl Into<String>) -> ReplanRecord {
    ReplanRecord {
        time,
        event: event.into(),
        replan_latency: 0.0,
        evicted: 0,
        migrations_started: 0,
        lost_tokens: 0,
        replanned: false,
    }
}

impl<'a, P: Policy> Engine<'a, P> {
    /// Late joiners: a device whose first scheduled event is a Join is
    /// absent (dead) at startup.
    pub(super) fn start_late_joiners_absent(&mut self) {
        let mut seen: Vec<DeviceId> = Vec::new();
        let mut late: Vec<DeviceId> = Vec::new();
        for ev in &self.churn {
            if !seen.contains(&ev.device) {
                seen.push(ev.device);
                if ev.kind == ClusterEventKind::Join {
                    late.push(ev.device);
                }
            }
        }
        for dev in late {
            self.health[dev.index()] = DeviceHealth::Dead;
            self.enforce_device_death(dev);
        }
    }

    pub(super) fn on_cluster_change(&mut self, idx: usize) {
        let ev = self.churn[idx].clone();
        let now = self.clock.now().as_secs();
        let mut record = replan_record(now, ev.label());
        match ev.kind {
            ClusterEventKind::Fail => {
                if self.health[ev.device.index()] != DeviceHealth::Dead {
                    self.health[ev.device.index()] = DeviceHealth::Dead;
                    self.kill_device(ev.device, &mut record);
                }
            }
            ClusterEventKind::PreemptNotice { notice } => {
                if let DeviceHealth::Alive { factor } = self.health[ev.device.index()] {
                    let deadline = now + notice.max(0.0);
                    self.health[ev.device.index()] = DeviceHealth::Draining { deadline, factor };
                    self.events.schedule(
                        SimTime::from_secs(deadline),
                        Event::DrainDeadline(ev.device),
                    );
                }
            }
            ClusterEventKind::Join => {
                self.health[ev.device.index()] = DeviceHealth::NOMINAL;
                self.try_revive_instances();
                // Requests parked on instances that stayed Down can now
                // re-route to the revived capacity.
                self.reroute_down_instances(&mut record);
            }
            ClusterEventKind::Slowdown { factor } => match &mut self.health[ev.device.index()] {
                DeviceHealth::Alive { factor: f } | DeviceHealth::Draining { factor: f, .. } => {
                    *f = factor.max(1.0)
                }
                DeviceHealth::Dead => {}
            },
            ClusterEventKind::Restore => match &mut self.health[ev.device.index()] {
                DeviceHealth::Alive { factor: f } | DeviceHealth::Draining { factor: f, .. } => {
                    *f = 1.0
                }
                DeviceHealth::Dead => {}
            },
        }

        // Policy hook: the topology is already pruned, health is current.
        let health_view = HealthView::new(self.health.clone());
        let response = self
            .policy
            .on_cluster_change(&ev, &health_view, &ctx!(self));
        self.apply_replan(record, response);
    }

    pub(super) fn on_drain_deadline(&mut self, dev: DeviceId) {
        // A Join may have cancelled the drain in the meantime.
        if !matches!(self.health[dev.index()], DeviceHealth::Draining { .. }) {
            return;
        }
        self.health[dev.index()] = DeviceHealth::Dead;
        let mut record = replan_record(self.clock.now().as_secs(), format!("revoke({dev})"));
        self.kill_device(dev, &mut record);
        self.apply_replan(record, ReplanResponse::default());
    }

    /// Applies a policy's replan — the answer to a cluster change or a
    /// closed-loop scale actuation — and logs it in `record`: swaps in the
    /// new topology, starts the drain migrations best-effort, charges the
    /// planning stall to every pipeline (nothing new starts until the plan
    /// is out), then re-runs dispatch everywhere.
    pub(super) fn apply_replan(&mut self, mut record: ReplanRecord, response: ReplanResponse) {
        record.replan_latency = response.replan_latency.max(0.0);
        if let Some(topo) = response.new_topology {
            self.apply_replan_topology(topo);
            record.replanned = true;
        }
        for op in response.migrations {
            if self.execute_redispatch(op.req, op.new_placement) {
                record.migrations_started += 1;
            }
        }
        if record.replan_latency > 0.0 {
            let stall_until = SimTime::from_secs(record.time + record.replan_latency);
            for inst in self.instances.iter_mut() {
                for t in inst.stage_free_at.iter_mut() {
                    *t = (*t).max(stall_until);
                }
            }
        }
        self.tally.replans.push(record);
        self.dispatch_all();
    }

    /// Forced bookkeeping of a device death: prune it from worker lists,
    /// mark instances that lost a primary as Down, and recompute-preempt
    /// every request whose KV or placement touched it.
    fn kill_device(&mut self, dev: DeviceId, record: &mut ReplanRecord) {
        self.enforce_device_death(dev);

        let mut affected: Vec<RequestId> = self
            .requests
            .iter()
            .filter(|(_, r)| r.phase != Phase::Waiting)
            .filter(|(rid, r)| {
                self.kv.device(dev).request_bytes(**rid) > 0
                    || r.placement
                        .as_ref()
                        .map(|p| p.devices().contains(&dev))
                        .unwrap_or(false)
                    || (r.phase == Phase::Migrating && r.migration_sources.contains(&dev))
            })
            .map(|(rid, _)| *rid)
            .collect();
        affected.sort();
        self.churn_evict_all(affected, record);
        self.reroute_down_instances(record);
    }

    /// Churn-evicts `rids` in order into `record`: idle requests now,
    /// in-flight ones when their microbatch completes. An in-flight loss
    /// is certain (the KV is already gone), so it is attributed to this
    /// record now — once, even when several deaths hit the same request.
    fn churn_evict_all(
        &mut self,
        rids: impl IntoIterator<Item = RequestId>,
        record: &mut ReplanRecord,
    ) {
        for rid in rids {
            let r = &self.requests[&rid];
            let lost = (r.req.input_len + r.generated) as u64;
            if !r.in_flight {
                self.churn_evict(rid);
            } else if self.attributed_pending.contains(&rid) {
                continue;
            } else {
                self.attributed_pending.push(rid);
            }
            record.evicted += 1;
            record.lost_tokens += lost;
        }
    }

    /// Prunes `dev` from every attention-worker list and downs instances
    /// whose primary TP group contains it. Cached prefixes are dropped
    /// wholesale: warm KV on a dead device is gone, and the reshaped
    /// worker pools may invalidate any cached placement.
    fn enforce_device_death(&mut self, dev: DeviceId) {
        self.prefix.clear();
        for inst in self.topo.instances.iter_mut() {
            for s in inst.stages.iter_mut() {
                s.attention_workers.retain(|&d| d != dev);
            }
            if inst.role != InstanceRole::Down
                && inst.stages.iter().any(|s| s.primary.devices.contains(&dev))
            {
                inst.role = InstanceRole::Down;
            }
        }
    }

    /// Moves every request parked on a Down instance to a surviving one.
    fn reroute_down_instances(&mut self, record: &mut ReplanRecord) {
        for i in 0..self.topo.instances.len() {
            if self.topo.instances[i].role != InstanceRole::Down {
                continue;
            }
            // Waiting queue: re-route without counting an eviction (no KV
            // was lost).
            let mut queued: Vec<RequestId> = Vec::new();
            while let Some(rid) = self.instances[i].waiting.dequeue() {
                queued.push(rid);
            }
            for rid in queued {
                let req = self.requests[&rid].req;
                let inst = self.route_surviving(req, i);
                if inst == i {
                    // Nowhere to go (whole cluster down): park it back.
                    self.instances[i].waiting.enqueue(slack_key(&req));
                    continue;
                }
                self.set_instance(rid, inst);
                self.instances[inst].waiting.enqueue(slack_key(&req));
            }
            // Hand-offs parked on this instance lose their transfer; stale
            // entries are skipped.
            while let Some(rid) = self.instances[i].pending_handoff.dequeue() {
                if self.parked_handoff(rid) {
                    self.churn_evict_all([rid], record);
                }
            }
            // Remaining residents (decoding / migrating / parked between
            // prefill chunks, or in flight) — all hold KV here.
            let mut residents: Vec<RequestId> = self
                .requests
                .iter()
                .filter(|(_, r)| r.instance == i && r.phase != Phase::Waiting)
                .map(|(rid, _)| *rid)
                .collect();
            residents.sort();
            self.churn_evict_all(residents, record);
        }
    }

    /// Recompute-preempts `rid` because of churn: its KV is freed
    /// everywhere, the lost context is accounted, and it re-queues on a
    /// surviving instance.
    pub(super) fn churn_evict(&mut self, rid: RequestId) {
        self.attributed_pending.retain(|&p| p != rid);
        let (old_inst, lost) = self.release_preempted(rid);
        self.tally.churn_evictions += 1;
        self.tally.lost_tokens += lost;
        let req = self.requests[&rid].req;
        let inst = self.route_surviving(req, old_inst);
        self.set_instance(rid, inst);
        self.instances[inst].waiting.enqueue(slack_key(&req));
    }

    /// After a Join: instances whose full primary group is healthy again
    /// come back with their original role (weights are assumed to reload
    /// during the policy's replan latency).
    fn try_revive_instances(&mut self) {
        for (k, inst) in self.topo.instances.iter_mut().enumerate() {
            if inst.role == InstanceRole::Down
                && inst.stages.iter().all(|s| {
                    s.primary
                        .devices
                        .iter()
                        .all(|&d| self.health[d.index()].accepts_kv())
                })
            {
                inst.role = self.original_roles[k];
            }
        }
    }

    /// True when some device is dead or some instance is down: the only
    /// states in which [`Self::churn_invalidated`] can hold for anyone.
    pub(super) fn churn_struck(&self) -> bool {
        self.health.iter().any(|h| !h.is_serving())
            || self
                .topo
                .instances
                .iter()
                .any(|i| i.role == InstanceRole::Down)
    }

    /// True when `rid` can no longer keep its KV/placement: its instance
    /// went Down or a device of its placement died.
    pub(super) fn churn_invalidated(&self, rid: RequestId) -> bool {
        let r = &self.requests[&rid];
        if self.topo.instances[r.instance].role == InstanceRole::Down {
            return true;
        }
        r.placement.as_ref().is_some_and(|p| {
            p.per_stage
                .iter()
                .flatten()
                .any(|&(d, _)| !self.health[d.index()].is_serving())
        })
    }

    /// Installs a policy-supplied replan topology. Primary stages of every
    /// instance must be unchanged (weights cannot teleport); roles stay
    /// engine-owned; worker lists are sanitized against health.
    fn apply_replan_topology(&mut self, mut new: Topology) {
        assert_eq!(
            new.instances.len(),
            self.topo.instances.len(),
            "replan cannot change the instance count"
        );
        for (k, (old_i, new_i)) in self
            .topo
            .instances
            .iter()
            .zip(new.instances.iter_mut())
            .enumerate()
        {
            assert_eq!(
                old_i.stages.len(),
                new_i.stages.len(),
                "replan cannot change pipeline depth (instance {k})"
            );
            for (old_s, new_s) in old_i.stages.iter().zip(new_i.stages.iter_mut()) {
                assert_eq!(
                    old_s.primary, new_s.primary,
                    "replan must preserve primary stages (instance {k})"
                );
                new_s
                    .attention_workers
                    .retain(|&d| self.health[d.index()].accepts_kv());
            }
            new_i.role = old_i.role;
        }
        self.topo = new;
        // Reshaped worker pools can invalidate cached prefix placements;
        // drop them wholesale.
        self.prefix.clear();
    }
}
