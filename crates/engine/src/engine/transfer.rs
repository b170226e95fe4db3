//! KV transfers: §5.3 re-dispatch along the §6 Hauler's move plan,
//! Splitwise-style hand-offs and the post-prefill scatter to attention
//! workers, all parked in `Phase::Migrating` until they land.

use super::{Engine, Event};
use crate::policy::{Policy, PolicyCtx};
use crate::request::Phase;
use crate::topology::{HeadPlacement, Topology};
use hetis_cluster::DeviceId;
use hetis_sim::SimTime;
use hetis_workload::RequestId;

impl<'a, P: Policy> Engine<'a, P> {
    pub(super) fn on_migration_done(&mut self, rid: RequestId, epoch: u32) {
        let Some(r) = self.requests.get_mut(&rid) else {
            return;
        };
        if r.phase != Phase::Migrating || r.migration_epoch != epoch {
            return;
        }
        r.phase = Phase::Decoding;
        r.migration_sources.clear();
        let inst = r.instance;
        self.ensure_cohort_member(inst, rid);
        self.load_table_add(inst, rid);
        self.try_dispatch(inst);
    }

    /// Applies a re-dispatch along the plan of [`HeadPlacement::moves_to`]
    /// (§6's Hauler): grows every destination, all-or-nothing, then
    /// shrinks each move's source and schedules that move's transfer at
    /// once. The request pauses until the last transfer lands. Returns
    /// false if the grows don't fit or the request is not
    /// re-dispatchable.
    pub(super) fn execute_redispatch(
        &mut self,
        rid: RequestId,
        new_placement: HeadPlacement,
    ) -> bool {
        let gqa = self.model.gqa_ratio();
        if new_placement.validate(self.model.num_heads, gqa).is_err() {
            return false;
        }
        // Borrow the old placement in place; everything derived from it
        // is extracted before the request is mutated.
        let (inst, tokens, moves) = {
            let Some(r) = self.requests.get(&rid) else {
                return false;
            };
            if r.phase != Phase::Decoding || r.in_flight {
                return false;
            }
            let old = r.placement.as_ref().expect("decoding request placed");
            if *old == new_placement {
                return false;
            }
            (r.instance, r.kv_reserved, old.moves_to(&new_placement, gqa))
        };
        if moves.is_empty() {
            return false;
        }
        // Churn guard: never grow KV onto a dead or draining device.
        if moves
            .iter()
            .any(|m| !self.health[m.dst.index()].accepts_kv())
        {
            return false;
        }
        // All-or-nothing: allocate every destination first.
        let blocks = self.kv.blocks_for(tokens);
        for (k, m) in moves.iter().enumerate() {
            let l = self.topo.instances[inst].stages[m.stage as usize]
                .primary
                .layers;
            let grown = self
                .kv
                .device_mut(m.dst)
                .grow_groups(rid, m.stage, m.groups, blocks, l);
            if grown.is_err() {
                for m in &moves[..k] {
                    self.kv
                        .device_mut(m.dst)
                        .shrink_groups(rid, m.stage, m.groups);
                }
                return false;
            }
        }
        // High-water point of the move: grown destinations coexist with
        // the not-yet-shrunk sources.
        self.note_kv_peak();
        let now = self.clock.now().as_secs();
        let (mut moved_bytes, mut finish) = (0.0, now);
        for m in &moves {
            let l = self.topo.instances[inst].stages[m.stage as usize]
                .primary
                .layers;
            let bytes = self.kv.device(m.src).bytes_needed(m.groups, tokens, l) as f64;
            self.kv
                .device_mut(m.src)
                .shrink_groups(rid, m.stage, m.groups);
            let link = self.cluster.link(m.src, m.dst);
            let done = self.migration.schedule(m.src.0, m.dst.0, link, bytes, now);
            finish = finish.max(done);
            moved_bytes += bytes;
        }

        // The victim leaves the decode set while its KV moves — take its
        // old-placement contribution off the load table before the new
        // placement is installed.
        self.load_table_remove(inst, rid);
        let r = self.requests.get_mut(&rid).expect("live");
        r.placement = Some(new_placement);
        r.redispatches += 1;
        let sources = moves.iter().map(|m| m.src).collect();
        self.begin_migration(rid, sources, moved_bytes, finish);
        true
    }

    /// Parks `rid` in [`Phase::Migrating`] while `bytes` of its KV move
    /// from `sources`, until the transfer lands at `done` (seconds): the
    /// one transfer path behind re-dispatch, Splitwise hand-off and the
    /// post-prefill scatter. The completion event carries a fresh epoch,
    /// so a transfer that churn aborts cannot resume the request early.
    fn begin_migration(&mut self, rid: RequestId, sources: Vec<DeviceId>, bytes: f64, done: f64) {
        let r = self.requests.get_mut(&rid).expect("live");
        r.phase = Phase::Migrating;
        r.migration_sources = sources;
        r.migration_epoch += 1;
        let epoch = r.migration_epoch;
        self.tally.migrations += 1;
        self.tally.migrated_bytes += bytes;
        self.events.schedule(
            SimTime::from_secs(done),
            Event::MigrationDone { req: rid, epoch },
        );
    }

    // ------------------------------------------------- hand-off / scatter

    /// Splitwise-style hand-off: move the whole KV to `target`.
    pub(super) fn start_handoff(&mut self, rid: RequestId, target: usize) {
        // Try immediately; park in the target's hand-off queue otherwise.
        if !self.try_start_handoff_transfer(rid, target, false) {
            let r = self.requests.get_mut(&rid).expect("live");
            r.phase = Phase::Migrating; // blocked, holding source KV
            self.instances[target].pending_handoff.enqueue(rid);
        }
    }

    pub(super) fn drain_pending_handoffs(&mut self, target: usize) {
        while let Some(&rid) = self.instances[target].pending_handoff.peek() {
            if !self.try_start_handoff_transfer(rid, target, true) {
                return;
            }
            self.instances[target].pending_handoff.dequeue();
        }
    }

    /// Attempts allocation on the target and schedules the bulk transfer.
    /// `from_queue` marks retries popped from the pending-handoff queue,
    /// whose entry may be stale (the request was churn-evicted and
    /// possibly re-admitted elsewhere since it parked).
    fn try_start_handoff_transfer(
        &mut self,
        rid: RequestId,
        target: usize,
        from_queue: bool,
    ) -> bool {
        // A queued entry other than a parked hand-off is stale: drop it.
        let stale = if from_queue {
            !self.parked_handoff(rid)
        } else {
            self.requests[&rid].placement.is_none()
        };
        if stale {
            return true;
        }
        let ctx_tokens = self.requests[&rid].context_len();
        let pairs = [(rid, ctx_tokens)];
        let placement = self
            .policy
            .place_batch(target, &pairs, &ctx!(self))
            .pop()
            .flatten();
        let Some(placement) = placement else {
            return false;
        };

        // Source residency before realloc.
        let old_placement = self.requests[&rid].placement.clone().expect("placed");
        let src_anchor = old_placement.per_stage[0][0].0;
        let mut src_bytes = 0.0f64;
        for d in 0..self.kv.len() {
            src_bytes += self.kv.device(DeviceId(d as u32)).request_bytes(rid) as f64;
        }

        // Allocate on target with the *current* context; the request's
        // instance moves with the allocation.
        self.set_instance(rid, target);
        if !self.try_alloc_prompt(rid, placement, ctx_tokens) {
            // Roll back ownership.
            let rollback = old_instance_of(&old_placement, &self.topo).unwrap_or(target);
            self.set_instance(rid, rollback);
            self.requests.get_mut(&rid).expect("live").placement = Some(old_placement);
            return false;
        }
        // try_alloc_prompt overwrote the placement — free the old source
        // entries now (they belong to other devices).
        let new_placement = self.requests[&rid].placement.clone().expect("placed");
        let new_devices = new_placement.devices();
        for d in 0..self.kv.len() {
            let dev = DeviceId(d as u32);
            if !new_devices.contains(&dev) {
                self.kv.device_mut(dev).free_request(rid);
            }
        }

        let now = self.clock.now().as_secs();
        let dst_anchor = new_devices[0];
        let link = self.cluster.link(src_anchor, dst_anchor);
        let done = self
            .migration
            .schedule(src_anchor.0, dst_anchor.0, link, src_bytes, now);
        self.begin_migration(rid, vec![src_anchor], src_bytes, done);
        true
    }

    /// Whether `rid` is a parked hand-off: live, Migrating, idle and
    /// placed. A pending-handoff entry can be stale — its request
    /// finished, or was churn-evicted and maybe re-admitted elsewhere
    /// since it parked.
    pub(super) fn parked_handoff(&self, rid: RequestId) -> bool {
        self.requests
            .get(&rid)
            .is_some_and(|r| r.phase == Phase::Migrating && !r.in_flight && r.placement.is_some())
    }

    /// After prefill on a Both-role instance: scatter remote head groups'
    /// KV to attention workers if the placement uses any, then decode.
    pub(super) fn start_decoding_after_scatter(
        &mut self,
        rid: RequestId,
        inst: usize,
        cohort: usize,
    ) {
        let gqa = self.model.gqa_ratio();
        let now = self.clock.now().as_secs();
        let mut finish = now;
        let mut scattered = 0.0f64;
        let mut sources: Vec<DeviceId> = Vec::new();
        {
            let req = &self.requests[&rid];
            let placement = req.placement.as_ref().expect("placed");
            let tokens = req.effective_input;
            for (s, stage_pl) in placement.per_stage.iter().enumerate() {
                let stage = &self.topo.instances[inst].stages[s];
                let anchor = stage.primary.devices[0];
                let layers = stage.primary.layers;
                sources.push(anchor);
                for &(dev, heads) in stage_pl {
                    if stage.primary.devices.contains(&dev) {
                        continue;
                    }
                    let groups = heads / gqa;
                    let bytes = self.kv.device(dev).bytes_needed(groups, tokens, layers) as f64;
                    let link = self.cluster.link(anchor, dev);
                    let done = self.migration.schedule(anchor.0, dev.0, link, bytes, now);
                    finish = finish.max(done);
                    scattered += bytes;
                }
            }
        }
        let r = self.requests.get_mut(&rid).expect("live");
        r.cohort = cohort;
        if scattered > 0.0 {
            self.begin_migration(rid, sources, scattered, finish);
        } else {
            r.phase = Phase::Decoding;
            self.ensure_cohort_member(inst, rid);
            self.load_table_add(inst, rid);
        }
    }
}

/// Finds which instance a placement belongs to (best effort, for hand-off
/// rollback).
fn old_instance_of(placement: &HeadPlacement, topo: &Topology) -> Option<usize> {
    let first_dev = placement.per_stage.first()?.first()?.0;
    topo.instances.iter().position(|i| {
        i.stages
            .iter()
            .any(|s| s.attention_devices().any(|d| d == first_dev))
    })
}
