//! Re-dispatching (§5.3): the Θ-gated computation balancer and the
//! memory-aware victim logic.
//!
//! Two triggers:
//!
//! * **Computation balance** (§5.3.1) — when the current max per-device
//!   attention time exceeds the relaxed ideal `f*` by more than Θ, the
//!   single request contributing most to the bottleneck device is
//!   re-dispatched via Eq. 7.
//! * **KV exhaustion** (§5.3.2) — when a device cannot host the next
//!   token, the victim search is *restricted to requests actually
//!   resident on that device* (the paper's fix to LIFO/LRU), and if the
//!   cluster still has aggregate free memory the victim is re-dispatched
//!   instead of evicted.

use crate::dispatcher::{Dispatcher, StageBalance};
use hetis_cluster::DeviceId;
use hetis_engine::policy::StaticPolicy;
use hetis_engine::{HeadPlacement, PolicyCtx, RedispatchOp, StageTopo, VictimAction};
use hetis_workload::RequestId;

/// Computes the victim's per-device (heads, per-layer bytes) footprint on
/// one stage, as removal adjustments for [`Dispatcher::dispatch_adjusted`].
fn victim_stage_loads(
    ctx: &PolicyCtx<'_>,
    rid: RequestId,
    stage_idx: u16,
) -> Vec<(DeviceId, f64, f64)> {
    let r = ctx.requests[&rid]
        .placement
        .as_ref()
        .expect("victim placed");
    r.per_stage[stage_idx as usize]
        .iter()
        .map(|&(dev, heads)| {
            let kv = ctx.kv.device(dev);
            let g = kv
                .entry(rid, stage_idx)
                .map(|e| kv.entry_bytes(&e) as f64 / e.layers as f64)
                .unwrap_or(0.0);
            (dev, heads as f64, g)
        })
        .collect()
}

/// Builds a full new [`HeadPlacement`] for `rid` by re-running Eq. 7 per
/// stage with the victim's own footprint removed. `banned` excludes one
/// device entirely (the memory-exhaustion path). `None` when any stage is
/// infeasible.
pub fn replan_request(
    dispatcher: &Dispatcher,
    ctx: &PolicyCtx<'_>,
    instance: usize,
    rid: RequestId,
    banned: Option<DeviceId>,
) -> Option<HeadPlacement> {
    let req = &ctx.requests[&rid];
    let stages: &[StageTopo] = &ctx.topology.instances[instance].stages;
    let l = req.context_len();
    let mut per_stage = Vec::with_capacity(stages.len());
    for (s, stage) in stages.iter().enumerate() {
        let removed = victim_stage_loads(ctx, rid, s as u16);
        // A decoding victim's *full* context hits attention every
        // iteration, so no chunk cap applies here.
        let out = dispatcher.dispatch_adjusted(
            ctx.cluster,
            ctx.model,
            ctx.kv,
            stage,
            s as u16,
            &[l],
            &removed,
            banned,
            None,
        )?;
        let entry: Vec<(DeviceId, u32)> = stage
            .attention_devices()
            .zip(&out.heads[0])
            .filter(|&(_, &h)| h > 0)
            .map(|(d, &h)| (d, h))
            .collect();
        per_stage.push(entry);
    }
    Some(HeadPlacement { per_stage })
}

/// §5.3.1: checks every stage of `instance`; returns at most one
/// re-dispatch op (the paper re-dispatches one request at a time, the one
/// with the greatest reduction potential).
pub fn balance_computation(
    dispatcher: &Dispatcher,
    ctx: &PolicyCtx<'_>,
    instance: usize,
    theta: f64,
) -> Option<RedispatchOp> {
    let stages = &ctx.topology.instances[instance].stages;
    for (s, stage) in stages.iter().enumerate() {
        let bottleneck = match dispatcher.stage_balance(
            ctx.cluster,
            ctx.model,
            ctx.kv,
            stage,
            s as u16,
            theta,
        ) {
            StageBalance::Balanced => continue,
            StageBalance::Imbalanced { bottleneck } => bottleneck,
            StageBalance::Unsolvable => return None,
        };
        // The request contributing most to the bottleneck device, from
        // that device's stage-`s` entries. When no victim is eligible
        // (every candidate is in flight) or its replan fails, `?` ends the
        // whole round, so the instance's later stages go unchecked until
        // the next one (a known quirk, kept for the pinned digests). The
        // verdict memo keeps it: it stores `Imbalanced`, so this pick runs
        // again next round.
        let victim = ctx
            .kv
            .device(bottleneck)
            .entries()
            .filter(|&((_, stage), _)| stage == s as u16)
            .filter_map(|((rid, _), _)| ctx.requests.get(&rid))
            .filter(|r| StaticPolicy::evictable(instance, r))
            .filter_map(|r| {
                let heads = r.placement.as_ref()?.heads_on(s, bottleneck);
                (heads > 0).then(|| (heads as f64 * r.context_len() as f64, r.req.id))
            })
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)))
            .map(|(_, id)| id)?;
        let new_placement = replan_request(dispatcher, ctx, instance, victim, None)?;
        let old = ctx.requests[&victim].placement.as_ref().unwrap();
        if &new_placement == old {
            continue; // nothing better found
        }
        return Some(RedispatchOp {
            req: victim,
            new_placement,
        });
    }
    None
}

/// Victim policies compared in Fig. 15a and ablation A4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimMode {
    /// Hetis: memory-aware LIFO on the exhausted device, re-dispatch
    /// before evicting (§5.3.2).
    Hetis,
    /// Plain LIFO over the instance, regardless of device residency —
    /// vLLM's behavior, the Fig. 15a comparator.
    PlainLifo,
    /// LRU restricted to the device (ablation A4).
    LruOnDevice,
}

/// §5.3.2: victim selection on KV exhaustion of `device`.
pub fn select_victim(
    dispatcher: &Dispatcher,
    ctx: &PolicyCtx<'_>,
    instance: usize,
    device: DeviceId,
    mode: VictimMode,
) -> VictimAction {
    let victim = match mode {
        // Newest admission anywhere on the instance — may not even touch
        // the exhausted device (the paper's criticism).
        VictimMode::PlainLifo => StaticPolicy::lifo_victim_anywhere(instance, ctx),
        VictimMode::LruOnDevice => StaticPolicy::victims_on_device(instance, device, ctx)
            .min_by(StaticPolicy::by_admission)
            .map(|r| r.req.id),
        // Modified LIFO: newest admission *resident on the device*.
        VictimMode::Hetis => StaticPolicy::lifo_victim_on_device(instance, device, ctx),
    };
    let Some(victim) = victim else {
        return VictimAction::Stall;
    };
    if mode == VictimMode::Hetis {
        // Aggregate free memory check: Σ gᵢ < Σ capᵢ over the instance's
        // attention devices (minus the exhausted one, which by definition
        // has nothing to give).
        let free_elsewhere: u64 = ctx.topology.instances[instance]
            .stages
            .iter()
            .flat_map(|s| s.attention_devices())
            .filter(|&d| d != device)
            .map(|d| ctx.kv.device(d).free_bytes())
            .sum();
        if free_elsewhere > ctx.kv.device(device).request_bytes(victim) {
            // Exhausted devices are banned from re-receiving the heads
            // their own pressure releases.
            if let Some(p) = replan_request(dispatcher, ctx, instance, victim, Some(device)) {
                let old = ctx.requests[&victim].placement.as_ref().unwrap();
                if &p != old && p.heads_on_device_total(device) < old.heads_on_device_total(device)
                {
                    return VictimAction::Redispatch(victim, p);
                }
            }
        }
    }
    VictimAction::Evict(victim)
}

/// Extension helpers for placements used by the victim logic.
trait PlacementExt {
    fn heads_on_device_total(&self, device: DeviceId) -> u32;
}

impl PlacementExt for HeadPlacement {
    fn heads_on_device_total(&self, device: DeviceId) -> u32 {
        self.per_stage
            .iter()
            .flat_map(|s| s.iter())
            .filter(|&&(d, _)| d == device)
            .map(|&(_, h)| h)
            .sum()
    }
}
