//! Observation and control: the Fig. 14 trace sampler, the telemetry
//! taps and tick, and the closed control loop that acts on each tick.

use super::replan::replan_record;
use super::{Engine, Event};
use crate::churn::HealthView;
use crate::control::{ClosedLoopConfig, ControlAction, ControlRecord};
use crate::metrics::TraceSample;
use crate::policy::{Policy, PolicyCtx};
use hetis_cluster::DeviceId;
use hetis_telemetry::{FlowEvent, FlowEventKind, TelemetrySnapshot};

impl<'a, P: Policy> Engine<'a, P> {
    /// Publishes one flow event on the telemetry bus; a no-op when
    /// telemetry is disabled. The event kind is a `Copy` struct built on
    /// the caller's stack — the disabled path constructs and discards it
    /// without touching the heap.
    #[inline]
    pub(super) fn tap(&mut self, kind: FlowEventKind) {
        if let Some(bus) = self.telemetry.as_mut() {
            bus.publish(FlowEvent {
                time: self.clock.now().as_secs(),
                kind,
            });
        }
    }

    /// Live telemetry query handle: a point-in-time snapshot of the
    /// bus's aggregates (`None` when telemetry is disabled).
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry
            .as_ref()
            .map(|bus| bus.snapshot(self.clock.now().as_secs()))
    }

    /// Periodic telemetry sample: per-instance queue depth / running
    /// count and cluster-wide KV occupancy, rescheduled while anything
    /// remains to happen (the same liveness guard as [`Self::on_sample`]).
    pub(super) fn on_telemetry_tick(&mut self) {
        let now = self.clock.now().as_secs();
        let depths: Vec<(u32, u32, u32)> = (0..self.instances.len())
            .map(|i| {
                let waiting = self.instances[i].waiting.len();
                (i as u32, waiting as u32, self.running_count(i) as u32)
            })
            .collect();
        let mut used = 0u64;
        let mut pool = 0u64;
        for d in 0..self.kv.len() {
            let kv = self.kv.device(DeviceId(d as u32));
            used += kv.used_bytes();
            pool += kv.pool_bytes();
        }
        let bus = self.telemetry.as_mut().expect("tick only fires enabled");
        for (instance, waiting, running) in depths {
            bus.publish(FlowEvent {
                time: now,
                kind: FlowEventKind::QueueDepth {
                    instance,
                    waiting,
                    running,
                },
            });
        }
        bus.publish(FlowEvent {
            time: now,
            kind: FlowEventKind::KvOccupancy {
                used_bytes: used,
                pool_bytes: pool,
            },
        });
        if self.work_remains() {
            let period = self.mode.tick.expect("tick only fires enabled");
            self.events
                .schedule(self.clock.now() + period, Event::TelemetryTick);
            self.sampling_pending += 1;
        }
        // Closed-loop control: the fresh samples above are part of the
        // snapshot the controller sees this tick.
        if self.mode.closed_loop {
            self.control_tick();
        }
    }

    /// One closed-loop control step at a telemetry tick edge: snapshot
    /// the bus, ask the policy for actuations, apply them. A no-op
    /// response returns before touching any engine state — including the
    /// dispatch sweep — so a quiet controller is digest-neutral.
    fn control_tick(&mut self) {
        let now = self.clock.now().as_secs();
        let snapshot = self
            .telemetry
            .as_ref()
            .expect("closed loop requires telemetry")
            .snapshot(now);
        let health_view = HealthView::new(self.health.clone());
        let response =
            self.policy
                .on_telemetry_tick(&snapshot, &ClosedLoopConfig, &health_view, &ctx!(self));
        if response.is_noop() {
            return;
        }
        for &action in &response.actions {
            self.tally
                .control_log
                .push(ControlRecord { time: now, action });
            match action {
                ControlAction::ThrottleOn { .. } => self.throttle_admission = true,
                ControlAction::ThrottleOff => self.throttle_admission = false,
                ControlAction::PaceOn { chunk_tokens, .. } => {
                    self.pace_chunk_tokens = Some(chunk_tokens)
                }
                ControlAction::PaceOff => self.pace_chunk_tokens = None,
                ControlAction::ScaleOut { .. } | ControlAction::ScaleIn => {}
            }
        }
        // Scale actuations take the cluster-change replan path: capacity
        // changes are not free in the closed loop either.
        match response.replan {
            Some(replan) => self.apply_replan(replan_record(now, "scale(closed-loop)"), replan),
            None => self.dispatch_all(),
        }
    }

    /// Periodic Fig. 14 sample: every device's KV utilization and
    /// resident query heads.
    pub(super) fn on_sample(&mut self) {
        let now = self.clock.now().as_secs();
        let r = self.model.gqa_ratio();
        let devices = self
            .cluster
            .devices()
            .iter()
            .map(|d| {
                let kv = self.kv.device(d.id);
                (d.id, kv.utilization(), kv.resident_query_heads(r))
            })
            .collect();
        self.tally
            .trace_samples
            .push(TraceSample { time: now, devices });
        // Keep sampling while anything remains to happen.
        if self.work_remains() {
            self.events
                .schedule(self.clock.now() + self.mode.trace_period, Event::Sample);
            self.sampling_pending += 1;
        }
    }

    /// True while anything beyond pure sampling remains to happen: a
    /// live request, or a queued event that is not itself a sampler.
    /// `Sample` and `TelemetryTick` both reschedule under this guard;
    /// counting them out keeps the two chains from treating each other
    /// as pending work and ticking on until the drain deadline.
    fn work_remains(&self) -> bool {
        !self.requests.is_empty() || self.events.len() > self.sampling_pending as usize
    }
}
