//! The telemetry bus: event ring + streaming aggregators + sinks behind
//! one `publish()` entry point, queryable mid-run via `snapshot()`.

use std::io;

use hetis_workload::SloClass;

use crate::event::{FlowEvent, FlowEventKind};
use crate::flow::{FlowCompletion, FlowRecord, FlowTable};
use crate::ring::EventRing;
use crate::sink::{JsonlSink, TelemetrySink};
use crate::window::{SlidingWindow, WindowSummary};

/// Bus tunables, carried by `EngineConfig` (telemetry is off unless the
/// engine config holds one of these).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Event-ring capacity; a full ring overwrites the oldest event and
    /// counts a drop (`telemetry_dropped`). Allocated once up front.
    pub ring_capacity: usize,
    /// Sliding-window span for the streaming percentiles, seconds.
    /// `f64::INFINITY` keeps every sample for the whole run, making the
    /// streaming p99 converge *exactly* to `RunReport`'s end-of-run p99.
    pub window_secs: f64,
    /// Time buckets per window (more buckets ⇒ smoother expiry; ignored
    /// for the infinite window, which uses one bucket).
    pub window_buckets: usize,
    /// Queue-depth / KV-occupancy sampling period, simulated seconds;
    /// `0.0` disables the periodic tick (lifecycle edges still flow).
    pub sample_period: f64,
    /// JSONL flow-log export path (`None` = in-memory only).
    pub jsonl_path: Option<String>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 65_536,
            window_secs: 60.0,
            window_buckets: 12,
            sample_period: 1.0,
            jsonl_path: None,
        }
    }
}

impl TelemetryConfig {
    /// Configuration whose windows span the whole run — the setting the
    /// convergence gates use to compare streaming percentiles against
    /// end-of-run report percentiles.
    pub fn full_run() -> Self {
        TelemetryConfig {
            window_secs: f64::INFINITY,
            window_buckets: 1,
            ..TelemetryConfig::default()
        }
    }
}

/// Latest per-instance queue sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueDepthStat {
    /// Sample time.
    pub time: f64,
    /// Instance index.
    pub instance: u32,
    /// Requests waiting for admission.
    pub waiting: u32,
    /// Requests resident (prefilling + decoding).
    pub running: u32,
}

/// Latest cluster-wide KV-pool occupancy sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvOccupancySample {
    /// Sample time.
    pub time: f64,
    /// Reserved bytes across all devices.
    pub used_bytes: u64,
    /// Total pool bytes across all devices.
    pub pool_bytes: u64,
}

impl KvOccupancySample {
    /// Pool utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.pool_bytes == 0 {
            0.0
        } else {
            self.used_bytes as f64 / self.pool_bytes as f64
        }
    }
}

/// Streaming latency summaries of one SLO class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassLatencyStats {
    /// The class.
    pub class: SloClass,
    /// TTFT window summary.
    pub ttft: WindowSummary,
    /// TPOT window summary (requests with ≥ 2 output tokens).
    pub tpot: WindowSummary,
    /// Normalized end-to-end latency window summary (s/token).
    pub normalized_latency: WindowSummary,
    /// Windowed SLO grades: one 0/1 sample per completion (the exact
    /// `CompletedRequest::slo_met` formula), so `slo.mean` is the
    /// windowed attainment and `slo.count` the graded completions.
    pub slo: WindowSummary,
}

impl ClassLatencyStats {
    /// Windowed SLO attainment in `[0, 1]`; `1.0` when no completion was
    /// graded inside the window (vacuous attainment, mirroring
    /// `ClassStats::attainment`).
    pub fn attainment(&self) -> f64 {
        if self.slo.count == 0 {
            1.0
        } else {
            self.slo.mean
        }
    }
}

/// A point-in-time view of everything the bus aggregates — the in-memory
/// query handle a controller polls mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Time the snapshot was taken.
    pub now: f64,
    /// Window span the class percentiles cover, seconds.
    pub window_secs: f64,
    /// Events ever published to the bus.
    pub events_published: u64,
    /// Events still buffered in the ring.
    pub events_buffered: usize,
    /// Events overwritten on ring wrap (satellite counter
    /// `telemetry_dropped`).
    pub dropped: u64,
    /// Requests completed so far.
    pub completions: u64,
    /// Requests with partial flow state (in flight).
    pub open_flows: usize,
    /// Per-class streaming latency summaries, [`SloClass::ALL`] order,
    /// classes with no window samples omitted.
    pub classes: Vec<ClassLatencyStats>,
    /// Latest queue sample per instance (instances never sampled
    /// omitted; empty when the periodic tick is disabled).
    pub queue_depths: Vec<QueueDepthStat>,
    /// Latest KV-pool occupancy sample.
    pub kv: Option<KvOccupancySample>,
}

impl TelemetrySnapshot {
    /// True when the bus saw no events at all.
    pub fn is_empty(&self) -> bool {
        self.events_published == 0
    }

    /// Streaming stats of one class (`None` when it has no samples in
    /// the window).
    pub fn class(&self, class: SloClass) -> Option<&ClassLatencyStats> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// Streaming p99 TTFT of one class.
    pub fn p99_ttft(&self, class: SloClass) -> Option<f64> {
        self.class(class)
            .filter(|c| c.ttft.count > 0)
            .map(|c| c.ttft.p99)
    }

    /// TTFT window summary of one class, `None` until the window holds a
    /// TTFT sample — the breach signal closed-loop scaling watches.
    pub fn windowed_ttft(&self, class: SloClass) -> Option<WindowSummary> {
        self.class(class)
            .filter(|c| c.ttft.count > 0)
            .map(|c| c.ttft)
    }

    /// Windowed SLO attainment of one class, `None` until a completion
    /// of that class was graded inside the window — the signal
    /// closed-loop admission throttling watches.
    pub fn windowed_attainment(&self, class: SloClass) -> Option<f64> {
        self.class(class)
            .filter(|c| c.slo.count > 0)
            .map(|c| c.slo.mean)
    }

    /// Largest sampled admission-queue depth across instances.
    pub fn max_queue_depth(&self) -> u32 {
        self.queue_depths
            .iter()
            .map(|q| q.waiting)
            .max()
            .unwrap_or(0)
    }
}

/// The event-sourced metrics bus. The engine publishes [`FlowEvent`]s at
/// request lifecycle edges; the bus rings them, folds them into the
/// streaming aggregators, finalizes per-request [`FlowRecord`]s at
/// completion, and fans records out to the attached sinks.
pub struct TelemetryBus {
    window_secs: f64,
    ring: EventRing,
    flows: FlowTable,
    // Per-class windows, indexed by `SloClass::index()`.
    ttft: Vec<SlidingWindow>,
    tpot: Vec<SlidingWindow>,
    norm: Vec<SlidingWindow>,
    slo: Vec<SlidingWindow>,
    depths: Vec<Option<QueueDepthStat>>,
    kv: Option<KvOccupancySample>,
    sinks: Vec<Box<dyn TelemetrySink + Send>>,
    completions: u64,
}

impl TelemetryBus {
    /// Builds the bus for `instances` serving instances, opening the
    /// JSONL sink when the config names one (the only fallible part).
    pub fn new(cfg: &TelemetryConfig, instances: usize) -> io::Result<Self> {
        let mkwindows = || {
            SloClass::ALL
                .iter()
                .map(|_| SlidingWindow::new(cfg.window_secs, cfg.window_buckets))
                .collect()
        };
        let mut sinks: Vec<Box<dyn TelemetrySink + Send>> = Vec::new();
        if let Some(path) = &cfg.jsonl_path {
            sinks.push(Box::new(JsonlSink::create(path)?));
        }
        Ok(TelemetryBus {
            window_secs: cfg.window_secs,
            ring: EventRing::new(cfg.ring_capacity),
            flows: FlowTable::with_capacity(1024),
            ttft: mkwindows(),
            tpot: mkwindows(),
            norm: mkwindows(),
            slo: mkwindows(),
            depths: vec![None; instances],
            kv: None,
            sinks,
            completions: 0,
        })
    }

    /// Publishes one event: rings it and folds it into the aggregators.
    /// O(1), allocation-free except for per-request flow-table inserts.
    pub fn publish(&mut self, ev: FlowEvent) {
        self.ring.push(ev);
        self.flows.observe(&ev);
        match ev.kind {
            FlowEventKind::QueueDepth {
                instance,
                waiting,
                running,
            } => {
                if let Some(slot) = self.depths.get_mut(instance as usize) {
                    *slot = Some(QueueDepthStat {
                        time: ev.time,
                        instance,
                        waiting,
                        running,
                    });
                }
            }
            FlowEventKind::KvOccupancy {
                used_bytes,
                pool_bytes,
            } => {
                self.kv = Some(KvOccupancySample {
                    time: ev.time,
                    used_bytes,
                    pool_bytes,
                });
            }
            _ => {}
        }
    }

    /// Finalizes one request: publishes its `Completion` edge, feeds the
    /// latency windows (the exact `CompletedRequest` formulas, so
    /// full-run windows reproduce report percentiles bit for bit), and
    /// fans the flow record out to the sinks.
    pub fn complete(&mut self, done: &FlowCompletion) -> FlowRecord {
        self.publish(FlowEvent {
            time: done.completion,
            kind: FlowEventKind::Completion {
                req: done.req,
                instance: done.instance,
                output_len: done.output_len,
                kv_bytes: done.kv_bytes,
            },
        });
        let i = done.class.index() as usize;
        let ttft = done.first_token - done.arrival;
        self.ttft[i].push(done.completion, ttft);
        if done.output_len > 1 {
            self.tpot[i].push(
                done.completion,
                (done.completion - done.first_token) / (done.output_len - 1) as f64,
            );
        }
        self.norm[i].push(
            done.completion,
            (done.completion - done.arrival) / done.output_len as f64,
        );
        // Grade against the class target with the exact
        // `CompletedRequest::slo_met` formula (single-token requests have
        // TPOT 0, which trivially meets any target).
        let tpot = if done.output_len > 1 {
            (done.completion - done.first_token) / (done.output_len - 1) as f64
        } else {
            0.0
        };
        let met = done.class.target().met(ttft, tpot);
        self.slo[i].push(done.completion, if met { 1.0 } else { 0.0 });
        self.completions += 1;
        let record = self.flows.finalize(done);
        for sink in &mut self.sinks {
            sink.on_record(&record);
        }
        record
    }

    /// Events overwritten on ring wrap so far.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The buffered event ring (oldest first) — the live tail's view.
    pub fn events(&self) -> &EventRing {
        &self.ring
    }

    /// Flushes every attached sink.
    pub fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }

    /// Takes a point-in-time snapshot of all aggregates at `now`.
    pub fn snapshot(&self, now: f64) -> TelemetrySnapshot {
        let classes = SloClass::ALL
            .iter()
            .filter_map(|&class| {
                let i = class.index() as usize;
                let ttft = self.ttft[i].summary(now);
                let tpot = self.tpot[i].summary(now);
                let norm = self.norm[i].summary(now);
                let slo = self.slo[i].summary(now);
                (ttft.count + tpot.count + norm.count > 0).then_some(ClassLatencyStats {
                    class,
                    ttft,
                    tpot,
                    normalized_latency: norm,
                    slo,
                })
            })
            .collect();
        TelemetrySnapshot {
            now,
            window_secs: self.window_secs,
            events_published: self.ring.pushed(),
            events_buffered: self.ring.len(),
            dropped: self.ring.dropped(),
            completions: self.completions,
            open_flows: self.flows.open_len(),
            classes,
            queue_depths: self.depths.iter().filter_map(|d| *d).collect(),
            kv: self.kv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_workload::{RequestId, TenantId};

    fn done(req: u64, class: SloClass, completion: f64) -> FlowCompletion {
        FlowCompletion {
            req: RequestId(req),
            class,
            tenant: TenantId(0),
            instance: 0,
            arrival: completion - 2.0,
            first_token: completion - 1.0,
            completion,
            input_len: 16,
            output_len: 5,
            preemptions: 0,
            redispatches: 0,
            kv_bytes: 256,
            prefix_hit_tokens: 0,
            prefix_shared_bytes: 0,
        }
    }

    #[test]
    fn snapshot_reflects_published_state() {
        let mut bus = TelemetryBus::new(&TelemetryConfig::full_run(), 2).unwrap();
        assert!(bus.snapshot(0.0).is_empty());
        bus.publish(FlowEvent {
            time: 1.0,
            kind: FlowEventKind::QueueDepth {
                instance: 1,
                waiting: 4,
                running: 7,
            },
        });
        bus.publish(FlowEvent {
            time: 1.0,
            kind: FlowEventKind::KvOccupancy {
                used_bytes: 50,
                pool_bytes: 100,
            },
        });
        for i in 0..10 {
            bus.complete(&done(i, SloClass::Interactive, 10.0 + i as f64));
        }
        let snap = bus.snapshot(20.0);
        assert!(!snap.is_empty());
        assert_eq!(snap.completions, 10);
        assert_eq!(snap.max_queue_depth(), 4);
        assert_eq!(snap.queue_depths.len(), 1, "only instance 1 sampled");
        assert!((snap.kv.unwrap().utilization() - 0.5).abs() < 1e-12);
        let c = snap.class(SloClass::Interactive).unwrap();
        assert_eq!(c.ttft.count, 10);
        // Constant 1-second TTFTs: every percentile is exactly 1.
        assert_eq!(snap.p99_ttft(SloClass::Interactive), Some(1.0));
        assert!(snap.class(SloClass::Batch).is_none());
    }

    #[test]
    fn windowed_attainment_grades_like_the_report() {
        let mut bus = TelemetryBus::new(&TelemetryConfig::full_run(), 1).unwrap();
        // The helper's completions have TTFT 1.0 s and TPOT 0.25 s/tok:
        // they meet Interactive's TTFT bound but miss its 0.2 s TPOT
        // bound, so every graded interactive completion fails.
        for i in 0..4 {
            bus.complete(&done(i, SloClass::Interactive, 10.0 + i as f64));
        }
        // The same latencies are comfortably inside Batch's targets.
        for i in 4..6 {
            bus.complete(&done(i, SloClass::Batch, 20.0 + i as f64));
        }
        let snap = bus.snapshot(30.0);
        assert_eq!(snap.windowed_attainment(SloClass::Interactive), Some(0.0));
        assert_eq!(snap.windowed_attainment(SloClass::Batch), Some(1.0));
        assert_eq!(snap.windowed_attainment(SloClass::BestEffort), None);
        let c = snap.class(SloClass::Interactive).unwrap();
        assert_eq!(c.slo.count, 4);
        assert_eq!(c.attainment(), 0.0);
        let t = snap.windowed_ttft(SloClass::Interactive).unwrap();
        assert_eq!(t.count, 4);
        assert!((t.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drops_counted_on_wrap() {
        let cfg = TelemetryConfig {
            ring_capacity: 4,
            ..TelemetryConfig::default()
        };
        let mut bus = TelemetryBus::new(&cfg, 1).unwrap();
        for i in 0..10 {
            bus.publish(FlowEvent {
                time: i as f64,
                kind: FlowEventKind::QueueDepth {
                    instance: 0,
                    waiting: 0,
                    running: 0,
                },
            });
        }
        assert_eq!(bus.dropped(), 6);
        assert_eq!(bus.snapshot(10.0).events_buffered, 4);
    }
}
