//! Metric collection and reporting.
//!
//! All figures of the paper's evaluation reduce to quantities defined
//! here: normalized end-to-end latency (s/token, Figs. 8–10), P95
//! TTFT/TPOT (Fig. 12), per-module latency contributions (Fig. 13, the
//! max-stage × stage-count metric), KV-pool totals (Fig. 11) and resource
//! time series (Fig. 14).

use hetis_cluster::{DeviceId, GpuType};
use hetis_sim::percentile;
use hetis_workload::{RequestId, SloClass, TenantId};

/// Metrics of one completed request.
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    /// Request id.
    pub id: RequestId,
    /// Arrival time.
    pub arrival: f64,
    /// Time the first output token appeared (prefill completion).
    pub first_token: f64,
    /// Completion time (last token).
    pub completion: f64,
    /// Prompt length.
    pub input_len: u32,
    /// Output length.
    pub output_len: u32,
    /// Recompute preemptions suffered.
    pub preemptions: u32,
    /// Re-dispatches applied.
    pub redispatches: u32,
    /// SLO class the request is graded against.
    pub class: SloClass,
    /// Issuing tenant.
    pub tenant: TenantId,
}

impl CompletedRequest {
    /// Time to first token: queueing + prefill.
    pub fn ttft(&self) -> f64 {
        self.first_token - self.arrival
    }

    /// Mean time per output token after the first.
    pub fn tpot(&self) -> f64 {
        if self.output_len <= 1 {
            0.0
        } else {
            (self.completion - self.first_token) / (self.output_len - 1) as f64
        }
    }

    /// End-to-end latency normalized by output length (the Figs. 8–10
    /// y-axis, s/token).
    pub fn normalized_latency(&self) -> f64 {
        (self.completion - self.arrival) / self.output_len as f64
    }

    /// True when the request met its class's TTFT and TPOT targets.
    pub fn slo_met(&self) -> bool {
        self.class.target().met(self.ttft(), self.tpot())
    }
}

/// Per-SLO-class aggregate of one run.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// The class.
    pub class: SloClass,
    /// Completed requests of this class.
    pub completed: usize,
    /// Completions that met both TTFT and TPOT targets.
    pub slo_met: usize,
    /// Output tokens of SLO-meeting completions (the goodput numerator).
    pub goodput_tokens: u64,
    /// P99 TTFT (+inf when nothing completed).
    pub p99_ttft: f64,
    /// P95 TTFT (+inf when nothing completed).
    pub p95_ttft: f64,
    /// P95 TPOT (+inf when nothing with ≥ 2 output tokens completed).
    pub p95_tpot: f64,
}

impl ClassStats {
    /// Fraction of this class's completions that met the SLO (1.0 when
    /// nothing completed, so empty classes read as unharmed).
    pub fn attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.slo_met as f64 / self.completed as f64
        }
    }
}

/// One decode iteration's per-module latency contribution:
/// max stage time × number of stages (the Fig. 13 definition, which
/// charges pipeline bubbles to the slowest stage).
#[derive(Debug, Clone, Copy)]
pub struct ModuleSample {
    /// Simulated time of the iteration.
    pub time: f64,
    /// MLP contribution (s).
    pub mlp: f64,
    /// Attention contribution (s).
    pub attn: f64,
}

/// A point of the per-device resource time series (Fig. 14).
#[derive(Debug, Clone)]
pub struct TraceSample {
    /// Sample time.
    pub time: f64,
    /// Per device: (device, cache-pool utilization in `[0,1]`, resident
    /// query heads per layer).
    pub devices: Vec<(DeviceId, f64, u64)>,
}

/// Dollar accounting of one run under a spot-price trace and an
/// acquisition policy (see `hetis-elastic`'s cost meter, which produces
/// these). Billing replays the churn schedule against the price trace —
/// it never perturbs the simulation, so two runs differing only in
/// acquisition policy have identical serving behavior and SLO attainment,
/// and [`RunReport::digest`] folds this block only when it is attached.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Dollars billed for intervals acquired on-demand (full rate).
    pub on_demand_dollars: f64,
    /// Dollars billed for intervals acquired on the spot market (rate ×
    /// integrated price multiplier).
    pub spot_dollars: f64,
    /// Dollars per GPU class, in cluster device order, classes with no
    /// billed time omitted.
    pub per_gpu_dollars: Vec<(GpuType, f64)>,
    /// Acquisitions decided as spot (initial fleet + churn replacements).
    pub spot_acquisitions: u64,
    /// Acquisitions decided as on-demand.
    pub on_demand_acquisitions: u64,
    /// Occupancy intervals ended by churn (preemption revocations and
    /// failures) rather than by the end of the run.
    pub revocations: u64,
    /// Total billed device-seconds across all intervals.
    pub billed_device_s: f64,
    /// Output tokens of SLO-meeting completions (the goodput numerator —
    /// matches [`ClassStats::goodput_tokens`] summed over classes).
    pub in_slo_tokens: u64,
    /// The headline economics metric: total dollars per in-SLO output
    /// token (+inf when the run served nothing within SLO).
    pub cost_per_in_slo_token: f64,
}

impl CostReport {
    /// Total dollars billed (spot + on-demand).
    pub fn total_dollars(&self) -> f64 {
        self.on_demand_dollars + self.spot_dollars
    }
}

/// Stable small integer code of a GPU class, for digest folding.
fn gpu_code(gpu: GpuType) -> u64 {
    match gpu {
        GpuType::A100 => 0,
        GpuType::Rtx3090 => 1,
        GpuType::P100 => 2,
        GpuType::Custom(i) => 100 + i as u64,
    }
}

/// Full output of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy name ("hetis", "hexgen", "splitwise", …).
    pub policy: String,
    /// Per-request metrics for completed requests.
    pub completed: Vec<CompletedRequest>,
    /// Requests still unfinished at simulation end.
    pub unfinished: usize,
    /// Per-decode-iteration module samples.
    pub module_samples: Vec<ModuleSample>,
    /// Resource time series.
    pub trace: Vec<TraceSample>,
    /// Simulated makespan (time of the last event).
    pub duration: f64,
    /// Total raw KV pool across all devices used by the topology.
    pub total_kv_pool_bytes: u64,
    /// *Usable* KV capacity (bottleneck-stage-limited; prefill-only pools
    /// excluded) — Fig. 11's "cache space". See
    /// [`crate::memory::usable_kv_bytes`].
    pub usable_kv_bytes: u64,
    /// Recompute preemptions executed.
    pub preemptions: u64,
    /// Cache migrations executed (scatter / handoff / re-dispatch).
    pub migrations: u64,
    /// Bytes moved by migrations.
    pub migrated_bytes: f64,
    /// One record per executed cluster-change event (empty without churn).
    pub replans: Vec<crate::churn::ReplanRecord>,
    /// Context tokens whose KV was destroyed by churn and had to be
    /// re-prefilled (the "lost work" of preemptions).
    pub lost_tokens: u64,
    /// Recompute preemptions forced by cluster churn (subset of
    /// `preemptions`).
    pub churn_evictions: u64,
    /// Total prompt tokens processed by prefill iterations (each chunk
    /// counted once). Chunking must conserve this against the atomic
    /// engine on preemption-free runs.
    pub prefill_tokens: u64,
    /// Number of prefill iterations executed (atomic prefills count 1;
    /// a chunked prompt counts once per chunk).
    pub prefill_iterations: u64,
    /// Largest token count of any single prefill iteration — the
    /// chunked-prefill budget invariant: with `prefill_chunk_tokens ≤
    /// max_batch_tokens` this never exceeds `max_batch_tokens`.
    pub max_prefill_iter_tokens: u64,
    /// Discrete events the engine processed (arrivals, microbatch
    /// completions, migrations, samples, churn). A throughput profile
    /// metric — deliberately *not* folded into [`RunReport::digest`],
    /// which pins serving behavior only: event counts shift with
    /// engine-internal mechanics (e.g. sampling cadence) without any
    /// behavioral meaning.
    pub events_processed: u64,
    /// Peak KV bytes reserved across all devices, observed at event
    /// boundaries. Under atomic admission this includes every admitted
    /// prompt's full KV; under incremental growth it tracks only the
    /// chunks reserved so far — the headline "fine-grained memory" win.
    /// A memory-profile metric, not folded into [`RunReport::digest`]
    /// (same policy as `events_processed`: the digest pins the serving
    /// schedule, and the schedule already determines this value).
    pub peak_kv_reserved_bytes: u64,
    /// Microbatch iterations that fused a prefill chunk with a non-empty
    /// decode batch (0 unless `EngineConfig::fused_microbatches`). A
    /// mechanics counter, not digested.
    pub fused_iterations: u64,
    /// Successful incremental KV reservation growths (one per chunk that
    /// extended a resident reservation). Not digested.
    pub kv_growths: u64,
    /// Reservation growths that failed after the victim loop and
    /// recompute-preempted the growing request (subset of `preemptions`).
    /// Not digested (the eviction itself is visible in the digested
    /// per-request preemption counts).
    pub kv_grow_failures: u64,
    /// Admission-time prefix-cache probes (waiting session turns whose
    /// predecessor key was looked up; 0 unless
    /// `EngineConfig::prefix_reuse`). A mechanics counter, not digested
    /// — but note `prefill_tokens` IS behavior-visible: reuse-on runs
    /// prefill only the cold tokens, so they pin their own digests.
    pub prefix_probes: u64,
    /// Probes whose warm prefix was consumed by a successful admission.
    /// Not digested.
    pub prefix_hits: u64,
    /// Prompt tokens adopted warm across all hits — compute the engine
    /// never spent re-prefilling replayed context. Not digested.
    pub prefix_hit_tokens: u64,
    /// KV bytes adopted warm across all hits — reservation traffic the
    /// prefill never wrote. Not digested.
    pub shared_kv_bytes: u64,
    /// Always 0: the telemetry bus folds every event into its aggregates
    /// and buffers none, so it never drops one. Kept so that code
    /// reading the field still compiles; not digested.
    pub telemetry_dropped: u64,
    /// End-of-run telemetry snapshot (`None` when telemetry is
    /// disabled). Not digested: the digest pins serving behavior, and
    /// the snapshot is derived from the same completions it already
    /// folds.
    pub telemetry: Option<hetis_telemetry::TelemetrySnapshot>,
    /// Every closed-loop control action applied, tick-stamped in event
    /// order (empty when `EngineConfig::closed_loop` is `None` — and
    /// when the controller stayed quiet for the whole run). Folded into
    /// [`RunReport::digest`] *only when non-empty*: pre-closed-loop
    /// digests stay bit-identical, a quiet closed-loop run digests
    /// identically to its open-loop twin, and two equal digests imply
    /// byte-identical actuation sequences.
    pub control_log: Vec<crate::control::ControlRecord>,
    /// Dollar accounting under a price trace + acquisition policy
    /// (`None` unless a cost meter attached one after the run). Folded
    /// into [`RunReport::digest`] *only when present* — the same
    /// only-when-enabled neutrality contract as `control_log` — so every
    /// costless pin stays bit-identical while costed runs pin their
    /// acquisition economics too.
    pub cost: Option<CostReport>,
}

impl RunReport {
    /// Normalized latencies of all completed requests.
    pub fn normalized_latencies(&self) -> Vec<f64> {
        self.completed
            .iter()
            .map(|c| c.normalized_latency())
            .collect()
    }

    /// Mean normalized latency (s/token); +inf when nothing completed —
    /// plot-friendly for saturated points.
    pub fn mean_normalized_latency(&self) -> f64 {
        let v = self.normalized_latencies();
        if v.is_empty() {
            f64::INFINITY
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// TTFT values.
    pub fn ttfts(&self) -> Vec<f64> {
        self.completed.iter().map(|c| c.ttft()).collect()
    }

    /// TPOT values (requests with ≥ 2 output tokens).
    pub fn tpots(&self) -> Vec<f64> {
        self.completed
            .iter()
            .filter(|c| c.output_len > 1)
            .map(|c| c.tpot())
            .collect()
    }

    /// P99 normalized latency (s/token) — the churn scenarios' headline
    /// tail metric; +inf when nothing completed.
    pub fn p99_normalized_latency(&self) -> f64 {
        percentile(&self.normalized_latencies(), 99.0).unwrap_or(f64::INFINITY)
    }

    /// Total simulated seconds spent re-planning across all cluster
    /// events.
    pub fn total_replan_latency(&self) -> f64 {
        self.replans.iter().map(|r| r.replan_latency).sum()
    }

    /// Fraction of prefix probes whose warm prefix was consumed by an
    /// admission (0 when nothing probed — reuse off or no sessions).
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.prefix_probes == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / self.prefix_probes as f64
        }
    }

    /// Completions of one SLO class.
    pub fn completed_of_class(&self, class: SloClass) -> Vec<&CompletedRequest> {
        self.completed.iter().filter(|c| c.class == class).collect()
    }

    /// Per-class aggregates, in [`SloClass::ALL`] order, classes with no
    /// completions omitted.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        SloClass::ALL
            .iter()
            .filter_map(|&class| self.stats_of_class(class))
            .collect()
    }

    /// Stats of one class (None when it completed nothing). Aggregates
    /// only this class's completions — cheaper than filtering the full
    /// [`Self::class_stats`] table.
    pub fn stats_of_class(&self, class: SloClass) -> Option<ClassStats> {
        let reqs = self.completed_of_class(class);
        if reqs.is_empty() {
            return None;
        }
        let ttfts: Vec<f64> = reqs.iter().map(|c| c.ttft()).collect();
        let tpots: Vec<f64> = reqs
            .iter()
            .filter(|c| c.output_len > 1)
            .map(|c| c.tpot())
            .collect();
        let met: Vec<&&CompletedRequest> = reqs.iter().filter(|c| c.slo_met()).collect();
        Some(ClassStats {
            class,
            completed: reqs.len(),
            slo_met: met.len(),
            goodput_tokens: met.iter().map(|c| c.output_len as u64).sum(),
            p99_ttft: percentile(&ttfts, 99.0).unwrap_or(f64::INFINITY),
            p95_ttft: percentile(&ttfts, 95.0).unwrap_or(f64::INFINITY),
            p95_tpot: percentile(&tpots, 95.0).unwrap_or(f64::INFINITY),
        })
    }

    /// P99 TTFT of one class (+inf when it completed nothing).
    pub fn p99_ttft_of_class(&self, class: SloClass) -> f64 {
        self.stats_of_class(class)
            .map(|s| s.p99_ttft)
            .unwrap_or(f64::INFINITY)
    }

    /// Goodput: output tokens served *within SLO* per simulated second.
    /// For best-effort-only traces this equals [`Self::token_throughput`].
    pub fn goodput(&self) -> f64 {
        if self.duration <= 0.0 {
            return 0.0;
        }
        let tokens: u64 = self
            .completed
            .iter()
            .filter(|c| c.slo_met())
            .map(|c| c.output_len as u64)
            .sum();
        tokens as f64 / self.duration
    }

    /// Overall SLO attainment across every completion (1.0 when nothing
    /// completed).
    pub fn slo_attainment(&self) -> f64 {
        if self.completed.is_empty() {
            return 1.0;
        }
        self.completed.iter().filter(|c| c.slo_met()).count() as f64 / self.completed.len() as f64
    }

    /// Bit-stable fingerprint of the run, for determinism assertions:
    /// same seed + same scenario ⇒ identical digest. Folds every
    /// completed request's exact times (via `f64::to_bits`), the churn
    /// records, and the headline counters into an FNV-1a hash.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
        };
        fold(self.completed.len() as u64);
        for c in &self.completed {
            fold(c.id.0);
            fold(c.arrival.to_bits());
            fold(c.first_token.to_bits());
            fold(c.completion.to_bits());
            fold(c.preemptions as u64);
            fold(c.redispatches as u64);
            fold(c.class.index() as u64);
            fold(c.tenant.0 as u64);
        }
        fold(self.unfinished as u64);
        fold(self.preemptions);
        fold(self.migrations);
        fold(self.migrated_bytes.to_bits());
        fold(self.lost_tokens);
        fold(self.churn_evictions);
        fold(self.prefill_tokens);
        fold(self.prefill_iterations);
        fold(self.max_prefill_iter_tokens);
        // Per-class SLO metrics. Strictly these are derived from the
        // per-completion folds above; folding the full derived table too
        // makes the guarantee self-evident — a digest match means
        // identical attainment/goodput/percentile tables even if the
        // derivation changes.
        for s in self.class_stats() {
            fold(s.class.index() as u64);
            fold(s.completed as u64);
            fold(s.slo_met as u64);
            fold(s.goodput_tokens);
            fold(s.p99_ttft.to_bits());
            fold(s.p95_ttft.to_bits());
            fold(s.p95_tpot.to_bits());
        }
        fold(self.replans.len() as u64);
        for r in &self.replans {
            fold(r.time.to_bits());
            fold(r.event.len() as u64);
            fold(r.replan_latency.to_bits());
            fold(r.evicted as u64);
            fold(r.lost_tokens);
        }
        // Closed-loop actuation history — folded only when non-empty so
        // every pre-closed-loop pin stays bit-identical and a quiet
        // controller digests exactly like an open loop, while equal
        // digests of actuating runs imply identical action sequences.
        if !self.control_log.is_empty() {
            fold(self.control_log.len() as u64);
            for r in &self.control_log {
                fold(r.time.to_bits());
                let [a, b] = r.action.digest_words();
                fold(a);
                fold(b);
            }
        }
        // Cost accounting — folded only when a cost meter attached it, so
        // uncosted pins are untouched and equal digests of costed runs
        // imply identical dollars, acquisition decisions, and the
        // cost-per-in-SLO-token headline.
        if let Some(c) = &self.cost {
            fold(c.on_demand_dollars.to_bits());
            fold(c.spot_dollars.to_bits());
            fold(c.per_gpu_dollars.len() as u64);
            for &(gpu, d) in &c.per_gpu_dollars {
                fold(gpu_code(gpu));
                fold(d.to_bits());
            }
            fold(c.spot_acquisitions);
            fold(c.on_demand_acquisitions);
            fold(c.revocations);
            fold(c.billed_device_s.to_bits());
            fold(c.in_slo_tokens);
            fold(c.cost_per_in_slo_token.to_bits());
        }
        h
    }

    /// Dollars per in-SLO output token (+inf when no cost accounting is
    /// attached — an uncosted run has no defined price).
    pub fn cost_per_in_slo_token(&self) -> f64 {
        self.cost
            .as_ref()
            .map(|c| c.cost_per_in_slo_token)
            .unwrap_or(f64::INFINITY)
    }

    /// Total dollars billed (0 when no cost accounting is attached).
    pub fn total_dollars(&self) -> f64 {
        self.cost.as_ref().map(|c| c.total_dollars()).unwrap_or(0.0)
    }

    /// Closed-loop control actions of one kind (see
    /// [`crate::control::ControlAction::kind`]).
    pub fn control_actions_of_kind(&self, kind: &str) -> usize {
        self.control_log
            .iter()
            .filter(|r| r.action.kind() == kind)
            .count()
    }

    /// Scale-out proposals the closed loop emitted.
    pub fn scale_out_proposals(&self) -> usize {
        self.control_actions_of_kind("scale-out")
    }

    /// Scale-in proposals the closed loop emitted.
    pub fn scale_in_proposals(&self) -> usize {
        self.control_actions_of_kind("scale-in")
    }

    /// Times the closed loop engaged the admission throttle.
    pub fn throttle_engagements(&self) -> usize {
        self.control_actions_of_kind("throttle-on")
    }

    /// Times the closed loop engaged chunk pacing.
    pub fn pace_engagements(&self) -> usize {
        self.control_actions_of_kind("pace-on")
    }

    /// P95 TTFT.
    pub fn p95_ttft(&self) -> f64 {
        percentile(&self.ttfts(), 95.0).unwrap_or(f64::INFINITY)
    }

    /// P95 TPOT.
    pub fn p95_tpot(&self) -> f64 {
        percentile(&self.tpots(), 95.0).unwrap_or(f64::INFINITY)
    }

    /// P95 of the per-iteration MLP latency contribution.
    pub fn p95_mlp(&self) -> f64 {
        let v: Vec<f64> = self.module_samples.iter().map(|s| s.mlp).collect();
        percentile(&v, 95.0).unwrap_or(0.0)
    }

    /// P95 of the per-iteration Attention latency contribution.
    pub fn p95_attn(&self) -> f64 {
        let v: Vec<f64> = self.module_samples.iter().map(|s| s.attn).collect();
        percentile(&v, 95.0).unwrap_or(0.0)
    }

    /// Output-token throughput (tokens/s).
    pub fn token_throughput(&self) -> f64 {
        if self.duration <= 0.0 {
            return 0.0;
        }
        let tokens: u64 = self.completed.iter().map(|c| c.output_len as u64).sum();
        tokens as f64 / self.duration
    }

    /// Fraction of issued requests that completed.
    pub fn completion_rate(&self) -> f64 {
        let total = self.completed.len() + self.unfinished;
        if total == 0 {
            1.0
        } else {
            self.completed.len() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(arrival: f64, first: f64, done: f64, out: u32) -> CompletedRequest {
        CompletedRequest {
            id: RequestId(0),
            arrival,
            first_token: first,
            completion: done,
            input_len: 100,
            output_len: out,
            preemptions: 0,
            redispatches: 0,
            class: SloClass::BestEffort,
            tenant: TenantId(0),
        }
    }

    #[test]
    fn per_request_metrics() {
        let c = req(0.0, 2.0, 11.0, 10);
        assert_eq!(c.ttft(), 2.0);
        assert_eq!(c.tpot(), 1.0);
        assert_eq!(c.normalized_latency(), 1.1);
        // Single-token output: TPOT degenerates to 0.
        assert_eq!(req(0.0, 1.0, 1.0, 1).tpot(), 0.0);
    }

    fn empty_report() -> RunReport {
        RunReport {
            policy: "test".into(),
            completed: vec![],
            unfinished: 0,
            module_samples: vec![],
            trace: vec![],
            duration: 10.0,
            total_kv_pool_bytes: 0,
            usable_kv_bytes: 0,
            preemptions: 0,
            migrations: 0,
            migrated_bytes: 0.0,
            replans: vec![],
            lost_tokens: 0,
            churn_evictions: 0,
            prefill_tokens: 0,
            prefill_iterations: 0,
            max_prefill_iter_tokens: 0,
            events_processed: 0,
            peak_kv_reserved_bytes: 0,
            fused_iterations: 0,
            kv_growths: 0,
            kv_grow_failures: 0,
            prefix_probes: 0,
            prefix_hits: 0,
            prefix_hit_tokens: 0,
            shared_kv_bytes: 0,
            telemetry_dropped: 0,
            telemetry: None,
            control_log: vec![],
            cost: None,
        }
    }

    #[test]
    fn empty_report_is_safe() {
        let r = empty_report();
        assert!(r.mean_normalized_latency().is_infinite());
        assert!(r.p95_ttft().is_infinite());
        assert_eq!(r.p95_mlp(), 0.0);
        assert_eq!(r.token_throughput(), 0.0);
        assert_eq!(r.completion_rate(), 1.0);
        assert_eq!(r.scale_out_proposals(), 0);
    }

    #[test]
    fn control_log_folds_only_when_non_empty() {
        use crate::control::{ControlAction, ControlRecord};
        let base = empty_report();
        let pinned = base.digest();
        // An empty log is the open-loop / quiet-controller case: digest
        // unchanged.
        assert!(base.control_log.is_empty());
        assert_eq!(base.digest(), pinned);
        let mut acted = empty_report();
        acted.control_log.push(ControlRecord {
            time: 12.0,
            action: ControlAction::ThrottleOn { attainment: 0.8 },
        });
        assert_ne!(acted.digest(), pinned, "actuations must be digested");
        assert_eq!(acted.throttle_engagements(), 1);
        assert_eq!(acted.control_actions_of_kind("pace-on"), 0);
        // Different action payload ⇒ different digest.
        let mut other = empty_report();
        other.control_log.push(ControlRecord {
            time: 12.0,
            action: ControlAction::ThrottleOn { attainment: 0.5 },
        });
        assert_ne!(other.digest(), acted.digest());
    }

    #[test]
    fn cost_folds_only_when_attached() {
        let base = empty_report();
        let pinned = base.digest();
        assert!(base.cost.is_none(), "uncosted by default");
        assert!(base.cost_per_in_slo_token().is_infinite());
        assert_eq!(base.total_dollars(), 0.0);
        let mut billed = empty_report();
        billed.cost = Some(CostReport {
            on_demand_dollars: 10.0,
            spot_dollars: 2.5,
            per_gpu_dollars: vec![(GpuType::A100, 9.0), (GpuType::P100, 3.5)],
            spot_acquisitions: 4,
            on_demand_acquisitions: 12,
            revocations: 4,
            billed_device_s: 720.0,
            in_slo_tokens: 50_000,
            cost_per_in_slo_token: 12.5 / 50_000.0,
        });
        assert_ne!(billed.digest(), pinned, "attached costs must pin");
        assert!((billed.total_dollars() - 12.5).abs() < 1e-12);
        // A different acquisition split ⇒ a different digest.
        let mut other = billed.clone();
        if let Some(c) = &mut other.cost {
            c.spot_acquisitions = 5;
            c.on_demand_acquisitions = 11;
        }
        assert_ne!(other.digest(), billed.digest());
    }

    #[test]
    fn aggregates() {
        let mut r = empty_report();
        r.completed = vec![
            req(0.0, 1.0, 5.0, 4),
            req(1.0, 2.0, 8.0, 7),
            req(2.0, 4.0, 6.0, 2),
        ];
        r.unfinished = 1;
        assert_eq!(r.ttfts(), vec![1.0, 1.0, 2.0]);
        assert_eq!(r.token_throughput(), 1.3);
        assert!((r.completion_rate() - 0.75).abs() < 1e-12);
        assert!(r.mean_normalized_latency() > 0.0);
        r.module_samples = vec![
            ModuleSample {
                time: 0.0,
                mlp: 0.010,
                attn: 0.002,
            },
            ModuleSample {
                time: 1.0,
                mlp: 0.020,
                attn: 0.004,
            },
        ];
        assert!(r.p95_mlp() > 0.019 && r.p95_mlp() <= 0.020);
        assert!(r.p95_attn() > 0.0);
    }

    #[test]
    fn class_stats_split_and_grade() {
        let mut r = empty_report();
        // Interactive: one meets the SLO (ttft 0.5 ≤ 1.0, tpot 0.1 ≤ 0.2),
        // one misses on TTFT.
        let mut fast = req(0.0, 0.5, 1.4, 10);
        fast.class = SloClass::Interactive;
        let mut late = req(0.0, 3.0, 4.0, 11);
        late.class = SloClass::Interactive;
        // Batch: comfortably within its loose targets.
        let mut batch = req(0.0, 10.0, 20.0, 40);
        batch.class = SloClass::Batch;
        batch.tenant = TenantId(1);
        r.completed = vec![fast, late, batch];

        assert!(r.completed[0].slo_met());
        assert!(!r.completed[1].slo_met());
        assert!(r.completed[2].slo_met());

        let stats = r.class_stats();
        assert_eq!(stats.len(), 2, "two classes present");
        let i = r.stats_of_class(SloClass::Interactive).unwrap();
        assert_eq!((i.completed, i.slo_met, i.goodput_tokens), (2, 1, 10));
        assert!((i.attainment() - 0.5).abs() < 1e-12);
        let b = r.stats_of_class(SloClass::Batch).unwrap();
        assert_eq!((b.completed, b.slo_met, b.goodput_tokens), (1, 1, 40));
        assert!(r.stats_of_class(SloClass::BestEffort).is_none());

        // Goodput counts only SLO-meeting tokens: (10 + 40) / 10 s.
        assert!((r.goodput() - 5.0).abs() < 1e-12);
        assert!((r.slo_attainment() - 2.0 / 3.0).abs() < 1e-12);
        assert!(r.p99_ttft_of_class(SloClass::Interactive) > 2.9);
        assert!(r.p99_ttft_of_class(SloClass::BestEffort).is_infinite());
    }

    #[test]
    fn digest_covers_class_metrics() {
        let mut a = empty_report();
        a.completed = vec![req(0.0, 1.0, 5.0, 4)];
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        // Same times, different class ⇒ different digest.
        b.completed[0].class = SloClass::Interactive;
        assert_ne!(a.digest(), b.digest());
        // Same times, different tenant ⇒ different digest.
        let mut c = a.clone();
        c.completed[0].tenant = TenantId(7);
        assert_ne!(a.digest(), c.digest());
        // Prefill counters are covered too.
        let mut d = a.clone();
        d.prefill_tokens = 1;
        assert_ne!(a.digest(), d.digest());
    }
}
