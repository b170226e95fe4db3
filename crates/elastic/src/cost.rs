//! Cost-aware acquisition: spot vs on-demand replacement billing.
//!
//! The churn scenarios already model *capacity* economics — devices
//! revoked and rejoining — but never dollars. This module adds the
//! missing axis. An [`AcquisitionPolicy`] decides, at every acquisition
//! point (the initial fleet at `t = 0` and every churn replacement that
//! `Join`s), whether the slot is bought on the spot market (billed at the
//! on-demand rate × the [`PriceTrace`] multiplier, integrated over the
//! occupancy interval) or on-demand (full rate). [`CostMeter::bill`]
//! replays the deterministic churn schedule through that state machine
//! and produces a ledger; [`CostMeter::attach`] folds the ledger and the
//! run's in-SLO goodput into a [`CostReport`] on the `RunReport`.
//!
//! Billing is a pure replay of `(events, prices, policy)` — it never
//! perturbs the simulation. Two runs differing only in acquisition
//! policy therefore have *identical* serving behavior, SLO attainment,
//! and goodput; only the dollars (and hence `cost_per_in_slo_token`)
//! move. That is exactly the comparison the spot-acquisition scenario
//! pins: the cost-aware policy must undercut always-on-demand at
//! equal-or-better attainment, and the digest (which folds the attached
//! `CostReport`) freezes the acquisition decisions themselves.

use hetis_cluster::{Cluster, DeviceId, GpuType};
use hetis_engine::{ClusterEvent, ClusterEventKind, CostReport, RunReport};
use hetis_workload::PriceTrace;

/// How a device slot is billed for one occupancy interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquisitionClass {
    /// Spot market: on-demand rate × integrated price multiplier.
    Spot,
    /// On-demand: full rate for the whole interval.
    OnDemand,
}

/// The acquisition decision rule consulted at every acquisition point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AcquisitionPolicy {
    /// Every slot on-demand — the conservative baseline every cost
    /// comparison races against.
    AlwaysOnDemand,
    /// Every slot on spot, whatever the current price.
    AlwaysSpot,
    /// Cost-aware: take spot while the multiplier at acquisition time is
    /// at or below the threshold, fall back to on-demand when the spot
    /// market is expensive (multiplier above it).
    SpotAware {
        /// Largest spot multiplier still worth taking.
        threshold: f64,
    },
}

impl AcquisitionPolicy {
    /// Decides the billing class given the spot multiplier quoted at the
    /// acquisition instant.
    pub fn decide(&self, multiplier: f64) -> AcquisitionClass {
        match *self {
            AcquisitionPolicy::AlwaysOnDemand => AcquisitionClass::OnDemand,
            AcquisitionPolicy::AlwaysSpot => AcquisitionClass::Spot,
            AcquisitionPolicy::SpotAware { threshold } => {
                if multiplier <= threshold {
                    AcquisitionClass::Spot
                } else {
                    AcquisitionClass::OnDemand
                }
            }
        }
    }

    /// Short policy name for report rows.
    pub fn name(&self) -> &'static str {
        match self {
            AcquisitionPolicy::AlwaysOnDemand => "ondemand",
            AcquisitionPolicy::AlwaysSpot => "spot",
            AcquisitionPolicy::SpotAware { .. } => "spot-aware",
        }
    }
}

/// One acquisition decision, as made by the controller or the meter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcquisitionRecord {
    /// The acquired device slot.
    pub device: DeviceId,
    /// Simulated acquisition time.
    pub time: f64,
    /// Spot multiplier quoted at that time.
    pub multiplier: f64,
    /// The decision.
    pub class: AcquisitionClass,
}

/// One billed occupancy interval of a device slot.
#[derive(Debug, Clone, PartialEq)]
pub struct BilledInterval {
    /// The device.
    pub device: DeviceId,
    /// Its GPU class.
    pub gpu: GpuType,
    /// Interval start (acquisition).
    pub start: f64,
    /// Interval end (revocation, failure, or end of billing window).
    pub end: f64,
    /// How it was billed.
    pub class: AcquisitionClass,
    /// Dollars charged.
    pub dollars: f64,
    /// True when churn (revocation/failure) ended the interval.
    pub revoked: bool,
}

/// The full billing of one run: intervals plus the acquisition log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BillingLedger {
    /// Every billed interval, in deterministic (device, start) order.
    pub intervals: Vec<BilledInterval>,
    /// Every acquisition decision, in the same order they were made.
    pub acquisitions: Vec<AcquisitionRecord>,
}

impl BillingLedger {
    /// Total dollars across all intervals.
    pub fn total_dollars(&self) -> f64 {
        self.intervals.iter().map(|i| i.dollars).sum()
    }

    /// Folds the ledger and a run's in-SLO goodput into a [`CostReport`].
    pub fn report(&self, run: &RunReport) -> CostReport {
        let mut on_demand_dollars = 0.0;
        let mut spot_dollars = 0.0;
        let mut per_gpu: Vec<(GpuType, f64)> = Vec::new();
        let mut billed_device_s = 0.0;
        let mut revocations = 0;
        for i in &self.intervals {
            match i.class {
                AcquisitionClass::Spot => spot_dollars += i.dollars,
                AcquisitionClass::OnDemand => on_demand_dollars += i.dollars,
            }
            billed_device_s += i.end - i.start;
            revocations += i.revoked as u64;
            match per_gpu.iter_mut().find(|(g, _)| *g == i.gpu) {
                Some((_, d)) => *d += i.dollars,
                None => per_gpu.push((i.gpu, i.dollars)),
            }
        }
        let (mut spot_acquisitions, mut on_demand_acquisitions) = (0, 0);
        for a in &self.acquisitions {
            match a.class {
                AcquisitionClass::Spot => spot_acquisitions += 1,
                AcquisitionClass::OnDemand => on_demand_acquisitions += 1,
            }
        }
        let in_slo_tokens: u64 = run.class_stats().iter().map(|s| s.goodput_tokens).sum();
        let total = on_demand_dollars + spot_dollars;
        CostReport {
            on_demand_dollars,
            spot_dollars,
            per_gpu_dollars: per_gpu,
            spot_acquisitions,
            on_demand_acquisitions,
            revocations,
            billed_device_s,
            in_slo_tokens,
            cost_per_in_slo_token: if in_slo_tokens == 0 {
                f64::INFINITY
            } else {
                total / in_slo_tokens as f64
            },
        }
    }
}

/// Bills a churn schedule against a price trace under one acquisition
/// policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMeter {
    /// On-demand $/hour per GPU class.
    pub rates_per_hour: Vec<(GpuType, f64)>,
    /// The spot-price multiplier curve.
    pub prices: PriceTrace,
    /// The acquisition decision rule.
    pub policy: AcquisitionPolicy,
}

impl CostMeter {
    /// A meter with the default cloud rate card.
    pub fn new(prices: PriceTrace, policy: AcquisitionPolicy) -> Self {
        CostMeter {
            rates_per_hour: Self::default_rates(),
            prices,
            policy,
        }
    }

    /// Ball-park public-cloud on-demand $/hour for the paper's testbed
    /// classes (synthetic tiers interpolate between P100 and A100 like
    /// their compute envelopes do).
    pub fn default_rates() -> Vec<(GpuType, f64)> {
        vec![
            (GpuType::A100, 4.10),
            (GpuType::Rtx3090, 0.80),
            (GpuType::P100, 0.55),
        ]
    }

    /// On-demand $/hour of one GPU class.
    pub fn rate_of(&self, gpu: GpuType) -> f64 {
        if let Some((_, r)) = self.rates_per_hour.iter().find(|(g, _)| *g == gpu) {
            return *r;
        }
        match gpu {
            GpuType::Custom(tier) => {
                // Geometric interpolation between the P100 and A100 rates,
                // matching the synthetic compute envelope.
                let t = (tier as f64 / 4.0).clamp(0.0, 1.0);
                0.55 * (4.10f64 / 0.55).powf(t)
            }
            _ => 1.0,
        }
    }

    /// Dollars for one interval of `gpu` billed as `class`.
    fn interval_dollars(&self, gpu: GpuType, class: AcquisitionClass, a: f64, b: f64) -> f64 {
        let per_s = self.rate_of(gpu) / 3600.0;
        match class {
            AcquisitionClass::OnDemand => per_s * (b - a),
            AcquisitionClass::Spot => per_s * self.prices.integral(a, b),
        }
    }

    /// The acquisition state machine: replays the deterministic churn
    /// schedule and bills every occupancy interval of every device.
    ///
    /// Per device slot: acquired at `t = 0` (policy decides spot vs
    /// on-demand at the opening quote); a `PreemptNotice` revokes it
    /// `notice` seconds later and a `Fail` immediately (either ends the
    /// interval and counts a revocation); a `Join` re-acquires it at the
    /// quote of that instant. Slowdowns don't touch billing. The final
    /// open interval closes at `until` (the billing horizon).
    pub fn bill(&self, cluster: &Cluster, events: &[ClusterEvent], until: f64) -> BillingLedger {
        let mut ledger = BillingLedger::default();
        for dev in cluster.devices() {
            let gpu = dev.spec.gpu;
            let acquire = |t: f64, ledger: &mut BillingLedger| {
                let multiplier = self.prices.at(t);
                let rec = AcquisitionRecord {
                    device: dev.id,
                    time: t,
                    multiplier,
                    class: self.policy.decide(multiplier),
                };
                ledger.acquisitions.push(rec);
                rec
            };
            let close =
                |rec: AcquisitionRecord, end: f64, revoked: bool, ledger: &mut BillingLedger| {
                    let end = end.min(until).max(rec.time);
                    ledger.intervals.push(BilledInterval {
                        device: dev.id,
                        gpu,
                        start: rec.time,
                        end,
                        class: rec.class,
                        dollars: self.interval_dollars(gpu, rec.class, rec.time, end),
                        revoked,
                    });
                };
            let mut open = Some(acquire(0.0, &mut ledger));
            for e in events.iter().filter(|e| e.device == dev.id) {
                match e.kind {
                    ClusterEventKind::PreemptNotice { notice } => {
                        if let Some(rec) = open.take() {
                            close(rec, e.time + notice, true, &mut ledger);
                        }
                    }
                    ClusterEventKind::Fail => {
                        if let Some(rec) = open.take() {
                            close(rec, e.time, true, &mut ledger);
                        }
                    }
                    ClusterEventKind::Join => {
                        if open.is_none() && e.time < until {
                            open = Some(acquire(e.time, &mut ledger));
                        }
                    }
                    ClusterEventKind::Slowdown { .. } | ClusterEventKind::Restore => {}
                }
            }
            if let Some(rec) = open.take() {
                close(rec, until, false, &mut ledger);
            }
        }
        ledger
    }

    /// Bills the schedule and attaches the resulting [`CostReport`] to
    /// `report` (the billing window covers the run's full simulated
    /// duration, including any drain past the scenario horizon).
    pub fn attach(
        &self,
        cluster: &Cluster,
        events: &[ClusterEvent],
        horizon: f64,
        report: &mut RunReport,
    ) {
        let until = horizon.max(report.duration);
        let ledger = self.bill(cluster, events, until);
        report.cost = Some(ledger.report(report));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_cluster::cluster::paper_cluster;
    use hetis_engine::ClusterEventKind;

    fn storm_events(c: &Cluster) -> Vec<ClusterEvent> {
        crate::ChurnProcess::preemption_storm(c, GpuType::P100, 99, 20.0, 5.0, 10.0, Some(15.0))
    }

    #[test]
    fn decisions_follow_policy_and_quote() {
        let aware = AcquisitionPolicy::SpotAware { threshold: 0.6 };
        assert_eq!(aware.decide(0.5), AcquisitionClass::Spot);
        assert_eq!(aware.decide(0.7), AcquisitionClass::OnDemand);
        assert_eq!(
            AcquisitionPolicy::AlwaysOnDemand.decide(0.01),
            AcquisitionClass::OnDemand
        );
        assert_eq!(
            AcquisitionPolicy::AlwaysSpot.decide(0.99),
            AcquisitionClass::Spot
        );
    }

    #[test]
    fn billing_is_deterministic_and_conserves_time() {
        let c = paper_cluster();
        let events = storm_events(&c);
        let prices = PriceTrace::seeded(17, 120.0, 10.0, 0.25, 0.95);
        let meter = CostMeter::new(prices, AcquisitionPolicy::AlwaysSpot);
        let a = meter.bill(&c, &events, 120.0);
        let b = meter.bill(&c, &events, 120.0);
        assert_eq!(a, b);
        // Every P100 has a revoked interval plus a rejoined one; every
        // other device bills exactly [0, until).
        let p100s = c.devices_of_type(GpuType::P100);
        for d in c.devices() {
            let ivs: Vec<&BilledInterval> =
                a.intervals.iter().filter(|i| i.device == d.id).collect();
            if p100s.contains(&d.id) {
                assert_eq!(ivs.len(), 2, "revoked then re-acquired");
                assert!(ivs[0].revoked && !ivs[1].revoked);
            } else {
                assert_eq!(ivs.len(), 1);
                assert_eq!((ivs[0].start, ivs[0].end), (0.0, 120.0));
            }
            for i in &ivs {
                assert!(i.end >= i.start && i.dollars >= 0.0);
            }
        }
    }

    #[test]
    fn spot_always_undercuts_on_demand() {
        let c = paper_cluster();
        let events = storm_events(&c);
        let prices = PriceTrace::seeded(23, 120.0, 10.0, 0.25, 0.95);
        let on_demand = CostMeter::new(prices.clone(), AcquisitionPolicy::AlwaysOnDemand);
        let spot = CostMeter::new(prices.clone(), AcquisitionPolicy::AlwaysSpot);
        let aware = CostMeter::new(prices, AcquisitionPolicy::SpotAware { threshold: 0.7 });
        let d_od = on_demand.bill(&c, &events, 120.0).total_dollars();
        let d_spot = spot.bill(&c, &events, 120.0).total_dollars();
        let d_aware = aware.bill(&c, &events, 120.0).total_dollars();
        assert!(d_spot < d_od, "spot {d_spot} vs on-demand {d_od}");
        assert!(
            d_spot <= d_aware && d_aware <= d_od,
            "aware must sit between: {d_spot} <= {d_aware} <= {d_od}"
        );
    }

    #[test]
    fn fail_bills_to_the_failure_instant() {
        let c = paper_cluster();
        let dev = c.devices()[0].id;
        let events = vec![
            ClusterEvent {
                time: 30.0,
                device: dev,
                kind: ClusterEventKind::Fail,
            },
            ClusterEvent {
                time: 50.0,
                device: dev,
                kind: ClusterEventKind::Join,
            },
        ];
        let meter = CostMeter::new(PriceTrace::constant(0.5), AcquisitionPolicy::AlwaysOnDemand);
        let ledger = meter.bill(&c, &events, 100.0);
        let ivs: Vec<&BilledInterval> = ledger
            .intervals
            .iter()
            .filter(|i| i.device == dev)
            .collect();
        assert_eq!(ivs.len(), 2);
        assert_eq!((ivs[0].start, ivs[0].end), (0.0, 30.0));
        assert!(ivs[0].revoked);
        assert_eq!((ivs[1].start, ivs[1].end), (50.0, 100.0));
        // 80 billed seconds at the device's rate.
        let rate = meter.rate_of(c.devices()[0].spec.gpu) / 3600.0;
        let dev_dollars: f64 = ivs.iter().map(|i| i.dollars).sum();
        assert!((dev_dollars - rate * 80.0).abs() < 1e-9);
    }

    #[test]
    fn custom_tier_rates_interpolate() {
        let meter = CostMeter::new(PriceTrace::constant(0.5), AcquisitionPolicy::AlwaysSpot);
        let lo = meter.rate_of(GpuType::Custom(0));
        let hi = meter.rate_of(GpuType::Custom(4));
        assert!((lo - 0.55).abs() < 1e-9);
        assert!((hi - 4.10).abs() < 1e-9);
        let mid = meter.rate_of(GpuType::Custom(2));
        assert!(lo < mid && mid < hi);
    }
}
