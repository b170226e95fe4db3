//! Service-level objectives and multi-tenant workload tagging.
//!
//! The paper's motivation (§1) is that attention must be dispatched at
//! fine grain so heterogeneous devices meet *tail-latency targets* — but
//! targets only exist relative to a request class. This module introduces
//! the class vocabulary the SLO-aware scheduler consumes:
//!
//! * [`SloClass`] — `Interactive` (chatbot turns: tight TTFT/TPOT),
//!   `Batch` (long-context summarization: loose deadlines), and
//!   `BestEffort` (no targets; the default for untagged traces, which
//!   keeps every pre-SLO experiment byte-identical).
//! * [`SloTarget`] — the numeric TTFT/TPOT bounds of a class.
//! * [`TenantId`] — tags every request with the tenant that issued it so
//!   reports can attribute attainment and goodput per tenant.
//! * [`TenantSpec`] / [`multi_tenant_trace`] — compose several
//!   per-tenant streams (each its own dataset, class, and Poisson rate)
//!   into one arrival-sorted [`Trace`] with globally
//!   sequential request ids, deterministically from one seed.

use crate::arrivals::{PiecewiseRate, Poisson};
use crate::datasets::DatasetKind;
use crate::request::RequestId;
use crate::trace::{Trace, TraceBuilder};

/// The tenant a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u16);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Latency targets of an SLO class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// Time-to-first-token bound, seconds.
    pub ttft: f64,
    /// Time-per-output-token bound, seconds.
    pub tpot: f64,
}

impl SloTarget {
    /// True when a request with the given latencies met this target.
    pub fn met(&self, ttft: f64, tpot: f64) -> bool {
        ttft <= self.ttft && tpot <= self.tpot
    }
}

/// Service class of a request.
///
/// Targets are fixed per class (a deployment knob, not a per-request
/// one): they are what the admission policy computes *slack* against and
/// what [`SloTarget::met`] grades completions with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum SloClass {
    /// Latency-critical chat traffic: tight TTFT and TPOT.
    Interactive,
    /// Throughput-oriented long-context work: loose deadlines.
    Batch,
    /// No objectives (legacy/untagged traces). Targets are infinite, so
    /// attainment is trivially 100% and goodput equals throughput.
    #[default]
    BestEffort,
}

impl SloClass {
    /// All classes, in reporting order.
    pub const ALL: [SloClass; 3] = [SloClass::Interactive, SloClass::Batch, SloClass::BestEffort];

    /// The class's latency targets.
    pub fn target(self) -> SloTarget {
        match self {
            SloClass::Interactive => SloTarget {
                ttft: 1.0,
                tpot: 0.2,
            },
            SloClass::Batch => SloTarget {
                ttft: 30.0,
                tpot: 1.0,
            },
            SloClass::BestEffort => SloTarget {
                ttft: f64::INFINITY,
                tpot: f64::INFINITY,
            },
        }
    }

    /// Stable small index (digest folding, compact tables).
    pub fn index(self) -> u8 {
        match self {
            SloClass::Interactive => 0,
            SloClass::Batch => 1,
            SloClass::BestEffort => 2,
        }
    }

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Batch => "batch",
            SloClass::BestEffort => "best-effort",
        }
    }
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One tenant's contribution to a shared serving deployment.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// The tenant tag applied to every generated request.
    pub tenant: TenantId,
    /// Length distribution the tenant draws from.
    pub dataset: DatasetKind,
    /// SLO class of the tenant's requests.
    pub class: SloClass,
    /// Mean Poisson arrival rate, requests/second.
    pub rate: f64,
    /// Optional demand burst `(start_s, len_s, multiplier)`: the rate is
    /// `rate × multiplier` inside the window. Bursts are what make
    /// admission *order* matter — queues only form when demand
    /// transiently exceeds service capacity.
    pub burst: Option<(f64, f64, f64)>,
}

impl TenantSpec {
    /// A steady-rate tenant (no burst).
    pub fn steady(tenant: TenantId, dataset: DatasetKind, class: SloClass, rate: f64) -> Self {
        TenantSpec {
            tenant,
            dataset,
            class,
            rate,
            burst: None,
        }
    }

    /// Adds a demand burst of `multiplier`× the base rate over
    /// `[start, start + len)`.
    pub fn with_burst(mut self, start: f64, len: f64, multiplier: f64) -> Self {
        self.burst = Some((start, len, multiplier));
        self
    }
}

/// Builds a multi-tenant trace: each tenant's stream is generated with an
/// independent seeded RNG (derived from `seed` and the tenant id, so
/// adding a tenant never reshuffles the others), tagged with its class
/// and tenant, then merged by arrival time with globally sequential ids.
pub fn multi_tenant_trace(specs: &[TenantSpec], seed: u64, horizon: f64) -> Trace {
    let mut all = Vec::new();
    for spec in specs {
        let tenant_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(spec.tenant.0 as u64 + 1);
        let builder = TraceBuilder::new(spec.dataset, tenant_seed);
        let t = match spec.burst {
            Some((start, len, mult)) => builder.build(
                &PiecewiseRate::storm(horizon, spec.rate, start, len, mult),
                horizon,
            ),
            None => builder.build(&Poisson::new(spec.rate), horizon),
        };
        for r in t.requests() {
            let mut r = *r;
            r.class = spec.class;
            r.tenant = spec.tenant;
            all.push(r);
        }
    }
    // Deterministic total order: arrival, then tenant (arrival ties across
    // independent streams are measure-zero but guarded anyway).
    all.sort_by(|a, b| {
        a.arrival
            .partial_cmp(&b.arrival)
            .expect("finite arrivals")
            .then(a.tenant.cmp(&b.tenant))
            .then(a.id.cmp(&b.id))
    });
    for (i, r) in all.iter_mut().enumerate() {
        r.id = RequestId(i as u64);
    }
    Trace::from_requests(
        all,
        specs
            .first()
            .map(|s| s.dataset)
            .unwrap_or(DatasetKind::ShareGpt),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_targets_ordered() {
        let i = SloClass::Interactive.target();
        let b = SloClass::Batch.target();
        assert!(i.ttft < b.ttft);
        assert!(i.tpot < b.tpot);
        assert!(SloClass::BestEffort.target().ttft.is_infinite());
        assert_eq!(SloClass::default(), SloClass::BestEffort);
    }

    #[test]
    fn index_round_trips() {
        for c in SloClass::ALL {
            assert_eq!(SloClass::ALL[c.index() as usize], c);
        }
    }

    #[test]
    fn slack_and_met() {
        let c = SloClass::Interactive;
        assert!(0.2 < c.target().ttft && c.target().ttft < 5.0);
        assert!(c.target().met(0.5, 0.1));
        assert!(!c.target().met(2.0, 0.1));
        assert!(SloClass::BestEffort.target().met(1e9, 1e9));
    }

    #[test]
    fn multi_tenant_trace_is_sorted_tagged_and_deterministic() {
        let specs = [
            TenantSpec::steady(
                TenantId(0),
                DatasetKind::ShareGpt,
                SloClass::Interactive,
                4.0,
            ),
            TenantSpec::steady(TenantId(1), DatasetKind::LongBench, SloClass::Batch, 1.0),
        ];
        let a = multi_tenant_trace(&specs, 7, 60.0);
        let b = multi_tenant_trace(&specs, 7, 60.0);
        assert_eq!(a.requests(), b.requests());
        assert!(!a.is_empty());
        assert!(a
            .requests()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        for (i, r) in a.requests().iter().enumerate() {
            assert_eq!(r.id, RequestId(i as u64));
        }
        // Both tenants and both classes are present and consistently tagged.
        for r in a.requests() {
            match r.tenant {
                TenantId(0) => assert_eq!(r.class, SloClass::Interactive),
                TenantId(1) => assert_eq!(r.class, SloClass::Batch),
                t => panic!("unknown tenant {t}"),
            }
        }
        assert!(a.requests().iter().any(|r| r.tenant == TenantId(0)));
        assert!(a.requests().iter().any(|r| r.tenant == TenantId(1)));
    }

    #[test]
    fn adding_a_tenant_keeps_existing_streams() {
        let t0 = TenantSpec::steady(
            TenantId(0),
            DatasetKind::ShareGpt,
            SloClass::Interactive,
            3.0,
        );
        let t1 = TenantSpec::steady(TenantId(1), DatasetKind::HumanEval, SloClass::Batch, 2.0);
        let solo = multi_tenant_trace(&[t0], 5, 30.0);
        let duo = multi_tenant_trace(&[t0, t1], 5, 30.0);
        let solo_arrivals: Vec<f64> = solo.requests().iter().map(|r| r.arrival).collect();
        let duo_t0: Vec<f64> = duo
            .requests()
            .iter()
            .filter(|r| r.tenant == TenantId(0))
            .map(|r| r.arrival)
            .collect();
        assert_eq!(solo_arrivals, duo_t0);
    }
}
