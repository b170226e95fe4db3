//! Cluster-change events and device health — the engine half of the
//! elasticity subsystem.
//!
//! Real heterogeneous fleets are churn-heavy: spot preemptions, outright
//! failures, thermal throttling, and node joins all happen while requests
//! are in flight. The engine executes a deterministic schedule of
//! [`ClusterEvent`]s (produced by `hetis-elastic`'s seeded `ChurnProcess`)
//! and lets the plugged-in policy react through
//! [`crate::policy::Policy::on_cluster_change`]: re-plan the topology,
//! drain KV off devices with a preemption notice, or do nothing (the
//! static baselines).
//!
//! Invariants the engine enforces regardless of policy:
//!
//! * a dead device never receives new KV allocations or migrations;
//! * a dead device is pruned from every stage's attention-worker list;
//! * an instance whose primary TP group lost a device is marked
//!   [`crate::topology::InstanceRole::Down`] — its requests are re-routed;
//! * requests whose KV lived (even partially) on a dead device are
//!   recompute-preempted, with the lost context counted in
//!   [`crate::metrics::RunReport::lost_tokens`].

use crate::topology::Topology;
use hetis_cluster::DeviceId;

/// What happened to a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterEventKind {
    /// Immediate failure: the device and all KV on it are gone now.
    Fail,
    /// Spot-style preemption notice: the device keeps serving for
    /// `notice` seconds, then dies. A re-planning policy can drain KV off
    /// it in that window.
    PreemptNotice {
        /// Seconds between notice and revocation.
        notice: f64,
    },
    /// The device (re)joins the cluster, empty.
    Join,
    /// The device slows down by `factor` (≥ 1, multiplies its stage
    /// times) — thermal throttling, a noisy neighbor.
    Slowdown {
        /// Time-dilation factor (1.0 = nominal).
        factor: f64,
    },
    /// A prior slowdown ends; the device runs at nominal speed again.
    Restore,
}

/// One scheduled cluster change.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEvent {
    /// Simulated time at which the change takes effect.
    pub time: f64,
    /// The affected device.
    pub device: DeviceId,
    /// What happens.
    pub kind: ClusterEventKind,
}

impl ClusterEvent {
    /// Compact label for reports ("fail(dev3)", "preempt(dev5,30s)"…).
    pub fn label(&self) -> String {
        match self.kind {
            ClusterEventKind::Fail => format!("fail({})", self.device),
            ClusterEventKind::PreemptNotice { notice } => {
                format!("preempt({},{:.0}s)", self.device, notice)
            }
            ClusterEventKind::Join => format!("join({})", self.device),
            ClusterEventKind::Slowdown { factor } => {
                format!("slowdown({},{:.2}x)", self.device, factor)
            }
            ClusterEventKind::Restore => format!("restore({})", self.device),
        }
    }
}

/// Health of one device as the engine sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceHealth {
    /// Serving normally; `factor` ≥ 1 dilates its stage times (1.0 =
    /// nominal).
    Alive {
        /// Slowdown factor.
        factor: f64,
    },
    /// Received a preemption notice: still serving, dies at `deadline`.
    /// No *new* KV may be placed on it. Any slowdown in effect carries
    /// over into `factor`.
    Draining {
        /// Absolute simulated time of revocation.
        deadline: f64,
        /// Slowdown factor (1.0 = nominal).
        factor: f64,
    },
    /// Gone. All KV it held is lost.
    Dead,
}

impl DeviceHealth {
    /// Nominal healthy state.
    pub const NOMINAL: DeviceHealth = DeviceHealth::Alive { factor: 1.0 };

    /// True when the device can execute work this instant.
    pub fn is_serving(&self) -> bool {
        !matches!(self, DeviceHealth::Dead)
    }

    /// True when new KV allocations may target the device.
    pub fn accepts_kv(&self) -> bool {
        matches!(self, DeviceHealth::Alive { .. })
    }

    /// Stage-time dilation factor.
    pub fn factor(&self) -> f64 {
        match self {
            DeviceHealth::Alive { factor } | DeviceHealth::Draining { factor, .. } => *factor,
            DeviceHealth::Dead => 1.0,
        }
    }
}

/// Immutable per-device health view handed to policy hooks.
#[derive(Debug, Clone)]
pub struct HealthView {
    health: Vec<DeviceHealth>,
}

impl HealthView {
    /// Builds a view (engine-internal, but public for tests/controllers).
    pub fn new(health: Vec<DeviceHealth>) -> Self {
        HealthView { health }
    }

    /// Health of a device.
    pub fn of(&self, d: DeviceId) -> DeviceHealth {
        self.health[d.index()]
    }

    /// All devices currently able to accept new KV.
    pub fn accepting(&self) -> Vec<DeviceId> {
        self.iter_ids()
            .filter(|&d| self.of(d).accepts_kv())
            .collect()
    }

    /// All draining devices.
    pub fn draining(&self) -> Vec<DeviceId> {
        self.iter_ids()
            .filter(|&d| matches!(self.of(d), DeviceHealth::Draining { .. }))
            .collect()
    }

    fn iter_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.health.len()).map(|i| DeviceId(i as u32))
    }
}

/// What a policy wants done after a cluster change.
#[derive(Debug, Clone, Default)]
pub struct ReplanResponse {
    /// Replacement topology. Surviving instances must keep their primary
    /// stages (devices + layers) unchanged — weights cannot teleport;
    /// attention-worker lists may change freely and lost instances stay
    /// `Down`. `None` keeps the (engine-pruned) current topology.
    pub new_topology: Option<Topology>,
    /// KV drain moves (request → new placement) to run now, typically off
    /// a draining device. Executed best-effort via the engine's
    /// re-dispatch path.
    pub migrations: Vec<crate::policy::RedispatchOp>,
    /// Simulated seconds the re-planning itself takes; the engine stalls
    /// the affected pipelines for this long (the paper's search is seconds
    /// — under churn that cost is charged, not hidden).
    pub replan_latency: f64,
}

/// Record of one executed cluster change (for `RunReport`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanRecord {
    /// When the event fired.
    pub time: f64,
    /// `ClusterEvent::label()` of the event.
    pub event: String,
    /// Simulated re-planning latency charged.
    pub replan_latency: f64,
    /// Requests recompute-preempted by this event.
    pub evicted: u32,
    /// Drain migrations successfully started.
    pub migrations_started: u32,
    /// Context tokens whose KV was lost (must be re-prefilled).
    pub lost_tokens: u64,
    /// True when the policy supplied a new topology.
    pub replanned: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_predicates() {
        assert!(DeviceHealth::NOMINAL.accepts_kv());
        assert!(DeviceHealth::NOMINAL.is_serving());
        let d = DeviceHealth::Draining {
            deadline: 5.0,
            factor: 1.3,
        };
        assert!(d.is_serving() && !d.accepts_kv());
        assert!(!DeviceHealth::Dead.is_serving());
        assert_eq!(DeviceHealth::Alive { factor: 1.7 }.factor(), 1.7);
        assert_eq!(d.factor(), 1.3);
    }

    #[test]
    fn view_partitions_devices() {
        let v = HealthView::new(vec![
            DeviceHealth::NOMINAL,
            DeviceHealth::Dead,
            DeviceHealth::Draining {
                deadline: 1.0,
                factor: 1.0,
            },
            DeviceHealth::Alive { factor: 2.0 },
        ]);
        assert_eq!(v.accepting(), vec![DeviceId(0), DeviceId(3)]);
        assert_eq!(v.draining(), vec![DeviceId(2)]);
    }

    #[test]
    fn event_labels() {
        let e = ClusterEvent {
            time: 1.0,
            device: DeviceId(3),
            kind: ClusterEventKind::PreemptNotice { notice: 30.0 },
        };
        assert_eq!(e.label(), "preempt(dev3,30s)");
        assert_eq!(
            ClusterEvent {
                kind: ClusterEventKind::Fail,
                ..e.clone()
            }
            .label(),
            "fail(dev3)"
        );
    }
}
