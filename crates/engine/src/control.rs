//! Closed-loop control vocabulary: the actuation types the telemetry
//! feedback loop speaks.
//!
//! PR 6's telemetry bus streams per-class sliding-window percentiles and
//! queue/KV samples; this module defines what a controller may *do* with
//! them. The engine calls [`crate::policy::Policy::on_telemetry_tick`] at
//! every periodic `TelemetryTick` when [`ClosedLoopConfig`] is set on the
//! engine config, hands the policy the fresh [`hetis_telemetry::TelemetrySnapshot`],
//! and applies the returned [`ControlResponse`]:
//!
//! * **scale proposals** — a [`crate::churn::ReplanResponse`] routed
//!   through the same apply path as cluster-change replans (topology
//!   swap, drain migrations, replan-latency stall),
//! * **admission throttling** — [`ControlAction::ThrottleOn`] defers the
//!   admissions of every class but [`PROTECTED_CLASS`] until
//!   [`ControlAction::ThrottleOff`],
//! * **chunk pacing** — [`ControlAction::PaceOn`] caps the chunk tokens
//!   a *fused* iteration may carry until [`ControlAction::PaceOff`]:
//!   while interactive TTFT slack is tight, heavy chunk backlogs drain as
//!   pure prefill iterations (alternating behavior) and only light
//!   backlogs ride the decode batch.
//!
//! Everything is tick-edge-driven off simulated time — no wall clock —
//! so a run's actuation sequence is a pure function of `(seed, trace,
//! config)`. Each applied action lands in `RunReport::control_log`,
//! which folds into the behavior digest whenever it is non-empty: two
//! runs with the same digest took byte-identical control decisions, and
//! a run that took *no* actions digests identically to an open-loop run.

use hetis_workload::SloClass;

/// The class whose SLOs the closed loop's throttle and pacer protect:
/// while the throttle is engaged, the engine defers the admissions of
/// every other class.
pub const PROTECTED_CLASS: SloClass = SloClass::Interactive;

/// Closes the loop when set on
/// [`crate::config::EngineConfig::closed_loop`]; `None` there means the
/// loop is open: the tick hook is never called and behavior is
/// bit-identical to a config without the field. It carries no settings:
/// the automaton's thresholds are constants beside it
/// (`hetis_elastic::closed_loop`), and the protected class is
/// [`PROTECTED_CLASS`]. Build it with `ClosedLoopConfig::default()`.
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub struct ClosedLoopConfig;

/// One actuation decision taken at a telemetry tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlAction {
    /// Propose adding serving capacity: windowed p99 TTFT of `class`
    /// breached its target for the configured consecutive ticks.
    ScaleOut {
        /// The breaching class.
        class: SloClass,
        /// Its windowed p99 TTFT at proposal time.
        p99_ttft: f64,
    },
    /// Propose returning previously added capacity after sustained calm.
    ScaleIn,
    /// Start deferring non-protected-class admissions.
    ThrottleOn {
        /// Protected-class windowed attainment that tripped the throttle.
        attainment: f64,
    },
    /// Stop deferring non-protected-class admissions.
    ThrottleOff,
    /// Cap prefill chunks at `chunk_tokens` until released.
    PaceOn {
        /// The pacing chunk cap.
        chunk_tokens: u64,
        /// Protected-class windowed p99 TTFT that engaged pacing.
        p99_ttft: f64,
    },
    /// Restore the configured chunk cap.
    PaceOff,
}

impl ControlAction {
    /// Short stable name for logs and per-kind counters.
    pub fn kind(&self) -> &'static str {
        match self {
            ControlAction::ScaleOut { .. } => "scale-out",
            ControlAction::ScaleIn => "scale-in",
            ControlAction::ThrottleOn { .. } => "throttle-on",
            ControlAction::ThrottleOff => "throttle-off",
            ControlAction::PaceOn { .. } => "pace-on",
            ControlAction::PaceOff => "pace-off",
        }
    }

    /// Digest words: a stable discriminant plus the action's payload
    /// bits, folded into `RunReport::digest` so identical digests imply
    /// identical actuation sequences.
    pub fn digest_words(&self) -> [u64; 2] {
        match *self {
            ControlAction::ScaleOut { class, p99_ttft } => {
                [1u64 << 32 | class.index() as u64, p99_ttft.to_bits()]
            }
            ControlAction::ScaleIn => [2u64 << 32, 0],
            ControlAction::ThrottleOn { attainment } => [3u64 << 32, attainment.to_bits()],
            ControlAction::ThrottleOff => [4u64 << 32, 0],
            ControlAction::PaceOn {
                chunk_tokens,
                p99_ttft,
            } => [5u64 << 32 | chunk_tokens, p99_ttft.to_bits()],
            ControlAction::PaceOff => [6u64 << 32, 0],
        }
    }
}

/// One applied actuation, stamped with the simulated tick time — the
/// replayable control history in `RunReport::control_log`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlRecord {
    /// Tick time the action was applied.
    pub time: f64,
    /// The action.
    pub action: ControlAction,
}

/// What a policy's tick hook asks the engine to do. `Default` is a
/// no-op: nothing logged, nothing applied, and — crucially for
/// neutrality — the engine skips the post-tick dispatch sweep entirely,
/// so a controller that stays quiet leaves behavior bit-identical to an
/// open loop.
#[derive(Debug, Clone, Default)]
pub struct ControlResponse {
    /// Actions taken this tick, in order: each is logged to
    /// `RunReport::control_log`, and the engine applies the throttle and
    /// pace actions itself (a later action of a kind overrides an earlier
    /// one).
    pub actions: Vec<ControlAction>,
    /// Scale actuation: applied through the same path as a
    /// cluster-change replan (topology swap + drain migrations +
    /// replan-latency stall on every pipeline).
    pub replan: Option<crate::churn::ReplanResponse>,
}

impl ControlResponse {
    /// True when this response changes nothing.
    pub fn is_noop(&self) -> bool {
        self.actions.is_empty() && self.replan.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_words_distinguish_actions() {
        let actions = [
            ControlAction::ScaleOut {
                class: SloClass::Interactive,
                p99_ttft: 1.5,
            },
            ControlAction::ScaleIn,
            ControlAction::ThrottleOn { attainment: 0.8 },
            ControlAction::ThrottleOff,
            ControlAction::PaceOn {
                chunk_tokens: 128,
                p99_ttft: 0.9,
            },
            ControlAction::PaceOff,
        ];
        for (i, a) in actions.iter().enumerate() {
            for b in actions.iter().skip(i + 1) {
                assert_ne!(a.digest_words(), b.digest_words(), "{a:?} vs {b:?}");
            }
        }
        // Payload bits matter too.
        assert_ne!(
            ControlAction::PaceOn {
                chunk_tokens: 128,
                p99_ttft: 0.9
            }
            .digest_words(),
            ControlAction::PaceOn {
                chunk_tokens: 256,
                p99_ttft: 0.9
            }
            .digest_words(),
        );
    }

    #[test]
    fn default_response_is_noop() {
        assert!(ControlResponse::default().is_noop());
        let r = ControlResponse {
            actions: vec![ControlAction::ThrottleOff],
            ..ControlResponse::default()
        };
        assert!(!r.is_noop());
    }
}
