//! The [`ClosedLoopController`]: windowed-SLO feedback on the telemetry
//! bus.
//!
//! The bus streams per-class sliding-window percentiles, queue depths
//! and KV occupancy; this automaton turns them into the three
//! actuations `crate::ElasticPolicy` routes into the engine at every
//! telemetry tick:
//!
//! * **scale-out / scale-in** — windowed p99 TTFT above a class target
//!   for [`BREACH_TICKS`] *consecutive* ticks proposes scale-out; p99
//!   at or below [`SCALE_IN_MARGIN`] × target for the same streak (and
//!   only while previously added capacity is outstanding) proposes
//!   scale-in. A shared cooldown of [`COOLDOWN_TICKS`] separates any two
//!   scale actions, so the pair can never oscillate within a cooldown
//!   window.
//! * **admission throttling** — protected-class windowed attainment
//!   below [`THROTTLE_ATTAINMENT`] engages the throttle; it releases at
//!   [`THROTTLE_RELEASE`] (hysteresis band) or when the protected class
//!   leaves the window entirely (nothing left to protect — background
//!   traffic must not starve forever).
//! * **chunk pacing** — protected-class windowed p99 TTFT above
//!   [`PACE_ENGAGE_FRAC`] × target caps the chunk tokens a fused
//!   iteration may carry at [`PACE_CHUNK_TOKENS`] (heavier backlogs
//!   drain unfused); release at [`PACE_RELEASE_FRAC`] × target.
//!
//! The protected class is the engine's [`PROTECTED_CLASS`], the class
//! whose admissions the engine keeps while the throttle is engaged.
//!
//! Determinism contract: the automaton is a pure function of the
//! snapshot sequence — no wall clock, no randomness, no floating-point
//! accumulation across ticks (counters are integers; thresholds compare
//! window summaries directly). Same `(seed, trace, config)` ⇒ same
//! snapshots ⇒ same action sequence ⇒ same `RunReport::digest`.

use hetis_engine::{ControlAction, PROTECTED_CLASS};
use hetis_telemetry::TelemetrySnapshot;
use hetis_workload::SloClass;

/// Consecutive breach ticks (windowed p99 TTFT above the class target)
/// required before a scale-out proposal fires — the
/// "breach-for-N-ticks" debounce. Scale-in waits for as many calm ticks.
pub const BREACH_TICKS: u32 = 3;

/// Minimum ticks between two scale actions (out or in). Hysteresis:
/// within a cooldown the controller cannot flip direction.
pub const COOLDOWN_TICKS: u32 = 10;

/// Scale-in requires windowed p99 TTFT ≤ `SCALE_IN_MARGIN ×` target
/// for [`BREACH_TICKS`] consecutive ticks (and never below the starting
/// capacity — only capacity the loop added is returned).
pub const SCALE_IN_MARGIN: f64 = 0.5;

/// Windows with fewer samples than this are treated as "no signal": they
/// neither breach nor count as calm, so cold starts and drained tails
/// take no actions.
pub const MIN_WINDOW_SAMPLES: usize = 8;

/// Throttle non-protected admissions when the protected class's windowed
/// attainment falls below this fraction.
pub const THROTTLE_ATTAINMENT: f64 = 0.9;

/// Release the throttle once windowed attainment recovers to this
/// fraction (at least [`THROTTLE_ATTAINMENT`], for hysteresis).
pub const THROTTLE_RELEASE: f64 = 0.97;

/// Fused-chunk token cap while pacing is engaged: an iteration whose
/// queued chunk backlog exceeds this drains as a *pure* prefill
/// iteration (the decode batch sits one iteration out, alternating
/// style) instead of dragging the decode batch's attention through a
/// heavy chunk drain; backlogs at or under the cap keep fusing. Only
/// effective in fused mode with `prefill_chunk_tokens` set.
pub const PACE_CHUNK_TOKENS: u64 = 128;

/// Engage pacing when the protected class's windowed p99 TTFT exceeds
/// this fraction of its TTFT target.
pub const PACE_ENGAGE_FRAC: f64 = 0.5;

/// Release pacing once windowed p99 TTFT drops back below this fraction
/// of the target (at most [`PACE_ENGAGE_FRAC`]).
pub const PACE_RELEASE_FRAC: f64 = 0.4;

/// Per-tick feedback automaton over telemetry snapshots. Construct once
/// per run (it carries the breach/cooldown state machine) and feed every
/// tick's snapshot to [`Self::on_tick`].
#[derive(Debug, Clone, Default)]
pub struct ClosedLoopController {
    /// Consecutive breach ticks per class (`SloClass::index()` order).
    breach: [u32; 3],
    /// Consecutive calm ticks (all signal-bearing classes comfortably
    /// under target).
    calm: u32,
    /// Ticks left before the next scale action may fire.
    cooldown: u32,
    /// Scale-outs not yet matched by a scale-in: scale-in only returns
    /// capacity this loop added, so a calm-from-the-start run never
    /// proposes anything.
    outstanding: u32,
    throttled: bool,
    pacing: bool,
}

impl ClosedLoopController {
    /// True while the admission throttle is engaged.
    pub fn throttled(&self) -> bool {
        self.throttled
    }

    /// True while chunk pacing is engaged.
    pub fn pacing(&self) -> bool {
        self.pacing
    }

    /// Scale-outs proposed but not yet returned by a scale-in.
    pub fn outstanding_scale_outs(&self) -> u32 {
        self.outstanding
    }

    /// Consumes one telemetry tick; returns the actions to take this
    /// tick (possibly empty), in a fixed order: scale, throttle, pace.
    pub fn on_tick(&mut self, snap: &TelemetrySnapshot) -> Vec<ControlAction> {
        [
            self.scale_tick(snap),
            self.throttle_tick(snap),
            self.pace_tick(snap),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Scale automaton: breach-for-N debounce, calm-for-N release,
    /// shared cooldown between any two scale actions.
    fn scale_tick(&mut self, snap: &TelemetrySnapshot) -> Option<ControlAction> {
        self.cooldown = self.cooldown.saturating_sub(1);
        let mut breaching: Option<(SloClass, f64)> = None;
        let mut any_hot = false;
        let mut calm_evidence = false;
        for &class in SloClass::ALL.iter() {
            let target = class.target().ttft;
            if !target.is_finite() {
                continue;
            }
            let i = class.index() as usize;
            match snap
                .windowed_ttft(class)
                .filter(|t| t.count >= MIN_WINDOW_SAMPLES)
            {
                Some(t) if t.p99 > target => {
                    self.breach[i] += 1;
                    any_hot = true;
                    if self.breach[i] >= BREACH_TICKS && breaching.is_none() {
                        breaching = Some((class, t.p99));
                    }
                }
                Some(t) => {
                    self.breach[i] = 0;
                    if t.p99 <= SCALE_IN_MARGIN * target {
                        calm_evidence = true;
                    } else {
                        any_hot = true;
                    }
                }
                // Too few samples: no signal either way.
                None => self.breach[i] = 0,
            }
        }
        if let Some((class, p99_ttft)) = breaching {
            self.calm = 0;
            if self.cooldown == 0 {
                self.outstanding += 1;
                self.cooldown = COOLDOWN_TICKS;
                self.breach = [0; 3];
                return Some(ControlAction::ScaleOut { class, p99_ttft });
            }
        } else if calm_evidence && !any_hot {
            self.calm += 1;
            if self.outstanding > 0 && self.calm >= BREACH_TICKS && self.cooldown == 0 {
                self.outstanding -= 1;
                self.cooldown = COOLDOWN_TICKS;
                self.calm = 0;
                return Some(ControlAction::ScaleIn);
            }
        } else {
            self.calm = 0;
        }
        None
    }

    /// Throttle automaton on protected-class windowed attainment.
    fn throttle_tick(&mut self, snap: &TelemetrySnapshot) -> Option<ControlAction> {
        let graded = snap
            .class(PROTECTED_CLASS)
            .map(|c| c.slo.count)
            .unwrap_or(0);
        let attainment = snap
            .windowed_attainment(PROTECTED_CLASS)
            .filter(|_| graded >= MIN_WINDOW_SAMPLES);
        if !self.throttled {
            let a = attainment.filter(|&a| a < THROTTLE_ATTAINMENT)?;
            self.throttled = true;
            Some(ControlAction::ThrottleOn { attainment: a })
        } else {
            // Release on recovery — or when the protected class has no
            // windowed signal left, so deferred traffic cannot starve
            // behind a stale engagement.
            if attainment.is_some_and(|a| a < THROTTLE_RELEASE) {
                return None;
            }
            self.throttled = false;
            Some(ControlAction::ThrottleOff)
        }
    }

    /// Pacing automaton on protected-class windowed p99 TTFT.
    fn pace_tick(&mut self, snap: &TelemetrySnapshot) -> Option<ControlAction> {
        let target = PROTECTED_CLASS.target().ttft;
        if !target.is_finite() {
            return None;
        }
        let p99 = snap
            .windowed_ttft(PROTECTED_CLASS)
            .filter(|t| t.count >= MIN_WINDOW_SAMPLES)
            .map(|t| t.p99);
        if !self.pacing {
            let p99_ttft = p99.filter(|&p| p > PACE_ENGAGE_FRAC * target)?;
            self.pacing = true;
            Some(ControlAction::PaceOn {
                chunk_tokens: PACE_CHUNK_TOKENS,
                p99_ttft,
            })
        } else {
            if p99.is_some_and(|p| p > PACE_RELEASE_FRAC * target) {
                return None;
            }
            self.pacing = false;
            Some(ControlAction::PaceOff)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_telemetry::{ClassLatencyStats, WindowSummary};

    /// A synthetic snapshot whose interactive window shows `count`
    /// samples at a constant p99 TTFT and constant attainment.
    fn snap(now: f64, count: usize, p99_ttft: f64, attainment: f64) -> TelemetrySnapshot {
        let summary = |p: f64| WindowSummary {
            count,
            p50: p,
            p95: p,
            p99: p,
            mean: p,
        };
        TelemetrySnapshot {
            now,
            window_secs: 15.0,
            events_published: count as u64,
            completions: count as u64,
            open_flows: 0,
            classes: vec![ClassLatencyStats {
                class: SloClass::Interactive,
                ttft: summary(p99_ttft),
                tpot: summary(0.05),
                normalized_latency: summary(0.05),
                slo: summary(attainment),
            }],
            queue_depths: vec![],
            kv: None,
        }
    }

    /// The hysteresis bands are gaps, not inversions, and the debounce
    /// and cooldown are ordered.
    #[test]
    fn defaults_have_hysteresis_gaps() {
        // Through locals: clippy rejects `assert!` on a constant
        // expression.
        let (throttle_on, throttle_off) = (THROTTLE_ATTAINMENT, THROTTLE_RELEASE);
        let (pace_on, pace_off) = (PACE_ENGAGE_FRAC, PACE_RELEASE_FRAC);
        let (breach, cooldown) = (BREACH_TICKS, COOLDOWN_TICKS);
        assert!(throttle_off >= throttle_on);
        assert!(pace_off <= pace_on);
        assert!(breach >= 1);
        assert!(cooldown >= breach);
    }

    #[test]
    fn breach_for_n_ticks_is_necessary() {
        let mut ctl = ClosedLoopController::default();
        // N-1 breaching ticks, then calm: no proposal ever.
        for t in 0..BREACH_TICKS - 1 {
            assert_eq!(ctl.scale_tick(&snap(t as f64, 10, 2.0, 1.0)), None);
        }
        for t in BREACH_TICKS - 1..20 {
            assert_eq!(ctl.scale_tick(&snap(t as f64, 10, 0.2, 1.0)), None);
        }
        assert_eq!(ctl.outstanding_scale_outs(), 0);
    }

    #[test]
    fn breach_for_n_ticks_is_sufficient() {
        let mut ctl = ClosedLoopController::default();
        // Exactly N consecutive breaches: the N-th tick proposes.
        for t in 0..BREACH_TICKS - 1 {
            assert_eq!(ctl.scale_tick(&snap(t as f64, 10, 2.0, 1.0)), None);
        }
        let last = (BREACH_TICKS - 1) as f64;
        let action = ctl.scale_tick(&snap(last, 10, 2.0, 1.0));
        assert!(
            matches!(action, Some(ControlAction::ScaleOut { .. })),
            "{action:?}"
        );
        assert_eq!(ctl.outstanding_scale_outs(), 1);
    }

    #[test]
    fn thin_windows_are_no_signal() {
        let mut ctl = ClosedLoopController::default();
        // Breaching p99 but below MIN_WINDOW_SAMPLES: never proposes.
        for t in 0..20 {
            assert_eq!(ctl.scale_tick(&snap(t as f64, 2, 5.0, 0.0)), None);
        }
    }

    #[test]
    fn no_scale_flip_within_cooldown() {
        let mut ctl = ClosedLoopController::default();
        let mut scale_ticks: Vec<u32> = Vec::new();
        // Storm for 10 ticks, then dead calm for 30: the automaton must
        // space every pair of scale actions by >= COOLDOWN_TICKS.
        for t in 0..40 {
            let s = if t < 10 {
                snap(t as f64, 10, 3.0, 0.5)
            } else {
                snap(t as f64, 10, 0.1, 1.0)
            };
            if ctl.scale_tick(&s).is_some() {
                scale_ticks.push(t);
            }
        }
        assert!(
            scale_ticks.len() >= 2,
            "storm then calm must scale both ways"
        );
        for w in scale_ticks.windows(2) {
            assert!(
                w[1] - w[0] >= COOLDOWN_TICKS,
                "scale actions at ticks {w:?} violate the cooldown"
            );
        }
        assert_eq!(ctl.outstanding_scale_outs(), 0, "calm returns all capacity");
    }

    #[test]
    fn scale_in_only_returns_added_capacity() {
        let mut ctl = ClosedLoopController::default();
        // Calm from the start: no outstanding scale-out, so never a
        // scale-in no matter how long the calm lasts.
        for t in 0..50 {
            assert_eq!(ctl.scale_tick(&snap(t as f64, 10, 0.1, 1.0)), None);
        }
    }

    #[test]
    fn throttle_engages_and_releases_with_hysteresis() {
        let mut ctl = ClosedLoopController::default();
        // Low attainment engages the throttle once.
        let a = ctl.throttle_tick(&snap(0.0, 10, 0.5, 0.5));
        assert!(matches!(a, Some(ControlAction::ThrottleOn { .. })));
        assert!(ctl.throttled());
        // Mid-band attainment (>= engage, < release): stays engaged.
        assert_eq!(ctl.throttle_tick(&snap(1.0, 10, 0.5, 0.93)), None);
        assert!(ctl.throttled());
        // Recovery releases.
        let a = ctl.throttle_tick(&snap(2.0, 10, 0.5, 0.99));
        assert_eq!(a, Some(ControlAction::ThrottleOff));
        assert!(!ctl.throttled());
    }

    #[test]
    fn throttle_releases_when_protected_class_drains() {
        let mut ctl = ClosedLoopController::default();
        ctl.throttle_tick(&snap(0.0, 10, 0.5, 0.5));
        assert!(ctl.throttled());
        // Protected class leaves the window: release so deferred
        // traffic cannot starve.
        let empty = TelemetrySnapshot {
            classes: vec![],
            ..snap(1.0, 0, 0.0, 0.0)
        };
        assert_eq!(ctl.throttle_tick(&empty), Some(ControlAction::ThrottleOff));
    }

    #[test]
    fn pacing_tracks_ttft_band() {
        let mut ctl = ClosedLoopController::default();
        // p99 at 0.8 × 1.0 s target > 0.5 engage fraction: pace on.
        let a = ctl.pace_tick(&snap(0.0, 10, 0.8, 1.0));
        assert!(
            matches!(
                a,
                Some(ControlAction::PaceOn {
                    chunk_tokens: 128,
                    ..
                })
            ),
            "{a:?}"
        );
        assert!(ctl.pacing());
        // In the hysteresis band (release 0.4 < p99 <= engage 0.5):
        // stays paced.
        assert_eq!(ctl.pace_tick(&snap(1.0, 10, 0.45, 1.0)), None);
        assert!(ctl.pacing());
        // Below the release fraction: pace off.
        let a = ctl.pace_tick(&snap(2.0, 10, 0.3, 1.0));
        assert_eq!(a, Some(ControlAction::PaceOff));
        assert!(!ctl.pacing());
    }

    #[test]
    fn same_snapshots_same_actions() {
        // Pure-function check: two automata fed the same snapshot
        // sequence emit identical action sequences.
        let seq: Vec<TelemetrySnapshot> = (0..30)
            .map(|t| {
                let p99 = if (10..20).contains(&t) { 2.5 } else { 0.3 };
                let att = if (10..20).contains(&t) { 0.6 } else { 1.0 };
                snap(t as f64, 12, p99, att)
            })
            .collect();
        let mut a = ClosedLoopController::default();
        let mut b = ClosedLoopController::default();
        let run_a: Vec<Vec<ControlAction>> = seq.iter().map(|s| a.on_tick(s)).collect();
        let run_b: Vec<Vec<ControlAction>> = seq.iter().map(|s| b.on_tick(s)).collect();
        assert_eq!(run_a, run_b);
        assert!(run_a.iter().any(|v| !v.is_empty()), "storm must actuate");
    }
}
