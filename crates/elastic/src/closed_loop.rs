//! The [`ClosedLoopController`]: windowed-SLO feedback on the telemetry
//! bus.
//!
//! PR 6's bus streams per-class sliding-window percentiles, queue
//! depths and KV occupancy; this automaton turns them into the three
//! actuations `crate::ElasticPolicy` routes into the engine at every
//! telemetry tick:
//!
//! * **scale-out / scale-in** — windowed p99 TTFT above a class target
//!   for `breach_ticks` *consecutive* ticks proposes scale-out; p99
//!   at or below `scale_in_margin ×` target for the same streak (and
//!   only while previously added capacity is outstanding) proposes
//!   scale-in. A shared cooldown separates any two scale actions, so
//!   the pair can never oscillate within a cooldown window.
//! * **admission throttling** — protected-class windowed attainment
//!   below `throttle_attainment` engages the throttle; it releases at
//!   `throttle_release` (hysteresis band) or when the protected class
//!   leaves the window entirely (nothing left to protect — background
//!   traffic must not starve forever).
//! * **chunk pacing** — protected-class windowed p99 TTFT above
//!   `pace_engage_frac ×` target caps the chunk tokens a fused
//!   iteration may carry at `pace_chunk_tokens` (heavier backlogs drain
//!   unfused); release at `pace_release_frac ×` target.
//!
//! Determinism contract: the automaton is a pure function of the
//! snapshot sequence — no wall clock, no randomness, no floating-point
//! accumulation across ticks (counters are integers; thresholds compare
//! window summaries directly). Same `(seed, trace, config)` ⇒ same
//! snapshots ⇒ same action sequence ⇒ same `RunReport::digest`.

use hetis_engine::{ClosedLoopConfig, ControlAction};
use hetis_telemetry::TelemetrySnapshot;
use hetis_workload::SloClass;

/// Per-tick feedback automaton over telemetry snapshots. Construct once
/// per run (it carries the breach/cooldown state machine) and feed every
/// tick's snapshot to [`Self::on_tick`].
#[derive(Debug, Clone)]
pub struct ClosedLoopController {
    cfg: ClosedLoopConfig,
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
    /// A fresh automaton (no breach history, no outstanding capacity).
    pub fn new(cfg: ClosedLoopConfig) -> Self {
        ClosedLoopController {
            cfg,
            breach: [0; 3],
            calm: 0,
            cooldown: 0,
            outstanding: 0,
            throttled: false,
            pacing: false,
        }
    }

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
        if self.cooldown > 0 {
            self.cooldown -= 1;
        }
        let mut actions = Vec::new();
        if self.cfg.scaling {
            self.scale_tick(snap, &mut actions);
        }
        if self.cfg.throttling {
            self.throttle_tick(snap, &mut actions);
        }
        if self.cfg.pacing {
            self.pace_tick(snap, &mut actions);
        }
        actions
    }

    /// Scale automaton: breach-for-N debounce, calm-for-N release,
    /// shared cooldown between any two scale actions.
    fn scale_tick(&mut self, snap: &TelemetrySnapshot, actions: &mut Vec<ControlAction>) {
        let min = self.cfg.min_window_samples;
        let mut breaching: Option<(SloClass, f64)> = None;
        let mut any_hot = false;
        let mut calm_evidence = false;
        for &class in SloClass::ALL.iter() {
            let target = class.target().ttft;
            if !target.is_finite() {
                continue;
            }
            let i = class.index() as usize;
            match snap.windowed_ttft(class).filter(|t| t.count >= min) {
                Some(t) if t.p99 > target => {
                    self.breach[i] += 1;
                    any_hot = true;
                    if self.breach[i] >= self.cfg.breach_ticks && breaching.is_none() {
                        breaching = Some((class, t.p99));
                    }
                }
                Some(t) => {
                    self.breach[i] = 0;
                    if t.p99 <= self.cfg.scale_in_margin * target {
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
                actions.push(ControlAction::ScaleOut { class, p99_ttft });
                self.outstanding += 1;
                self.cooldown = self.cfg.cooldown_ticks;
                self.breach = [0; 3];
            }
        } else if calm_evidence && !any_hot {
            self.calm += 1;
            if self.outstanding > 0 && self.calm >= self.cfg.breach_ticks && self.cooldown == 0 {
                actions.push(ControlAction::ScaleIn);
                self.outstanding -= 1;
                self.cooldown = self.cfg.cooldown_ticks;
                self.calm = 0;
            }
        } else {
            self.calm = 0;
        }
    }

    /// Throttle automaton on protected-class windowed attainment.
    fn throttle_tick(&mut self, snap: &TelemetrySnapshot, actions: &mut Vec<ControlAction>) {
        let protect = self.cfg.protected_class;
        let graded = snap.class(protect).map(|c| c.slo.count).unwrap_or(0);
        let attainment = snap.windowed_attainment(protect);
        if !self.throttled {
            if let Some(a) = attainment {
                if graded >= self.cfg.min_window_samples && a < self.cfg.throttle_attainment {
                    self.throttled = true;
                    actions.push(ControlAction::ThrottleOn { attainment: a });
                }
            }
        } else {
            // Release on recovery — or when the protected class has no
            // windowed signal left, so deferred traffic cannot starve
            // behind a stale engagement.
            let release = match attainment {
                Some(a) if graded >= self.cfg.min_window_samples => a >= self.cfg.throttle_release,
                _ => true,
            };
            if release {
                self.throttled = false;
                actions.push(ControlAction::ThrottleOff);
            }
        }
    }

    /// Pacing automaton on protected-class windowed p99 TTFT.
    fn pace_tick(&mut self, snap: &TelemetrySnapshot, actions: &mut Vec<ControlAction>) {
        let protect = self.cfg.protected_class;
        let target = protect.target().ttft;
        if !target.is_finite() {
            return;
        }
        let ttft = snap
            .windowed_ttft(protect)
            .filter(|t| t.count >= self.cfg.min_window_samples);
        if !self.pacing {
            if let Some(t) = ttft {
                if t.p99 > self.cfg.pace_engage_frac * target {
                    self.pacing = true;
                    actions.push(ControlAction::PaceOn {
                        chunk_tokens: self.cfg.pace_chunk_tokens,
                        p99_ttft: t.p99,
                    });
                }
            }
        } else {
            let release = match ttft {
                Some(t) => t.p99 <= self.cfg.pace_release_frac * target,
                None => true,
            };
            if release {
                self.pacing = false;
                actions.push(ControlAction::PaceOff);
            }
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
            events_buffered: count,
            dropped: 0,
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

    fn cfg() -> ClosedLoopConfig {
        ClosedLoopConfig {
            breach_ticks: 3,
            cooldown_ticks: 5,
            min_window_samples: 4,
            ..ClosedLoopConfig::default()
        }
    }

    #[test]
    fn breach_for_n_ticks_is_necessary() {
        let mut ctl = ClosedLoopController::new(ClosedLoopConfig {
            throttling: false,
            pacing: false,
            ..cfg()
        });
        // N-1 breaching ticks, then calm: no proposal ever.
        for t in 0..2 {
            assert!(ctl.on_tick(&snap(t as f64, 10, 2.0, 1.0)).is_empty());
        }
        for t in 2..20 {
            assert!(ctl.on_tick(&snap(t as f64, 10, 0.2, 1.0)).is_empty());
        }
        assert_eq!(ctl.outstanding_scale_outs(), 0);
    }

    #[test]
    fn breach_for_n_ticks_is_sufficient() {
        let mut ctl = ClosedLoopController::new(ClosedLoopConfig {
            throttling: false,
            pacing: false,
            ..cfg()
        });
        // Exactly N consecutive breaches: the N-th tick proposes.
        assert!(ctl.on_tick(&snap(0.0, 10, 2.0, 1.0)).is_empty());
        assert!(ctl.on_tick(&snap(1.0, 10, 2.0, 1.0)).is_empty());
        let actions = ctl.on_tick(&snap(2.0, 10, 2.0, 1.0));
        assert!(
            matches!(actions[..], [ControlAction::ScaleOut { .. }]),
            "{actions:?}"
        );
        assert_eq!(ctl.outstanding_scale_outs(), 1);
    }

    #[test]
    fn thin_windows_are_no_signal() {
        let mut ctl = ClosedLoopController::new(ClosedLoopConfig {
            throttling: false,
            pacing: false,
            ..cfg()
        });
        // Breaching p99 but below min_window_samples: never proposes.
        for t in 0..20 {
            assert!(ctl.on_tick(&snap(t as f64, 2, 5.0, 0.0)).is_empty());
        }
    }

    #[test]
    fn no_scale_flip_within_cooldown() {
        let c = cfg();
        let mut ctl = ClosedLoopController::new(ClosedLoopConfig {
            throttling: false,
            pacing: false,
            ..c.clone()
        });
        let mut scale_ticks: Vec<u64> = Vec::new();
        // Storm for 10 ticks, then dead calm for 30: the automaton must
        // space every pair of scale actions by >= cooldown_ticks.
        for t in 0..40u64 {
            let s = if t < 10 {
                snap(t as f64, 10, 3.0, 0.5)
            } else {
                snap(t as f64, 10, 0.1, 1.0)
            };
            for a in ctl.on_tick(&s) {
                match a {
                    ControlAction::ScaleOut { .. } | ControlAction::ScaleIn => {
                        scale_ticks.push(t);
                    }
                    _ => {}
                }
            }
        }
        assert!(
            scale_ticks.len() >= 2,
            "storm then calm must scale both ways"
        );
        for w in scale_ticks.windows(2) {
            assert!(
                w[1] - w[0] >= c.cooldown_ticks as u64,
                "scale actions at ticks {w:?} violate the cooldown"
            );
        }
        assert_eq!(ctl.outstanding_scale_outs(), 0, "calm returns all capacity");
    }

    #[test]
    fn scale_in_only_returns_added_capacity() {
        let mut ctl = ClosedLoopController::new(ClosedLoopConfig {
            throttling: false,
            pacing: false,
            ..cfg()
        });
        // Calm from the start: no outstanding scale-out, so never a
        // scale-in no matter how long the calm lasts.
        for t in 0..50 {
            assert!(ctl.on_tick(&snap(t as f64, 10, 0.1, 1.0)).is_empty());
        }
    }

    #[test]
    fn throttle_engages_and_releases_with_hysteresis() {
        let mut ctl = ClosedLoopController::new(ClosedLoopConfig {
            scaling: false,
            pacing: false,
            ..cfg()
        });
        // Low attainment engages the throttle once.
        let a = ctl.on_tick(&snap(0.0, 10, 0.5, 0.5));
        assert!(matches!(a[..], [ControlAction::ThrottleOn { .. }]));
        assert!(ctl.throttled());
        // Mid-band attainment (>= engage, < release): stays engaged.
        assert!(ctl.on_tick(&snap(1.0, 10, 0.5, 0.93)).is_empty());
        assert!(ctl.throttled());
        // Recovery releases.
        let a = ctl.on_tick(&snap(2.0, 10, 0.5, 0.99));
        assert!(matches!(a[..], [ControlAction::ThrottleOff]));
        assert!(!ctl.throttled());
    }

    #[test]
    fn throttle_releases_when_protected_class_drains() {
        let mut ctl = ClosedLoopController::new(ClosedLoopConfig {
            scaling: false,
            pacing: false,
            ..cfg()
        });
        ctl.on_tick(&snap(0.0, 10, 0.5, 0.5));
        assert!(ctl.throttled());
        // Protected class leaves the window: release so deferred
        // traffic cannot starve.
        let empty = TelemetrySnapshot {
            classes: vec![],
            ..snap(1.0, 0, 0.0, 0.0)
        };
        let a = ctl.on_tick(&empty);
        assert!(matches!(a[..], [ControlAction::ThrottleOff]));
    }

    #[test]
    fn pacing_tracks_ttft_band() {
        let mut ctl = ClosedLoopController::new(ClosedLoopConfig {
            scaling: false,
            throttling: false,
            ..cfg()
        });
        // p99 at 0.8 × 1.0 s target > 0.5 engage fraction: pace on.
        let a = ctl.on_tick(&snap(0.0, 10, 0.8, 1.0));
        assert!(
            matches!(
                a[..],
                [ControlAction::PaceOn {
                    chunk_tokens: 128,
                    ..
                }]
            ),
            "{a:?}"
        );
        assert!(ctl.pacing());
        // In the hysteresis band (release 0.4 < p99 <= engage 0.5):
        // stays paced.
        assert!(ctl.on_tick(&snap(1.0, 10, 0.45, 1.0)).is_empty());
        assert!(ctl.pacing());
        // Below the release fraction: pace off.
        let a = ctl.on_tick(&snap(2.0, 10, 0.3, 1.0));
        assert!(matches!(a[..], [ControlAction::PaceOff]));
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
        let mut a = ClosedLoopController::new(cfg());
        let mut b = ClosedLoopController::new(cfg());
        let run_a: Vec<Vec<ControlAction>> = seq.iter().map(|s| a.on_tick(s)).collect();
        let run_b: Vec<Vec<ControlAction>> = seq.iter().map(|s| b.on_tick(s)).collect();
        assert_eq!(run_a, run_b);
        assert!(run_a.iter().any(|v| !v.is_empty()), "storm must actuate");
    }
}
