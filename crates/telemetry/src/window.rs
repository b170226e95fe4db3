//! Ring-of-buckets sliding windows for streaming percentiles.
//!
//! A window of `W` seconds is split into `B` time buckets of `W/B`
//! seconds each. Pushing a sample is O(1) amortized: the target bucket is
//! `epoch(time) mod B`, and a bucket left over from an expired epoch is
//! cleared (its allocation reused) the first time the new epoch touches
//! it. `summary(now)` merges the live buckets, sorts them once and
//! reads every percentile with [`hetis_sim::percentile_sorted`] — the
//! *same* definition `RunReport`'s [`hetis_sim::percentile`] uses — so a
//! full-run window (`W = ∞`) reproduces the end-of-run percentiles
//! exactly, bit for bit.

use hetis_sim::{percentile_sorted, sort_samples};

/// Percentile summary of the samples currently inside a window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowSummary {
    /// Samples in the window.
    pub count: usize,
    /// Median (0 when empty).
    pub p50: f64,
    /// 95th percentile (0 when empty).
    pub p95: f64,
    /// 99th percentile (0 when empty).
    pub p99: f64,
    /// Arithmetic mean (0 when empty). For 0/1-valued indicator samples
    /// (e.g. per-completion SLO grades) this is the windowed rate.
    pub mean: f64,
}

/// A sliding window of f64 samples bucketed by time.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    /// Seconds per bucket; `∞` makes one never-expiring full-run bucket.
    bucket_span: f64,
    buckets: Vec<Bucket>,
    pushed: u64,
}

#[derive(Debug, Clone)]
struct Bucket {
    epoch: u64,
    values: Vec<f64>,
}

impl SlidingWindow {
    /// A window spanning `window_secs` split into `buckets` buckets.
    /// `window_secs = f64::INFINITY` keeps every sample for the whole run
    /// (the convergence-check configuration).
    pub fn new(window_secs: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "sliding window needs >= 1 bucket");
        assert!(window_secs > 0.0, "sliding window needs a positive span");
        let buckets = if window_secs.is_infinite() {
            1
        } else {
            buckets
        };
        SlidingWindow {
            bucket_span: window_secs / buckets as f64,
            buckets: (0..buckets)
                .map(|_| Bucket {
                    epoch: 0,
                    values: Vec::new(),
                })
                .collect(),
            pushed: 0,
        }
    }

    fn epoch_of(&self, time: f64) -> u64 {
        if self.bucket_span.is_infinite() {
            0
        } else {
            (time.max(0.0) / self.bucket_span) as u64
        }
    }

    /// Records one sample observed at `time`. Times must be
    /// non-decreasing across pushes (event order), which the engine's
    /// event loop guarantees.
    pub fn push(&mut self, time: f64, value: f64) {
        let epoch = self.epoch_of(time);
        let n = self.buckets.len();
        let b = &mut self.buckets[(epoch as usize) % n];
        if b.epoch != epoch {
            b.values.clear();
            b.epoch = epoch;
        }
        b.values.push(value);
        self.pushed += 1;
    }

    /// Total samples ever pushed (including expired ones).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Samples still inside the window ending at `now`, in bucket order.
    pub fn samples(&self, now: f64) -> Vec<f64> {
        let current = self.epoch_of(now);
        let n = self.buckets.len() as u64;
        let mut out = Vec::new();
        for b in &self.buckets {
            if !b.values.is_empty() && b.epoch <= current && b.epoch + n > current {
                out.extend_from_slice(&b.values);
            }
        }
        out
    }

    /// Percentile summary of the window ending at `now`. The mean sums
    /// in bucket order, before the one sort the percentiles share.
    pub fn summary(&self, now: f64) -> WindowSummary {
        let mut samples = self.samples(now);
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        sort_samples(&mut samples);
        WindowSummary {
            count: samples.len(),
            p50: percentile_sorted(&samples, 50.0).unwrap_or(0.0),
            p95: percentile_sorted(&samples, 95.0).unwrap_or(0.0),
            p99: percentile_sorted(&samples, 99.0).unwrap_or(0.0),
            mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_sim::percentile;

    #[test]
    fn full_run_window_keeps_everything() {
        let mut w = SlidingWindow::new(f64::INFINITY, 16);
        for i in 0..1000 {
            w.push(i as f64 * 3.7, i as f64);
        }
        assert_eq!(w.samples(1e12).len(), 1000);
        let s = w.summary(1e12);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, percentile(&w.samples(0.0), 50.0).unwrap());
    }

    #[test]
    fn old_buckets_expire() {
        // 10 s window, 5 buckets of 2 s.
        let mut w = SlidingWindow::new(10.0, 5);
        w.push(0.5, 1.0); // epoch 0
        w.push(5.0, 2.0); // epoch 2
        assert_eq!(w.samples(5.0), vec![1.0, 2.0]);
        // At t = 21 the epoch-0 and epoch-2 buckets are both out of the
        // 5-epoch window ending at epoch 10.
        assert!(w.samples(21.0).is_empty());
        // Pushing at epoch 10 reuses the epoch-0 slot (10 mod 5 == 0).
        w.push(21.0, 3.0);
        assert_eq!(w.samples(21.0), vec![3.0]);
    }

    #[test]
    fn empty_summary_is_zero() {
        let w = SlidingWindow::new(30.0, 6);
        let s = w.summary(100.0);
        assert_eq!(s, WindowSummary::default());
    }
}
