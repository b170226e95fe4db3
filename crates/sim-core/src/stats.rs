//! Statistics helpers: percentiles, an online mean, and summaries.
//!
//! Every table and figure in the paper reports either a mean, a P95, or a
//! time series; these helpers centralize that arithmetic so each experiment
//! harness computes metrics identically.

/// Computes the `p`-th percentile (0.0..=100.0) of `values` using linear
/// interpolation between closest ranks (the same definition as numpy's
/// default). Returns `None` on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = values.to_vec();
    sort_samples(&mut sorted);
    percentile_sorted(&sorted, p)
}

/// Sorts `values` ascending: the order [`percentile_sorted`] reads.
/// Panics on a NaN.
pub fn sort_samples(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
}

/// [`percentile`] of a slice already in ascending order: one sort can
/// serve several percentiles. Returns `None` on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Online mean/min/max accumulator.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (+inf for empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf for empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A batch summary of a sample: count, mean, p50/p95/p99, min, max.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile — the paper's headline tail metric.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample; returns an all-zero summary for empty input.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        Summary {
            count: values.len(),
            mean,
            p50: percentile(values, 50.0).unwrap(),
            p95: percentile(values, 95.0).unwrap(),
            p99: percentile(values, 99.0).unwrap(),
            min: values.iter().cloned().fold(f64::INFINITY, f64::min),
            max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        // interpolation: p25 of [1..5] = 2.0
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
    }

    #[test]
    fn online_stats_match_batch() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert_eq!(s.count(), 100);
        assert_eq!(s.min(), data.iter().cloned().fold(f64::INFINITY, f64::min));
        assert_eq!(
            s.max(),
            data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );
    }

    #[test]
    fn summary_of_sample() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&v);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        let empty = Summary::of(&[]);
        assert_eq!(empty.count, 0);
    }
}
