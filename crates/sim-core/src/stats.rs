//! Statistics helpers: percentiles.
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
}
