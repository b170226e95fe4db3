//! Streaming-aggregator coverage: the sliding-window percentiles must
//! agree with the batch `hetis_sim::percentile` on a full-run window, and
//! a finite window must forget expired samples.

use hetis_sim::percentile;
use hetis_telemetry::SlidingWindow;
use proptest::prelude::*;

proptest! {
    /// A full-run window retains every sample, so its p50/p95/p99 must
    /// equal the batch percentile over the same values — not merely
    /// close: the window calls the same function on the same multiset.
    #[test]
    fn full_run_window_p99_equals_batch_percentile(
        samples in collection::vec((0.0f64..1000.0, 0.0f64..10.0), 1..300),
        buckets in 1usize..32,
    ) {
        let mut window = SlidingWindow::new(f64::INFINITY, buckets);
        let mut times: Vec<f64> = samples.iter().map(|&(t, _)| t).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        // Push in time order (the engine's event loop guarantees it).
        let mut ordered: Vec<(f64, f64)> = samples.clone();
        ordered.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for &(t, v) in &ordered {
            window.push(t, v);
        }
        let now = times.last().copied().unwrap_or(0.0) + 1.0;
        let s = window.summary(now);
        prop_assert_eq!(s.count, values.len());
        // Window samples are a permutation of the inputs; percentile
        // sorts, so results are bit-identical.
        for (got, p) in [(s.p50, 50.0), (s.p95, 95.0), (s.p99, 99.0)] {
            let want = percentile(&values, p).unwrap();
            prop_assert!(
                got == want,
                "p{} mismatch: streaming {} vs batch {}",
                p, got, want
            );
        }
    }

}

#[test]
fn finite_window_drops_expired_samples_from_percentiles() {
    // 20 s window, 4 buckets: samples older than the window must stop
    // influencing the percentiles while fresh ones remain.
    let mut w = SlidingWindow::new(20.0, 4);
    for i in 0..100 {
        w.push(i as f64 * 0.1, 100.0); // all inside [0, 10): epochs 0-1
    }
    w.push(30.0, 1.0); // epoch 6
    w.push(31.0, 3.0);
    let s = w.summary(31.0);
    assert_eq!(s.count, 2, "early burst expired");
    assert_eq!(s.p50, percentile(&[1.0, 3.0], 50.0).unwrap());
}
