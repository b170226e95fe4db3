//! Seeded samplers implemented directly over `rand` (we deliberately avoid
//! the `rand_distr` dependency; these few are all the workloads need).

use rand::Rng;

/// A sampling distribution over `f64`.
pub trait Distribution {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// The distribution's mean (used by tests and capacity planning).
    fn mean(&self) -> f64;
}

/// Log-normal with parameters `mu`, `sigma` of the underlying normal.
///
/// Sequence-length distributions of chat/code corpora are well described
/// by log-normals (long right tail, no mass at zero).
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    /// Mean of `ln X`.
    pub mu: f64,
    /// Std-dev of `ln X`.
    pub sigma: f64,
}

impl LogNormal {
    /// Builds from a target median and sigma: `median = e^mu`.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        LogNormal {
            mu: median.ln(),
            sigma,
        }
    }

    /// Standard normal via Box–Muller (two uniforms → one normal; the
    /// second variate is discarded for simplicity — sampling here is not a
    /// hot path).
    fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u1: f64 = rng.gen::<f64>();
            let u2: f64 = rng.gen::<f64>();
            if u1 > f64::MIN_POSITIVE {
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }
}

impl Distribution for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// A log-normal clipped to `[lo, hi]` — the practical shape of dataset
/// length distributions (tokenizers cap prompt lengths; outputs are capped
/// by generation limits).
#[derive(Debug, Clone, Copy)]
pub struct TruncatedLogNormal {
    /// The underlying log-normal.
    pub inner: LogNormal,
    /// Lower clip.
    pub lo: f64,
    /// Upper clip.
    pub hi: f64,
}

impl TruncatedLogNormal {
    /// From median/sigma with clipping bounds.
    pub fn new(median: f64, sigma: f64, lo: f64, hi: f64) -> Self {
        assert!(lo < hi);
        TruncatedLogNormal {
            inner: LogNormal::from_median(median, sigma),
            lo,
            hi,
        }
    }
}

impl Distribution for TruncatedLogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inner.sample(rng).clamp(self.lo, self.hi)
    }

    fn mean(&self) -> f64 {
        // Clipping shifts the mean slightly; the unclipped mean is a good
        // enough planning figure and tests use wide tolerances.
        self.inner.mean().clamp(self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lognormal_median_and_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = LogNormal::from_median(200.0, 0.5);
        let mut samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median / 200.0 - 1.0).abs() < 0.05, "median {median}");
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean / d.mean() - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn truncation_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = TruncatedLogNormal::new(100.0, 1.0, 10.0, 500.0);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((10.0..=500.0).contains(&x));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = LogNormal::from_median(100.0, 0.7);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
