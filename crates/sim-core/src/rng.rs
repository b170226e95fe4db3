//! A tiny deterministic RNG (SplitMix64) for places where pulling in the
//! full `rand` crate would be disproportionate: jitter, tie-breaking,
//! lightweight noise injection in kernel models.

/// SplitMix64 — a fast, seedable, high-quality 64-bit generator.
///
/// Reference: Sebastiano Vigna, "Further scramblings of Marsaglia's xorshift
/// generators" / the Java 8 `SplittableRandom` finalizer. Passes BigCrush
/// when used as a stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of the raw output.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in [lo, hi).
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in [0, n). Uses rejection-free multiply-shift;
    /// bias is negligible for n << 2^64.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A multiplicative jitter factor in [1-eps, 1+eps], for noise models.
    #[inline]
    pub fn jitter(&mut self, eps: f64) -> f64 {
        1.0 + self.uniform(-eps, eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_reasonable() {
        let mut r = SplitMix64::new(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform(2.0, 4.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_in_range() {
        let mut r = SplitMix64::new(11);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn jitter_bounded() {
        let mut r = SplitMix64::new(13);
        for _ in 0..1000 {
            let j = r.jitter(0.05);
            assert!((0.95..=1.05).contains(&j));
        }
    }
}
