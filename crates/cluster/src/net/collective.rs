//! Collective communication cost models (ring algorithms over alpha–beta
//! links), matching how NCCL behaves at these message sizes.

use super::link::AlphaBeta;

/// Ring all-reduce over `n` participants whose slowest hop has parameters
/// `worst`: `2(n-1)·alpha + 2·(n-1)/n · bytes · beta`.
///
/// Tensor parallelism issues two of these per layer (after attention
/// output projection and after the MLP), which is why cross-host TP is
/// ruinous and the Parallelizer keeps TP groups inside hosts.
pub fn all_reduce_time(worst: AlphaBeta, n: usize, bytes: f64) -> f64 {
    if n <= 1 || bytes <= 0.0 {
        return 0.0;
    }
    let nf = n as f64;
    2.0 * (nf - 1.0) * worst.alpha + 2.0 * (nf - 1.0) / nf * bytes * worst.beta
}

/// Point-to-point send of `bytes` over `link`.
pub fn p2p_time(link: AlphaBeta, bytes: f64) -> f64 {
    link.time(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::link::LinkKind;

    #[test]
    fn allreduce_degenerate_cases() {
        let l = AlphaBeta::of(LinkKind::IntraHost);
        assert_eq!(all_reduce_time(l, 1, 1e6), 0.0);
        assert_eq!(all_reduce_time(l, 4, 0.0), 0.0);
    }

    #[test]
    fn allreduce_grows_with_participants() {
        let l = AlphaBeta::of(LinkKind::IntraHost);
        let t2 = all_reduce_time(l, 2, 1e6);
        let t4 = all_reduce_time(l, 4, 1e6);
        let t8 = all_reduce_time(l, 8, 1e6);
        assert!(t2 < t4 && t4 < t8);
        // Bandwidth term saturates at 2*bytes*beta; the alpha term keeps
        // growing linearly — the "communication overhead grows with the
        // number of GPUs" effect from §2.3.
        let bw_term_only = 2.0 * 1e6 * l.beta;
        assert!(t8 < bw_term_only + 14.0 * l.alpha + 1e-12);
    }

    #[test]
    fn allreduce_formula_exact() {
        let l = AlphaBeta {
            alpha: 1e-5,
            beta: 1e-10,
        };
        let t = all_reduce_time(l, 4, 1e8);
        let expect = 2.0 * 3.0 * 1e-5 + 2.0 * 0.75 * 1e8 * 1e-10;
        assert!((t - expect).abs() < 1e-15);
    }

    #[test]
    fn p2p_matches_link() {
        let l = AlphaBeta::of(LinkKind::InterHost);
        assert_eq!(p2p_time(l, 1e6), l.time(1e6));
    }
}
