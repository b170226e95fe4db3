//! Attention kernel timing: linear in KV bytes and query heads.
//!
//! The paper validates exactly this structure empirically (Fig. 7):
//! attention time is independent of request count at fixed heads+cache,
//! linear in cache size, and linear in head count. The simulated ground
//! truth is therefore the same linear form the Profiler later re-fits —
//! with per-device coefficients derived from the calibrated envelope, plus
//! optional multiplicative noise injected by callers.

use crate::device::DeviceSpec;

/// One decode-attention invocation on a device (one layer): total query
/// heads across all requests resident here, and total KV bytes they attend
/// over.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttnWork {
    /// Total query heads across requests.
    pub query_heads: f64,
    /// Total KV-cache bytes read.
    pub kv_bytes: f64,
}

impl AttnWork {
    /// Zero work.
    pub const ZERO: AttnWork = AttnWork {
        query_heads: 0.0,
        kv_bytes: 0.0,
    };

    /// True if there is nothing to compute.
    pub fn is_zero(&self) -> bool {
        self.query_heads == 0.0 && self.kv_bytes == 0.0
    }
}

/// Decode-attention time on `spec` (one layer, one kernel):
/// `a·heads + b·kv_bytes + c` — the simulator's ground truth for Eq. 3.
///
/// Returns 0 for zero work (no kernel is launched at all).
pub fn attn_decode_time(spec: &DeviceSpec, work: AttnWork) -> f64 {
    if work.is_zero() {
        return 0.0;
    }
    spec.attn_per_head * work.query_heads + work.kv_bytes / spec.attn_bw + spec.launch_overhead
}

/// Prefill-attention time: compute-bound quadratic attention, executed on
/// the primary workers (Hetis runs prefill attention with the dense ops).
pub fn attn_prefill_time(spec: &DeviceSpec, flops: f64) -> f64 {
    if flops == 0.0 {
        return 0.0;
    }
    flops / spec.dense_flops + spec.launch_overhead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceSpec, GpuType};

    #[test]
    fn linear_in_kv_bytes() {
        // Fig. 7b: attention time grows linearly with cache size.
        let s = DeviceSpec::of(GpuType::A100);
        let base = AttnWork {
            query_heads: 1000.0,
            kv_bytes: 1e9,
        };
        let t1 = attn_decode_time(&s, base);
        let t2 = attn_decode_time(
            &s,
            AttnWork {
                kv_bytes: 2e9,
                ..base
            },
        );
        let slope = t2 - t1;
        assert!((slope - 1e9 / s.attn_bw).abs() / slope < 1e-9);
    }

    #[test]
    fn linear_in_heads() {
        // Fig. 7c: attention time grows linearly with head count.
        let s = DeviceSpec::of(GpuType::P100);
        let t1 = attn_decode_time(
            &s,
            AttnWork {
                query_heads: 10_000.0,
                kv_bytes: 1e9,
            },
        );
        let t2 = attn_decode_time(
            &s,
            AttnWork {
                query_heads: 20_000.0,
                kv_bytes: 1e9,
            },
        );
        assert!(((t2 - t1) - 10_000.0 * s.attn_per_head).abs() < 1e-12);
    }

    #[test]
    fn independent_of_request_count() {
        // Fig. 7a: with total heads and cache fixed, splitting work across
        // more requests changes nothing — the model has no request term.
        let s = DeviceSpec::of(GpuType::Rtx3090);
        let w = AttnWork {
            query_heads: 4000.0,
            kv_bytes: 3e9,
        };
        // "100 requests" and "400 requests" with the same aggregate:
        let t100 = attn_decode_time(&s, w);
        let t400 = attn_decode_time(&s, w);
        assert_eq!(t100, t400);
    }

    #[test]
    fn attention_gap_narrow_across_devices() {
        // Fig. 2b: attention gap P100/A100 in the ~2–5x range for a
        // realistic mix (Llama-70B-like, 400 requests × 1000 ctx).
        let a = DeviceSpec::of(GpuType::A100);
        let p = DeviceSpec::of(GpuType::P100);
        let w = AttnWork {
            query_heads: 400.0 * 64.0,
            kv_bytes: 400.0 * 4.1e6,
        };
        let gap = attn_decode_time(&p, w) / attn_decode_time(&a, w);
        assert!((2.0..5.5).contains(&gap), "attention gap {gap}");
    }

    #[test]
    fn zero_work_zero_time() {
        let s = DeviceSpec::of(GpuType::A100);
        assert_eq!(attn_decode_time(&s, AttnWork::ZERO), 0.0);
        assert_eq!(attn_prefill_time(&s, 0.0), 0.0);
    }

    #[test]
    fn prefill_attention_compute_bound() {
        let s = DeviceSpec::of(GpuType::A100);
        let t = attn_prefill_time(&s, 1e12);
        assert!(t > 1e12 / s.dense_flops);
        assert!(t < 1e12 / s.dense_flops + 2.0 * s.launch_overhead);
    }
}
