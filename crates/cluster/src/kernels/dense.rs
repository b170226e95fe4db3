//! Dense (GEMM) kernel timing: roofline of compute vs. weight streaming.

use crate::device::DeviceSpec;

/// One dense-kernel invocation: how many FLOPs it performs and how many
/// weight bytes it must stream from device memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseWork {
    /// Floating-point operations.
    pub flops: f64,
    /// Weight bytes streamed (the decode-regime bound).
    pub weight_bytes: f64,
}

impl DenseWork {
    /// Zero work.
    pub const ZERO: DenseWork = DenseWork {
        flops: 0.0,
        weight_bytes: 0.0,
    };
}

/// Time for dense work in the *prefill* regime (large token counts —
/// compute-bound on every paper device at the profiled batch sizes).
///
/// Still takes the roofline max: a pathological 1-token "prefill" falls
/// back to the streaming bound.
pub fn dense_prefill_time(spec: &DeviceSpec, work: DenseWork, kernels: u32) -> f64 {
    roofline(spec, work) + kernels as f64 * spec.launch_overhead
}

/// Time for dense work in the *decode* regime (one token per sequence —
/// weight-streaming-bound until batch sizes grow large, after which the
/// compute term takes over; this crossover is exactly what Fig. 2a shows).
pub fn dense_decode_time(spec: &DeviceSpec, work: DenseWork, kernels: u32) -> f64 {
    roofline(spec, work) + kernels as f64 * spec.launch_overhead
}

#[inline]
fn roofline(spec: &DeviceSpec, work: DenseWork) -> f64 {
    let compute = work.flops / spec.dense_flops;
    let stream = work.weight_bytes / spec.decode_stream_bw;
    compute.max(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceSpec, GpuType};

    fn specs() -> (DeviceSpec, DeviceSpec, DeviceSpec) {
        (
            DeviceSpec::of(GpuType::A100),
            DeviceSpec::of(GpuType::Rtx3090),
            DeviceSpec::of(GpuType::P100),
        )
    }

    #[test]
    fn prefill_is_compute_bound_at_scale() {
        let (a, ..) = specs();
        // 1 TFLOP over 1 GB of weights: compute term dominates on A100.
        let w = DenseWork {
            flops: 1e12,
            weight_bytes: 1e9,
        };
        let t = dense_prefill_time(&a, w, 0);
        assert!((t - 1e12 / a.dense_flops).abs() / t < 1e-9);
    }

    #[test]
    fn decode_is_stream_bound_at_small_batch() {
        let (a, ..) = specs();
        // 1 GFLOP over 1 GB of weights (tiny batch): streaming dominates.
        let w = DenseWork {
            flops: 1e9,
            weight_bytes: 1e9,
        };
        let t = dense_decode_time(&a, w, 0);
        assert!((t - 1e9 / a.decode_stream_bw).abs() / t < 1e-9);
    }

    #[test]
    fn decode_crossover_with_batch_growth() {
        // As the token count grows, decode dense transitions from
        // stream-bound to compute-bound (Fig. 2a's regime change).
        let (a, ..) = specs();
        let per_token_flops = 1.4e9; // ~Llama-70B one layer MLP
        let weight_bytes = 1.4e9;
        let t_small = dense_decode_time(
            &a,
            DenseWork {
                flops: 8.0 * per_token_flops,
                weight_bytes,
            },
            0,
        );
        let t_large = dense_decode_time(
            &a,
            DenseWork {
                flops: 512.0 * per_token_flops,
                weight_bytes,
            },
            0,
        );
        // Small batch: time equals the streaming bound (flat in batch).
        assert!((t_small - weight_bytes / a.decode_stream_bw).abs() / t_small < 1e-9);
        // Large batch: strictly larger, governed by compute.
        assert!(t_large > t_small * 3.0);
    }

    #[test]
    fn mlp_gap_p100_vs_a100_in_paper_window() {
        // Fig. 2a / §2.3: the decode-MLP gap at large batch should sit in
        // the ~25–40x window.
        let (a, _, p) = specs();
        let w = DenseWork {
            flops: 400.0 * 1.4e9,
            weight_bytes: 1.4e9,
        };
        let gap = dense_decode_time(&p, w, 0) / dense_decode_time(&a, w, 0);
        assert!((20.0..45.0).contains(&gap), "MLP gap {gap}");
    }

    #[test]
    fn launch_overhead_counted_per_kernel() {
        let (a, ..) = specs();
        let w = DenseWork {
            flops: 0.0,
            weight_bytes: 0.0,
        };
        let t = dense_decode_time(&a, w, 3);
        assert!((t - 3.0 * a.launch_overhead).abs() < 1e-15);
    }
}
