//! The Profiler (§5.1): fits linear models of attention computation and
//! transfer overhead from simulated measurements.
//!
//! The paper profiles eight `h` values × eight `g` values per device, one
//! attention-module execution per configuration (layer identity makes one
//! layer enough), then uses:
//!
//! * Eq. 3 — `τᵢ(t) = aᵢ·hᵢ(t) + bᵢ·gᵢ(t) + cᵢ` for computation,
//! * Eq. 4 — `ρᵢ(t) = γᵢ·dᵢ(t) + βᵢ` for the alpha–beta transfer.
//!
//! The simulated "measurement" calls the ground-truth kernel model with
//! multiplicative noise; the fit recovers the coefficients. §7.4 reports
//! ≥ 93.8% computation accuracy and 92.4–96.1% transfer accuracy, which
//! the `acc_profiler_accuracy` bench reproduces; Fig. 16b perturbs the
//! fitted coefficients by up to ±20%.

use hetis_cluster::{attn_decode_time, AttnWork, Cluster, DeviceId};
use hetis_sim::SplitMix64;

/// Fitted per-device attention-time model (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttnModel {
    /// Seconds per query head.
    pub a: f64,
    /// Seconds per KV byte.
    pub b: f64,
    /// Constant term.
    pub c: f64,
}

impl AttnModel {
    /// Predicted attention time for `h` heads over `g` KV bytes
    /// (one layer).
    #[inline]
    pub fn predict(&self, h: f64, g: f64) -> f64 {
        self.a * h + self.b * g + self.c
    }
}

/// Fitted per-path transfer model (Eq. 4): `ρ = γ·d + β`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Seconds per byte transferred.
    pub gamma: f64,
    /// Constant per-message term.
    pub beta: f64,
}

impl LinkModel {
    /// Predicted transfer time for `d` bytes.
    #[inline]
    pub fn predict(&self, d: f64) -> f64 {
        self.gamma * d + self.beta
    }
}

/// The coefficient a perturbation targets (Fig. 16b's x-axis families).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coefficient {
    /// Per-head attention cost `a`.
    A,
    /// Per-byte attention cost `b`.
    B,
    /// Constant attention cost `c`.
    C,
    /// Per-byte transfer cost `γ`.
    Gamma,
    /// Constant transfer cost `β`.
    Beta,
}

/// Profiling results for a cluster.
#[derive(Debug, Clone)]
pub struct Profiler {
    attn: Vec<AttnModel>,
    /// Transfer model per device, for the path from that device to a
    /// same-host peer (intra) and to another host (inter).
    links_inter: Vec<LinkModel>,
    links_intra: Vec<LinkModel>,
}

impl Profiler {
    /// Profiles every device: `grid × grid` attention measurements plus
    /// `grid` transfer sizes per link class, with multiplicative noise of
    /// amplitude `noise` (0 = perfect measurements).
    pub fn profile(cluster: &Cluster, grid: usize, noise: f64, seed: u64) -> Profiler {
        assert!(grid >= 3, "need at least 3 grid points to fit 3 params");
        let mut rng = SplitMix64::new(seed);
        let mut attn = Vec::with_capacity(cluster.len());
        let mut links_inter = Vec::with_capacity(cluster.len());
        let mut links_intra = Vec::with_capacity(cluster.len());

        for dev in cluster.devices() {
            // --- attention grid: h ∈ [64, 8192], g ∈ [8 MB, 4 GB].
            let mut rows: Vec<[f64; 3]> = Vec::with_capacity(grid * grid);
            let mut ys: Vec<f64> = Vec::with_capacity(grid * grid);
            for hi in 0..grid {
                for gi in 0..grid {
                    let h = 64.0 * (8192.0_f64 / 64.0).powf(hi as f64 / (grid - 1) as f64);
                    let g = 8e6 * (4e9_f64 / 8e6).powf(gi as f64 / (grid - 1) as f64);
                    let truth = attn_decode_time(
                        &dev.spec,
                        AttnWork {
                            query_heads: h,
                            kv_bytes: g,
                        },
                    );
                    let measured = truth * rng.jitter(noise);
                    // Relative (weighted) least squares: scale each row by
                    // 1/measurement so small and large configurations count
                    // equally in *relative* error — matching how the paper
                    // reports accuracy.
                    let w = 1.0 / measured;
                    rows.push([h * w, g * w, w]);
                    ys.push(1.0);
                }
            }
            let sol = least_squares_3(&rows, &ys);
            attn.push(AttnModel {
                a: sol[0],
                b: sol[1],
                c: sol[2],
            });

            // --- transfer sizes: 4 KB .. 64 MB per message.
            let mut fit_link = |other: DeviceId| {
                let link = cluster.link(dev.id, other);
                let mut rows: Vec<[f64; 2]> = Vec::with_capacity(grid);
                let mut ys: Vec<f64> = Vec::with_capacity(grid);
                for k in 0..grid {
                    // Profile the message-size range head-wise dispatch
                    // actually sends (per-layer q/k/v chunks): 4 KB–2 MB.
                    let d = 4e3 * (2e6_f64 / 4e3).powf(k as f64 / (grid - 1) as f64);
                    let truth = link.time(d);
                    let measured = truth * rng.jitter(noise);
                    let w = 1.0 / measured;
                    rows.push([d * w, w]);
                    ys.push(1.0);
                }
                let sol = least_squares_2(&rows, &ys);
                LinkModel {
                    gamma: sol[0],
                    beta: sol[1],
                }
            };
            // A same-host peer (self if alone) and a cross-host peer.
            let same = cluster
                .host_devices(dev.host)
                .iter()
                .copied()
                .find(|&d| d != dev.id)
                .unwrap_or(dev.id);
            let cross = cluster
                .devices()
                .iter()
                .map(|d| d.id)
                .find(|&d| cluster.device(d).host != dev.host)
                .unwrap_or(dev.id);
            links_intra.push(fit_link(same));
            links_inter.push(fit_link(cross));
        }

        Profiler {
            attn,
            links_inter,
            links_intra,
        }
    }

    /// The fitted attention model of a device.
    pub fn attn_model(&self, d: DeviceId) -> &AttnModel {
        &self.attn[d.index()]
    }

    /// The fitted transfer model for the path `from → to`.
    pub fn link_model(&self, cluster: &Cluster, from: DeviceId, to: DeviceId) -> LinkModel {
        if from == to {
            LinkModel {
                gamma: 0.0,
                beta: 0.0,
            }
        } else if cluster.device(from).host == cluster.device(to).host {
            self.links_intra[from.index()]
        } else {
            self.links_inter[from.index()]
        }
    }

    /// Mean relative prediction accuracy (1 − mean |err|/measured) over a
    /// fresh test grid, per device — the §7.4 accuracy metric. The
    /// held-out "ground truth" is itself a measurement with relative
    /// `noise`, as on a real, jittery device; at `noise = 0` it is the
    /// exact kernel time.
    pub fn attn_accuracy_measured(
        &self,
        cluster: &Cluster,
        test_grid: usize,
        noise: f64,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        cluster
            .devices()
            .iter()
            .map(|dev| {
                let model = &self.attn[dev.id.index()];
                let mut err_sum = 0.0;
                let mut n = 0;
                for hi in 0..test_grid {
                    for gi in 0..test_grid {
                        let h = 96.0 * (6000.0_f64 / 96.0).powf(hi as f64 / (test_grid - 1) as f64);
                        let g = 12e6 * (3e9_f64 / 12e6).powf(gi as f64 / (test_grid - 1) as f64);
                        let measured = attn_decode_time(
                            &dev.spec,
                            AttnWork {
                                query_heads: h,
                                kv_bytes: g,
                            },
                        ) * rng.jitter(noise);
                        err_sum += (model.predict(h, g) - measured).abs() / measured;
                        n += 1;
                    }
                }
                1.0 - err_sum / n as f64
            })
            .collect()
    }

    /// Transfer-model accuracy per device (inter-host path), §7.4,
    /// measured like [`Profiler::attn_accuracy_measured`].
    pub fn link_accuracy_measured(
        &self,
        cluster: &Cluster,
        test_points: usize,
        noise: f64,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        cluster
            .devices()
            .iter()
            .map(|dev| {
                let model = &self.links_inter[dev.id.index()];
                let cross = cluster
                    .devices()
                    .iter()
                    .map(|d| d.id)
                    .find(|&d| cluster.device(d).host != dev.host);
                let Some(cross) = cross else {
                    return 1.0;
                };
                let link = cluster.link(dev.id, cross);
                let mut err = 0.0;
                for k in 0..test_points {
                    let d = 6e3 * (1.5e6_f64 / 6e3).powf(k as f64 / (test_points - 1) as f64);
                    let measured = link.time(d) * rng.jitter(noise);
                    err += (model.predict(d) - measured).abs() / measured;
                }
                1.0 - err / test_points as f64
            })
            .collect()
    }

    /// Perturbs one coefficient family by relative `frac` (e.g. `0.2` =
    /// +20%, `-0.2` = −20%) on every device — the Fig. 16b robustness
    /// experiment.
    pub fn perturb(&mut self, which: Coefficient, frac: f64) {
        for m in &mut self.attn {
            match which {
                Coefficient::A => m.a *= 1.0 + frac,
                Coefficient::B => m.b *= 1.0 + frac,
                Coefficient::C => m.c *= 1.0 + frac,
                _ => {}
            }
        }
        for l in self
            .links_inter
            .iter_mut()
            .chain(self.links_intra.iter_mut())
        {
            match which {
                Coefficient::Gamma => l.gamma *= 1.0 + frac,
                Coefficient::Beta => l.beta *= 1.0 + frac,
                _ => {}
            }
        }
    }
}

/// Solves the 3-parameter least squares `argmin ‖X·w − y‖²` via normal
/// equations (X columns: h, g, 1).
fn least_squares_3(rows: &[[f64; 3]], ys: &[f64]) -> [f64; 3] {
    let mut ata = [[0.0f64; 3]; 3];
    let mut aty = [0.0f64; 3];
    for (row, &y) in rows.iter().zip(ys) {
        for i in 0..3 {
            for j in 0..3 {
                ata[i][j] += row[i] * row[j];
            }
            aty[i] += row[i] * y;
        }
    }
    solve3(ata, aty)
}

/// 2-parameter least squares (columns: d, 1).
fn least_squares_2(rows: &[[f64; 2]], ys: &[f64]) -> [f64; 2] {
    let mut ata = [[0.0f64; 2]; 2];
    let mut aty = [0.0f64; 2];
    for (row, &y) in rows.iter().zip(ys) {
        for i in 0..2 {
            for j in 0..2 {
                ata[i][j] += row[i] * row[j];
            }
            aty[i] += row[i] * y;
        }
    }
    let det = ata[0][0] * ata[1][1] - ata[0][1] * ata[1][0];
    [
        (aty[0] * ata[1][1] - aty[1] * ata[0][1]) / det,
        (ata[0][0] * aty[1] - ata[1][0] * aty[0]) / det,
    ]
}

/// Gaussian elimination with partial pivoting for the 3×3 system.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> [f64; 3] {
    for col in 0..3 {
        let pivot = (col..3)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())
            .unwrap();
        a.swap(col, pivot);
        b.swap(col, pivot);
        let p = a[col][col];
        for row in col + 1..3 {
            let f = a[row][col] / p;
            #[allow(clippy::needless_range_loop)] // two rows of one matrix
            for k in col..3 {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut acc = b[row];
        for k in row + 1..3 {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_cluster::cluster::paper_cluster;
    use hetis_cluster::DeviceSpec;

    #[test]
    fn noiseless_fit_recovers_ground_truth() {
        let c = paper_cluster();
        let p = Profiler::profile(&c, 8, 0.0, 1);
        for dev in c.devices() {
            let m = p.attn_model(dev.id);
            let spec: &DeviceSpec = &dev.spec;
            assert!((m.a - spec.attn_per_head).abs() / spec.attn_per_head < 1e-6);
            assert!((m.b - 1.0 / spec.attn_bw).abs() * spec.attn_bw < 1e-6);
            assert!((m.c - spec.launch_overhead).abs() / spec.launch_overhead < 1e-6);
        }
    }

    #[test]
    fn noisy_fit_accuracy_matches_paper_band() {
        // §7.4: computation accuracy up to 93.8%, transfer 92.4–96.1%.
        let c = paper_cluster();
        let p = Profiler::profile(&c, 8, 0.05, 7);
        for acc in p.attn_accuracy_measured(&c, 6, 0.0, 0) {
            assert!(acc > 0.90, "attention accuracy {acc}");
        }
        for acc in p.link_accuracy_measured(&c, 8, 0.0, 0) {
            assert!(acc > 0.90, "transfer accuracy {acc}");
        }
    }

    #[test]
    fn link_models_distinguish_intra_inter() {
        let c = paper_cluster();
        let p = Profiler::profile(&c, 8, 0.0, 3);
        let a100s = c.devices_of_type(hetis_cluster::GpuType::A100);
        let p100s = c.devices_of_type(hetis_cluster::GpuType::P100);
        let intra = p.link_model(&c, a100s[0], a100s[1]);
        let inter = p.link_model(&c, a100s[0], p100s[0]);
        assert!(inter.gamma > intra.gamma);
        let selfm = p.link_model(&c, a100s[0], a100s[0]);
        assert_eq!(selfm.predict(1e6), 0.0);
    }

    #[test]
    fn perturbation_shifts_predictions() {
        let c = paper_cluster();
        let mut p = Profiler::profile(&c, 8, 0.0, 3);
        let before = p.attn_model(DeviceId(0)).predict(1000.0, 1e9);
        p.perturb(Coefficient::B, 0.2);
        let after = p.attn_model(DeviceId(0)).predict(1000.0, 1e9);
        assert!(after > before);
        p.perturb(Coefficient::Gamma, 0.2);
        // Attention prediction unaffected by γ.
        assert_eq!(p.attn_model(DeviceId(0)).predict(1000.0, 1e9), after);
    }

    #[test]
    fn least_squares_exact_on_synthetic() {
        let rows = vec![
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
            [2.0, 3.0, 1.0],
            [5.0, 1.0, 1.0],
        ];
        let w = [2.0, -1.0, 0.5];
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| r[0] * w[0] + r[1] * w[1] + r[2] * w[2])
            .collect();
        let fit = least_squares_3(&rows, &ys);
        for i in 0..3 {
            assert!((fit[i] - w[i]).abs() < 1e-9);
        }
    }
}
