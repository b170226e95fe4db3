//! The Dispatcher (§5.2): online head-wise LP dispatching.
//!
//! For each batch of newly arrived requests `J(t)` on a pipeline stage,
//! the Dispatcher solves Eq. (7):
//!
//! ```text
//! min  max_i f_i(x⃗_i)
//! s.t. g_i + Σ_j x_iʲ·l_j·κ ≤ free_i          (per-device capacity, 7b)
//!      Σ_i x_iʲ = H                            (head integrity, 7c)
//! ```
//!
//! with `f_i` affine from the Profiler's Eq. 3/4 models: primary workers
//! pay computation only; attention workers additionally pay the per-head
//! transfer `(2 + 2/r)·γ_i` and the per-message `β_i` (§5.2.2). Already-
//! dispatched requests are never re-parallelized here — their
//! `h_i(t)`/`g_i(t)` enter as constants read from the KV state. The
//! fractional solution is rounded to whole KV-head groups (Eq. 5).

use crate::config::{DispatchSolver, HetisConfig};
use crate::profiler::Profiler;
use hetis_cluster::{Cluster, DeviceId};
use hetis_engine::{KvState, StageTopo};
use hetis_lp::{
    round_to_groups, ConstraintOp, MinMaxBuilder, MinMaxSolution, WaterFill, WfDemand, WfDevice,
    WfOutcome,
};
use hetis_model::ModelSpec;
use std::cell::RefCell;

// The solvers are fed milliseconds / heads / gigabytes so all
// coefficients sit within a few orders of magnitude of 1 (raw
// seconds-per-byte coefficients are ~1e-13 and starve the simplex
// optimality test).
const MS: f64 = 1e3;
const GB: f64 = 1e-9;

/// Per-request outcome: heads per stage-device (same device order as the
/// stage's `attention_devices()`).
#[derive(Debug, Clone)]
pub struct DispatchOutcome {
    /// Head counts per device per request: `heads[j][i]`.
    pub heads: Vec<Vec<u32>>,
    /// The LP's predicted max attention time (before rounding).
    pub predicted_max: f64,
}

/// Reusable per-solve workspace: model coefficients, LP rows and rounding
/// caps all live here so the per-iteration dispatch path allocates only
/// its returned `heads` vectors.
///
/// The coefficient buffers are *method-local* scratch and their units
/// differ by writer: `dispatch_adjusted` stages raw seconds-per-unit
/// values and applies the `MS`/`GB` scaling at row-build time (this
/// exact operation order is what keeps `DispatchSolver::Simplex`
/// bit-identical to the pre-fast-path dispatcher), while
/// `ideal_attention_time` stages already-scaled values. Never read one
/// method's staging from the other.
#[derive(Debug, Clone, Default)]
struct Scratch {
    builder: MinMaxBuilder,
    wf: WaterFill,
    h_now: Vec<f64>,
    g_now: Vec<f64>,
    free: Vec<f64>,
    a_eff: Vec<f64>,
    b_coef: Vec<f64>,
    constants: Vec<f64>,
    caps: Vec<u32>,
    fast_solves: u64,
    fallback_solves: u64,
    simplex_solves: u64,
}

/// The online head-wise dispatcher.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    profiler: Profiler,
    cfg: HetisConfig,
    scratch: RefCell<Scratch>,
}

impl Dispatcher {
    /// A dispatcher using `profiler`'s fitted models.
    pub fn new(profiler: Profiler, cfg: HetisConfig) -> Self {
        Dispatcher {
            profiler,
            cfg,
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// Solver telemetry since construction: `(fast-path water-fill
    /// solves, simplex solves)` — the latter counts both capacity-bound
    /// fallbacks and [`DispatchSolver::Simplex`]-mode solves. A batch
    /// rejected by the pooled-capacity bound
    /// ([`Dispatcher::pooled_prefix`]) counts as neither.
    pub fn solver_counts(&self) -> (u64, u64) {
        let sc = self.scratch.borrow();
        (sc.fast_solves, sc.fallback_solves + sc.simplex_solves)
    }

    /// Access to the underlying profiler (e.g. for perturbation).
    pub fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    /// Read access to the profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Bytes one query-head-token occupies (the κ in the capacity
    /// constraint): `2·head_dim·dtype / r`.
    pub fn head_token_bytes(model: &ModelSpec) -> f64 {
        (2 * model.head_dim * model.dtype.bytes()) as f64 / model.gqa_ratio() as f64
    }

    /// The longest prefix of `lens` whose pooled KV need fits `stage`'s
    /// free bytes: the largest `k` with `Σ_{j<k} H·l_j·κ` within the summed
    /// per-layer free bytes of the stage's attention devices (relative
    /// slack 1e-9). [`Dispatcher::dispatch`] returns `None` for every
    /// longer prefix, under either [`DispatchSolver`].
    ///
    /// The bound is exact. Whatever the LP returns, rounding gives each
    /// request exactly `H` heads and caps request `j` on device `i` at
    /// `h_iʲ·l_j·κ ≤ 0.98·rem_i`, where `rem_i` is what earlier requests
    /// of the batch left free there; `rem_i` therefore never goes
    /// negative, and the batch's `Σ_j H·l_j·κ = Σ_i (free_i − rem_i)` is
    /// at most `Σ_i free_i`. A longer prefix fails rounding whichever
    /// solver ran. The slack only absorbs floating-point error in the two
    /// sums, so no placeable prefix is cut. The solvers keep no state
    /// between solves, so skipping the rejected prefixes leaves every
    /// remaining solve's inputs and outcome as they were.
    pub fn pooled_prefix(
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        lens: &[u32],
    ) -> usize {
        let layers = stage.primary.layers as f64;
        let pooled = stage
            .attention_devices()
            .iter()
            .map(|&d| kv.device(d).free_bytes() as f64 / layers)
            .sum();
        Self::fitting_prefix(model, lens, pooled)
    }

    /// The longest prefix of `lens` whose `Σ_j H·l_j·κ` is within
    /// `pooled` per-layer bytes (relative slack 1e-9): the test behind
    /// [`Dispatcher::pooled_prefix`], shared with `dispatch_adjusted`.
    fn fitting_prefix(model: &ModelSpec, lens: &[u32], pooled: f64) -> usize {
        let per_token = model.num_heads as f64 * Self::head_token_bytes(model);
        let limit = pooled * (1.0 + 1e-9);
        let mut need = 0.0;
        lens.iter()
            .take_while(|&&l| {
                need += per_token * l as f64;
                need <= limit
            })
            .count()
    }

    /// Solves Eq. (7) for `new_reqs` (context lengths `l_j`) on `stage`
    /// (stage index `stage_idx` of its instance). Returns `None` when the
    /// batch cannot fit the stage's pooled capacity at all.
    pub fn dispatch(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
        new_reqs: &[u32],
    ) -> Option<DispatchOutcome> {
        self.dispatch_adjusted(
            cluster,
            model,
            kv,
            stage,
            stage_idx,
            new_reqs,
            &[],
            None,
            None,
        )
    }

    /// [`Dispatcher::dispatch`] for a chunked-prefill engine: the
    /// objective's per-request attention-load term is capped at `chunk`
    /// tokens — during the chunked window a prompt's per-iteration
    /// attention work is chunk-bounded, so pricing its whole context into
    /// every iteration makes the LP too pessimistic about slower workers
    /// — while the capacity constraint still prices the *full* prompt.
    /// The engine's reservation is fine-grained (first chunk + headroom,
    /// grown per chunk), so full-prompt capacity here is deliberately
    /// conservative: the chosen placement must be able to absorb the
    /// request's eventual growth, and the free-bytes inputs the LP reads
    /// already reflect the leaner resident reservations. With
    /// `chunk = None` this is exactly [`Dispatcher::dispatch`].
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch_chunked(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
        new_reqs: &[u32],
        chunk: Option<u64>,
    ) -> Option<DispatchOutcome> {
        self.dispatch_adjusted(
            cluster,
            model,
            kv,
            stage,
            stage_idx,
            new_reqs,
            &[],
            None,
            chunk,
        )
    }

    /// [`Dispatcher::dispatch`] with per-device load *removals*: each
    /// `(device, heads, kv_bytes_per_layer)` entry is subtracted from the
    /// device's resident load and credited back to its free capacity —
    /// how re-dispatching treats the victim's own footprint (§5.3).
    ///
    /// `banned` marks a device whose capacity is forced to zero: the
    /// memory-exhaustion path (§5.3.2) re-dispatches the victim *away*
    /// from the exhausted device, so that device must not re-receive the
    /// heads its own eviction pressure just released.
    ///
    /// `compute_chunk` caps each request's length in the *objective* only
    /// (see [`Dispatcher::dispatch_chunked`]); capacity always uses the
    /// full length.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch_adjusted(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
        new_reqs: &[u32],
        removed: &[(DeviceId, f64, f64)],
        banned: Option<DeviceId>,
        compute_chunk: Option<u64>,
    ) -> Option<DispatchOutcome> {
        if new_reqs.is_empty() {
            return Some(DispatchOutcome {
                heads: Vec::new(),
                predicted_max: 0.0,
            });
        }
        let devices = stage.attention_devices();
        let n = devices.len();
        let j = new_reqs.len();
        let h_total = model.num_heads as f64;
        let r = model.gqa_ratio();
        let kappa = Self::head_token_bytes(model);
        let layers = stage.primary.layers as f64;
        let anchor = stage.primary.devices[0];

        let mut sc = self.scratch.borrow_mut();
        let sc = &mut *sc;

        // Current loads and capacities, minus any explicit removals.
        sc.h_now.clear();
        sc.h_now.extend(
            devices
                .iter()
                .map(|&d| kv.device(d).stage_query_heads(stage_idx, r) as f64),
        );
        sc.g_now.clear();
        sc.g_now.extend(
            devices
                .iter()
                .map(|&d| kv.device(d).stage_kv_bytes_per_layer(stage_idx)),
        );
        // Free bytes in per-layer units (entries are layers-deep).
        sc.free.clear();
        sc.free.extend(
            devices
                .iter()
                .map(|&d| kv.device(d).free_bytes() as f64 / layers),
        );
        for &(dev, dh, dg) in removed {
            if let Some(i) = devices.iter().position(|&d| d == dev) {
                sc.h_now[i] = (sc.h_now[i] - dh).max(0.0);
                sc.g_now[i] = (sc.g_now[i] - dg).max(0.0);
                sc.free[i] += dg;
            }
        }
        if let Some(dev) = banned {
            if let Some(i) = devices.iter().position(|&d| d == dev) {
                sc.free[i] = 0.0;
            }
        }
        // Pooled capacity rules the batch out before any solve (exact:
        // see `pooled_prefix`).
        if Self::fitting_prefix(model, new_reqs, sc.free.iter().sum()) < j {
            return None;
        }

        // Per-device model coefficients of Eq. (7):
        // f_i = a_eff·(h + Σx) + b·(g + κ Σ l x) + c [+ β for workers].
        let per_head_bytes =
            (2.0 + 2.0 / r as f64) * model.head_dim as f64 * model.dtype.bytes() as f64;
        sc.a_eff.clear();
        sc.b_coef.clear();
        sc.constants.clear();
        for (i, &dev) in devices.iter().enumerate() {
            let m = self.profiler.attn_model(dev);
            let remote = !stage.primary.devices.contains(&dev);
            let (gamma, beta) = if remote {
                let lm = self.profiler.link_model(cluster, anchor, dev);
                (lm.gamma, lm.beta)
            } else {
                (0.0, 0.0)
            };
            let a_eff = m.a + gamma * per_head_bytes;
            sc.a_eff.push(a_eff);
            sc.b_coef.push(m.b);
            sc.constants.push(
                (a_eff * sc.h_now[i] + m.b * sc.g_now[i] + m.c + if remote { beta } else { 0.0 })
                    * MS,
            );
        }

        let sol = match self.cfg.solver {
            DispatchSolver::WaterFill => {
                // Structured fast path: one WfDevice per max term +
                // capacity row, one WfDemand per head-integrity equality.
                sc.wf.clear();
                for i in 0..n {
                    sc.wf.push_device(WfDevice {
                        constant: sc.constants[i],
                        alpha: sc.a_eff[i] * MS,
                        beta: sc.b_coef[i] * MS,
                        capacity: sc.free[i] * GB,
                    });
                }
                for &l in new_reqs {
                    let l_compute = (l as u64).min(compute_chunk.unwrap_or(u64::MAX)) as f64;
                    sc.wf.push_demand(WfDemand {
                        amount: h_total,
                        p: 1.0,
                        q: kappa * l_compute,
                        u: l as f64 * kappa * GB,
                    });
                }
                match sc.wf.solve() {
                    WfOutcome::Solved(s) => {
                        sc.fast_solves += 1;
                        s
                    }
                    WfOutcome::CapacityBound => {
                        sc.fallback_solves += 1;
                        Self::solve_eq7_simplex(sc, n, new_reqs, kappa, compute_chunk, h_total)?
                    }
                    WfOutcome::Infeasible => return None,
                }
            }
            DispatchSolver::Simplex => {
                sc.simplex_solves += 1;
                Self::solve_eq7_simplex(sc, n, new_reqs, kappa, compute_chunk, h_total)?
            }
        };

        // Round per request, consuming per-device capacity as we go. The
        // caps carry a 2% safety margin: the engine allocates in whole
        // blocks, so exact-byte feasibility can fall just short at the
        // allocator. `sc.free` doubles as the remaining-capacity tracker.
        let mut heads: Vec<Vec<u32>> = Vec::with_capacity(j);
        for (jj, &l) in new_reqs.iter().enumerate() {
            let x = &sol.x[jj * n..(jj + 1) * n];
            sc.caps.clear();
            sc.caps.extend(sc.free.iter().map(|&free| {
                let per_head = l as f64 * kappa;
                ((free * 0.98 / per_head).floor() as u32).min(model.num_heads)
            }));
            let rounded = round_to_groups(x, r, model.num_heads, &sc.caps)?;
            for (i, &h) in rounded.iter().enumerate() {
                sc.free[i] -= h as f64 * l as f64 * kappa;
            }
            heads.push(rounded);
        }

        Some(DispatchOutcome {
            heads,
            predicted_max: sol.max_value / MS,
        })
    }

    /// Poses Eq. (7) as the epigraph LP over `x[j·n + i]` from the
    /// coefficients staged in `sc` and solves it with the simplex oracle
    /// (bit-identical to the pre-fast-path dispatcher).
    fn solve_eq7_simplex(
        sc: &mut Scratch,
        n: usize,
        new_reqs: &[u32],
        kappa: f64,
        compute_chunk: Option<u64>,
        h_total: f64,
    ) -> Option<MinMaxSolution> {
        let j = new_reqs.len();
        let nv = j * n;
        sc.builder.reset(nv);
        for i in 0..n {
            let row = sc.builder.push_max_term(sc.constants[i]);
            for (jj, &l) in new_reqs.iter().enumerate() {
                let l_compute = (l as u64).min(compute_chunk.unwrap_or(u64::MAX)) as f64;
                row[jj * n + i] = (sc.a_eff[i] + sc.b_coef[i] * kappa * l_compute) * MS;
            }
            // Capacity (7b): Σ_j x_iʲ · l_j · κ ≤ free_i (per-layer GB).
            let cap = sc
                .builder
                .push_constraint(ConstraintOp::Le, sc.free[i] * GB);
            for (jj, &l) in new_reqs.iter().enumerate() {
                cap[jj * n + i] = l as f64 * kappa * GB;
            }
        }
        // Head integrity (7c): Σ_i x_iʲ = H.
        for jj in 0..j {
            let row = sc.builder.push_constraint(ConstraintOp::Eq, h_total);
            for i in 0..n {
                row[jj * n + i] = 1.0;
            }
        }
        sc.builder.solve().ok()
    }

    /// The relaxed ideal attention time `f*` over *all* load currently on
    /// the stage (§5.3.1): re-balance the total (h, g) freely across
    /// devices, respecting capacity. Two variables per device.
    pub fn ideal_attention_time(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
    ) -> Option<f64> {
        let devices = stage.attention_devices();
        let n = devices.len();
        let r = model.gqa_ratio();
        let layers = stage.primary.layers as f64;
        let anchor = stage.primary.devices[0];

        let h_total: f64 = devices
            .iter()
            .map(|&d| kv.device(d).stage_query_heads(stage_idx, r) as f64)
            .sum();
        let g_total: f64 = devices
            .iter()
            .map(|&d| kv.device(d).stage_kv_bytes_per_layer(stage_idx))
            .sum();
        if h_total == 0.0 {
            return Some(0.0);
        }

        // Vars: [h'_0.. (heads), g'_0.. (GB)]; times in ms — see the unit
        // note at the top of the module. Two demands over the devices:
        // the stage's total heads (α-cost only) and its total KV bytes
        // (β-cost only, capacity-consuming), which is exactly the
        // water-fill's rank-2 structure.
        let mut sc = self.scratch.borrow_mut();
        let sc = &mut *sc;
        let per_head_bytes =
            (2.0 + 2.0 / r as f64) * model.head_dim as f64 * model.dtype.bytes() as f64;
        sc.a_eff.clear();
        sc.b_coef.clear();
        sc.constants.clear();
        sc.free.clear();
        for &dev in devices.iter() {
            let m = self.profiler.attn_model(dev);
            let remote = !stage.primary.devices.contains(&dev);
            let (gamma, beta) = if remote {
                let lm = self.profiler.link_model(cluster, anchor, dev);
                (lm.gamma, lm.beta)
            } else {
                (0.0, 0.0)
            };
            sc.a_eff.push((m.a + gamma * per_head_bytes) * MS);
            sc.b_coef.push(m.b * MS / GB);
            sc.constants
                .push((m.c + if remote { beta } else { 0.0 }) * MS);
            // Capacity on g'_i: cannot exceed the device pool (per layer).
            sc.free.push(kv.device(dev).pool_bytes() as f64 / layers);
        }

        let solved = match self.cfg.solver {
            DispatchSolver::WaterFill => {
                sc.wf.clear();
                for i in 0..n {
                    sc.wf.push_device(WfDevice {
                        constant: sc.constants[i],
                        alpha: sc.a_eff[i],
                        beta: sc.b_coef[i],
                        capacity: sc.free[i] * GB,
                    });
                }
                sc.wf.push_demand(WfDemand {
                    amount: h_total,
                    p: 1.0,
                    q: 0.0,
                    u: 0.0,
                });
                sc.wf.push_demand(WfDemand {
                    amount: g_total * GB,
                    p: 0.0,
                    q: 1.0,
                    u: 1.0,
                });
                match sc.wf.solve() {
                    WfOutcome::Solved(s) => {
                        sc.fast_solves += 1;
                        Some(s)
                    }
                    WfOutcome::CapacityBound => {
                        sc.fallback_solves += 1;
                        Self::solve_ideal_simplex(sc, n, h_total, g_total)
                    }
                    WfOutcome::Infeasible => None,
                }
            }
            DispatchSolver::Simplex => {
                sc.simplex_solves += 1;
                Self::solve_ideal_simplex(sc, n, h_total, g_total)
            }
        };

        // The epigraph LP charges every device's constant term even at
        // zero assigned load (a fixed-charge effect linear programs cannot
        // express), so at very light loads the "ideal" can exceed the
        // status quo. Clamp: the current assignment is itself feasible,
        // hence an upper bound on the true optimum.
        let (current, _) = self.current_attention_time(cluster, model, kv, stage, stage_idx);
        solved.map(|s| (s.max_value / MS).min(current))
    }

    /// The §5.3.1 relaxation as the epigraph LP (oracle / fallback path,
    /// bit-identical to the pre-fast-path dispatcher).
    fn solve_ideal_simplex(
        sc: &mut Scratch,
        n: usize,
        h_total: f64,
        g_total: f64,
    ) -> Option<MinMaxSolution> {
        let nv = 2 * n;
        sc.builder.reset(nv);
        for i in 0..n {
            let row = sc.builder.push_max_term(sc.constants[i]);
            row[i] = sc.a_eff[i];
            row[n + i] = sc.b_coef[i];
            let cap = sc
                .builder
                .push_constraint(ConstraintOp::Le, sc.free[i] * GB);
            cap[n + i] = 1.0;
        }
        // Conservation.
        let hrow = sc.builder.push_constraint(ConstraintOp::Eq, h_total);
        for v in hrow.iter_mut().take(n) {
            *v = 1.0;
        }
        let grow = sc.builder.push_constraint(ConstraintOp::Eq, g_total * GB);
        for v in grow.iter_mut().skip(n) {
            *v = 1.0;
        }
        sc.builder.solve().ok()
    }

    /// The *current* estimated per-stage attention time, and the device
    /// realizing the maximum (§5.3.1's bottleneck identification).
    pub fn current_attention_time(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
    ) -> (f64, Option<DeviceId>) {
        let r = model.gqa_ratio();
        let anchor = stage.primary.devices[0];
        let per_head_bytes =
            (2.0 + 2.0 / r as f64) * model.head_dim as f64 * model.dtype.bytes() as f64;
        let mut worst = (0.0, None);
        for dev in stage.attention_devices() {
            let h = kv.device(dev).stage_query_heads(stage_idx, r) as f64;
            let g = kv.device(dev).stage_kv_bytes_per_layer(stage_idx);
            if h == 0.0 && g == 0.0 {
                continue;
            }
            let m = self.profiler.attn_model(dev);
            let remote = !stage.primary.devices.contains(&dev);
            let mut t = m.predict(h, g);
            if remote {
                let lm = self.profiler.link_model(cluster, anchor, dev);
                t += lm.gamma * per_head_bytes * h + lm.beta;
            }
            if t > worst.0 {
                worst = (t, Some(dev));
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_cluster::cluster::paper_cluster;
    use hetis_cluster::GpuType;
    use hetis_engine::StageTopo;
    use hetis_model::llama_70b;
    use hetis_parallel::StageConfig;
    use std::collections::HashMap;

    fn setup() -> (
        hetis_cluster::Cluster,
        hetis_model::ModelSpec,
        KvState,
        StageTopo,
        Dispatcher,
    ) {
        let cluster = paper_cluster();
        let model = llama_70b();
        let kv = KvState::new(&cluster, &model, 16, &HashMap::new()).unwrap();
        let mut stage = StageTopo::plain(StageConfig {
            devices: cluster.devices_of_type(GpuType::A100),
            layers: 80,
        });
        stage.attention_workers = cluster.devices_of_type(GpuType::P100)[..2].to_vec();
        let profiler = Profiler::profile(&cluster, 8, 0.0, 1);
        let d = Dispatcher::new(profiler, HetisConfig::default());
        (cluster, model, kv, stage, d)
    }

    #[test]
    fn light_load_stays_on_primary() {
        // Fig. 14's observation: under light load Hetis keeps heads local
        // (network beta makes remote placement unprofitable).
        let (cluster, model, kv, stage, d) = setup();
        let out = d
            .dispatch(&cluster, &model, &kv, &stage, 0, &[512])
            .unwrap();
        assert_eq!(out.heads.len(), 1);
        let total: u32 = out.heads[0].iter().sum();
        assert_eq!(total, model.num_heads);
        // All heads on the 4 primary devices (indices 0..4).
        let remote: u32 = out.heads[0][4..].iter().sum();
        assert_eq!(remote, 0, "light load must not offload: {:?}", out.heads);
    }

    #[test]
    fn heavy_resident_load_spills_to_workers() {
        let (cluster, model, mut kv, stage, d) = setup();
        // Pre-load the primaries with resident requests (high h, g).
        for (k, &dev) in stage.primary.devices.iter().enumerate() {
            for q in 0..40u64 {
                kv.device_mut(dev)
                    .allocate(
                        hetis_workload::RequestId(1000 + k as u64 * 100 + q),
                        0,
                        8,
                        4000,
                        80,
                    )
                    .unwrap();
            }
        }
        let out = d
            .dispatch(&cluster, &model, &kv, &stage, 0, &[2000])
            .unwrap();
        let remote: u32 = out.heads[0][4..].iter().sum();
        assert!(
            remote > 0,
            "loaded primaries must offload to workers: {:?}",
            out.heads[0]
        );
    }

    #[test]
    fn head_counts_are_group_multiples() {
        let (cluster, model, kv, stage, d) = setup();
        let out = d
            .dispatch(&cluster, &model, &kv, &stage, 0, &[700, 1400, 300])
            .unwrap();
        for per_req in &out.heads {
            assert_eq!(per_req.iter().sum::<u32>(), 64);
            for &h in per_req {
                assert_eq!(h % 8, 0);
            }
        }
    }

    #[test]
    fn capacity_exhaustion_returns_none() {
        let (cluster, model, mut kv, stage, d) = setup();
        // Fill every device's pool almost completely.
        for dev in stage.attention_devices() {
            let free = kv.device(dev).free_bytes();
            let unit = 16u64 * 2 * 128 * 2;
            let groups = (free / unit / 80).saturating_sub(1) as u32;
            if groups > 0 {
                kv.device_mut(dev)
                    .allocate(
                        hetis_workload::RequestId(5000 + dev.0 as u64),
                        0,
                        groups,
                        16,
                        80,
                    )
                    .unwrap();
            }
        }
        let out = d.dispatch(&cluster, &model, &kv, &stage, 0, &[100_000]);
        assert!(out.is_none(), "oversized request must be rejected");
    }

    #[test]
    fn ideal_time_lower_bounds_current() {
        let (cluster, model, mut kv, stage, d) = setup();
        // Imbalanced residency: everything on one primary device.
        let dev = stage.primary.devices[0];
        for q in 0..30u64 {
            kv.device_mut(dev)
                .allocate(hetis_workload::RequestId(q), 0, 8, 3000, 80)
                .unwrap();
        }
        let (current, bottleneck) = d.current_attention_time(&cluster, &model, &kv, &stage, 0);
        let ideal = d
            .ideal_attention_time(&cluster, &model, &kv, &stage, 0)
            .unwrap();
        assert_eq!(bottleneck, Some(dev));
        assert!(ideal < current, "ideal {ideal} vs current {current}");
        // Re-balancing at least halves the bottleneck here.
        assert!(current / ideal > 1.5);
    }

    #[test]
    fn empty_batch_trivial() {
        let (cluster, model, kv, stage, d) = setup();
        let out = d.dispatch(&cluster, &model, &kv, &stage, 0, &[]).unwrap();
        assert!(out.heads.is_empty());
        let (t, dev) = d.current_attention_time(&cluster, &model, &kv, &stage, 0);
        assert_eq!(t, 0.0);
        assert!(dev.is_none());
        assert_eq!(
            d.ideal_attention_time(&cluster, &model, &kv, &stage, 0),
            Some(0.0)
        );
    }
}
