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

use crate::profiler::Profiler;
use hetis_cluster::{Cluster, DeviceId};
use hetis_engine::{KvState, StageTopo};
use hetis_lp::{
    round_to_groups, ConstraintOp, MinMaxBuilder, MinMaxSolution, WaterFill, WfDemand, WfDevice,
    WfOutcome,
};
use hetis_model::ModelSpec;
use hetis_sim::FxHashMap;
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
/// The coefficient buffers `h_now` to `constants` are `dispatch_adjusted`'s
/// staging: raw seconds-per-unit values, with the `MS`/`GB` scaling
/// applied where the water-fill devices and the fallback simplex rows are
/// built. The §5.3.1 relaxation stages its scaled per-device terms
/// into `constants`, `a_eff`, `b_coef` and `free` instead (see
/// `Dispatcher::pose_ideal`).
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
    /// The balance-check key of the stage being checked (see
    /// [`Dispatcher::stage_balance`]).
    key: Vec<u64>,
    /// The balance-check memo: one slot per stage, keyed by the stage's
    /// anchor device and stage index.
    memo: FxHashMap<(DeviceId, u16), BalanceSlot>,
    counts: SolveCounts,
    balance: BalanceCounts,
}

/// One stage's memo slot: the key of its last balance check and that
/// check's verdict.
#[derive(Debug, Clone)]
struct BalanceSlot {
    key: Vec<u64>,
    verdict: StageBalance,
}

/// Solver telemetry behind [`Dispatcher::solver_counts`].
#[derive(Debug, Clone, Copy, Default)]
struct SolveCounts {
    fast: u64,
    fallback: u64,
}

/// One Eq. (7) batch as the simplex restatement, the rounding and the
/// debug oracle read it, beside the coefficients staged in [`Scratch`].
#[derive(Debug, Clone, Copy)]
struct Batch<'a> {
    /// The requests' context lengths `l_j`.
    lens: &'a [u32],
    /// The stage's attention devices.
    n: usize,
    /// Bytes per query-head-token, κ.
    kappa: f64,
    /// The objective's per-request length cap (see
    /// [`Dispatcher::dispatch`]).
    compute_chunk: Option<u64>,
    /// Query heads per request, H.
    heads: u32,
    /// The GQA group ratio r.
    r: u32,
}

impl Batch<'_> {
    /// Request length `l` as the objective prices it.
    fn compute_len(&self, l: u32) -> f64 {
        (l as u64).min(self.compute_chunk.unwrap_or(u64::MAX)) as f64
    }

    /// Whether some entry of `x` lies within 1e-9 of half a KV-head
    /// group, where rounding breaks the tie by device index.
    fn rounds_a_half_group(&self, x: &[f64]) -> bool {
        x.iter()
            .any(|&v| ((v / self.r as f64).fract() - 0.5).abs() <= 1e-9)
    }

    /// Rounds the fractional `x` to whole KV-head groups request by
    /// request, consuming `free` (per-layer bytes per device) as it goes.
    /// The caps carry a 2% safety margin: the engine allocates in whole
    /// blocks, so exact-byte feasibility can fall just short at the
    /// allocator. `None` when some request cannot be rounded.
    fn round_heads(
        &self,
        x: &[f64],
        free: &mut [f64],
        caps: &mut Vec<u32>,
    ) -> Option<Vec<Vec<u32>>> {
        let n = self.n;
        let mut heads = Vec::with_capacity(self.lens.len());
        for (jj, &l) in self.lens.iter().enumerate() {
            caps.clear();
            caps.extend(free.iter().map(|&free| {
                let per_head = l as f64 * self.kappa;
                ((free * 0.98 / per_head).floor() as u32).min(self.heads)
            }));
            let rounded = round_to_groups(&x[jj * n..(jj + 1) * n], self.r, self.heads, caps)?;
            for (i, &h) in rounded.iter().enumerate() {
                free[i] -= h as f64 * l as f64 * self.kappa;
            }
            heads.push(rounded);
        }
        Some(heads)
    }
}

/// A stage's §5.3.1 verdict, from [`Dispatcher::stage_balance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageBalance {
    /// The stage's attention time is within Θ of the relaxed ideal, or
    /// the stage carries no attention load.
    Balanced,
    /// The attention time exceeds the relaxed ideal by more than Θ;
    /// `bottleneck` is the device realizing it.
    Imbalanced {
        /// The device with the largest attention time.
        bottleneck: DeviceId,
    },
    /// The relaxation has no solution; the caller stops checking.
    Unsolvable,
}

/// How [`Dispatcher::stage_balance`] settled its checks since
/// construction. Every check is counted once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BalanceCounts {
    /// Answered by the memo: the stage's key equalled its last check's.
    pub memo_hits: u64,
    /// Misses on a stage without attention load, settled without a
    /// solve.
    pub idle: u64,
    /// Misses the level certificate settled as balanced.
    pub certified: u64,
    /// Misses that ran the relaxed-ideal solve.
    pub solved: u64,
}

/// The relative margin of the level certificate (see
/// [`Dispatcher::stage_balance`]).
const CERTIFICATE_MARGIN: f64 = 1e-6;

/// The online head-wise dispatcher.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    profiler: Profiler,
    scratch: RefCell<Scratch>,
}

impl Dispatcher {
    /// A dispatcher using `profiler`'s fitted models.
    pub fn new(profiler: Profiler) -> Self {
        Dispatcher {
            profiler,
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// Solver telemetry since construction: `(fast-path water-fill
    /// solves, simplex solves)`. The water-fill falls back to the simplex
    /// ([`WfOutcome::CapacityBound`]) only when a capacity row binds on a
    /// batch of several requests (or the §5.3.1 relaxation's two
    /// pseudo-demands) and its bottleneck certificate refuses: a ratio
    /// tie at the fill boundary, a balanced batch, a stage of three or
    /// more devices or a demand that consumes no capacity (see
    /// `hetis_lp::waterfill`). A one-request dispatch is always a
    /// fast-path solve. A certified batch whose fractional heads sit on
    /// an exact half group is re-solved by the simplex and counts once,
    /// as a simplex solve. A batch rejected by the pooled-capacity bound
    /// ([`Dispatcher::pooled_prefix`]) counts as neither, and so does a
    /// [`Dispatcher::stage_balance`] check that its memo or its level
    /// certificate settles (the debug-build oracles' solves are not
    /// counted either).
    pub fn solver_counts(&self) -> (u64, u64) {
        let c = self.scratch.borrow().counts;
        (c.fast, c.fallback)
    }

    /// How [`Dispatcher::stage_balance`] settled its checks since
    /// construction.
    pub fn balance_counts(&self) -> BalanceCounts {
        self.scratch.borrow().balance
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
    /// longer prefix.
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
            .map(|d| kv.device(d).free_bytes() as f64 / layers)
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
    ///
    /// `compute_chunk` is the chunked-prefill engine's chunk size: the
    /// objective's per-request attention-load term is capped at it —
    /// during the chunked window a prompt's per-iteration attention work
    /// is chunk-bounded, so pricing its whole context into every
    /// iteration makes the LP too pessimistic about slower workers —
    /// while the capacity constraint still prices the *full* prompt.
    /// The engine's reservation is fine-grained (first chunk + headroom,
    /// grown per chunk), so full-prompt capacity here is deliberately
    /// conservative: the chosen placement must be able to absorb the
    /// request's eventual growth, and the free-bytes inputs the LP reads
    /// already reflect the leaner resident reservations. `None` prices
    /// whole prompts (atomic prefill).
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
        new_reqs: &[u32],
        compute_chunk: Option<u64>,
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
            compute_chunk,
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
    /// (see [`Dispatcher::dispatch`]); capacity always uses the full
    /// length.
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
        let mut sc = self.scratch.borrow_mut();
        let sc = &mut *sc;
        let batch = self.pose_eq7(
            sc,
            cluster,
            model,
            kv,
            stage,
            stage_idx,
            new_reqs,
            removed,
            banned,
            compute_chunk,
        )?;
        // The water-fill settles every one-request instance (its closed
        // form includes the capacity rows), every batch whose
        // uncapacitated optimum fits, and, on two devices, every batch its
        // bottleneck certificate proves uniquely optimal. On the
        // benchmark's traffic that is a stage whose remote attention
        // worker has little free KV: the worker's capacity binds, it takes
        // the shortest requests (each unit of its capacity saves the
        // primary `t/u` of time, which falls with the request length) and
        // the primary's time is the maximum. The simplex decides the rest:
        // ratio ties at the fill boundary (equal lengths), balanced
        // batches where both time rows bind, stages of three or more
        // devices. It also re-solves a certified batch whose fractional
        // heads sit on an exact half group: rounding breaks that tie by
        // device index, and which device rounds up must stay what the
        // simplex's last digits decide.
        let (sol, _certified) = match sc.wf.solve() {
            WfOutcome::Solved(s) if !(sc.wf.certified() && batch.rounds_a_half_group(&s.x)) => {
                sc.counts.fast += 1;
                (s, sc.wf.certified())
            }
            WfOutcome::Solved(_) | WfOutcome::CapacityBound => {
                sc.counts.fallback += 1;
                (Self::solve_eq7_simplex(sc, &batch)?, false)
            }
            WfOutcome::Infeasible => return None,
        };
        #[cfg(debug_assertions)]
        if new_reqs.len() == 1 || _certified {
            Self::assert_matches_simplex(sc, &batch, &sol, _certified);
        }

        // Round per request, consuming per-device capacity as we go
        // (`sc.free` doubles as the remaining-capacity tracker).
        let heads = batch.round_heads(&sol.x, &mut sc.free, &mut sc.caps)?;
        Some(DispatchOutcome {
            heads,
            predicted_max: sol.max_value / MS,
        })
    }

    /// Stages Eq. (7) for `new_reqs` on `stage` into `sc` (the inputs of
    /// [`Dispatcher::dispatch_adjusted`]): per attention device its free
    /// capacity in per-layer bytes (`free`) and its cost coefficients
    /// (`a_eff`, `b_coef`, `constants`), then poses the instance on
    /// `sc.wf`. `None` when the stage's pooled capacity rules the batch
    /// out before any solve.
    #[allow(clippy::too_many_arguments)]
    fn pose_eq7<'a>(
        &self,
        sc: &mut Scratch,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
        new_reqs: &'a [u32],
        removed: &[(DeviceId, f64, f64)],
        banned: Option<DeviceId>,
        compute_chunk: Option<u64>,
    ) -> Option<Batch<'a>> {
        let devices = stage.attention_devices();
        let batch = Batch {
            lens: new_reqs,
            n: devices.clone().count(),
            kappa: Self::head_token_bytes(model),
            compute_chunk,
            heads: model.num_heads,
            r: model.gqa_ratio(),
        };
        let r = batch.r;
        let layers = stage.primary.layers as f64;
        let anchor = stage.primary.devices[0];

        // Current loads and capacities, minus any explicit removals.
        sc.h_now.clear();
        sc.g_now.clear();
        // Free bytes in per-layer units (entries are layers-deep).
        sc.free.clear();
        for d in devices.clone() {
            let kv = kv.device(d);
            sc.h_now.push(kv.stage_query_heads(stage_idx, r) as f64);
            sc.g_now.push(kv.stage_kv_bytes_per_layer(stage_idx));
            sc.free.push(kv.free_bytes() as f64 / layers);
        }
        for &(dev, dh, dg) in removed {
            if let Some(i) = devices.clone().position(|d| d == dev) {
                sc.h_now[i] = (sc.h_now[i] - dh).max(0.0);
                sc.g_now[i] = (sc.g_now[i] - dg).max(0.0);
                sc.free[i] += dg;
            }
        }
        if let Some(dev) = banned {
            if let Some(i) = devices.clone().position(|d| d == dev) {
                sc.free[i] = 0.0;
            }
        }
        // Pooled capacity rules the batch out before any solve (exact:
        // see `pooled_prefix`).
        if Self::fitting_prefix(model, new_reqs, sc.free.iter().sum()) < new_reqs.len() {
            return None;
        }

        // Per-device model coefficients of Eq. (7):
        // f_i = a_eff·(h + Σx) + b·(g + κ Σ l x) + c [+ β for workers].
        let per_head_bytes =
            (2.0 + 2.0 / r as f64) * model.head_dim as f64 * model.dtype.bytes() as f64;
        sc.a_eff.clear();
        sc.b_coef.clear();
        sc.constants.clear();
        for (i, dev) in devices.enumerate() {
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

        // Structured fast path: one WfDevice per max term + capacity row,
        // one WfDemand per head-integrity equality.
        sc.wf.clear();
        for i in 0..batch.n {
            sc.wf.push_device(WfDevice {
                constant: sc.constants[i],
                alpha: sc.a_eff[i] * MS,
                beta: sc.b_coef[i] * MS,
                capacity: sc.free[i] * GB,
            });
        }
        for &l in new_reqs {
            sc.wf.push_demand(WfDemand {
                amount: batch.heads as f64,
                p: 1.0,
                q: batch.kappa * batch.compute_len(l),
                u: l as f64 * batch.kappa * GB,
            });
        }
        Some(batch)
    }

    /// Debug oracle of the water-fill's closed form and bottleneck
    /// certificate: the simplex re-solves the batch staged in `sc`, and
    /// its objective must equal `sol`'s within 1e-9 relative. A
    /// `certified` solution must moreover be the simplex's point: every
    /// `x` entry within 1e-9·H of it, and the same heads after rounding.
    /// The oracle's solve is not the dispatcher's, so the solver counts
    /// are restored after it. A closed form that finds no level while
    /// the simplex solves never reaches the oracle and is accepted: the
    /// simplex's phase 1 admits an infeasibility of 1e-7, and the
    /// pooled-capacity check before the solve already rejects any
    /// request that misses the pooled capacity by more than 1e-9.
    #[cfg(debug_assertions)]
    fn assert_matches_simplex(
        sc: &mut Scratch,
        batch: &Batch,
        sol: &MinMaxSolution,
        certified: bool,
    ) {
        let lens = batch.lens;
        let counts = sc.counts;
        let reference = Self::solve_eq7_simplex(sc, batch);
        sc.counts = counts;
        let Some(want) = reference else {
            panic!(
                "dispatch of {lens:?}: {} where the simplex finds no solution",
                sol.max_value
            );
        };
        assert!(
            (sol.max_value - want.max_value).abs() <= 1e-9 * want.max_value.abs(),
            "dispatch of {lens:?}: {} vs the simplex {}",
            sol.max_value,
            want.max_value
        );
        if certified {
            let tol = 1e-9 * batch.heads as f64;
            assert!(
                sol.x.iter().zip(&want.x).all(|(a, b)| (a - b).abs() <= tol),
                "certified dispatch of {lens:?}: x {:?} vs the simplex {:?}",
                sol.x,
                want.x
            );
            let mut caps = Vec::new();
            let got = batch.round_heads(&sol.x, &mut sc.free.clone(), &mut caps);
            let want = batch.round_heads(&want.x, &mut sc.free.clone(), &mut caps);
            assert_eq!(
                got, want,
                "certified dispatch of {lens:?}: heads differ from the simplex's"
            );
        }
    }

    /// Poses Eq. (7) as the epigraph LP over `x[j·n + i]` from the
    /// coefficients staged in `sc` and solves it with the simplex: the
    /// water-fill's fallback.
    fn solve_eq7_simplex(sc: &mut Scratch, batch: &Batch) -> Option<MinMaxSolution> {
        let Batch { lens, n, kappa, .. } = *batch;
        sc.builder.reset(lens.len() * n);
        for i in 0..n {
            let row = sc.builder.push_max_term(sc.constants[i]);
            for (jj, &l) in lens.iter().enumerate() {
                row[jj * n + i] = (sc.a_eff[i] + sc.b_coef[i] * kappa * batch.compute_len(l)) * MS;
            }
            // Capacity (7b): Σ_j x_iʲ · l_j · κ ≤ free_i (per-layer GB).
            let cap = sc
                .builder
                .push_constraint(ConstraintOp::Le, sc.free[i] * GB);
            for (jj, &l) in lens.iter().enumerate() {
                cap[jj * n + i] = l as f64 * kappa * GB;
            }
        }
        // Head integrity (7c): Σ_i x_iʲ = H.
        for jj in 0..lens.len() {
            let row = sc
                .builder
                .push_constraint(ConstraintOp::Eq, batch.heads as f64);
            for i in 0..n {
                row[jj * n + i] = 1.0;
            }
        }
        sc.builder.solve().ok()
    }

    /// The §5.3.1 verdict on stage `stage_idx` (`stage`) under threshold
    /// `theta`: [`StageBalance::Imbalanced`] when the stage's current
    /// attention time exceeds `(1 + theta)` times the relaxed ideal,
    /// exactly as [`Dispatcher::stage_balance_reference`] decides, but at
    /// a cost that depends on what changed since the stage's last check.
    ///
    /// **Memo.** Each stage slot (anchor device, stage index) keeps the
    /// key and verdict of its last check, and an equal key returns the
    /// stored verdict before any attention time is computed. The key is
    /// every input of the verdict that can change between checks:
    /// `theta`, the stage's layer count, its primary and worker device
    /// lists, and per attention device its `stage_query_heads`,
    /// `stage_kv_bytes_per_layer` (as bits) and pool bytes. The remaining
    /// inputs are the profiler's models, the cluster and the model, which
    /// are all fixed for a dispatcher's life.
    ///
    /// **Certificate.** A miss on a loaded stage first runs one pass of
    /// the water-fill's uncapacitated level oracle
    /// ([`WaterFill::reaches_level`]) at `τ = current/(1+θ)·(1+1e-6)`. If
    /// the demand cannot finish at τ, the relaxed optimum `f*` exceeds
    /// τ, so `current ≤ (1+θ)·min(f*, current)` whatever either solver
    /// returns (for `θ ≥ 0`), and the stage is balanced without a
    /// bisection or simplex solve. The 1e-6 margin covers the solvers'
    /// own tolerance: they may return an optimum just above
    /// `current/(1+θ)` a hair below it. The relaxation always has a
    /// solution for resident load (the current placement is a feasible
    /// point), so the certificate never hides an `Unsolvable` verdict.
    /// Otherwise the full solve runs.
    ///
    /// Debug builds recompute the reference verdict on every memo hit and
    /// every certificate and assert that it is equal.
    pub fn stage_balance(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
        theta: f64,
    ) -> StageBalance {
        let slot_id = (stage.primary.devices[0], stage_idx);
        let hit = {
            let mut guard = self.scratch.borrow_mut();
            let sc = &mut *guard;
            Self::balance_key(&mut sc.key, model, kv, stage, stage_idx, theta);
            let verdict = sc
                .memo
                .get(&slot_id)
                .filter(|m| m.key == sc.key)
                .map(|m| m.verdict);
            sc.balance.memo_hits += u64::from(verdict.is_some());
            verdict
        };
        if let Some(verdict) = hit {
            #[cfg(debug_assertions)]
            self.assert_reference(cluster, model, kv, stage, stage_idx, theta, verdict);
            return verdict;
        }

        let (current, bottleneck) =
            self.current_attention_time(cluster, model, kv, stage, stage_idx);
        let mut guard = self.scratch.borrow_mut();
        let sc = &mut *guard;
        let totals =
            bottleneck.and_then(|_| self.pose_ideal(sc, cluster, model, kv, stage, stage_idx));
        let (verdict, _certified) = match (bottleneck, totals) {
            (Some(bottleneck), Some(totals)) => {
                // The posed relaxation is in ms (see `pose_ideal`).
                let tau = current * MS / (1.0 + theta) * (1.0 + CERTIFICATE_MARGIN);
                if theta >= 0.0 && !sc.wf.reaches_level(tau) {
                    sc.balance.certified += 1;
                    (StageBalance::Balanced, true)
                } else {
                    sc.balance.solved += 1;
                    let ideal = Self::solve_ideal(sc, totals);
                    (Self::verdict(current, bottleneck, ideal, theta), false)
                }
            }
            _ => {
                sc.balance.idle += 1;
                (StageBalance::Balanced, false)
            }
        };
        let slot = sc.memo.entry(slot_id).or_insert_with(|| BalanceSlot {
            key: Vec::new(),
            verdict,
        });
        std::mem::swap(&mut slot.key, &mut sc.key);
        slot.verdict = verdict;
        drop(guard);
        #[cfg(debug_assertions)]
        if _certified {
            self.assert_reference(cluster, model, kv, stage, stage_idx, theta, verdict);
        }
        verdict
    }

    /// The §5.3.1 verdict computed from scratch, with no memo and no
    /// certificate: [`Dispatcher::current_attention_time`], then
    /// [`Dispatcher::ideal_attention_time`] on a loaded stage. The oracle
    /// [`Dispatcher::stage_balance`] must agree with.
    pub fn stage_balance_reference(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
        theta: f64,
    ) -> StageBalance {
        let (current, bottleneck) =
            self.current_attention_time(cluster, model, kv, stage, stage_idx);
        let Some(bottleneck) = bottleneck else {
            return StageBalance::Balanced;
        };
        let ideal = self.ideal_attention_time(cluster, model, kv, stage, stage_idx, current);
        Self::verdict(current, bottleneck, ideal, theta)
    }

    /// Θ's test on a loaded stage: `ideal` is the relaxed ideal clamped
    /// to `current` (`None` when the relaxation has no solution).
    fn verdict(current: f64, bottleneck: DeviceId, ideal: Option<f64>, theta: f64) -> StageBalance {
        match ideal.map(|f| f.min(current)) {
            None => StageBalance::Unsolvable,
            Some(ideal) if ideal <= 0.0 || current <= (1.0 + theta) * ideal => {
                StageBalance::Balanced
            }
            Some(_) => StageBalance::Imbalanced { bottleneck },
        }
    }

    /// Debug oracle of [`Dispatcher::stage_balance`]: the reference
    /// verdict must equal `verdict`. Its solves are not the
    /// dispatcher's, so the solver counts are restored after it.
    #[cfg(debug_assertions)]
    #[allow(clippy::too_many_arguments)]
    fn assert_reference(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
        theta: f64,
        verdict: StageBalance,
    ) {
        let counts = self.scratch.borrow().counts;
        let reference = self.stage_balance_reference(cluster, model, kv, stage, stage_idx, theta);
        self.scratch.borrow_mut().counts = counts;
        assert_eq!(
            verdict, reference,
            "balance check of stage {stage_idx} at {}: {verdict:?}, the reference {reference:?}",
            stage.primary.devices[0]
        );
    }

    /// Writes the balance-check key of `stage` into `key` (see
    /// [`Dispatcher::stage_balance`]) without allocating once `key` has
    /// grown to size.
    fn balance_key(
        key: &mut Vec<u64>,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
        theta: f64,
    ) {
        let r = model.gqa_ratio();
        key.clear();
        key.push(theta.to_bits());
        key.push(stage.primary.layers as u64);
        key.push(stage.primary.devices.len() as u64);
        key.extend(stage.primary.devices.iter().map(|d| d.0 as u64));
        key.push(stage.attention_workers.len() as u64);
        key.extend(stage.attention_workers.iter().map(|d| d.0 as u64));
        for dev in stage.attention_devices() {
            let d = kv.device(dev);
            key.push(d.stage_query_heads(stage_idx, r));
            key.push(d.stage_kv_bytes_per_layer(stage_idx).to_bits());
            key.push(d.pool_bytes());
        }
    }

    /// The relaxed ideal attention time `f*` over *all* load currently on
    /// the stage (§5.3.1): re-balance the total (h, g) freely across
    /// devices, respecting capacity. Two variables per device.
    ///
    /// `current` is the stage's current attention time, from
    /// [`Dispatcher::current_attention_time`]; `f*` is clamped to it.
    /// Every call solves (unless the stage holds no query heads); the
    /// balance check skips it through [`Dispatcher::stage_balance`].
    pub fn ideal_attention_time(
        &self,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
        current: f64,
    ) -> Option<f64> {
        let mut guard = self.scratch.borrow_mut();
        let sc = &mut *guard;
        let Some(totals) = self.pose_ideal(sc, cluster, model, kv, stage, stage_idx) else {
            return Some(0.0);
        };
        // The epigraph LP charges every device's constant term even at
        // zero assigned load (a fixed-charge effect linear programs cannot
        // express), so at very light loads the "ideal" can exceed the
        // status quo. Clamp: the current assignment is itself feasible,
        // hence an upper bound on the true optimum.
        Self::solve_ideal(sc, totals).map(|f| f.min(current))
    }

    /// Stages the §5.3.1 relaxation of `stage` into `sc` and poses it on
    /// `sc.wf`: per attention device the constant, α and β terms (ms,
    /// already scaled) in `constants`, `a_eff` and `b_coef`, and the pool
    /// capacity (per-layer bytes) in `free`. Returns the stage's total
    /// query heads and per-layer KV bytes, or `None`, posing nothing,
    /// when the stage holds no query heads.
    fn pose_ideal(
        &self,
        sc: &mut Scratch,
        cluster: &Cluster,
        model: &ModelSpec,
        kv: &KvState,
        stage: &StageTopo,
        stage_idx: u16,
    ) -> Option<(f64, f64)> {
        let r = model.gqa_ratio();
        let layers = stage.primary.layers as f64;
        let anchor = stage.primary.devices[0];
        let h_total: f64 = stage
            .attention_devices()
            .map(|d| kv.device(d).stage_query_heads(stage_idx, r) as f64)
            .sum();
        let g_total: f64 = stage
            .attention_devices()
            .map(|d| kv.device(d).stage_kv_bytes_per_layer(stage_idx))
            .sum();
        if h_total == 0.0 {
            return None;
        }

        // Vars: [h'_0.. (heads), g'_0.. (GB)]; times in ms — see the unit
        // note at the top of the module.
        let per_head_bytes =
            (2.0 + 2.0 / r as f64) * model.head_dim as f64 * model.dtype.bytes() as f64;
        sc.constants.clear();
        sc.a_eff.clear();
        sc.b_coef.clear();
        sc.free.clear();
        for dev in stage.attention_devices() {
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

        // Two demands over the devices: the stage's total heads (α-cost
        // only) and its total KV bytes (β-cost only, capacity-consuming),
        // which is exactly the water-fill's rank-2 structure.
        sc.wf.clear();
        for i in 0..sc.a_eff.len() {
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
        Some((h_total, g_total))
    }

    /// Solves the §5.3.1 relaxation `Dispatcher::pose_ideal` staged in
    /// `sc` (with the stage's `totals` of heads and per-layer KV bytes),
    /// counting the solve. Returns `f*` in seconds, unclamped; `None` when
    /// the LP is infeasible.
    fn solve_ideal(sc: &mut Scratch, totals: (f64, f64)) -> Option<f64> {
        let solved = match sc.wf.solve() {
            WfOutcome::Solved(s) => {
                sc.counts.fast += 1;
                Some(s)
            }
            WfOutcome::CapacityBound => {
                sc.counts.fallback += 1;
                Self::solve_ideal_simplex(sc, totals)
            }
            WfOutcome::Infeasible => None,
        };
        solved.map(|s| s.max_value / MS)
    }

    /// The §5.3.1 relaxation as the epigraph LP: the water-fill's
    /// fallback when a capacity row binds.
    fn solve_ideal_simplex(
        sc: &mut Scratch,
        (h_total, g_total): (f64, f64),
    ) -> Option<MinMaxSolution> {
        let Scratch {
            builder,
            constants,
            a_eff: alpha,
            b_coef: beta,
            free: capacity,
            ..
        } = sc;
        let n = alpha.len();
        builder.reset(2 * n);
        for i in 0..n {
            let row = builder.push_max_term(constants[i]);
            row[i] = alpha[i];
            row[n + i] = beta[i];
            let cap = builder.push_constraint(ConstraintOp::Le, capacity[i] * GB);
            cap[n + i] = 1.0;
        }
        // Conservation.
        let hrow = builder.push_constraint(ConstraintOp::Eq, h_total);
        for v in hrow.iter_mut().take(n) {
            *v = 1.0;
        }
        let grow = builder.push_constraint(ConstraintOp::Eq, g_total * GB);
        for v in grow.iter_mut().skip(n) {
            *v = 1.0;
        }
        builder.solve().ok()
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
        let d = Dispatcher::new(profiler);
        (cluster, model, kv, stage, d)
    }

    #[test]
    fn light_load_stays_on_primary() {
        // Fig. 14's observation: under light load Hetis keeps heads local
        // (network beta makes remote placement unprofitable).
        let (cluster, model, kv, stage, d) = setup();
        let out = d
            .dispatch(&cluster, &model, &kv, &stage, 0, &[512], None)
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
        let blocks = kv.blocks_for(4000);
        for (k, &dev) in stage.primary.devices.iter().enumerate() {
            for q in 0..40u64 {
                kv.device_mut(dev)
                    .allocate(
                        hetis_workload::RequestId(1000 + k as u64 * 100 + q),
                        0,
                        8,
                        blocks,
                        80,
                    )
                    .unwrap();
            }
        }
        let out = d
            .dispatch(&cluster, &model, &kv, &stage, 0, &[2000], None)
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
            .dispatch(&cluster, &model, &kv, &stage, 0, &[700, 1400, 300], None)
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
                        1,
                        80,
                    )
                    .unwrap();
            }
        }
        let out = d.dispatch(&cluster, &model, &kv, &stage, 0, &[100_000], None);
        assert!(out.is_none(), "oversized request must be rejected");
    }

    #[test]
    fn ideal_time_lower_bounds_current() {
        let (cluster, model, mut kv, stage, d) = setup();
        // Imbalanced residency: everything on one primary device.
        let dev = stage.primary.devices[0];
        let blocks = kv.blocks_for(3000);
        for q in 0..30u64 {
            kv.device_mut(dev)
                .allocate(hetis_workload::RequestId(q), 0, 8, blocks, 80)
                .unwrap();
        }
        let (current, bottleneck) = d.current_attention_time(&cluster, &model, &kv, &stage, 0);
        let ideal = d
            .ideal_attention_time(&cluster, &model, &kv, &stage, 0, current)
            .unwrap();
        assert_eq!(bottleneck, Some(dev));
        assert!(ideal < current, "ideal {ideal} vs current {current}");
        // Re-balancing at least halves the bottleneck here.
        assert!(current / ideal > 1.5);
        assert_eq!(
            d.stage_balance(&cluster, &model, &kv, &stage, 0, 0.5),
            StageBalance::Imbalanced { bottleneck: dev }
        );
    }

    /// A two-device stage, one A100 primary under heavy resident load and
    /// one P100 attention worker with little free KV, whose worker
    /// capacity binds. The worker takes the shorter request whole (it has
    /// the higher knapsack ratio) and exactly 12 heads, 1.5 KV-head
    /// groups, of the longer one, which comes first in the batch, so its
    /// rounding meets the worker's full free bytes and breaks the
    /// half-group tie by device index. The certificate settles the batch,
    /// but the dispatcher re-solves it with the simplex, counts one
    /// fallback and places what the simplex places.
    #[test]
    fn half_group_tie_falls_back_to_the_simplex() {
        let cluster = paper_cluster();
        let model = llama_70b();
        let a100 = cluster.devices_of_type(GpuType::A100)[0];
        let p100 = cluster.devices_of_type(GpuType::P100)[0];
        let mut stage = StageTopo::plain(StageConfig {
            devices: vec![a100],
            layers: 80,
        });
        stage.attention_workers = vec![p100];
        let lens = [2000, 1000];
        let kappa = Dispatcher::head_token_bytes(&model) as u64;
        let free_per_layer = (64 * 1000 + 12 * 2000) * kappa;
        let loose = KvState::new(&cluster, &model, 16, &HashMap::new()).unwrap();
        let weights = loose.device(p100).free_bytes() - free_per_layer * 80;
        let mut kv = KvState::new(&cluster, &model, 16, &HashMap::from([(p100, weights)])).unwrap();
        let blocks = kv.blocks_for(4000);
        for q in 0..40u64 {
            kv.device_mut(a100)
                .allocate(hetis_workload::RequestId(q), 0, 8, blocks, 80)
                .unwrap();
        }
        let d = Dispatcher::new(Profiler::profile(&cluster, 8, 0.0, 1));
        let (fast, fallback) = d.solver_counts();
        let out = d
            .dispatch(&cluster, &model, &kv, &stage, 0, &lens, None)
            .unwrap();
        assert!(d.scratch.borrow().wf.certified());
        assert_eq!(d.solver_counts(), (fast, fallback + 1));

        let mut sc = Scratch::default();
        let batch = d
            .pose_eq7(
                &mut sc,
                &cluster,
                &model,
                &kv,
                &stage,
                0,
                &lens,
                &[],
                None,
                None,
            )
            .unwrap();
        let want = Dispatcher::solve_eq7_simplex(&mut sc, &batch).unwrap();
        assert!((want.x[1] - 12.0).abs() < 1e-9 && (want.x[3] - 64.0).abs() < 1e-9);
        let heads = batch.round_heads(&want.x, &mut sc.free, &mut sc.caps);
        assert_eq!(Some(out.heads), heads);
    }

    #[test]
    fn empty_batch_trivial() {
        let (cluster, model, kv, stage, d) = setup();
        let out = d
            .dispatch(&cluster, &model, &kv, &stage, 0, &[], None)
            .unwrap();
        assert!(out.heads.is_empty());
        let (t, dev) = d.current_attention_time(&cluster, &model, &kv, &stage, 0);
        assert_eq!(t, 0.0);
        assert!(dev.is_none());
        assert_eq!(
            d.ideal_attention_time(&cluster, &model, &kv, &stage, 0, t),
            Some(0.0)
        );
        assert_eq!(
            d.stage_balance(&cluster, &model, &kv, &stage, 0, 0.5),
            StageBalance::Balanced
        );
    }
}
