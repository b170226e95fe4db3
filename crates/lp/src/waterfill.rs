//! Structure-exploiting water-fill solver for the Dispatcher's Eq. (7).
//!
//! The generic epigraph LP treats Eq. (7) as an opaque `min max` over
//! `j·n` variables and grinds through two-phase simplex pivots. But the
//! dispatch problem has rigid structure:
//!
//! * exactly **one affine max term per device** — `fᵢ = cᵢ + Σⱼ tᵢⱼ·xᵢⱼ`
//!   with a rank-2 cost `tᵢⱼ = αᵢ·pⱼ + βᵢ·qⱼ` (per-head base plus
//!   context-proportional attention time, Eq. 3),
//! * exactly **one capacity row per device** — `Σⱼ uⱼ·xᵢⱼ ≤ capᵢ`
//!   (Eq. 7b, request-dependent coefficient, device-dependent rhs),
//! * exactly **one equality per demand** — `Σᵢ xᵢⱼ = Hⱼ` (Eq. 7c).
//!
//! [`WaterFill`] solves this parametrically: raise the common
//! finish-time level τ and test whether all head demand fits under the
//! per-device time budgets `τ − cᵢ`. The rank-2 cost makes the
//! fixed-level assignment a *Monge* transportation problem — sorting
//! devices by `βᵢ/αᵢ` ascending and demands by `qⱼ/pⱼ` descending, an
//! exchange argument shows a northwest-corner greedy (long-context
//! demand onto low-`β/α` devices first, each device filled to budget) is
//! an exact feasibility oracle. Bisection over τ then converges to the
//! LP optimum in O((n+j)·log(1/ε)) after one O(n log n + j log j) sort —
//! no tableau, no pivots.
//!
//! Capacity is handled by certification: the uncapacitated level τ* is a
//! lower bound on the capacitated optimum, so if the final greedy pass
//! (which does respect capacities) places all demand at τ*, that
//! solution is optimal for the full Eq. (7). When capacity genuinely
//! binds — or a device bans some demands but not others — the solver
//! reports [`WfOutcome::CapacityBound`] and the caller falls back to the
//! simplex oracle. Zero-capacity devices whose exclusion is uniform
//! (every demand consumes capacity, the §5.3.2 banned-device case) stay
//! on the fast path: their variables are forced to zero by Eq. (7b)
//! itself, so dropping them is exact, while their constants still floor
//! the objective.
//!
//! **One demand whose capacity binds is solved in closed form.** With a
//! single positive demand `H`, device `i`'s time row and capacity row
//! collapse into one cap on its heads at level τ:
//! `hᵢ(τ) = min((τ − cᵢ)/tᵢ, capᵢ/u)`. No level below the constant floor
//! `max cᵢ` is reachable, and from the floor on every time budget is
//! nonnegative, so the sum `S(τ)` is continuous, nondecreasing and
//! piecewise linear there, with a breakpoint only where a device
//! saturates (`τ = cᵢ + tᵢ·capᵢ/u`). The optimum is the least
//! `τ ≥ max cᵢ` with `S(τ) ≥ H`: walk the at most `n` sorted breakpoints
//! to the segment where `S` crosses `H` and interpolate linearly inside
//! it. Each device then holds exactly `hᵢ(τ*)`, which is the LP optimum,
//! so one-demand instances never fall back. Every re-dispatch replan and
//! every one-request admission batch has this shape. An instance the
//! certified bisection already settles keeps that answer: it differs
//! from the closed form's in the last digits, and group rounding can
//! turn such a difference into a different placement.

use crate::minmax::MinMaxSolution;

/// One device of the structured Eq. (7) instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct WfDevice {
    /// Fixed time already committed on the device (resident load, β-term
    /// of the link model): the constant of its max term.
    pub constant: f64,
    /// Per-unit time cost multiplying a demand's `p` weight.
    pub alpha: f64,
    /// Per-unit time cost multiplying a demand's `q` weight.
    pub beta: f64,
    /// Capacity rhs: `Σⱼ uⱼ·xᵢⱼ ≤ capacity`.
    pub capacity: f64,
}

/// One demand (request) of the structured Eq. (7) instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct WfDemand {
    /// Units to place (query heads): the Eq. (7c) equality rhs.
    pub amount: f64,
    /// Weight on the device `alpha` cost (1 for head dispatch).
    pub p: f64,
    /// Weight on the device `beta` cost (context-scaled attention load).
    pub q: f64,
    /// Capacity consumed per unit (full-context KV bytes).
    pub u: f64,
}

/// Outcome of a [`WaterFill::solve`].
#[derive(Debug, Clone)]
pub enum WfOutcome {
    /// Optimal solution found on the fast path; `x` is laid out
    /// `x[j*n + i]` like the epigraph LP the Dispatcher poses.
    Solved(MinMaxSolution),
    /// A capacity row binds at the uncapacitated optimum (or exclusions
    /// are non-uniform): the caller must fall back to the generic LP.
    /// Never reported for an instance with one positive demand.
    CapacityBound,
    /// No device can host the demand at all.
    Infeasible,
}

/// Reusable water-fill workspace: push devices and demands, then
/// [`WaterFill::solve`]. All internal buffers survive
/// [`WaterFill::clear`] so per-iteration dispatch never reallocates.
#[derive(Debug, Clone, Default)]
pub struct WaterFill {
    devices: Vec<WfDevice>,
    demands: Vec<WfDemand>,
    // scratch, reused across solves
    dev_order: Vec<usize>,
    dem_order: Vec<usize>,
    remaining: Vec<f64>,
    cap_left: Vec<f64>,
    x: Vec<f64>,
    /// The one-demand breakpoints (see the module docs).
    breaks: Vec<f64>,
}

/// How [`WaterFill`]'s shared prologue left the posed instance.
enum Posed {
    /// No positive demand: the optimum is the constant floor (0 with no
    /// devices).
    Empty,
    /// Positive demand and no device.
    Infeasible,
    /// Zero-capacity exclusions that are not uniform, or no device left
    /// after them with several demands: only the LP can decide.
    CapacityBound,
    /// The Monge orders of the kept devices and positive demands are
    /// built; the level search may run.
    Ordered,
}

/// Bisection iteration cap; with a halving interval this is far past
/// f64 convergence and only guards against pathological inputs.
const MAX_BISECT: usize = 200;

impl WaterFill {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all devices and demands, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.devices.clear();
        self.demands.clear();
    }

    /// Adds one device (max term + capacity row).
    pub fn push_device(&mut self, d: WfDevice) {
        debug_assert!(d.alpha >= 0.0 && d.beta >= 0.0, "negative device cost");
        self.devices.push(d);
    }

    /// Adds one demand (head-integrity equality).
    pub fn push_demand(&mut self, d: WfDemand) {
        debug_assert!(
            d.amount >= 0.0 && d.p >= 0.0 && d.q >= 0.0 && d.u >= 0.0,
            "negative demand parameter"
        );
        self.demands.push(d);
    }

    /// Solves the posed instance. See the module docs for the algorithm
    /// and the exactness argument.
    pub fn solve(&mut self) -> WfOutcome {
        let n = self.devices.len();
        let floor = self.floor();
        self.x.clear();
        self.x.resize(self.demands.len() * n, 0.0);
        match self.pose() {
            Posed::Empty => {
                return WfOutcome::Solved(MinMaxSolution {
                    x: self.x.clone(),
                    max_value: if n == 0 { 0.0 } else { floor },
                })
            }
            Posed::Infeasible => return WfOutcome::Infeasible,
            Posed::CapacityBound => return WfOutcome::CapacityBound,
            Posed::Ordered => {}
        }

        // Feasible upper bound: each demand fully on its cheapest device.
        let mut hi = floor;
        {
            self.remaining.clear();
            self.remaining.resize(n, 0.0); // per-device single-assignment load
            for &k in &self.dem_order {
                let d = &self.demands[k];
                let best = self
                    .dev_order
                    .iter()
                    .map(|&i| (i, self.devices[i].alpha * d.p + self.devices[i].beta * d.q))
                    .min_by(|a, b| {
                        a.1.partial_cmp(&b.1)
                            .expect("finite cost")
                            .then(a.0.cmp(&b.0))
                    })
                    .expect("non-empty device order");
                self.remaining[best.0] += d.amount * best.1;
            }
            for &i in &self.dev_order {
                hi = hi.max(self.devices[i].constant + self.remaining[i]);
            }
        }

        // Bisect the level τ between the constant floor and the feasible
        // upper bound; the greedy oracle is exact, so this converges to
        // the uncapacitated LP optimum.
        let mut lo = floor;
        for _ in 0..MAX_BISECT {
            let tol = 1e-11 * hi.abs().max(1.0);
            if hi - lo <= tol {
                break;
            }
            let mid = 0.5 * (lo + hi);
            if self.level_feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }

        // Final capacity-respecting greedy at the converged level. If it
        // places everything, the solution matches the uncapacitated
        // lower bound and is therefore optimal for the capacitated
        // problem; otherwise capacity binds: the closed form settles one
        // demand, and the LP must decide several.
        if self.fill_solution(hi) {
            return self.solved();
        }
        match self.dem_order[..] {
            [k] => self.solve_single(k, floor),
            _ => WfOutcome::CapacityBound,
        }
    }

    /// The one-demand closed form (see the module docs), for an instance
    /// whose capacity binds: the level from the breakpoint walk, then the
    /// capacity-respecting greedy at that level, which gives each device
    /// `min(rest, hᵢ(τ*))`.
    fn solve_single(&mut self, k: usize, floor: f64) -> WfOutcome {
        let Some(tau) = self.single_level(k, floor) else {
            return WfOutcome::Infeasible;
        };
        if !self.fill_solution(tau) {
            // The interpolated level covers the demand up to a few ulps;
            // the last device that took heads takes that residue too.
            let rest = self.remaining[k];
            debug_assert!(
                rest <= 1e-9 * self.demands[k].amount,
                "level {tau} leaves {rest}"
            );
            let n = self.devices.len();
            let x = &mut self.x[k * n..(k + 1) * n];
            let last = self
                .dev_order
                .iter()
                .rev()
                .find(|&&i| x[i] > 0.0)
                .expect("a level above the floor places heads");
            x[*last] += rest;
        }
        self.solved()
    }

    /// The one-demand optimum level: the least `τ ≥ floor` whose capped
    /// head sum `S(τ)` covers demand `k`, or `None` when no level does
    /// (the capacity rows cannot hold it).
    fn single_level(&mut self, k: usize, floor: f64) -> Option<f64> {
        let demand = self.demands[k];
        let need = demand.amount;
        let mut lo = floor;
        let mut s_lo = self.capped_sum(&demand, lo);
        if s_lo >= need {
            return Some(lo);
        }
        // Every device's budget is already growing at the floor, so the
        // breakpoints above it are saturations only.
        self.breaks.clear();
        let mut slope = 0.0; // of S past the last breakpoint
        for &i in &self.dev_order {
            let d = &self.devices[i];
            let t = d.alpha * demand.p + d.beta * demand.q;
            if t <= 0.0 {
                continue; // a constant cap
            }
            let saturates = if demand.u > 0.0 {
                d.constant + t * (d.capacity / demand.u)
            } else {
                f64::INFINITY
            };
            if saturates.is_finite() {
                if saturates > floor {
                    self.breaks.push(saturates);
                }
            } else {
                slope += 1.0 / t;
            }
        }
        self.breaks.sort_unstable_by(f64::total_cmp);
        for idx in 0..self.breaks.len() {
            let b = self.breaks[idx];
            let s_b = self.capped_sum(&demand, b);
            if s_b >= need {
                // S is linear on [lo, b] and crosses the demand there.
                return Some(lo + (need - s_lo) * ((b - lo) / (s_b - s_lo)));
            }
            (lo, s_lo) = (b, s_b);
        }
        // Past the last breakpoint only the devices without a capacity
        // cap still grow.
        (slope > 0.0).then(|| lo + (need - s_lo) / slope)
    }

    /// `S(τ)`: the heads the kept devices can take of `demand` at level
    /// `tau`.
    fn capped_sum(&self, demand: &WfDemand, tau: f64) -> f64 {
        self.dev_order
            .iter()
            .map(|&i| head_cap(&self.devices[i], demand, tau))
            .sum()
    }

    /// Evaluates the objective at `x` and wraps the solution.
    fn solved(&self) -> WfOutcome {
        let n = self.devices.len();
        let mut max_value = f64::NEG_INFINITY;
        for (i, d) in self.devices.iter().enumerate() {
            let mut f = d.constant;
            for (k, dem) in self.demands.iter().enumerate() {
                let xv = self.x[k * n + i];
                if xv > 0.0 {
                    f += (d.alpha * dem.p + d.beta * dem.q) * xv;
                }
            }
            max_value = max_value.max(f);
        }
        WfOutcome::Solved(MinMaxSolution {
            x: self.x.clone(),
            max_value,
        })
    }

    /// Whether the posed instance can finish at level `tau` when capacity
    /// is ignored: one greedy pass of the oracle [`WaterFill::solve`]
    /// bisects with, after the same exclusions and Monge orders, and no
    /// bisection. `false` proves that the optimum exceeds `tau`: dropping
    /// the capacity rows only relaxes Eq. (7), so the capacitated optimum,
    /// which either `solve` or the simplex fallback returns, is at least
    /// the uncapacitated one, and that is above `tau` when the exact
    /// oracle cannot place every demand under it (or a device constant
    /// already exceeds it). `true` proves nothing about capacity; it is
    /// also the answer when `solve` would report
    /// [`WfOutcome::CapacityBound`] before any search.
    ///
    /// With one positive demand the test is exact, capacity included: it
    /// compares the capped head sum `S(tau)` of the closed form (module
    /// docs) with the demand.
    ///
    /// A caller comparing a solver's answer against `tau` should test a
    /// level slightly above the bound it needs: the solvers stop at a
    /// relative tolerance (1e-11 for the bisection, more after simplex
    /// pivots), so an optimum just above `tau` can come back a hair
    /// below it.
    pub fn reaches_level(&mut self, tau: f64) -> bool {
        let floor = self.floor();
        match self.pose() {
            Posed::Empty => tau >= if self.devices.is_empty() { 0.0 } else { floor },
            Posed::Infeasible => false,
            Posed::CapacityBound => true,
            Posed::Ordered => {
                tau >= floor
                    && match self.dem_order[..] {
                        [k] => self.capped_sum(&self.demands[k], tau) >= self.demands[k].amount,
                        _ => self.level_feasible(tau),
                    }
            }
        }
    }

    /// The largest device constant: every solution's objective is at
    /// least this. Folded from -inf, not 0, because the API allows
    /// negative constants (the dispatcher's never are).
    fn floor(&self) -> f64 {
        self.devices
            .iter()
            .fold(f64::NEG_INFINITY, |acc, d| acc.max(d.constant))
    }

    /// The prologue [`WaterFill::solve`] and [`WaterFill::reaches_level`]
    /// share: the trivial outcomes, the zero-capacity exclusions and the
    /// Monge orders of the kept devices and the positive demands.
    fn pose(&mut self) -> Posed {
        if self.demands.iter().map(|d| d.amount).sum::<f64>() <= 0.0 {
            return Posed::Empty;
        }
        if self.devices.is_empty() {
            return Posed::Infeasible;
        }

        // Exclusions: a zero-capacity device is exact to drop only when
        // *every* positive demand consumes capacity on it; a mixed case
        // (some u = 0) breaks the staircase structure — fall back.
        let every_u_positive = self.demands.iter().all(|d| d.amount <= 0.0 || d.u > 0.0);
        let any_u_positive = self.demands.iter().any(|d| d.amount > 0.0 && d.u > 0.0);
        self.dev_order.clear();
        for (i, d) in self.devices.iter().enumerate() {
            if d.capacity <= 0.0 && any_u_positive {
                if !every_u_positive {
                    return Posed::CapacityBound;
                }
                continue; // banned device: x_i· = 0 is forced by (7b)
            }
            self.dev_order.push(i);
        }
        if self.dev_order.is_empty() {
            // Every device is banned. A lone demand then has nowhere to
            // go; with several, only the LP decides.
            return if self.demands.iter().filter(|d| d.amount > 0.0).count() == 1 {
                Posed::Infeasible
            } else {
                Posed::CapacityBound
            };
        }

        // Monge order: devices by β/α ascending, demands by q/p
        // descending. The ratios are compared as projective directions
        // via cross-products, which is a total order on *nonzero*
        // weight vectors only — an all-zero vector has zero cross
        // product against everything and would make the comparator
        // non-transitive (arbitrary sort output, and wrong relative
        // order among the nonzero rows). Zero-cost rows are therefore a
        // separate class: cost-free devices lead (they absorb any
        // demand without spending budget, so any position is exact —
        // first is canonical), cost-free demands trail (they consume no
        // budget wherever they land). Within each class, ties break by
        // index for determinism.
        let devices = &self.devices;
        self.dev_order.sort_by(|&a, &b| {
            let (da, db) = (&devices[a], &devices[b]);
            match (
                da.alpha == 0.0 && da.beta == 0.0,
                db.alpha == 0.0 && db.beta == 0.0,
            ) {
                (true, false) => std::cmp::Ordering::Less,
                (false, true) => std::cmp::Ordering::Greater,
                _ => (da.beta * db.alpha)
                    .partial_cmp(&(db.beta * da.alpha))
                    .expect("finite device costs")
                    .then(a.cmp(&b)),
            }
        });
        self.dem_order.clear();
        self.dem_order
            .extend((0..self.demands.len()).filter(|&k| self.demands[k].amount > 0.0));
        let demands = &self.demands;
        self.dem_order.sort_by(|&a, &b| {
            let (da, db) = (&demands[a], &demands[b]);
            match (da.p == 0.0 && da.q == 0.0, db.p == 0.0 && db.q == 0.0) {
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                _ => (db.q * da.p)
                    .partial_cmp(&(da.q * db.p))
                    .expect("finite demand weights")
                    .then(a.cmp(&b)),
            }
        });
        Posed::Ordered
    }

    /// Exact uncapacitated feasibility oracle at level `tau`:
    /// northwest-corner greedy over the Monge orders. O(n + j).
    fn level_feasible(&mut self, tau: f64) -> bool {
        self.remaining.clear();
        self.remaining.extend(self.demands.iter().map(|d| d.amount));
        let mut next = 0usize; // index into dem_order
        for &i in &self.dev_order {
            let dev = &self.devices[i];
            let mut budget = (tau - dev.constant).max(0.0);
            while next < self.dem_order.len() {
                let k = self.dem_order[next];
                let d = &self.demands[k];
                let t = dev.alpha * d.p + dev.beta * d.q;
                let rem = self.remaining[k];
                if t <= 0.0 {
                    // Costless cell: absorb the whole demand for free.
                    self.remaining[k] = 0.0;
                    next += 1;
                    continue;
                }
                let take = rem.min(budget / t).max(0.0);
                self.remaining[k] = rem - take;
                budget -= take * t;
                if take < rem {
                    break; // budget exhausted; next device continues here
                }
                next += 1;
            }
            if next >= self.dem_order.len() {
                return true;
            }
        }
        false
    }

    /// Capacity-respecting greedy at level `tau`, recording `x`. Returns
    /// false when capacity prevents placing all demand at this level.
    fn fill_solution(&mut self, tau: f64) -> bool {
        let n = self.devices.len();
        self.x.clear();
        self.x.resize(self.demands.len() * n, 0.0);
        self.remaining.clear();
        self.remaining.extend(self.demands.iter().map(|d| d.amount));
        self.cap_left.clear();
        self.cap_left
            .extend(self.devices.iter().map(|d| d.capacity));
        let mut first_unserved = 0usize; // index into dem_order
        for &i in &self.dev_order {
            let dev = &self.devices[i];
            let mut budget = (tau - dev.constant).max(0.0);
            for pos in first_unserved..self.dem_order.len() {
                let k = self.dem_order[pos];
                let d = &self.demands[k];
                let rem = self.remaining[k];
                if rem <= 0.0 {
                    continue;
                }
                let t = dev.alpha * d.p + dev.beta * d.q;
                let mut take = if t <= 0.0 { rem } else { rem.min(budget / t) };
                if d.u > 0.0 {
                    take = take.min(self.cap_left[i] / d.u);
                }
                let take = take.max(0.0);
                if take > 0.0 {
                    self.x[k * n + i] += take;
                    self.remaining[k] = rem - take;
                    if t > 0.0 {
                        budget -= take * t;
                    }
                    if d.u > 0.0 {
                        self.cap_left[i] -= take * d.u;
                    }
                }
                if budget <= 0.0 && t > 0.0 {
                    break;
                }
            }
            while first_unserved < self.dem_order.len()
                && self.remaining[self.dem_order[first_unserved]] <= 0.0
            {
                first_unserved += 1;
            }
            if first_unserved >= self.dem_order.len() {
                return true;
            }
        }
        first_unserved >= self.dem_order.len()
    }
}

/// Device `d`'s cap on the heads of `demand` at level `tau`: the time
/// budget `(tau − c)⁺/t` (unbounded on a cost-free cell), clipped to the
/// capacity row when the demand consumes capacity.
fn head_cap(d: &WfDevice, demand: &WfDemand, tau: f64) -> f64 {
    let t = d.alpha * demand.p + d.beta * demand.q;
    let time = if t > 0.0 {
        ((tau - d.constant) / t).max(0.0)
    } else {
        f64::INFINITY
    };
    if demand.u > 0.0 {
        time.min(d.capacity / demand.u)
    } else {
        time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solved(wf: &mut WaterFill) -> MinMaxSolution {
        match wf.solve() {
            WfOutcome::Solved(s) => s,
            other => panic!("expected fast-path solve, got {other:?}"),
        }
    }

    #[test]
    fn balances_two_machines() {
        // min max(x₀, 2x₁) s.t. x₀+x₁ = 10 → max 20/3 (same instance as
        // the MinMaxBuilder unit test).
        let mut wf = WaterFill::new();
        wf.push_device(WfDevice {
            alpha: 1.0,
            capacity: f64::INFINITY,
            ..Default::default()
        });
        wf.push_device(WfDevice {
            alpha: 2.0,
            capacity: f64::INFINITY,
            ..Default::default()
        });
        wf.push_demand(WfDemand {
            amount: 10.0,
            p: 1.0,
            ..Default::default()
        });
        let s = solved(&mut wf);
        assert!((s.max_value - 20.0 / 3.0).abs() < 1e-6, "{}", s.max_value);
        assert!((s.x[0] - 20.0 / 3.0).abs() < 1e-6);
        assert!((s.x[1] - 10.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn constants_shift_the_balance() {
        // Device 1 has fixed overhead 3: x = (6.5, 3.5), max 6.5.
        let mut wf = WaterFill::new();
        wf.push_device(WfDevice {
            alpha: 1.0,
            capacity: f64::INFINITY,
            ..Default::default()
        });
        wf.push_device(WfDevice {
            constant: 3.0,
            alpha: 1.0,
            capacity: f64::INFINITY,
            ..Default::default()
        });
        wf.push_demand(WfDemand {
            amount: 10.0,
            p: 1.0,
            ..Default::default()
        });
        let s = solved(&mut wf);
        assert!((s.max_value - 6.5).abs() < 1e-6, "{}", s.max_value);
        assert!((s.x[0] - 6.5).abs() < 1e-6, "{}", s.x[0]);
    }

    #[test]
    fn request_differentiation_beats_proportional_split() {
        // Device A charges per head (α=1, β=0), device B per context
        // token (α=0, β=1). The long request must go to A and the short
        // one to B: optimum 1.0; a proportional split would give ≈1.69.
        let mut wf = WaterFill::new();
        wf.push_device(WfDevice {
            alpha: 1.0,
            capacity: f64::INFINITY,
            ..Default::default()
        });
        wf.push_device(WfDevice {
            beta: 1.0,
            capacity: f64::INFINITY,
            ..Default::default()
        });
        wf.push_demand(WfDemand {
            amount: 1.0,
            p: 1.0,
            q: 10.0,
            ..Default::default()
        });
        wf.push_demand(WfDemand {
            amount: 1.0,
            p: 1.0,
            q: 1.0,
            ..Default::default()
        });
        let s = solved(&mut wf);
        assert!((s.max_value - 1.0).abs() < 1e-6, "{}", s.max_value);
    }

    #[test]
    fn banned_device_stays_empty() {
        let mut wf = WaterFill::new();
        wf.push_device(WfDevice {
            alpha: 1.0,
            capacity: 0.0, // banned
            ..Default::default()
        });
        wf.push_device(WfDevice {
            alpha: 2.0,
            capacity: 1e9,
            ..Default::default()
        });
        wf.push_demand(WfDemand {
            amount: 8.0,
            p: 1.0,
            u: 1.0,
            ..Default::default()
        });
        let s = solved(&mut wf);
        assert_eq!(s.x[0], 0.0);
        assert!((s.x[1] - 8.0).abs() < 1e-9);
        assert!((s.max_value - 16.0).abs() < 1e-6);
    }

    /// The fast device is capped at 4 units and the uncapacitated optimum
    /// loads it beyond that (`minmax::tests::capacity_forces_spill` poses
    /// the same instance to the simplex).
    fn capped_pair(amounts: &[f64]) -> WaterFill {
        let mut wf = WaterFill::new();
        wf.push_device(WfDevice {
            alpha: 1.0,
            capacity: 4.0,
            ..Default::default()
        });
        wf.push_device(WfDevice {
            alpha: 5.0,
            capacity: 100.0,
            ..Default::default()
        });
        for &amount in amounts {
            wf.push_demand(WfDemand {
                amount,
                p: 1.0,
                u: 1.0,
                ..Default::default()
            });
        }
        wf
    }

    #[test]
    fn binding_capacity_settles_one_demand() {
        // One demand: the closed form fills the fast device to its
        // capacity and spills the rest, as the simplex does.
        let s = solved(&mut capped_pair(&[10.0]));
        assert!((s.x[0] - 4.0).abs() < 1e-9, "{:?}", s.x);
        assert!((s.x[1] - 6.0).abs() < 1e-9, "{:?}", s.x);
        assert!((s.max_value - 30.0).abs() < 1e-9, "{}", s.max_value);
    }

    #[test]
    fn binding_capacity_reports_fallback() {
        // The same ten units as two demands: the solver must hand over
        // to the LP.
        assert!(matches!(
            capped_pair(&[5.0, 5.0]).solve(),
            WfOutcome::CapacityBound
        ));
    }

    #[test]
    fn one_demand_beyond_capacity_is_infeasible() {
        let mut wf = capped_pair(&[200.0]);
        assert!(matches!(wf.solve(), WfOutcome::Infeasible));
        assert!(!wf.reaches_level(f64::MAX));
        // Every device banned leaves a lone demand nowhere to go.
        let mut wf = WaterFill::new();
        wf.push_device(WfDevice {
            alpha: 1.0,
            ..Default::default()
        });
        wf.push_demand(WfDemand {
            amount: 1.0,
            p: 1.0,
            u: 1.0,
            ..Default::default()
        });
        assert!(matches!(wf.solve(), WfOutcome::Infeasible));
    }

    #[test]
    fn zero_weight_demand_does_not_scramble_the_monge_order() {
        // Regression: a (p=0, q=0) demand has zero cross-products against
        // every other demand, which made the old comparator
        // non-transitive — sort_by could then mis-order the *nonzero*
        // demands and the greedy oracle stopped being exact (observed
        // 31% above the LP optimum on this instance). Cost-free rows now
        // form their own ordering class.
        let mut wf = WaterFill::new();
        wf.push_device(WfDevice {
            constant: 2.803,
            alpha: 1.1205,
            beta: 1.5048,
            capacity: 1e9,
        });
        wf.push_device(WfDevice {
            constant: 3.393,
            alpha: 0.7586,
            beta: 0.3823,
            capacity: 1e9,
        });
        wf.push_demand(WfDemand {
            amount: 37.55,
            p: 1.0,
            q: 0.0,
            u: 0.62,
        });
        wf.push_demand(WfDemand {
            amount: 30.87,
            p: 0.0,
            q: 0.0,
            u: 0.0,
        });
        wf.push_demand(WfDemand {
            amount: 25.64,
            p: 0.0,
            q: 2.539,
            u: 2.446,
        });
        let s = solved(&mut wf);
        // Simplex optimum for this instance (cross-checked externally).
        let mut b = crate::minmax::MinMaxBuilder::new(6);
        let devices = [(2.803, 1.1205, 1.5048), (3.393, 0.7586, 0.3823)];
        let demands = [(37.55, 1.0, 0.0), (30.87, 0.0, 0.0), (25.64, 0.0, 2.539)];
        for (i, &(c, a, bb)) in devices.iter().enumerate() {
            let row = b.push_max_term(c);
            for (k, &(_, p, q)) in demands.iter().enumerate() {
                row[k * 2 + i] = a * p + bb * q;
            }
        }
        for (k, &(amt, ..)) in demands.iter().enumerate() {
            let row = b.push_constraint(crate::simplex::ConstraintOp::Eq, amt);
            row[k * 2] = 1.0;
            row[k * 2 + 1] = 1.0;
        }
        let lp = b.solve().unwrap();
        assert!(
            (s.max_value - lp.max_value).abs() <= 1e-6 * lp.max_value.abs().max(1.0),
            "waterfill {} vs simplex {}",
            s.max_value,
            lp.max_value
        );
        // Zero-cost devices must likewise stay a separate class.
        let mut wf2 = WaterFill::new();
        wf2.push_device(WfDevice {
            alpha: 0.0,
            beta: 0.0,
            capacity: 1e9,
            ..Default::default()
        });
        wf2.push_device(WfDevice {
            alpha: 1.0,
            beta: 0.5,
            capacity: 1e9,
            ..Default::default()
        });
        wf2.push_device(WfDevice {
            alpha: 0.5,
            beta: 1.0,
            capacity: 1e9,
            ..Default::default()
        });
        wf2.push_demand(WfDemand {
            amount: 10.0,
            p: 1.0,
            q: 3.0,
            u: 1.0,
        });
        let s2 = solved(&mut wf2);
        // The free device absorbs everything: optimum is the zero floor.
        assert!(s2.max_value.abs() < 1e-9, "{}", s2.max_value);
    }

    #[test]
    fn zero_demand_returns_constant_floor() {
        let mut wf = WaterFill::new();
        wf.push_device(WfDevice {
            constant: 0.25,
            alpha: 1.0,
            capacity: 1.0,
            ..Default::default()
        });
        let s = solved(&mut wf);
        assert_eq!(s.max_value, 0.25);
        assert!(s.x.is_empty());
    }

    #[test]
    fn negative_constants_produce_negative_objectives() {
        // Regression: the objective used to be clamped at 0 by folding
        // the constant floor (and the final max) from 0.0.
        let mut wf = WaterFill::new();
        wf.push_device(WfDevice {
            constant: -5.0,
            alpha: 1.0,
            capacity: f64::INFINITY,
            ..Default::default()
        });
        wf.push_demand(WfDemand {
            amount: 4.0,
            p: 1.0,
            ..Default::default()
        });
        let s = solved(&mut wf);
        assert!((s.max_value - (-1.0)).abs() < 1e-6, "{}", s.max_value);
        // Zero demand reports the (negative) constant floor too.
        let mut wf2 = WaterFill::new();
        wf2.push_device(WfDevice {
            constant: -2.0,
            alpha: 1.0,
            capacity: 1.0,
            ..Default::default()
        });
        let s2 = solved(&mut wf2);
        assert_eq!(s2.max_value, -2.0);
    }

    /// The level test brackets every fast-path optimum: it fails just
    /// below `f*` and passes just above it, on seeded random instances
    /// of the dispatcher's shapes (per-request heads, the §5.3.1 heads +
    /// KV pair, banned devices and tight capacities).
    #[test]
    fn level_test_brackets_the_optimum() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1e7e1);
        let mut solved = 0;
        for _ in 0..2000 {
            let mut wf = WaterFill::new();
            for _ in 0..rng.gen_range(1usize..=8) {
                wf.push_device(WfDevice {
                    constant: rng.gen_range(0.01f64..5.0),
                    alpha: rng.gen_range(0.0f64..2.0),
                    beta: rng.gen_range(0.0f64..2.0),
                    capacity: match rng.gen_range(0u32..10) {
                        0 => 0.0,
                        1 => rng.gen_range(0.1f64..2.0),
                        _ => rng.gen_range(10.0f64..1e3),
                    },
                });
            }
            for _ in 0..rng.gen_range(1usize..=5) {
                let (p, q) = match rng.gen_range(0u32..4) {
                    0 => (1.0, 0.0),
                    1 => (0.0, 1.0),
                    _ => (1.0, rng.gen_range(0.0f64..30.0)),
                };
                wf.push_demand(WfDemand {
                    amount: rng.gen_range(0.5f64..64.0),
                    p,
                    q,
                    u: if q > 0.0 {
                        rng.gen_range(0.01f64..1.0)
                    } else {
                        0.0
                    },
                });
            }
            let WfOutcome::Solved(s) = wf.solve() else {
                continue;
            };
            solved += 1;
            let f = s.max_value;
            assert!(f > 0.0);
            assert!(!wf.reaches_level(f * (1.0 - 1e-9)), "reached below {f}");
            assert!(wf.reaches_level(f * (1.0 + 1e-9)), "missed above {f}");
        }
        assert!(solved > 500, "only {solved} fast-path solves");
    }

    /// Outside the level search the test answers what `solve` decides
    /// before searching: nothing is proven when only the LP can decide,
    /// no level is reached without a device, and no demand sits at the
    /// constant floor.
    #[test]
    fn level_test_outside_the_search() {
        let mut wf = WaterFill::new();
        wf.push_device(WfDevice {
            alpha: 1.0,
            beta: 1.0,
            capacity: 0.0,
            ..Default::default()
        });
        wf.push_demand(WfDemand {
            amount: 1.0,
            p: 1.0,
            ..Default::default()
        });
        wf.push_demand(WfDemand {
            amount: 1.0,
            q: 1.0,
            u: 1.0,
            ..Default::default()
        });
        assert!(matches!(wf.solve(), WfOutcome::CapacityBound));
        assert!(wf.reaches_level(f64::NEG_INFINITY));

        let mut wf = WaterFill::new();
        wf.push_demand(WfDemand {
            amount: 1.0,
            p: 1.0,
            ..Default::default()
        });
        assert!(!wf.reaches_level(f64::INFINITY));

        let mut wf = WaterFill::new();
        wf.push_device(WfDevice {
            constant: 0.25,
            alpha: 1.0,
            capacity: 1.0,
            ..Default::default()
        });
        assert!(!wf.reaches_level(0.24) && wf.reaches_level(0.25));
    }

    #[test]
    fn no_devices_is_infeasible() {
        let mut wf = WaterFill::new();
        wf.push_demand(WfDemand {
            amount: 1.0,
            p: 1.0,
            ..Default::default()
        });
        assert!(matches!(wf.solve(), WfOutcome::Infeasible));
    }

    #[test]
    fn clear_reuses_buffers() {
        let mut wf = WaterFill::new();
        for _ in 0..3 {
            wf.clear();
            wf.push_device(WfDevice {
                alpha: 1.0,
                capacity: f64::INFINITY,
                ..Default::default()
            });
            wf.push_demand(WfDemand {
                amount: 4.0,
                p: 1.0,
                ..Default::default()
            });
            let s = solved(&mut wf);
            assert!((s.max_value - 4.0).abs() < 1e-6);
        }
    }
}
