//! Dense two-phase primal simplex.
//!
//! Solves `min c·x  s.t.  Aᵢx {≤,≥,=} bᵢ,  x ≥ 0` on a dense tableau.
//! Pivot selection uses Dantzig's rule with a Bland's-rule fallback after a
//! degeneracy streak, guaranteeing termination. Designed for the small
//! (tens of variables × tens of constraints) problems the Dispatcher
//! produces; everything is `Vec<f64>`-dense on purpose.

/// Relational operator of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `≤`
    Le,
    /// `≥`
    Ge,
    /// `=`
    Eq,
}

/// One constraint `coeffs · x (op) rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Coefficient per decision variable.
    pub coeffs: Vec<f64>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program in the solver's canonical orientation:
/// minimize `objective · x` over `x ≥ 0` subject to [`Constraint`]s.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    /// Objective coefficients (minimized).
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

/// Solver outcome for feasible bounded programs.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal primal point.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
}

/// Solver failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Structural problem (e.g. mismatched dimensions).
    Malformed(String),
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible"),
            LpError::Unbounded => write!(f, "unbounded"),
            LpError::Malformed(m) => write!(f, "malformed LP: {m}"),
        }
    }
}

impl std::error::Error for LpError {}

const EPS: f64 = 1e-9;

impl LinearProgram {
    /// A program over `n` variables with a zero objective.
    pub fn new(n: usize) -> Self {
        LinearProgram {
            objective: vec![0.0; n],
            constraints: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Adds `coeffs · x (op) rhs`.
    pub fn add_constraint(&mut self, coeffs: Vec<f64>, op: ConstraintOp, rhs: f64) {
        self.constraints.push(Constraint { coeffs, op, rhs });
    }

    /// Solves the program.
    ///
    /// Numerical note: the tableau works in the caller's units. Callers
    /// must pose problems in *sensibly scaled* units (coefficients within
    /// a few orders of magnitude of 1); the dispatcher builds its LPs in
    /// milliseconds/heads/gigabytes for exactly this reason. Row
    /// equilibration is applied while the tableau is laid out so no
    /// single constraint dominates pivoting.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        let n = self.num_vars();
        for (i, c) in self.constraints.iter().enumerate() {
            if c.coeffs.len() != n {
                return Err(LpError::Malformed(format!(
                    "constraint {i} has {} coeffs, expected {n}",
                    c.coeffs.len()
                )));
            }
        }
        let t = Tableau::build_from(n, self.constraints.len(), |i| {
            let c = &self.constraints[i];
            RawRow {
                coeffs: &c.coeffs,
                extra: None,
                op: c.op,
                rhs: c.rhs,
            }
        });
        t.solve(&self.objective)
    }
}

/// One unscaled constraint row handed to [`Tableau::build_from`]:
/// structural coefficients, an optional trailing extra column (the
/// min–max front-end's epigraph `t` coefficient), operator and rhs.
pub(crate) struct RawRow<'a> {
    /// Structural coefficients (without the extra column).
    pub coeffs: &'a [f64],
    /// Coefficient of the one trailing column, when the problem has one.
    pub extra: Option<f64>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// Internal simplex tableau with an explicit basis. The coefficient
/// matrix is one row-major `Vec<f64>` (`m × n_total`) so pivoting walks
/// contiguous memory and row operations never allocate.
pub(crate) struct Tableau {
    a: Vec<f64>,
    rhs: Vec<f64>,
    basis: Vec<usize>,
    /// `in_basis[j]` is whether column `j` is basic; [`Tableau::pivot`]
    /// keeps it equal to `basis.contains(&j)` without the scan.
    in_basis: Vec<bool>,
    /// The basis rows whose basic cost is nonzero, in row order, with
    /// that cost: scratch of [`Tableau::optimize`]'s pricing.
    costed: Vec<(usize, f64)>,
    /// Live row count (rows can be dropped after phase 1).
    m: usize,
    n_struct: usize,
    n_total: usize,
    artificial_start: usize,
}

impl Tableau {
    /// Lays out the scaled tableau for `m` rows of `n_struct` structural
    /// columns (the extra column, when present, is column `n_struct-1`).
    /// Each row is equilibrated so its largest coefficient is ~1
    /// (direction preserved; solution unchanged).
    pub(crate) fn build_from<'a, F>(n_struct: usize, m: usize, get: F) -> Tableau
    where
        F: Fn(usize) -> RawRow<'a>,
    {
        // Count auxiliary columns; orientation (rhs ≥ 0) decides layout.
        let mut n_slack = 0;
        let mut n_art = 0;
        for i in 0..m {
            let r = get(i);
            match oriented(r.op, r.rhs) {
                ConstraintOp::Le => n_slack += 1,
                ConstraintOp::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                ConstraintOp::Eq => n_art += 1,
            }
        }

        let n_total = n_struct + n_slack + n_art;
        let artificial_start = n_struct + n_slack;
        let mut a = vec![0.0; m * n_total];
        let mut rhs = vec![0.0; m];
        let mut basis = vec![usize::MAX; m];

        let mut slack_col = n_struct;
        let mut art_col = artificial_start;
        for i in 0..m {
            let r = get(i);
            let row = &mut a[i * n_total..(i + 1) * n_total];
            let row_max = r
                .coeffs
                .iter()
                .fold(0.0f64, |acc, &v| acc.max(v.abs()))
                .max(r.extra.map_or(0.0, f64::abs))
                .max(f64::MIN_POSITIVE);
            let rhs_scaled = r.rhs / row_max;
            let sign = if rhs_scaled < 0.0 { -1.0 } else { 1.0 };
            for (dst, &v) in row.iter_mut().zip(r.coeffs.iter()) {
                *dst = sign * (v / row_max);
            }
            if let Some(e) = r.extra {
                row[n_struct - 1] = sign * (e / row_max);
            }
            rhs[i] = if rhs_scaled < 0.0 {
                -rhs_scaled
            } else {
                rhs_scaled
            };
            match oriented(r.op, r.rhs) {
                ConstraintOp::Le => {
                    row[slack_col] = 1.0;
                    basis[i] = slack_col;
                    slack_col += 1;
                }
                ConstraintOp::Ge => {
                    row[slack_col] = -1.0; // surplus
                    slack_col += 1;
                    row[art_col] = 1.0;
                    basis[i] = art_col;
                    art_col += 1;
                }
                ConstraintOp::Eq => {
                    row[art_col] = 1.0;
                    basis[i] = art_col;
                    art_col += 1;
                }
            }
        }

        let mut in_basis = vec![false; n_total];
        for &col in &basis {
            in_basis[col] = true;
        }
        Tableau {
            a,
            rhs,
            basis,
            in_basis,
            costed: Vec::with_capacity(m),
            m,
            n_struct,
            n_total,
            artificial_start,
        }
    }

    pub(crate) fn solve(mut self, objective: &[f64]) -> Result<LpSolution, LpError> {
        // ---- Phase 1: minimize the sum of artificials.
        if self.artificial_start < self.n_total {
            let mut phase1 = vec![0.0; self.n_total];
            for c in phase1.iter_mut().skip(self.artificial_start) {
                *c = 1.0;
            }
            let z = self.optimize(&phase1)?;
            if z > 1e-7 {
                return Err(LpError::Infeasible);
            }
            self.evict_artificials();
        }

        // ---- Phase 2: the real objective over structural + slack columns.
        let mut phase2 = vec![0.0; self.n_total];
        phase2[..self.n_struct].copy_from_slice(&objective[..self.n_struct]);
        let z = self.optimize(&phase2)?;

        let mut x = vec![0.0; self.n_struct];
        for (row, &col) in self.basis.iter().enumerate() {
            if col < self.n_struct {
                x[col] = self.rhs[row];
            }
        }
        Ok(LpSolution { x, objective: z })
    }

    /// Primal simplex iterations for a given cost vector; returns the
    /// optimal objective value. Artificial columns are never re-admitted
    /// once phase 1 completes (their reduced costs are forced up).
    fn optimize(&mut self, cost: &[f64]) -> Result<f64, LpError> {
        let m = self.m;
        let nt = self.n_total;
        let block_artificials = cost[..self.artificial_start]
            .iter()
            .all(|&c| c.abs() < f64::INFINITY)
            && cost[self.artificial_start..].iter().all(|&c| c == 0.0)
            && self.artificial_start < self.n_total;

        // Hard cap: Bland's rule guarantees termination, so this only
        // protects against numerical livelock.
        let max_iters = 200 * (m + self.n_total) + 1000;

        for _ in 0..max_iters {
            // Reduced costs: c_j − c_B · B⁻¹A_j (see `reduced_cost`).
            // Pivot selection is pure Bland's rule (first improving
            // column, min-ratio row with lowest basis index): slower per
            // iteration count than Dantzig but immune to cycling and to
            // the tie-break instabilities that bit the Dantzig variant on
            // badly conditioned dispatch LPs.
            let limit = if block_artificials {
                self.artificial_start
            } else {
                self.n_total
            };
            self.costed.clear();
            self.costed.extend(
                self.basis
                    .iter()
                    .enumerate()
                    .map(|(row, &bcol)| (row, cost[bcol]))
                    .filter(|&(_, cb)| cb != 0.0),
            );
            let entering = (0..limit)
                .filter(|&j| !self.in_basis[j])
                .find(|&j| self.reduced_cost(cost, j) < -EPS);
            #[cfg(test)]
            self.assert_full_scan_pricing(cost, limit, entering);

            let Some(e) = entering else {
                // Optimal.
                let mut z = 0.0;
                for (row, &bcol) in self.basis.iter().enumerate() {
                    z += cost[bcol] * self.rhs[row];
                }
                return Ok(z);
            };

            // Exact min-ratio test; ties broken by lowest basis index.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for row in 0..m {
                let aij = self.a[row * nt + e];
                if aij > EPS {
                    let ratio = self.rhs[row] / aij;
                    let better = match leaving {
                        None => true,
                        Some(l) => {
                            ratio < best_ratio
                                || (ratio == best_ratio && self.basis[row] < self.basis[l])
                        }
                    };
                    if better {
                        best_ratio = ratio;
                        leaving = Some(row);
                    }
                }
            }
            let Some(l) = leaving else {
                return Err(LpError::Unbounded);
            };
            self.pivot(l, e);
        }
        Err(LpError::Malformed("simplex iteration cap exceeded".into()))
    }

    /// The reduced cost `c_j − c_B · B⁻¹A_j` of column `j`. The tableau
    /// is kept in canonical form, so this is a direct row combination
    /// over `costed`, the basis rows with a nonzero cost, summed in row
    /// order. Rows with a zero cost add nothing, so skipping them keeps
    /// every sum bit-identical to a scan of all basis rows.
    fn reduced_cost(&self, cost: &[f64], j: usize) -> f64 {
        let nt = self.n_total;
        let mut red = cost[j];
        for &(row, cb) in &self.costed {
            red -= cb * self.a[row * nt + j];
        }
        red
    }

    /// Gauss pivot on (row, col), in place: the pivot row and each target
    /// row are disjoint slices of the flat matrix, so a split borrow
    /// replaces the old per-pivot row clone.
    fn pivot(&mut self, row: usize, col: usize) {
        let m = self.m;
        let nt = self.n_total;
        let p = self.a[row * nt + col];
        debug_assert!(p.abs() > EPS);
        let inv = 1.0 / p;
        for v in &mut self.a[row * nt..(row + 1) * nt] {
            *v *= inv;
        }
        self.rhs[row] *= inv;
        let rhs_pivot = self.rhs[row];
        for r in 0..m {
            if r == row {
                continue;
            }
            let factor = self.a[r * nt + col];
            if factor == 0.0 {
                continue;
            }
            // Row operation r := r - factor * pivot_row.
            let (pivot_row, target) = if r < row {
                let (lo, hi) = self.a.split_at_mut(row * nt);
                (&hi[..nt], &mut lo[r * nt..(r + 1) * nt])
            } else {
                let (lo, hi) = self.a.split_at_mut(r * nt);
                (&lo[row * nt..(row + 1) * nt], &mut hi[..nt])
            };
            for (v, pv) in target.iter_mut().zip(pivot_row.iter()) {
                *v -= factor * pv;
            }
            self.rhs[r] -= factor * rhs_pivot;
            // Clamp tiny negatives introduced by roundoff.
            if self.rhs[r] < 0.0 && self.rhs[r] > -1e-10 {
                self.rhs[r] = 0.0;
            }
        }
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
    }

    /// After phase 1: pivot any artificial still in the basis out on a
    /// non-artificial column, or drop its (redundant) row.
    fn evict_artificials(&mut self) {
        let nt = self.n_total;
        let mut drop_rows = Vec::new();
        for row in 0..self.m {
            if self.basis[row] >= self.artificial_start {
                // Find a non-artificial column with nonzero coefficient.
                let col = (0..self.artificial_start)
                    .find(|&j| self.a[row * nt + j].abs() > EPS && !self.in_basis[j]);
                match col {
                    Some(j) => self.pivot(row, j),
                    None => drop_rows.push(row),
                }
            }
        }
        // Remove redundant rows back-to-front.
        for &row in drop_rows.iter().rev() {
            self.a.drain(row * nt..(row + 1) * nt);
            self.rhs.remove(row);
            self.in_basis[self.basis[row]] = false;
            self.basis.remove(row);
            self.m -= 1;
        }
    }
}

/// Orients a constraint so its rhs becomes non-negative, flipping the
/// operator if needed.
fn oriented(op: ConstraintOp, rhs: f64) -> ConstraintOp {
    if rhs >= 0.0 {
        op
    } else {
        match op {
            ConstraintOp::Le => ConstraintOp::Ge,
            ConstraintOp::Ge => ConstraintOp::Le,
            ConstraintOp::Eq => ConstraintOp::Eq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_max_as_min() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  → (2,6), obj 36.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![-3.0, -5.0];
        lp.add_constraint(vec![1.0, 0.0], ConstraintOp::Le, 4.0);
        lp.add_constraint(vec![0.0, 2.0], ConstraintOp::Le, 12.0);
        lp.add_constraint(vec![3.0, 2.0], ConstraintOp::Le, 18.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 10, x - y = 2 → (6,4), obj 10.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 1.0];
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 10.0);
        lp.add_constraint(vec![1.0, -1.0], ConstraintOp::Eq, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.x[0], 6.0);
        assert_close(s.x[1], 4.0);
        assert_close(s.objective, 10.0);
    }

    #[test]
    fn ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 → (4,0)? obj: prefer x
        // (cheaper): x=4,y=0, obj 8.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![2.0, 3.0];
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Ge, 4.0);
        lp.add_constraint(vec![1.0, 0.0], ConstraintOp::Ge, 1.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 8.0);
        assert_close(s.x[0], 4.0);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2.
        let mut lp = LinearProgram::new(1);
        lp.objective = vec![1.0];
        lp.add_constraint(vec![1.0], ConstraintOp::Le, 1.0);
        lp.add_constraint(vec![1.0], ConstraintOp::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x with no upper bound.
        let mut lp = LinearProgram::new(1);
        lp.objective = vec![-1.0];
        lp.add_constraint(vec![1.0], ConstraintOp::Ge, 0.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_handled() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let mut lp = LinearProgram::new(1);
        lp.objective = vec![1.0];
        lp.add_constraint(vec![-1.0], ConstraintOp::Le, -3.0);
        let s = lp.solve().unwrap();
        assert_close(s.x[0], 3.0);
    }

    #[test]
    fn degenerate_program_terminates() {
        // A classic degenerate instance (Beale's example scaled).
        let mut lp = LinearProgram::new(4);
        lp.objective = vec![-0.75, 150.0, -0.02, 6.0];
        lp.add_constraint(vec![0.25, -60.0, -0.04, 9.0], ConstraintOp::Le, 0.0);
        lp.add_constraint(vec![0.5, -90.0, -0.02, 3.0], ConstraintOp::Le, 0.0);
        lp.add_constraint(vec![0.0, 0.0, 1.0, 0.0], ConstraintOp::Le, 1.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn malformed_rejected() {
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 1.0];
        lp.add_constraint(vec![1.0], ConstraintOp::Le, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::Malformed(_))));
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 4 stated twice: still solvable.
        let mut lp = LinearProgram::new(2);
        lp.objective = vec![1.0, 2.0];
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 4.0);
        lp.add_constraint(vec![2.0, 2.0], ConstraintOp::Eq, 8.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 4.0); // all weight on x
        assert_close(s.x[0], 4.0);
    }

    impl Tableau {
        /// The pricing loop before the in-basis bitmap, run beside every
        /// pricing step of this crate's tests: every non-basic column below
        /// `limit` rescans all basis rows, and basis membership is a
        /// `basis.contains` scan. Each reduced cost must equal
        /// `reduced_cost`'s bit for bit, the bitmap must equal the scan,
        /// and the first improving column must be `entering`.
        pub(super) fn assert_full_scan_pricing(
            &self,
            cost: &[f64],
            limit: usize,
            entering: Option<usize>,
        ) {
            let nt = self.n_total;
            let mut first = None;
            for j in 0..self.n_total {
                assert_eq!(self.in_basis[j], self.basis.contains(&j), "column {j}");
                if j >= limit || self.basis.contains(&j) {
                    continue;
                }
                let mut red = cost[j];
                for (row, &bcol) in self.basis.iter().enumerate() {
                    let cb = cost[bcol];
                    if cb != 0.0 {
                        red -= cb * self.a[row * nt + j];
                    }
                }
                assert_eq!(
                    self.reduced_cost(cost, j).to_bits(),
                    red.to_bits(),
                    "column {j}"
                );
                if first.is_none() && red < -EPS {
                    first = Some(j);
                }
            }
            assert_eq!(entering, first);
        }
    }

    /// The bitmap pricing prices every column bit for bit like the full
    /// scan (`Tableau::assert_full_scan_pricing` checks each step) on
    /// seeded random programs: mixed operators and signs, sparse rows,
    /// degenerate (zero-rhs) rows, and redundant rows (scaled copies of
    /// earlier ones, which phase 1 leaves with an artificial to evict or
    /// drop).
    #[test]
    fn pricing_is_bit_identical_to_the_full_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9e1c);
        let (mut optimal, mut degenerate, mut redundant) = (0, 0, 0);
        for _ in 0..3000 {
            let n = rng.gen_range(1usize..=8);
            let mut lp = LinearProgram::new(n);
            for c in lp.objective.iter_mut() {
                *c = rng.gen_range(-3i32..=5) as f64 * rng.gen_range(0.5f64..1.5);
            }
            for _ in 0..rng.gen_range(1usize..=9) {
                let copy = !lp.constraints.is_empty() && rng.gen_range(0u32..6) == 0;
                if copy {
                    let k = rng.gen_range(0..lp.constraints.len());
                    let scale = [1.0, 2.0, -1.0, 0.5][rng.gen_range(0usize..4)];
                    let src = &lp.constraints[k];
                    let op = match (src.op, scale < 0.0) {
                        (ConstraintOp::Le, true) => ConstraintOp::Ge,
                        (ConstraintOp::Ge, true) => ConstraintOp::Le,
                        (op, _) => op,
                    };
                    let coeffs = src.coeffs.iter().map(|v| v * scale).collect();
                    let rhs = src.rhs * scale;
                    lp.add_constraint(coeffs, op, rhs);
                    redundant += 1;
                    continue;
                }
                let coeffs = (0..n)
                    .map(|_| match rng.gen_range(0u32..3) {
                        0 => 0.0,
                        _ => rng.gen_range(-4i32..=6) as f64,
                    })
                    .collect();
                let op = [
                    ConstraintOp::Le,
                    ConstraintOp::Le,
                    ConstraintOp::Ge,
                    ConstraintOp::Eq,
                ][rng.gen_range(0usize..4)];
                let rhs = match rng.gen_range(0u32..4) {
                    0 => {
                        degenerate += 1;
                        0.0
                    }
                    _ => rng.gen_range(-5i32..=20) as f64,
                };
                lp.add_constraint(coeffs, op, rhs);
            }
            // A box keeps most programs bounded.
            if rng.gen_range(0u32..4) != 0 {
                lp.add_constraint(vec![1.0; n], ConstraintOp::Le, rng.gen_range(1.0f64..50.0));
            }
            match lp.solve() {
                Ok(_) => optimal += 1,
                Err(LpError::Malformed(e)) => panic!("{e}: {lp:?}"),
                Err(_) => {}
            }
        }
        assert!(
            optimal > 1000 && degenerate > 500 && redundant > 500,
            "{optimal} optimal, {degenerate} degenerate rows, {redundant} redundant rows"
        );
    }

    #[test]
    fn solution_satisfies_constraints() {
        let mut lp = LinearProgram::new(3);
        lp.objective = vec![1.0, 1.5, 0.7];
        lp.add_constraint(vec![1.0, 1.0, 1.0], ConstraintOp::Eq, 10.0);
        lp.add_constraint(vec![1.0, 0.0, 0.0], ConstraintOp::Le, 4.0);
        lp.add_constraint(vec![0.0, 1.0, 0.0], ConstraintOp::Le, 5.0);
        lp.add_constraint(vec![0.0, 0.0, 1.0], ConstraintOp::Le, 6.0);
        let s = lp.solve().unwrap();
        let sum: f64 = s.x.iter().sum();
        assert_close(sum, 10.0);
        assert!(s.x[0] <= 4.0 + 1e-9 && s.x[1] <= 5.0 + 1e-9 && s.x[2] <= 6.0 + 1e-9);
        // Cheapest fill: x3 (0.7) to 6, then x1 (1.0) to 4 → obj 8.2.
        assert_close(s.objective, 6.0 * 0.7 + 4.0 * 1.0);
    }
}
