//! Epigraph reduction: `min max_i fᵢ(x)` → `min t s.t. fᵢ(x) ≤ t`.
//!
//! The Dispatcher's objective (Eq. 7a) is the maximum of per-device affine
//! attention-time estimates. The standard epigraph trick turns it into a
//! plain LP with one extra variable.

use crate::simplex::{ConstraintOp, LpError, RawRow, Tableau};

/// An affine expression `constant + coeffs · x`.
#[derive(Debug, Clone)]
pub struct AffineExpr {
    /// Constant term.
    pub constant: f64,
    /// Coefficient per decision variable.
    pub coeffs: Vec<f64>,
}

impl AffineExpr {
    /// Evaluates at `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.constant
            + self
                .coeffs
                .iter()
                .zip(x.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>()
    }
}

/// Result of a min–max solve.
#[derive(Debug, Clone)]
pub struct MinMaxSolution {
    /// Optimal decision variables (without the epigraph variable).
    pub x: Vec<f64>,
    /// The minimized maximum.
    pub max_value: f64,
}

/// Builder for `min max_i exprᵢ(x)` over `x ≥ 0` with linear constraints.
///
/// Rows are stored flat (one `Vec<f64>` per kind, `n` entries per row) so
/// a long-lived builder can be [`MinMaxBuilder::reset`] and refilled
/// through [`MinMaxBuilder::push_max_term`] /
/// [`MinMaxBuilder::push_constraint`] without allocating per row — the
/// Dispatcher reuses one builder across every per-iteration solve.
#[derive(Debug, Clone, Default)]
pub struct MinMaxBuilder {
    n: usize,
    expr_consts: Vec<f64>,
    expr_coeffs: Vec<f64>,
    cons_ops: Vec<ConstraintOp>,
    cons_rhs: Vec<f64>,
    cons_coeffs: Vec<f64>,
}

impl MinMaxBuilder {
    /// A problem over `n` decision variables.
    pub fn new(n: usize) -> Self {
        MinMaxBuilder {
            n,
            ..Default::default()
        }
    }

    /// Clears all rows and re-dimensions to `n` variables, keeping the
    /// allocated capacity for reuse.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.expr_consts.clear();
        self.expr_coeffs.clear();
        self.cons_ops.clear();
        self.cons_rhs.clear();
        self.cons_coeffs.clear();
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Appends a zeroed max-term row and returns its coefficient slice
    /// for in-place filling (the allocation-free
    /// [`MinMaxBuilder::add_max_term`]).
    pub fn push_max_term(&mut self, constant: f64) -> &mut [f64] {
        self.expr_consts.push(constant);
        let start = self.expr_coeffs.len();
        self.expr_coeffs.resize(start + self.n, 0.0);
        &mut self.expr_coeffs[start..]
    }

    /// Appends a zeroed constraint row `coeffs · x (op) rhs` and returns
    /// its coefficient slice for in-place filling.
    pub fn push_constraint(&mut self, op: ConstraintOp, rhs: f64) -> &mut [f64] {
        self.cons_ops.push(op);
        self.cons_rhs.push(rhs);
        let start = self.cons_coeffs.len();
        self.cons_coeffs.resize(start + self.n, 0.0);
        &mut self.cons_coeffs[start..]
    }

    /// Adds one expression under the max.
    pub fn add_max_term(&mut self, expr: AffineExpr) {
        assert_eq!(expr.coeffs.len(), self.n);
        self.push_max_term(expr.constant)
            .copy_from_slice(&expr.coeffs);
    }

    /// Adds a side constraint `coeffs · x (op) rhs`.
    pub fn add_constraint(&mut self, coeffs: Vec<f64>, op: ConstraintOp, rhs: f64) {
        assert_eq!(coeffs.len(), self.n);
        self.push_constraint(op, rhs).copy_from_slice(&coeffs);
    }

    /// Solves via the epigraph LP: variables `[x₀..xₙ₋₁, t]`, minimize
    /// `t` subject to `coeffs·x − t ≤ −constant` per max term plus the
    /// side constraints. Rows are lowered straight into the simplex
    /// tableau — no intermediate program is materialized.
    pub fn solve(&self) -> Result<MinMaxSolution, LpError> {
        assert!(!self.expr_consts.is_empty(), "no max terms");
        let n = self.n;
        let nv = n + 1;
        let n_terms = self.expr_consts.len();
        let m = n_terms + self.cons_ops.len();
        let t = Tableau::build_from(nv, m, |i| {
            if i < n_terms {
                RawRow {
                    coeffs: &self.expr_coeffs[i * n..(i + 1) * n],
                    extra: Some(-1.0),
                    op: ConstraintOp::Le,
                    rhs: -self.expr_consts[i],
                }
            } else {
                let k = i - n_terms;
                RawRow {
                    coeffs: &self.cons_coeffs[k * n..(k + 1) * n],
                    extra: Some(0.0),
                    op: self.cons_ops[k],
                    rhs: self.cons_rhs[k],
                }
            }
        });
        let mut objective = vec![0.0; nv];
        objective[n] = 1.0;
        let sol = t.solve(&objective)?;
        Ok(MinMaxSolution {
            max_value: sol.objective,
            x: sol.x[..n].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balances_two_machines() {
        // Split 10 units between two machines with speeds 1 and 2:
        // min max(x₀, 2x₁) s.t. x₀ + x₁ = 10 → x = (20/3, 10/3), max 20/3.
        let mut b = MinMaxBuilder::new(2);
        b.add_max_term(AffineExpr {
            constant: 0.0,
            coeffs: vec![1.0, 0.0],
        });
        b.add_max_term(AffineExpr {
            constant: 0.0,
            coeffs: vec![0.0, 2.0],
        });
        b.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 10.0);
        let s = b.solve().unwrap();
        assert!((s.max_value - 20.0 / 3.0).abs() < 1e-6);
        assert!((s.x[0] - 20.0 / 3.0).abs() < 1e-6);
        assert!((s.x[1] - 10.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn constants_shift_the_balance() {
        // Device 1 has a fixed overhead (e.g. network beta): it receives
        // less load. min max(x₀, 3 + x₁) s.t. x₀+x₁ = 10 → x=(6.5, 3.5).
        let mut b = MinMaxBuilder::new(2);
        b.add_max_term(AffineExpr {
            constant: 0.0,
            coeffs: vec![1.0, 0.0],
        });
        b.add_max_term(AffineExpr {
            constant: 3.0,
            coeffs: vec![0.0, 1.0],
        });
        b.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 10.0);
        let s = b.solve().unwrap();
        assert!((s.x[0] - 6.5).abs() < 1e-6, "x0 = {}", s.x[0]);
        assert!((s.max_value - 6.5).abs() < 1e-6);
    }

    #[test]
    fn capacity_forces_spill() {
        // Fast device capped at 4 units: the rest spills to the slow one.
        let mut b = MinMaxBuilder::new(2);
        b.add_max_term(AffineExpr {
            constant: 0.0,
            coeffs: vec![1.0, 0.0],
        });
        b.add_max_term(AffineExpr {
            constant: 0.0,
            coeffs: vec![0.0, 5.0],
        });
        b.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 10.0);
        b.add_constraint(vec![1.0, 0.0], ConstraintOp::Le, 4.0);
        let s = b.solve().unwrap();
        assert!((s.x[0] - 4.0).abs() < 1e-6);
        assert!((s.x[1] - 6.0).abs() < 1e-6);
        assert!((s.max_value - 30.0).abs() < 1e-6);
    }

    #[test]
    fn eval_matches_solution() {
        let mut b = MinMaxBuilder::new(3);
        let terms: Vec<AffineExpr> = (0..3)
            .map(|i| {
                let mut coeffs = vec![0.0; 3];
                coeffs[i] = (i + 1) as f64;
                AffineExpr {
                    constant: 0.1 * i as f64,
                    coeffs,
                }
            })
            .collect();
        for t in &terms {
            b.add_max_term(t.clone());
        }
        b.add_constraint(vec![1.0, 1.0, 1.0], ConstraintOp::Eq, 6.0);
        let s = b.solve().unwrap();
        let max_eval = terms
            .iter()
            .map(|t| t.eval(&s.x))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((max_eval - s.max_value).abs() < 1e-6);
    }

    #[test]
    fn regression_six_device_balance_stays_nonnegative() {
        // Regression: an earlier Dantzig-rule pivot with epsilon-fuzzy
        // tie-breaking returned a negative variable and a 10x-suboptimal
        // objective on this shape (4 fast + 2 slow devices, dispatcher-like
        // coefficients in ms/heads/GB units).
        let n = 6;
        let nv = 2 * n;
        let mut b = MinMaxBuilder::new(nv);
        for i in 0..n {
            let (a, bb, c) = if i < 4 {
                (4e-6, 0.8, 8e-3)
            } else {
                (16e-6, 3.0, 30e-3)
            };
            let mut coeffs = vec![0.0; nv];
            coeffs[i] = a;
            coeffs[n + i] = bb;
            b.add_max_term(AffineExpr {
                constant: c,
                coeffs,
            });
            let mut cap = vec![0.0; nv];
            cap[n + i] = 1.0;
            b.add_constraint(cap, ConstraintOp::Le, 1.0);
        }
        let mut hrow = vec![0.0; nv];
        let mut grow = vec![0.0; nv];
        for i in 0..n {
            hrow[i] = 1.0;
            grow[n + i] = 1.0;
        }
        b.add_constraint(hrow, ConstraintOp::Eq, 240.0);
        b.add_constraint(grow, ConstraintOp::Eq, 0.37);
        let s = b.solve().unwrap();
        for (i, &x) in s.x.iter().enumerate() {
            assert!(x >= -1e-9, "x[{i}] = {x} negative");
        }
        // Perfect balance across the 4 fast devices bounds the optimum:
        // pushing all g onto them costs ≈ 0.8·0.37/4 + c ≈ 0.082 ms.
        assert!(s.max_value < 0.12, "suboptimal: {}", s.max_value);
        assert!(s.max_value > 0.05);
    }

    #[test]
    fn infeasible_propagates() {
        let mut b = MinMaxBuilder::new(1);
        b.add_max_term(AffineExpr {
            constant: 0.0,
            coeffs: vec![1.0],
        });
        b.add_constraint(vec![1.0], ConstraintOp::Eq, 5.0);
        b.add_constraint(vec![1.0], ConstraintOp::Le, 3.0);
        assert_eq!(b.solve().unwrap_err(), LpError::Infeasible);
    }
}
