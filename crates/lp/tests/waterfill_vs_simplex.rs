//! Property suite pinning the water-fill fast path against the simplex
//! oracle on seeded random Eq. (7) instances.
//!
//! Every instance has the Dispatcher's shape: one affine max term per
//! device (`t_ik = αᵢ·p_k + βᵢ·q_k`), one capacity row per device
//! (`Σ_k u_k·x_ik ≤ capᵢ`), one head-integrity equality per request
//! (`Σᵢ x_ik = H_k`). The suite sweeps loose, tight and banned-device
//! capacity regimes (the §5.3.2 redispatch path) and asserts, whenever
//! the water-fill takes its fast path, that its objective matches the
//! simplex optimum to 1e-6, that feasibility is exact, and that both
//! solutions survive `round_to_groups`. One-demand instances never fall
//! back: the closed form settles them, capacity included, within 1e-9 of
//! the simplex.

use hetis_lp::{
    round_to_groups, ConstraintOp, LpError, MinMaxBuilder, WaterFill, WfDemand, WfDevice, WfOutcome,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One random Eq. (7) instance.
struct Instance {
    devices: Vec<WfDevice>,
    demands: Vec<WfDemand>,
}

impl Instance {
    fn random(seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..=8);
        let j = rng.gen_range(1usize..=6);

        let mut demands = Vec::with_capacity(j);
        for _ in 0..j {
            let groups = rng.gen_range(1u32..=8);
            // Mostly the dispatcher's shape (p = 1), but sweep the full
            // rank-2 space too: scaled p, exact-zero p (the ideal-time
            // KV pseudo-demand), and the fully cost-free (0,0) corner
            // that once broke the Monge sort's transitivity.
            let (p, q) = match rng.gen_range(0u32..20) {
                0 => (0.0, 0.0),
                1 | 2 => (0.0, rng.gen_range(0.5f64..60.0)),
                3 | 4 => (rng.gen_range(0.1f64..3.0), rng.gen_range(0.0f64..60.0)),
                _ => (1.0, rng.gen_range(0.0f64..60.0)),
            };
            demands.push(WfDemand {
                amount: (groups * 8) as f64,
                p,
                q,
                // u co-monotone with q, as in the dispatcher (compute
                // length is the chunk-capped context length).
                u: q + rng.gen_range(0.0f64..20.0) + 0.1,
            });
        }
        let total_u: f64 = demands.iter().map(|d| d.amount * d.u).sum();

        // Capacity regime: 0 = loose, 1 = tight, 2 = one banned device.
        let regime = rng.gen_range(0u32..4);
        let mut devices = Vec::with_capacity(n);
        for _ in 0..n {
            let alpha = if rng.gen_range(0u32..10) == 0 {
                0.0
            } else {
                rng.gen_range(0.001f64..2.0)
            };
            let beta = if rng.gen_range(0u32..10) == 0 {
                0.0
            } else {
                rng.gen_range(0.0f64..0.5)
            };
            let constant = if rng.gen_range(0u32..5) == 0 {
                0.0
            } else {
                rng.gen_range(0.0f64..25.0)
            };
            let capacity = match regime {
                1 => total_u / n as f64 * rng.gen_range(0.4f64..1.6),
                _ => total_u * 10.0,
            };
            devices.push(WfDevice {
                constant,
                alpha,
                beta,
                capacity,
            });
        }
        if regime == 2 {
            let banned = rng.gen_range(0usize..n);
            devices[banned].capacity = 0.0;
        }
        Instance { devices, demands }
    }

    /// Poses the identical instance as the generic epigraph LP.
    fn simplex(&self) -> Result<hetis_lp::MinMaxSolution, LpError> {
        let n = self.devices.len();
        let j = self.demands.len();
        let nv = n * j;
        let mut b = MinMaxBuilder::new(nv);
        for (i, d) in self.devices.iter().enumerate() {
            let row = b.push_max_term(d.constant);
            for (k, dem) in self.demands.iter().enumerate() {
                row[k * n + i] = d.alpha * dem.p + d.beta * dem.q;
            }
            let cap = b.push_constraint(ConstraintOp::Le, d.capacity);
            for (k, dem) in self.demands.iter().enumerate() {
                cap[k * n + i] = dem.u;
            }
        }
        for (k, dem) in self.demands.iter().enumerate() {
            let row = b.push_constraint(ConstraintOp::Eq, dem.amount);
            for i in 0..n {
                row[k * n + i] = 1.0;
            }
        }
        b.solve()
    }

    /// The instance's only demand when it has one positive demand.
    fn lone_demand(&self) -> Option<WfDemand> {
        let mut positive = self.demands.iter().filter(|d| d.amount > 0.0);
        match (positive.next(), positive.next()) {
            (Some(&d), None) => Some(d),
            _ => None,
        }
    }

    fn waterfill(&self) -> WfOutcome {
        let mut wf = WaterFill::new();
        for &d in &self.devices {
            wf.push_device(d);
        }
        for &d in &self.demands {
            wf.push_demand(d);
        }
        wf.solve()
    }

    /// Max-term value at `x` (layout `x[k*n + i]`).
    fn objective_at(&self, x: &[f64]) -> f64 {
        let n = self.devices.len();
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                d.constant
                    + self
                        .demands
                        .iter()
                        .enumerate()
                        .map(|(k, dem)| (d.alpha * dem.p + d.beta * dem.q) * x[k * n + i])
                        .sum::<f64>()
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Exact feasibility of `x`: nonnegative, head-integrity equalities,
    /// capacity rows.
    fn assert_feasible(&self, x: &[f64], label: &str) {
        let n = self.devices.len();
        for &v in x {
            assert!(v >= -1e-9, "{label}: negative allocation {v}");
        }
        for (k, dem) in self.demands.iter().enumerate() {
            let sum: f64 = (0..n).map(|i| x[k * n + i]).sum();
            assert!(
                (sum - dem.amount).abs() <= 1e-6 * dem.amount.max(1.0),
                "{label}: head integrity broken for demand {k}: {sum} vs {}",
                dem.amount
            );
        }
        for (i, d) in self.devices.iter().enumerate() {
            let used: f64 = self
                .demands
                .iter()
                .enumerate()
                .map(|(k, dem)| dem.u * x[k * n + i])
                .sum();
            assert!(
                used <= d.capacity * (1.0 + 1e-9) + 1e-9,
                "{label}: capacity broken on device {i}: {used} > {}",
                d.capacity
            );
        }
    }

    /// A `WfOutcome::Infeasible` answer: the instance has one positive
    /// demand and the simplex finds no solution either.
    fn assert_lone_infeasible(&self, label: &str) {
        assert!(
            self.lone_demand().is_some(),
            "{label}: several demands reported infeasible"
        );
        assert_eq!(
            self.simplex().map(|s| s.max_value),
            Err(LpError::Infeasible),
            "{label}"
        );
    }

    /// Both solvers' fractional answers must survive group rounding.
    fn assert_roundable(&self, x: &[f64], label: &str) {
        let n = self.devices.len();
        let caps = vec![64u32; n];
        for (k, dem) in self.demands.iter().enumerate() {
            let total = dem.amount as u32;
            let rounded = round_to_groups(&x[k * n..(k + 1) * n], 8, total, &caps)
                .unwrap_or_else(|| panic!("{label}: rounding failed for demand {k}"));
            assert_eq!(rounded.iter().sum::<u32>(), total, "{label}");
            assert!(rounded.iter().all(|h| h % 8 == 0), "{label}");
        }
    }
}

#[test]
fn waterfill_matches_simplex_on_seeded_instances() {
    let mut fast = 0usize;
    let mut fallback = 0usize;
    let mut banned_fast = 0usize;
    const INSTANCES: u64 = 1200;
    for seed in 0..INSTANCES {
        let inst = Instance::random(seed);
        match inst.waterfill() {
            WfOutcome::Solved(wf) => {
                fast += 1;
                let sx = inst
                    .simplex()
                    .unwrap_or_else(|e| panic!("seed {seed}: simplex failed on fast path: {e}"));
                let tol = 1e-6 * sx.max_value.abs().max(1.0);
                assert!(
                    (wf.max_value - sx.max_value).abs() <= tol,
                    "seed {seed}: objective mismatch: waterfill {} vs simplex {}",
                    wf.max_value,
                    sx.max_value
                );
                // Reported objective must be the evaluated objective.
                let eval = inst.objective_at(&wf.x);
                assert!(
                    (eval - wf.max_value).abs() <= 1e-9 * eval.abs().max(1.0),
                    "seed {seed}: reported {} vs evaluated {eval}",
                    wf.max_value
                );
                inst.assert_feasible(&wf.x, &format!("seed {seed} waterfill"));
                inst.assert_roundable(&wf.x, &format!("seed {seed} waterfill"));
                inst.assert_roundable(&sx.x, &format!("seed {seed} simplex"));
                if inst.devices.iter().any(|d| d.capacity == 0.0) {
                    let n = inst.devices.len();
                    for (i, d) in inst.devices.iter().enumerate() {
                        if d.capacity == 0.0 {
                            for k in 0..inst.demands.len() {
                                assert_eq!(
                                    wf.x[k * n + i],
                                    0.0,
                                    "seed {seed}: banned device {i} received load"
                                );
                            }
                        }
                    }
                    banned_fast += 1;
                }
            }
            WfOutcome::CapacityBound => {
                fallback += 1;
                assert!(
                    inst.lone_demand().is_none(),
                    "seed {seed}: a one-demand instance fell back"
                );
                // The oracle is authoritative here; it must terminate
                // cleanly either way.
                match inst.simplex() {
                    Ok(s) => inst.assert_feasible(&s.x, &format!("seed {seed} fallback")),
                    Err(LpError::Infeasible) => {}
                    Err(e) => panic!("seed {seed}: unexpected simplex error {e}"),
                }
            }
            // The generator never empties the cluster, so only a lone
            // demand the capacity rows cannot hold is infeasible.
            WfOutcome::Infeasible => inst.assert_lone_infeasible(&format!("seed {seed}")),
        }
    }
    // The suite must actually exercise both paths, and the fast path must
    // dominate (it is the default production path).
    assert!(
        fast * 2 > (INSTANCES as usize),
        "fast path too rare: {fast}/{INSTANCES}"
    );
    assert!(fallback > 0, "no capacity-bound fallback cases generated");
    assert!(banned_fast > 0, "no banned-device fast-path cases");
}

#[test]
fn capacity_tight_instances_stay_consistent() {
    // Deliberately tight capacity sweep: every instance scales its caps
    // from comfortably-loose down to infeasible and checks the two
    // solvers agree at every step the fast path engages.
    for seed in 0..64u64 {
        let mut inst = Instance::random(seed);
        let total_u: f64 = inst.demands.iter().map(|d| d.amount * d.u).sum();
        for scale in [4.0, 1.5, 1.01, 0.9, 0.4] {
            let n = inst.devices.len();
            for d in inst.devices.iter_mut() {
                d.capacity = total_u * scale / n as f64;
            }
            match inst.waterfill() {
                WfOutcome::Solved(wf) => {
                    let sx = inst.simplex().expect("fast path implies feasible");
                    let tol = 1e-6 * sx.max_value.abs().max(1.0);
                    assert!(
                        (wf.max_value - sx.max_value).abs() <= tol,
                        "seed {seed} scale {scale}: {} vs {}",
                        wf.max_value,
                        sx.max_value
                    );
                    inst.assert_feasible(&wf.x, &format!("seed {seed} scale {scale}"));
                }
                WfOutcome::CapacityBound => {
                    assert!(inst.lone_demand().is_none(), "seed {seed} scale {scale}");
                    match inst.simplex() {
                        Ok(s) => inst.assert_feasible(&s.x, &format!("seed {seed} scale {scale}")),
                        Err(LpError::Infeasible) => {}
                        Err(e) => panic!("seed {seed} scale {scale}: {e}"),
                    }
                }
                WfOutcome::Infeasible => {
                    inst.assert_lone_infeasible(&format!("seed {seed} scale {scale}"))
                }
            }
        }
    }
}

/// One-demand instances settle in closed form, capacity included: none
/// reports `CapacityBound`, each solved one matches the simplex within
/// 1e-9 and places exactly its demand, and each infeasible one is
/// infeasible for the simplex too. The capacity sweep makes capacity
/// bind (the capacitated optimum above the uncapacitated one) on many
/// of them, and the suite requires that it does.
#[test]
fn one_demand_instances_settle_exactly() {
    let (mut binding, mut solved, mut infeasible) = (0usize, 0usize, 0usize);
    for seed in 0..400u64 {
        let mut inst = Instance::random(seed);
        inst.demands.truncate(1);
        let demand = inst.demands[0];
        let need = demand.amount * demand.u;
        let n = inst.devices.len();
        for scale in [4.0, 1.5, 1.01, 0.9, 0.4] {
            for (i, d) in inst.devices.iter_mut().enumerate() {
                if d.capacity > 0.0 {
                    // Uneven shares, so fast and slow devices saturate
                    // at different levels.
                    d.capacity = need * scale / n as f64 * (0.5 + (i % 3) as f64 * 0.5);
                }
            }
            let label = format!("seed {seed} scale {scale}");
            match inst.waterfill() {
                WfOutcome::Solved(wf) => {
                    solved += 1;
                    let sx = inst
                        .simplex()
                        .unwrap_or_else(|e| panic!("{label}: simplex failed: {e}"));
                    let tol = 1e-9 * sx.max_value.abs().max(1.0);
                    assert!(
                        (wf.max_value - sx.max_value).abs() <= tol,
                        "{label}: closed form {} vs simplex {}",
                        wf.max_value,
                        sx.max_value
                    );
                    let placed: f64 = wf.x.iter().sum();
                    assert!(
                        (placed - demand.amount).abs() <= 1e-9 * demand.amount,
                        "{label}: placed {placed} of {} heads",
                        demand.amount
                    );
                    inst.assert_feasible(&wf.x, &label);
                    let eval = inst.objective_at(&wf.x);
                    assert!((eval - wf.max_value).abs() <= 1e-9 * eval.abs().max(1.0));
                    // Binding: lifting every positive capacity lowers the
                    // optimum.
                    let loose = Instance {
                        devices: inst
                            .devices
                            .iter()
                            .map(|&d| WfDevice {
                                capacity: if d.capacity > 0.0 {
                                    f64::INFINITY
                                } else {
                                    d.capacity
                                },
                                ..d
                            })
                            .collect(),
                        demands: inst.demands.clone(),
                    };
                    let WfOutcome::Solved(free) = loose.waterfill() else {
                        panic!("{label}: the uncapacitated instance is solvable");
                    };
                    if wf.max_value > free.max_value + tol {
                        binding += 1;
                    }
                }
                WfOutcome::CapacityBound => panic!("{label}: a one-demand instance fell back"),
                WfOutcome::Infeasible => {
                    infeasible += 1;
                    inst.assert_lone_infeasible(&label);
                }
            }
        }
    }
    assert!(
        binding > 300 && solved > binding && infeasible > 0,
        "{binding} binding of {solved} solved, {infeasible} infeasible"
    );
}
