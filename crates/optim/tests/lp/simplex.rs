//! A dense two-phase primal simplex LP solver.
//!
//! This is the workspace's substitute for the commercial solver (Mosek)
//! the paper used to solve its benchmark programs. It is a textbook
//! implementation tuned for clarity and robustness over speed:
//!
//! * two-phase method (phase 1 drives artificial variables to zero, so
//!   infeasibility detection is exact up to tolerance);
//! * Bland's pivoting rule throughout — slower than Dantzig but immune to
//!   cycling, which matters because set-cover relaxations are massively
//!   degenerate;
//! * dense tableau — epoch instances compress to a few hundred columns
//!   (see `instance`), well within dense territory.

use serde::{Deserialize, Serialize};

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// A linear program: minimize `c·x` subject to constraints and `x ≥ 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<(Vec<f64>, Relation, f64)>,
}

/// A solved LP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpSolution {
    /// Optimal point (length `num_vars`).
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
}

/// Solver outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LpOutcome {
    /// Finite optimum found.
    Optimal(LpSolution),
    /// No feasible point.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
}

const EPS: f64 = 1e-9;

impl LinearProgram {
    /// A program over `num_vars` non-negative variables with zero
    /// objective.
    pub fn new(num_vars: usize) -> Self {
        Self {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Sets the objective coefficient of one variable.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        self.objective[var] = coeff;
    }

    /// Adds a constraint given as sparse `(var, coeff)` terms.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], rel: Relation, rhs: f64) {
        let mut row = vec![0.0; self.num_vars];
        for (v, c) in terms {
            assert!(*v < self.num_vars, "variable {v} out of range");
            row[*v] += c;
        }
        self.constraints.push((row, rel, rhs));
    }

    /// Solves the program.
    pub fn solve(&self) -> LpOutcome {
        Tableau::build(self).solve()
    }
}

/// Dense simplex tableau with explicit basis bookkeeping.
struct Tableau {
    /// `m × (total_cols)` coefficient matrix.
    a: Vec<Vec<f64>>,
    /// Right-hand sides, all non-negative after normalization.
    b: Vec<f64>,
    /// Basis variable per row.
    basis: Vec<usize>,
    /// Structural variable count (prefix of columns).
    n: usize,
    /// First artificial column (artificials occupy `art_start..total`).
    art_start: usize,
    /// Total column count.
    total: usize,
    /// Original objective (padded to `total`).
    cost: Vec<f64>,
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Self {
        let m = lp.constraints.len();
        let n = lp.num_vars;

        // Normalize to non-negative rhs.
        let rows: Vec<(Vec<f64>, Relation, f64)> = lp
            .constraints
            .iter()
            .map(|(coeffs, rel, rhs)| {
                if *rhs < 0.0 {
                    let flipped = match rel {
                        Relation::Le => Relation::Ge,
                        Relation::Ge => Relation::Le,
                        Relation::Eq => Relation::Eq,
                    };
                    (coeffs.iter().map(|c| -c).collect(), flipped, -rhs)
                } else {
                    (coeffs.clone(), *rel, *rhs)
                }
            })
            .collect();

        let num_slack = rows
            .iter()
            .filter(|(_, r, _)| matches!(r, Relation::Le | Relation::Ge))
            .count();
        let num_art = rows
            .iter()
            .filter(|(_, r, _)| matches!(r, Relation::Ge | Relation::Eq))
            .count();
        let art_start = n + num_slack;
        let total = art_start + num_art;

        let mut a = vec![vec![0.0; total]; m];
        let mut b = vec![0.0; m];
        let mut basis = vec![0usize; m];
        let mut next_slack = n;
        let mut next_art = art_start;

        for (i, (coeffs, rel, rhs)) in rows.iter().enumerate() {
            a[i][..n].copy_from_slice(coeffs);
            b[i] = *rhs;
            match rel {
                Relation::Le => {
                    a[i][next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    a[i][next_slack] = -1.0;
                    next_slack += 1;
                    a[i][next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
                Relation::Eq => {
                    a[i][next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
        }

        let mut cost = vec![0.0; total];
        cost[..n].copy_from_slice(&lp.objective);

        Self {
            a,
            b,
            basis,
            n,
            art_start,
            total,
            cost,
        }
    }

    fn solve(mut self) -> LpOutcome {
        // Phase 1: minimize the sum of artificials.
        if self.art_start < self.total {
            let phase1: Vec<f64> = (0..self.total)
                .map(|j| if j >= self.art_start { 1.0 } else { 0.0 })
                .collect();
            match self.run(&phase1, true) {
                RunOutcome::Optimal(obj) => {
                    if obj > 1e-7 {
                        return LpOutcome::Infeasible;
                    }
                }
                RunOutcome::Unbounded => {
                    unreachable!("phase-1 objective is bounded below by 0")
                }
            }
            self.evict_artificials();
        }

        // Phase 2: the real objective, artificials frozen out.
        let cost = self.cost.clone();
        match self.run(&cost, false) {
            RunOutcome::Optimal(obj) => {
                let mut x = vec![0.0; self.n];
                for (row, &bv) in self.basis.iter().enumerate() {
                    if bv < self.n {
                        x[bv] = self.b[row];
                    }
                }
                LpOutcome::Optimal(LpSolution { x, objective: obj })
            }
            RunOutcome::Unbounded => LpOutcome::Unbounded,
        }
    }

    /// Pivot any artificial still basic (at level ~0 after phase 1) out of
    /// the basis, or drop its (redundant) row.
    fn evict_artificials(&mut self) {
        let mut row = 0;
        while row < self.a.len() {
            if self.basis[row] >= self.art_start {
                // Find a non-artificial column to pivot in.
                let col = (0..self.art_start).find(|&j| self.a[row][j].abs() > 1e-7);
                match col {
                    Some(j) => self.pivot(row, j),
                    None => {
                        // Redundant constraint: remove the row.
                        self.a.remove(row);
                        self.b.remove(row);
                        self.basis.remove(row);
                        continue;
                    }
                }
            }
            row += 1;
        }
    }

    /// Runs simplex iterations for the given cost vector. When
    /// `allow_artificials` is false, artificial columns never enter.
    fn run(&mut self, cost: &[f64], allow_artificials: bool) -> RunOutcome {
        loop {
            let reduced = self.reduced_costs(cost);
            // Bland's rule: smallest-index column with negative reduced
            // cost.
            let limit = if allow_artificials {
                self.total
            } else {
                self.art_start
            };
            let entering = (0..limit).find(|&j| reduced[j] < -EPS);
            let Some(e) = entering else {
                let obj = self.objective_value(cost);
                return RunOutcome::Optimal(obj);
            };

            // Ratio test (Bland tie-break on basis index).
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.a.len() {
                let coef = self.a[r][e];
                if coef > EPS {
                    let ratio = self.b[r] / coef;
                    let better = match leave {
                        None => true,
                        Some((lr, lratio)) => {
                            ratio < lratio - EPS
                                || (ratio < lratio + EPS && self.basis[r] < self.basis[lr])
                        }
                    };
                    if better {
                        leave = Some((r, ratio));
                    }
                }
            }
            let Some((lr, _)) = leave else {
                return RunOutcome::Unbounded;
            };
            self.pivot(lr, e);
        }
    }

    fn reduced_costs(&self, cost: &[f64]) -> Vec<f64> {
        // y = c_B B⁻¹ is implicit: the tableau is kept in canonical form,
        // so reduced cost_j = c_j − Σ_rows c_{basis(r)} · a[r][j].
        let mut rc = cost.to_vec();
        for (r, &bv) in self.basis.iter().enumerate() {
            let cb = cost[bv];
            if cb != 0.0 {
                for (rcj, aj) in rc.iter_mut().zip(&self.a[r]) {
                    *rcj -= cb * aj;
                }
            }
        }
        rc
    }

    fn objective_value(&self, cost: &[f64]) -> f64 {
        self.basis
            .iter()
            .enumerate()
            .map(|(r, &bv)| cost[bv] * self.b[r])
            .sum()
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.a[row][col];
        debug_assert!(p.abs() > EPS, "pivot on ~0");
        for j in 0..self.total {
            self.a[row][j] /= p;
        }
        self.b[row] /= p;
        for r in 0..self.a.len() {
            if r == row {
                continue;
            }
            let f = self.a[r][col];
            if f.abs() > EPS {
                for j in 0..self.total {
                    self.a[r][j] -= f * self.a[row][j];
                }
                self.b[r] -= f * self.b[row];
                if self.b[r].abs() < EPS {
                    self.b[r] = 0.0;
                }
            }
        }
        self.basis[row] = col;
    }
}

enum RunOutcome {
    Optimal(f64),
    Unbounded,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} ≉ {b}");
    }

    #[test]
    fn basic_maximization_as_min() {
        // max x + y s.t. x + y ≤ 4, x ≤ 2 ⇒ min −x−y, optimum −4.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -1.0);
        lp.set_objective(1, -1.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
        match lp.solve() {
            LpOutcome::Optimal(s) => {
                assert_near(s.objective, -4.0);
                assert_near(s.x[0] + s.x[1], 4.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn ge_constraints_and_phase1() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 2 ⇒ x=10, y=0, obj 20.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 2.0);
        lp.set_objective(1, 3.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 10.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0);
        match lp.solve() {
            LpOutcome::Optimal(s) => {
                assert_near(s.objective, 20.0);
                assert_near(s.x[0], 10.0);
                assert_near(s.x[1], 0.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 6, x − y = 0 ⇒ x = y = 2, obj 4.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Eq, 6.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 0.0);
        match lp.solve() {
            LpOutcome::Optimal(s) => {
                assert_near(s.objective, 4.0);
                assert_near(s.x[0], 2.0);
                assert_near(s.x[1], 2.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        assert_eq!(lp.solve(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, -1.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
        assert_eq!(lp.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x ≥ −5 written as −x ≤ 5… feed as (−1)x ≥ −3 ⇒ x ≤ 3.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, -1.0);
        lp.add_constraint(&[(0, -1.0)], Relation::Ge, -3.0);
        match lp.solve() {
            LpOutcome::Optimal(s) => assert_near(s.x[0], 3.0),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Beale's classic cycling example (cycles under naive Dantzig).
        let mut lp = LinearProgram::new(4);
        let c = [-0.75, 150.0, -0.02, 6.0];
        for (i, ci) in c.iter().enumerate() {
            lp.set_objective(i, *ci);
        }
        lp.add_constraint(
            &[(0, 0.25), (1, -60.0), (2, -1.0 / 25.0), (3, 9.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(
            &[(0, 0.5), (1, -90.0), (2, -1.0 / 50.0), (3, 3.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(&[(2, 1.0)], Relation::Le, 1.0);
        match lp.solve() {
            LpOutcome::Optimal(s) => assert_near(s.objective, -0.05),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn set_cover_relaxation_bounds_integer_optimum() {
        // Rows {0,1} {1,2} {2,0}: LP optimum 1.5 (x = ½ each); ILP needs 2.
        let mut lp = LinearProgram::new(3);
        for v in 0..3 {
            lp.set_objective(v, 1.0);
        }
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(1, 1.0), (2, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(2, 1.0), (0, 1.0)], Relation::Ge, 1.0);
        match lp.solve() {
            LpOutcome::Optimal(s) => assert_near(s.objective, 1.5),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn redundant_equalities_handled() {
        // Duplicate equality rows force a redundant row through phase 1.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        match lp.solve() {
            LpOutcome::Optimal(s) => {
                assert_near(s.objective, 0.0);
                assert_near(s.x[0], 0.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn zero_constraint_lp() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        match lp.solve() {
            LpOutcome::Optimal(s) => assert_near(s.objective, 0.0),
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
