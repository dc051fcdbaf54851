//! Branch-and-bound mixed-integer solver on top of the simplex.
//!
//! This is the literal "solve (3)/(4) with a MILP solver" route the paper
//! took with Mosek. Depth-first branch and bound: solve the LP relaxation,
//! pick the most fractional integer variable, branch `x ≤ ⌊v⌋` /
//! `x ≥ ⌈v⌉`, prune on incumbent. A node budget keeps adversarial
//! instances from hanging; exceeding it returns the best incumbent with
//! `optimal = false`.
//!
//! [`integer_program_milp`] encodes program (4) with indicator variables
//! and solves it here — exponential, so only tests call it, to check the
//! crate-level structure theorem against `integer_program`.

use super::simplex::{LinearProgram, LpOutcome, Relation};
use super::{CoverInstance, FlowRow, IntegerSolution};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Node budget for the search.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MilpLimits {
    /// Maximum LP relaxations solved.
    pub max_nodes: u64,
}

impl Default for MilpLimits {
    fn default() -> Self {
        Self { max_nodes: 50_000 }
    }
}

/// MILP outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MilpOutcome {
    /// Proven optimal integer solution.
    Optimal {
        /// Optimal point.
        x: Vec<f64>,
        /// Objective value.
        objective: f64,
    },
    /// Best incumbent when the node budget ran out.
    Budget {
        /// Incumbent, if any was found.
        incumbent: Option<(Vec<f64>, f64)>,
    },
    /// No feasible integer point.
    Infeasible,
    /// The relaxation (hence the MILP) is unbounded.
    Unbounded,
}

const INT_TOL: f64 = 1e-6;

/// Minimizes the program with the given variables required integral.
pub fn solve_milp(lp: &LinearProgram, integer_vars: &[usize], limits: &MilpLimits) -> MilpOutcome {
    let mut nodes = 0u64;
    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    // DFS over (program-with-extra-bounds).
    let mut stack: Vec<LinearProgram> = vec![lp.clone()];
    let mut exhausted = false;
    let mut root_unbounded = false;

    while let Some(node_lp) = stack.pop() {
        if nodes >= limits.max_nodes {
            exhausted = true;
            break;
        }
        nodes += 1;
        let relaxed = node_lp.solve();
        match relaxed {
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => {
                if nodes == 1 {
                    root_unbounded = true;
                    break;
                }
                // A bounded-feasible-region subproblem cannot be unbounded
                // if the root was not; treat defensively as prune-less
                // branch (cannot bound) — branch further is impossible, so
                // skip.
                continue;
            }
            LpOutcome::Optimal(sol) => {
                // Bound: the relaxation already matches/exceeds the
                // incumbent ⇒ prune.
                if let Some((_, best)) = &incumbent {
                    if sol.objective >= best - 1e-9 {
                        continue;
                    }
                }
                // Find the most fractional integer variable.
                let frac_var = integer_vars
                    .iter()
                    .map(|&v| {
                        let val = sol.x[v];
                        let frac = (val - val.round()).abs();
                        (v, val, frac)
                    })
                    .filter(|(_, _, frac)| *frac > INT_TOL)
                    .max_by(|a, b| a.2.partial_cmp(&b.2).expect("finite fractions"));

                match frac_var {
                    None => {
                        // Integral: new incumbent.
                        let better = incumbent
                            .as_ref()
                            .is_none_or(|(_, best)| sol.objective < best - 1e-9);
                        if better {
                            incumbent = Some((sol.x.clone(), sol.objective));
                        }
                    }
                    Some((v, val, _)) => {
                        let floor = val.floor();
                        // Explore the "down" branch first (slightly better
                        // for covering problems); pushed last = popped
                        // first.
                        let mut up = node_lp.clone();
                        up.add_constraint(&[(v, 1.0)], Relation::Ge, floor + 1.0);
                        stack.push(up);
                        let mut down = node_lp.clone();
                        down.add_constraint(&[(v, 1.0)], Relation::Le, floor);
                        stack.push(down);
                    }
                }
            }
        }
    }

    if root_unbounded {
        return MilpOutcome::Unbounded;
    }
    if exhausted {
        return MilpOutcome::Budget { incumbent };
    }
    match incumbent {
        Some((x, objective)) => MilpOutcome::Optimal { x, objective },
        None => MilpOutcome::Infeasible,
    }
}

/// MILP limits specialized for the integer program.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MilpProgramLimits {
    /// Underlying branch-and-bound budget.
    pub milp: MilpLimits,
}

/// Solves the integer program (4) over `flows` through the literal MILP
/// encoding: integer `p_l ≥ 0`, binary indicators `y_l`, `p_l ≤ ‖c‖₁·y_l`,
/// one `Σ p ≥ c` row per flow, minimize `Σ y_l`. The flows go in
/// unmerged: a duplicate link set only repeats a constraint, so the
/// feasible region is the merged instance's. Exponential; intended for
/// small instances and validation.
///
/// Returns `None` when the node budget ran out without an incumbent.
pub fn integer_program_milp(
    flows: &[FlowRow],
    limits: &MilpProgramLimits,
) -> Option<IntegerSolution> {
    let instance = CoverInstance::new(flows);
    if instance.is_empty() {
        return Some(IntegerSolution {
            counts: BTreeMap::new(),
            optimal: true,
        });
    }
    let ncand = instance.num_candidates();
    let budget = instance.total_demand() as f64;
    // Variables: p_0..ncand | y_0..ncand.
    let mut lp = LinearProgram::new(2 * ncand);
    for y in ncand..2 * ncand {
        lp.set_objective(y, 1.0);
        lp.add_constraint(&[(y, 1.0)], Relation::Le, 1.0);
    }
    for flow in flows.iter().filter(|f| !f.links.is_empty()) {
        let mut cand: Vec<usize> = (flow.links.iter())
            .map(|l| instance.candidates().binary_search(l).expect("a candidate"))
            .collect();
        cand.sort_unstable();
        cand.dedup();
        let terms: Vec<(usize, f64)> = cand.iter().map(|c| (*c, 1.0)).collect();
        lp.add_constraint(&terms, Relation::Ge, f64::from(flow.demand.max(1)));
    }
    let all_p: Vec<(usize, f64)> = (0..ncand).map(|p| (p, 1.0)).collect();
    lp.add_constraint(&all_p, Relation::Eq, budget);
    for p in 0..ncand {
        lp.add_constraint(&[(p, 1.0), (p + ncand, -budget)], Relation::Le, 0.0);
    }
    let integers: Vec<usize> = (0..2 * ncand).collect();
    match solve_milp(&lp, &integers, &limits.milp) {
        MilpOutcome::Optimal { x, .. } => Some(solution_from_x(&instance, &x, true)),
        MilpOutcome::Budget { incumbent } => {
            incumbent.map(|(x, _)| solution_from_x(&instance, &x, false))
        }
        MilpOutcome::Infeasible | MilpOutcome::Unbounded => None,
    }
}

fn solution_from_x(instance: &CoverInstance, x: &[f64], optimal: bool) -> IntegerSolution {
    let ncand = instance.num_candidates();
    let mut counts = BTreeMap::new();
    for (c, v) in x.iter().take(ncand).enumerate() {
        let rounded = v.round() as i64;
        if rounded > 0 {
            counts.insert(instance.link_of(c), rounded as u64);
        }
    }
    IntegerSolution { counts, optimal }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} ≉ {b}");
    }

    #[test]
    fn knapsack_style() {
        // min −(3x + 4y) s.t. 2x + 3y ≤ 6, x,y ∈ ℤ≥0: best is x=3,y=0
        // (obj −9) vs LP relax x=3,y=0 already integral… make it
        // fractional: 2x + 3y ≤ 7 ⇒ LP x=3.5 (obj −10.5), ILP x=3,y=0 → −9
        // vs x=2,y=1 → −10. Optimal −10.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -3.0);
        lp.set_objective(1, -4.0);
        lp.add_constraint(&[(0, 2.0), (1, 3.0)], Relation::Le, 7.0);
        match solve_milp(&lp, &[0, 1], &MilpLimits::default()) {
            MilpOutcome::Optimal { x, objective } => {
                assert_near(objective, -10.0);
                assert_near(x[0], 2.0);
                assert_near(x[1], 1.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn set_cover_triangle_needs_two() {
        // LP gives 1.5 (all halves); ILP must pick 2 of the 3 links.
        let mut lp = LinearProgram::new(3);
        for v in 0..3 {
            lp.set_objective(v, 1.0);
            lp.add_constraint(&[(v, 1.0)], Relation::Le, 1.0);
        }
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(1, 1.0), (2, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(2, 1.0), (0, 1.0)], Relation::Ge, 1.0);
        match solve_milp(&lp, &[0, 1, 2], &MilpLimits::default()) {
            MilpOutcome::Optimal { objective, x } => {
                assert_near(objective, 2.0);
                let ones = x.iter().filter(|v| (**v - 1.0).abs() < 1e-6).count();
                assert_eq!(ones, 2);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn integral_relaxation_short_circuits() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 3.0);
        match solve_milp(&lp, &[0], &MilpLimits::default()) {
            MilpOutcome::Optimal { x, objective } => {
                assert_near(objective, 3.0);
                assert_near(x[0], 3.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_milp() {
        // 2x = 1 with x integer: LP feasible (x=0.5), ILP infeasible.
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(&[(0, 2.0)], Relation::Eq, 1.0);
        assert_eq!(
            solve_milp(&lp, &[0], &MilpLimits::default()),
            MilpOutcome::Infeasible
        );
    }

    #[test]
    fn unbounded_milp() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, -1.0);
        assert_eq!(
            solve_milp(&lp, &[0], &MilpLimits::default()),
            MilpOutcome::Unbounded
        );
    }

    #[test]
    fn node_budget_reports_incumbent() {
        // A small cover instance with budget 1: root LP is fractional, so
        // no incumbent can exist yet.
        let mut lp = LinearProgram::new(3);
        for v in 0..3 {
            lp.set_objective(v, 1.0);
        }
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(1, 1.0), (2, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(2, 1.0), (0, 1.0)], Relation::Ge, 1.0);
        match solve_milp(&lp, &[0, 1, 2], &MilpLimits { max_nodes: 1 }) {
            MilpOutcome::Budget { .. } => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // min x + y, x integer, y continuous; x + y ≥ 2.5, x ≥ 1 ⇒
        // best x=1, y=1.5 (obj 2.5) — y may stay fractional.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 2.5);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
        match solve_milp(&lp, &[0], &MilpLimits::default()) {
            MilpOutcome::Optimal { x, objective } => {
                assert_near(objective, 2.5);
                assert!((x[0] - x[0].round()).abs() < 1e-6);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
