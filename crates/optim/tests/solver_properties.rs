//! Property-based cross-validation of the solver stack: the simplex, the
//! MILP branch-and-bound, the exact set cover, and the greedy
//! approximation must agree with each other on randomized instances.
//!
//! The simplex and the MILP are test code: `lp/` holds them, shared with
//! the crate's unit tests.

#[path = "lp/simplex.rs"]
mod simplex;

#[path = "lp/milp.rs"]
mod milp;

use milp::{integer_program_milp, solve_milp, MilpLimits, MilpOutcome, MilpProgramLimits};
use proptest::prelude::*;
use simplex::{LinearProgram, LpOutcome, Relation};
use vigil_optim::{
    binary_program, greedy_cover, integer_program, min_set_cover, CoverInstance, FlowRow,
    IntegerSolution, SearchLimits,
};

fn arb_flows() -> impl Strategy<Value = Vec<FlowRow>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u32..8, 1..4),
            1u32..5, // demand
        ),
        1..7,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(links, demand)| FlowRow { links, demand })
            .collect()
    })
}

fn arb_instance() -> impl Strategy<Value = CoverInstance> {
    arb_flows().prop_map(|flows| CoverInstance::new(&flows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The exact search lower-bounds greedy, and the literal MILP route
    /// agrees with the structure-theorem route on ‖p‖₀ — the crate-level
    /// equivalence, fuzzed.
    #[test]
    fn exact_greedy_and_milp_agree(flows in arb_flows()) {
        let instance = CoverInstance::new(&flows);
        let exact = min_set_cover(&instance, &SearchLimits::default());
        prop_assert!(exact.optimal);
        let greedy = greedy_cover(&instance, false);
        prop_assert!(exact.picked.len() <= greedy.len());

        let milp = integer_program_milp(&flows, &MilpProgramLimits::default());
        if let Some(sol) = milp {
            prop_assert!(sol.optimal);
            prop_assert_eq!(sol.counts.len(), exact.picked.len(),
                "MILP ‖p‖₀ must equal the exact cover size");
        }
    }

    /// Exact binary-program solutions always cover and are irredundant.
    #[test]
    fn binary_solutions_cover_minimally(instance in arb_instance()) {
        let sol = binary_program(&instance, &SearchLimits::default());
        prop_assert!(sol.optimal);
        let picked: Vec<usize> = sol
            .links
            .iter()
            .map(|l| instance.candidates().binary_search(l).expect("solution links are candidates"))
            .collect();
        prop_assert!(instance.covers(&picked));
    }

    /// The integer program's counts satisfy the budget and per-row
    /// demands (Ap ≥ c, ‖p‖₁ = ‖c‖₁).
    #[test]
    fn integer_counts_feasible(rows in proptest::collection::vec(
        (proptest::collection::vec(0u32..8, 1..4), 1u32..5), 1..7))
    {
        let flows: Vec<FlowRow> = rows
            .iter()
            .map(|(links, demand)| FlowRow { links: links.clone(), demand: *demand })
            .collect();
        let instance = CoverInstance::new(&flows);
        let sol = integer_program(&instance, &SearchLimits::default());
        prop_assert!(sol.optimal);
        let total: u64 = sol.counts.values().sum();
        prop_assert_eq!(total, instance.total_demand(), "‖p‖₁ = ‖c‖₁");
        for f in &flows {
            let covered: u64 = f.links.iter().filter_map(|l| sol.counts.get(l)).sum();
            prop_assert!(covered >= u64::from(f.demand),
                "row {:?} demand {} but path mass {}", f.links, f.demand, covered);
        }
    }

    /// Random small LPs: when the simplex reports optimal, the point is
    /// primal-feasible and no coordinate is negative.
    #[test]
    fn simplex_optimal_points_are_feasible(
        n in 1usize..5,
        rows in proptest::collection::vec(
            (proptest::collection::vec(0u64..100, 1..5), 0u64..50), 1..5),
        costs in proptest::collection::vec(0u64..10, 5))
    {
        let mut lp = LinearProgram::new(n);
        for (v, &cost) in costs.iter().enumerate().take(n) {
            lp.set_objective(v, cost as f64 / 2.0 + 0.5);
        }
        let mut dense_rows: Vec<(Vec<f64>, f64)> = Vec::new();
        for (coeffs, rhs) in &rows {
            let mut row = vec![0.0; n];
            for (i, c) in coeffs.iter().enumerate() {
                row[i % n] += *c as f64 / 10.0;
            }
            let rhs = *rhs as f64 / 10.0;
            let terms: Vec<(usize, f64)> =
                row.iter().enumerate().map(|(v, c)| (v, *c)).collect();
            lp.add_constraint(&terms, Relation::Ge, rhs);
            dense_rows.push((row, rhs));
        }
        if let LpOutcome::Optimal(sol) = lp.solve() {
            for x in &sol.x {
                prop_assert!(*x >= -1e-7, "negative coordinate {x}");
            }
            for (row, rhs) in &dense_rows {
                let lhs: f64 = row.iter().zip(&sol.x).map(|(a, x)| a * x).sum();
                prop_assert!(lhs + 1e-6 >= *rhs, "violated: {lhs} < {rhs}");
            }
        }
    }

    /// MILP integer solutions respect the bounds and integrality.
    #[test]
    fn milp_solutions_integral(rhs_tenths in 5u64..60) {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.3);
        let rhs = rhs_tenths as f64 / 10.0;
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, rhs);
        match solve_milp(&lp, &[0, 1], &MilpLimits::default()) {
            MilpOutcome::Optimal { x, objective } => {
                for v in &x {
                    prop_assert!((v - v.round()).abs() < 1e-6);
                }
                prop_assert!(x[0] + x[1] + 1e-6 >= rhs);
                // Best integer solution: all mass on the cheaper variable.
                prop_assert!((objective - rhs.ceil()).abs() < 1e-6);
            }
            other => prop_assert!(false, "expected optimal, got {other:?}"),
        }
    }
}
