//! Scenario-matrix conformance: every named case in the standard grid
//! must land inside its accuracy envelope, at a smoke scale fast enough
//! for tier-1 CI. This is the repo's answer to "does 007 still work when
//! the scenario gets weird?" — a failing case here means a voting-scheme
//! regression (or an envelope that needs a documented recalibration).

use vigil::matrix::{filter_cases, MatrixRunner};
use vigil::prelude::*;

/// The committed verdict of `VIGIL_FAST=1 vigil-sim matrix` (the smoke
/// scale below, default seed), byte for byte.
const GOLDEN: &str = include_str!("../crates/bench/tests/golden/matrix.json");

/// Asserts `report` serializes exactly as the golden, the way
/// `vigil-sim matrix` writes `results/matrix.json`.
fn assert_matches_golden(report: &MatrixReport, threads: usize) {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    let line = GOLDEN.lines().zip(json.lines()).position(|(g, a)| g != a);
    assert!(
        json == GOLDEN,
        "the matrix at width {threads} diverged from crates/bench/tests/golden/matrix.json \
         (first differing line: {:?}); if the change is intentional, regenerate it with \
         `VIGIL_FAST=1 vigil-sim matrix` and copy results/matrix.json",
        line.map(|i| i + 1)
    );
}

fn smoke_runner(threads: usize) -> MatrixRunner {
    let mut runner = MatrixRunner::new(SweepEngine::new(threads));
    // `vigil-sim matrix`'s VIGIL_FAST scale (its default is 3 × 2).
    runner.trials = 2;
    runner.epochs = 1;
    runner
}

#[test]
fn grid_spans_the_required_axes() {
    let cases = scenarios::standard_matrix();
    assert!(cases.len() >= 24, "grid shrank to {} cases", cases.len());

    let mut kinds: Vec<&str> = cases.iter().flat_map(|c| c.fault_labels()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert!(
        kinds.len() >= 5,
        "grid spans only fault kinds {kinds:?} (≥ 5 required)"
    );

    let mut topos: Vec<&str> = cases.iter().map(|c| c.topology).collect();
    topos.sort_unstable();
    topos.dedup();
    assert!(
        topos.len() >= 2,
        "grid spans only topologies {topos:?} (≥ 2 required)"
    );
}

#[test]
fn every_case_conforms_to_its_envelope() {
    // The verdict is byte-identical at any width.
    let cases = scenarios::standard_matrix();
    for threads in [1, 2, 4] {
        let report = smoke_runner(threads).run(&cases);
        assert_eq!(report.cases.len(), cases.len());
        let failures = report.failures();
        assert!(
            failures.is_empty(),
            "cases outside their envelopes at width {threads}:\n{}",
            failures
                .iter()
                .map(|c| format!("  {}: {}", c.name, c.violations.join("; ")))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_matches_golden(&report, threads);
    }
}

#[test]
fn silent_blackholes_are_asserted_blind() {
    // The Ensafi-et-al. drop class: intentional/silent drops evade
    // endpoint signals. The matrix *asserts* 007's documented blindness —
    // no establishment, no trace, no blame.
    let cases = filter_cases(scenarios::standard_matrix(), "-silent");
    assert!(!cases.is_empty());
    let report = smoke_runner(1).run(&cases);
    for c in &report.cases {
        assert!(c.pass, "{}: {:?}", c.name, c.violations);
        assert_eq!(
            c.metrics.traced_flows, 0,
            "{}: a silent blackhole produced evidence",
            c.name
        );
        assert_eq!(c.metrics.blamed_per_epoch, 0.0, "{}", c.name);
    }
}

#[test]
fn filtering_does_not_move_a_cases_numbers() {
    // Seeds derive from case names, so a case's metrics are identical
    // whether it runs alone or inside the full grid.
    let all = scenarios::standard_matrix();
    let target = "gray/k3";
    let full = smoke_runner(2).run(&all);
    let solo_cases = filter_cases(all, target);
    assert_eq!(solo_cases.len(), 1);
    let solo = smoke_runner(2).run(&solo_cases);

    let in_full = full.cases.iter().find(|c| c.name == target).unwrap();
    let alone = &solo.cases[0];
    assert_eq!(
        serde_json::to_string(&in_full.metrics).unwrap(),
        serde_json::to_string(&alone.metrics).unwrap(),
        "filtering changed {target}'s numbers"
    );
}
