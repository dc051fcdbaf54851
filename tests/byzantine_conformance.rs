//! Byzantine-voter conformance: the adversarial axis of the scenario
//! matrix. Every `byzantine/*` case must land inside its fraction-
//! calibrated tolerance envelope, and the measured breaking points must
//! tell the democratic story the floors encode: the tally absorbs liars
//! up to (not through) the one-third boundary, mutes only thin evidence,
//! flooders and flippers poison precision early.

use vigil::matrix::{filter_cases, MatrixRunner, ScenarioCase};
use vigil::prelude::*;
use vigil_agents::ByzantineSpec;
use vigil_topology::ClosParams;

fn smoke_runner(threads: usize) -> MatrixRunner {
    let mut runner = MatrixRunner::new(SweepEngine::new(threads));
    runner.trials = 2;
    runner.epochs = 1;
    runner
}

#[test]
fn byzantine_grid_conforms_and_reports_breaking_points() {
    let cases = filter_cases(scenarios::standard_matrix(), "byzantine");
    assert!(
        cases.len() >= 10,
        "byzantine axis shrank to {} cases",
        cases.len()
    );
    let report = smoke_runner(2).run(&cases);
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "cases outside their tolerance envelopes:\n{}",
        failures
            .iter()
            .map(|c| format!("  {}: {}", c.name, c.violations.join("; ")))
            .collect::<Vec<_>>()
            .join("\n")
    );

    let point = |behavior: &str| {
        report
            .breaking_points
            .iter()
            .find(|p| p.behavior == behavior)
            .unwrap_or_else(|| panic!("no breaking point for {behavior}"))
    };
    // Liars: tolerated up to the measured boundary, which must sit at or
    // above the 20 % fraction (the grid breaks them at one third).
    let liar = point("byz-liar");
    assert!(
        liar.breaking_fraction.is_none_or(|f| f >= 0.2),
        "liar breaking point fell below 20 %: {liar:?}"
    );
    assert!(
        liar.tolerated_fraction.is_some_and(|f| f >= 0.2),
        "liars at 20 % must stay inside the honest envelope: {liar:?}"
    );
    // Mutes only remove evidence — no tested fraction breaks the tally.
    let mute = point("byz-mute");
    assert!(
        mute.breaking_fraction.is_none(),
        "mute hosts corrupted the tally: {mute:?}"
    );
    assert_eq!(mute.max_tested_fraction, 0.5);
    // Flooders and flippers poison precision early: both must report a
    // measured breaking point within the tested sweep.
    assert!(point("byz-flood").breaking_fraction.is_some());
    assert!(point("byz-flip").breaking_fraction.is_some());
}

#[test]
fn honest_cases_carry_no_byzantine_plumbing() {
    // Fraction 0 everywhere outside `byzantine/*`: the axis is a true
    // no-op on every pre-existing case (no label, no honest twin).
    for case in scenarios::standard_matrix() {
        let byz = case.name.starts_with("byzantine/");
        assert_eq!(case.run.byzantine.enabled(), byz, "{}", case.name);
        assert_eq!(case.honest_envelope.is_some(), byz, "{}", case.name);
        assert_eq!(
            case.fault_labels().iter().any(|l| l.starts_with("byz-")),
            byz,
            "{}",
            case.name
        );
    }
}

#[test]
fn liar_breaking_point_on_paper_topology_is_at_least_20_percent() {
    // The acceptance claim on the paper's own §6 fabric (800 hosts): the
    // democratic tally holds the honest-voter envelope with up to 20 % of
    // hosts lying about their paths.
    let paper = ("paper-sim", ClosParams::paper_sim());
    let cases: Vec<ScenarioCase> = [0.05, 0.10, 0.20]
        .into_iter()
        .map(|fraction| {
            let name = format!("paper/liar-{:02}", (fraction * 100.0) as u32);
            scenarios::byzantine_case(&name, paper, ByzantineSpec::liars(fraction), None)
        })
        .collect();
    assert_eq!(
        cases[0].honest_envelope.and_then(|e| e.min_accuracy),
        Some(0.75),
        "paper topology must be in the Theorem-2 regime for the claim to mean anything"
    );

    let report = smoke_runner(2).run(&cases);
    let liar = report
        .breaking_points
        .iter()
        .find(|p| p.behavior == "byz-liar")
        .expect("liar cases ran");
    assert!(
        liar.breaking_fraction.is_none_or(|f| f >= 0.2),
        "liar breaking point below 20 % on the paper topology: {liar:?} \
         (cases: {:?})",
        report
            .cases
            .iter()
            .map(|c| (c.name.clone(), c.violations.clone()))
            .collect::<Vec<_>>()
    );
    assert!(liar.tolerated_fraction.is_some_and(|f| f >= 0.1));
}
