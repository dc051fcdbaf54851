//! The scenario matrix: a declarative fault × topology × traffic grid
//! with per-case conformance envelopes.
//!
//! The paper's §6–§8 evaluation is ~22 hand-picked figure scenarios on
//! one symmetric Clos. The matrix turns "does 007 still work when the
//! scenario gets weird?" into data: every [`ScenarioCase`] names one
//! composition of a topology variant (pods, oversubscription, degraded
//! spine), a fault story ([`vigil_fabric::CompositeFaultPlan`] —
//! blackholes, gray drops, flaps, maintenance, SLB-gate outages,
//! multi-failure combos), and a traffic shape, plus an [`Envelope`] the
//! measured accuracy must stay inside. [`MatrixRunner`] flattens the
//! whole grid through [`crate::sweep::SweepEngine`], so it inherits the
//! engine's per-trial seeding and is **byte-identical at any thread
//! count**; `vigil-sim matrix` and the `matrix_conformance` test run
//! every case and assert its envelope.
//!
//! Case seeds derive from the case *name* (FNV-1a), not its grid
//! position — filtering the grid never changes any surviving case's
//! numbers.

use crate::experiment::ExperimentReport;
use crate::pool::{run_epoch_grid, EpochGroup, GroupFaults};
use crate::run::RunConfig;
use crate::stream::StreamTuning;
use crate::sweep::SweepEngine;
use serde::Serialize;
use vigil_fabric::CompositeFaultPlan;
use vigil_topology::bounds::Theorem2;
use vigil_topology::ClosParams;

/// The accuracy envelope a scenario must stay inside. Bounds are chosen
/// per case — tight where Theorem 2 applies ([`Envelope::from_bounds`]),
/// looser where the scenario deliberately leaves the proven regime — and
/// asserted by the conformance harness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Envelope {
    /// Minimum pooled per-flow blame accuracy (`None`: not asserted, e.g.
    /// maintenance cases where failure-class flows may vanish).
    pub min_accuracy: Option<f64>,
    /// Minimum pooled detection recall over the injected failure set.
    pub min_recall: Option<f64>,
    /// Minimum pooled detection precision.
    pub min_precision: Option<f64>,
    /// False-positive bound: mean links blamed per epoch must not exceed
    /// this.
    pub max_blamed_per_epoch: f64,
    /// Noise-classifier soundness: incorrect noise marks may not exceed
    /// this fraction of traced flows (the paper reports 0; boundary
    /// scenarios like gray failures tolerate a sliver). Scale-free, so
    /// the same envelope holds at any trial/epoch count.
    pub max_incorrect_noise_frac: f64,
}

impl Envelope {
    /// A permissive envelope asserting only sanity: some accuracy, a
    /// bounded blame list, a sound noise classifier.
    pub fn relaxed(max_blamed: f64) -> Self {
        Self {
            min_accuracy: Some(0.5),
            min_recall: Some(0.4),
            min_precision: None,
            max_blamed_per_epoch: max_blamed,
            max_incorrect_noise_frac: 0.0,
        }
    }

    /// Derives the envelope from the Theorem 2/3 machinery in
    /// [`vigil_topology::bounds`]: when the configured noise sits under
    /// the theorem's ceiling (and the vote-probability gap is positive),
    /// 007 is *provably* in the high-accuracy regime and the envelope
    /// tightens; otherwise the scenario is outside the proven regime and
    /// the relaxed envelope applies.
    pub fn from_bounds(
        params: &ClosParams,
        k: u32,
        p_bad_floor: f64,
        noise_ceiling: f64,
        packets: (u32, u32),
    ) -> Self {
        let t2 = Theorem2 {
            params: *params,
            k,
            p_bad: p_bad_floor,
            p_good: noise_ceiling,
            c_lower: packets.0,
            c_upper: packets.1,
        };
        let in_regime =
            t2.holds() == Some(true) && t2.v_good_ceiling().is_some_and(|vg| t2.v_bad_floor() > vg);
        let max_blamed = f64::from(k) + 1.5;
        if in_regime {
            Self {
                min_accuracy: Some(0.75),
                // 0.5 is granularity-compatible with the smoke scale
                // (2 trials × 1 epoch ⇒ recall quantized in halves for
                // k = 1) while still demanding most failures be found.
                min_recall: Some(0.5),
                min_precision: Some(0.5),
                max_blamed_per_epoch: max_blamed,
                // The paper's "never marked incorrectly" holds strictly
                // with one failure; with several low-rate failures a
                // failed link occasionally drops exactly one packet in an
                // epoch — the definition of noise — so multi-failure
                // cases tolerate a sliver.
                max_incorrect_noise_frac: if k <= 1 { 0.0 } else { 0.02 },
            }
        } else {
            Self::relaxed(max_blamed)
        }
    }

    /// The blindness envelope: the scenario is *documented* as invisible
    /// to 007 (silent blackholes — no SYN establishes, §4.2 never
    /// traces), so the assertion flips — blame nothing, mismark nothing.
    pub fn blind() -> Self {
        Self {
            min_accuracy: None,
            min_recall: None,
            min_precision: None,
            max_blamed_per_epoch: 0.5,
            max_incorrect_noise_frac: 0.0,
        }
    }

    /// Overrides the incorrect-noise-mark fraction cap (builder style).
    pub fn with_max_incorrect_noise(mut self, frac: f64) -> Self {
        self.max_incorrect_noise_frac = frac;
        self
    }

    /// Overrides the accuracy floor (builder style).
    pub fn with_min_accuracy(mut self, v: Option<f64>) -> Self {
        self.min_accuracy = v;
        self
    }

    /// Overrides the recall floor (builder style).
    pub fn with_min_recall(mut self, v: Option<f64>) -> Self {
        self.min_recall = v;
        self
    }

    /// Overrides the precision floor (builder style).
    pub fn with_min_precision(mut self, v: Option<f64>) -> Self {
        self.min_precision = v;
        self
    }

    /// Checks measured metrics against the envelope; returns one message
    /// per violated bound (empty ⇒ conformant).
    pub fn check(&self, m: &CaseMetrics) -> Vec<String> {
        let mut violations = Vec::new();
        let mut floor = |label: &str, bound: Option<f64>, value: Option<f64>| match (bound, value) {
            (Some(b), Some(v)) if v < b => {
                violations.push(format!("{label} {v:.3} below envelope floor {b:.3}"));
            }
            (Some(b), None) => {
                violations.push(format!("{label} undefined but envelope requires ≥ {b:.3}"));
            }
            _ => {}
        };
        floor("accuracy", self.min_accuracy, m.accuracy);
        floor("recall", self.min_recall, m.recall);
        floor("precision", self.min_precision, m.precision);
        if m.blamed_per_epoch > self.max_blamed_per_epoch {
            violations.push(format!(
                "blamed/epoch {:.2} above envelope cap {:.2}",
                m.blamed_per_epoch, self.max_blamed_per_epoch
            ));
        }
        // Tolerant envelopes get an absolute grace of 2 marks so a single
        // boundary flow cannot fail a small run; strict (0.0) stays strict.
        let noise_cap = if self.max_incorrect_noise_frac > 0.0 {
            (self.max_incorrect_noise_frac * m.traced_flows as f64).max(2.0)
        } else {
            0.0
        };
        if m.noise_marked_incorrectly as f64 > noise_cap {
            violations.push(format!(
                "{} incorrect noise marks over {} traced flows (cap {:.1})",
                m.noise_marked_incorrectly, m.traced_flows, noise_cap
            ));
        }
        violations
    }
}

/// One named cell of the scenario matrix.
#[derive(Debug, Clone)]
pub struct ScenarioCase {
    /// Unique name (also the seed source and the `--filter` target).
    pub name: String,
    /// Topology-axis label (reporting only).
    pub topology: &'static str,
    /// Traffic-axis label (reporting only).
    pub traffic: &'static str,
    /// Topology parameters.
    pub params: ClosParams,
    /// The composite fault story.
    pub faults: CompositeFaultPlan,
    /// Pipeline configuration (traffic, SLB model, Algorithm 1, …).
    pub run: RunConfig,
    /// The accuracy envelope this case must satisfy.
    pub envelope: Envelope,
    /// For byzantine cases: the envelope the *honest-voter* twin of this
    /// case satisfies. `envelope` above is the byzantine *tolerance*
    /// envelope (what must still hold under attack); this one feeds the
    /// [`MatrixReport::breaking_points`] computation — the smallest
    /// fraction whose measured metrics fall outside it.
    pub honest_envelope: Option<Envelope>,
}

impl ScenarioCase {
    /// The case's master seed: FNV-1a of its name mixed with the matrix
    /// seed. Position-independent, so `--filter` never shifts results.
    pub fn seed(&self, matrix_seed: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^ matrix_seed
    }

    /// Fault-axis labels, deduplicated (plus `slb-gate` when the SLB
    /// model is active).
    pub fn fault_labels(&self) -> Vec<&'static str> {
        let mut labels = self.faults.labels();
        if self.run.slb.enabled() {
            labels.push("slb-gate");
        }
        if self.run.byzantine.enabled() {
            labels.push(self.run.byzantine.label());
        }
        labels
    }
}

/// Measured metrics of one case (pooled over the whole grid run).
#[derive(Debug, Clone, Serialize)]
pub struct CaseMetrics {
    /// Pooled per-flow blame accuracy.
    pub accuracy: Option<f64>,
    /// Pooled detection precision.
    pub precision: Option<f64>,
    /// Pooled detection recall.
    pub recall: Option<f64>,
    /// Mean links blamed per epoch.
    pub blamed_per_epoch: f64,
    /// Flows the noise classifier marked against ground truth.
    pub noise_marked_incorrectly: u64,
    /// Flows traced and reported, summed over epochs.
    pub traced_flows: u64,
}

impl CaseMetrics {
    fn from_report(report: &ExperimentReport) -> Self {
        Self {
            accuracy: report.vigil.pooled.accuracy.value(),
            precision: report.vigil.pooled.confusion.precision(),
            recall: report.vigil.pooled.confusion.recall(),
            blamed_per_epoch: report.detected_per_epoch.mean(),
            noise_marked_incorrectly: report.noise_marked_incorrectly,
            traced_flows: report.epochs.iter().map(|e| e.traced_flows as u64).sum(),
        }
    }
}

/// One case's conformance verdict.
#[derive(Debug, Clone, Serialize)]
pub struct CaseOutcome {
    /// Case name.
    pub name: String,
    /// Topology-axis label.
    pub topology: &'static str,
    /// Fault-axis labels.
    pub faults: Vec<&'static str>,
    /// Traffic-axis label.
    pub traffic: &'static str,
    /// Measured metrics.
    pub metrics: CaseMetrics,
    /// The envelope that was asserted.
    pub envelope: Envelope,
    /// Violated bounds (empty ⇒ pass).
    pub violations: Vec<String>,
    /// Whether the case conformed.
    pub pass: bool,
}

/// The measured byzantine breaking point of one behavior: the smallest
/// compromised-host fraction that drove a case below its *honest-voter*
/// envelope. `None` means every tested fraction stayed inside it — the
/// tally tolerated the whole sweep.
#[derive(Debug, Clone, Serialize)]
pub struct BreakingPoint {
    /// The behavior label (`byz-liar`, `byz-mute`, …).
    pub behavior: &'static str,
    /// The smallest tested fraction outside the honest envelope.
    pub breaking_fraction: Option<f64>,
    /// The largest tested fraction that stayed inside it (`None`: every
    /// tested fraction broke).
    pub tolerated_fraction: Option<f64>,
    /// The largest fraction the grid tested (bounds the claim).
    pub max_tested_fraction: f64,
}

/// The whole grid's result.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Matrix master seed.
    pub seed: u64,
    /// Trials per case.
    pub trials: usize,
    /// Epochs per trial.
    pub epochs: usize,
    /// Per-case verdicts, grid order.
    pub cases: Vec<CaseOutcome>,
    /// Per-behavior byzantine breaking points (empty on honest-only
    /// grids).
    pub breaking_points: Vec<BreakingPoint>,
}

// Hand-written so `breaking_points` is *absent* (not `[]`) on
// honest-only grids: an honest matrix report serializes byte-identically
// to before the byzantine axis existed.
impl Serialize for MatrixReport {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("seed".to_string(), self.seed.to_value()),
            ("trials".to_string(), self.trials.to_value()),
            ("epochs".to_string(), self.epochs.to_value()),
            ("cases".to_string(), self.cases.to_value()),
        ];
        if !self.breaking_points.is_empty() {
            entries.push((
                "breaking_points".to_string(),
                self.breaking_points.to_value(),
            ));
        }
        serde::Value::Map(entries)
    }
}

impl MatrixReport {
    /// True when every case conformed.
    pub fn all_pass(&self) -> bool {
        self.cases.iter().all(|c| c.pass)
    }

    /// The failing cases.
    pub fn failures(&self) -> Vec<&CaseOutcome> {
        self.cases.iter().filter(|c| !c.pass).collect()
    }
}

/// Runs scenario-matrix grids through the sweep engine.
#[derive(Debug, Clone)]
pub struct MatrixRunner {
    engine: SweepEngine,
    /// Trials per case.
    pub trials: usize,
    /// Epochs per trial.
    pub epochs: usize,
    /// Matrix master seed.
    pub seed: u64,
    /// Epoch length on the fault-timeline clock (paper: 30 s).
    pub epoch_seconds: f64,
}

impl MatrixRunner {
    /// A runner with the conformance defaults (3 trials × 2 epochs).
    pub fn new(engine: SweepEngine) -> Self {
        Self {
            engine,
            trials: 3,
            epochs: 2,
            seed: 0x0007_3A7B,
            epoch_seconds: 30.0,
        }
    }

    /// Runs every case: the whole `(case × trial × epoch)` grid flattens
    /// into the unified epoch pool (a slow case never idles workers),
    /// partial reports merge in (trial, epoch) order per case — the same
    /// discipline that makes [`SweepEngine::run_experiment`]
    /// bit-identical at any thread count.
    pub fn run(&self, cases: &[ScenarioCase]) -> MatrixReport {
        for case in cases {
            case.params
                .validate()
                .unwrap_or_else(|e| panic!("{}: invalid topology: {e}", case.name));
        }
        let groups: Vec<EpochGroup<'_>> = cases
            .iter()
            .map(|case| EpochGroup {
                run: &case.run,
                params: case.params,
                master_seed: case.seed(self.seed),
                trials: self.trials,
                epochs: self.epochs,
                faults: GroupFaults::Timeline {
                    plan: &case.faults,
                    epoch_seconds: self.epoch_seconds,
                },
                tuning: StreamTuning::default(),
            })
            .collect();
        let results = run_epoch_grid(&self.engine, &groups);

        let mut outcomes: Vec<CaseOutcome> = Vec::with_capacity(cases.len());
        let mut reports: Vec<ExperimentReport> = cases
            .iter()
            .map(|c| ExperimentReport::empty_named(&c.name, &c.run.baselines))
            .collect();
        // Grid results arrive case-major, trials ascending — serial merge
        // order per case.
        for (report, result) in reports.iter_mut().zip(results) {
            for trial in result.trials {
                report.merge_trial(trial);
            }
        }
        // (behavior, fraction, within-honest-envelope) per byzantine case.
        let mut byz_samples: Vec<(&'static str, f64, bool)> = Vec::new();
        for (case, report) in cases.iter().zip(&reports) {
            let metrics = CaseMetrics::from_report(report);
            if let Some(honest) = &case.honest_envelope {
                if case.run.byzantine.enabled() {
                    byz_samples.push((
                        case.run.byzantine.label(),
                        case.run.byzantine.fraction,
                        honest.check(&metrics).is_empty(),
                    ));
                }
            }
            let violations = case.envelope.check(&metrics);
            outcomes.push(CaseOutcome {
                name: case.name.clone(),
                topology: case.topology,
                faults: case.fault_labels(),
                traffic: case.traffic,
                metrics,
                pass: violations.is_empty(),
                violations,
                envelope: case.envelope,
            });
        }
        MatrixReport {
            seed: self.seed,
            trials: self.trials,
            epochs: self.epochs,
            cases: outcomes,
            breaking_points: breaking_points(&byz_samples),
        }
    }
}

/// Folds per-case `(behavior, fraction, within-honest-envelope)` samples
/// into one [`BreakingPoint`] per behavior, in first-seen behavior order.
fn breaking_points(samples: &[(&'static str, f64, bool)]) -> Vec<BreakingPoint> {
    let mut points: Vec<BreakingPoint> = Vec::new();
    for &(behavior, fraction, within) in samples {
        let point = match points.iter_mut().find(|p| p.behavior == behavior) {
            Some(p) => p,
            None => {
                points.push(BreakingPoint {
                    behavior,
                    breaking_fraction: None,
                    tolerated_fraction: None,
                    max_tested_fraction: 0.0,
                });
                points.last_mut().expect("just pushed")
            }
        };
        point.max_tested_fraction = point.max_tested_fraction.max(fraction);
        if within {
            point.tolerated_fraction = Some(
                point
                    .tolerated_fraction
                    .map_or(fraction, |t| t.max(fraction)),
            );
        } else {
            point.breaking_fraction = Some(
                point
                    .breaking_fraction
                    .map_or(fraction, |b| b.min(fraction)),
            );
        }
    }
    points
}

/// Keeps the cases whose name contains `pat` (empty pattern keeps all).
pub fn filter_cases(cases: Vec<ScenarioCase>, pat: &str) -> Vec<ScenarioCase> {
    if pat.is_empty() {
        return cases;
    }
    cases.into_iter().filter(|c| c.name.contains(pat)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::standard_matrix;

    #[test]
    fn envelope_checks_floors_and_caps() {
        let env = Envelope {
            min_accuracy: Some(0.8),
            min_recall: Some(0.8),
            min_precision: None,
            max_blamed_per_epoch: 2.0,
            max_incorrect_noise_frac: 0.0,
        };
        let good = CaseMetrics {
            accuracy: Some(0.95),
            precision: Some(0.9),
            recall: Some(1.0),
            blamed_per_epoch: 1.0,
            noise_marked_incorrectly: 0,
            traced_flows: 100,
        };
        assert!(env.check(&good).is_empty());
        let bad = CaseMetrics {
            accuracy: Some(0.5),
            precision: None,
            recall: None,
            blamed_per_epoch: 5.0,
            noise_marked_incorrectly: 1,
            traced_flows: 100,
        };
        let violations = env.check(&bad);
        assert_eq!(violations.len(), 4, "{violations:?}");
    }

    #[test]
    fn envelope_from_bounds_tightens_in_regime() {
        let params = ClosParams::paper_sim();
        let strict = Envelope::from_bounds(&params, 1, 5e-3, 1e-8, (50, 100));
        // Deep in the proven regime: tight floors.
        assert_eq!(strict.min_accuracy, Some(0.75));
        // Noise far above the ceiling: the theorem is silent, envelope
        // relaxes.
        let loose = Envelope::from_bounds(&params, 1, 1e-4, 1e-2, (50, 100));
        assert_eq!(loose.min_accuracy, Some(0.5));
    }

    #[test]
    fn case_seed_is_name_derived_and_position_free() {
        let cases = standard_matrix();
        let a = &cases[0];
        let b = &cases[1];
        assert_ne!(a.seed(1), b.seed(1), "distinct names, distinct seeds");
        assert_ne!(a.seed(1), a.seed(2), "matrix seed mixes in");
        // Filtering does not move a case's seed.
        let filtered = filter_cases(cases.clone(), &cases[3].name);
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered[0].seed(7), cases[3].seed(7));
    }

    #[test]
    fn filter_matches_substrings() {
        let cases = standard_matrix();
        let all = filter_cases(cases.clone(), "");
        assert_eq!(all.len(), cases.len());
        let blackholes = filter_cases(cases, "blackhole");
        assert!(!blackholes.is_empty());
        assert!(blackholes.iter().all(|c| c.name.contains("blackhole")));
    }

    #[test]
    fn breaking_points_fold_per_behavior() {
        let samples = [
            ("byz-liar", 0.05, true),
            ("byz-liar", 0.10, true),
            ("byz-liar", 0.33, false),
            ("byz-liar", 0.50, false),
            ("byz-mute", 0.20, true),
            ("byz-mute", 0.50, true),
            ("byz-flip", 0.10, false),
        ];
        let points = breaking_points(&samples);
        assert_eq!(points.len(), 3);
        let liar = &points[0];
        assert_eq!(liar.behavior, "byz-liar");
        assert_eq!(liar.breaking_fraction, Some(0.33), "smallest failing");
        assert_eq!(liar.tolerated_fraction, Some(0.10), "largest passing");
        assert_eq!(liar.max_tested_fraction, 0.50);
        let mute = &points[1];
        assert_eq!(mute.breaking_fraction, None, "never broke");
        assert_eq!(mute.tolerated_fraction, Some(0.50));
        let flip = &points[2];
        assert_eq!(flip.breaking_fraction, Some(0.10));
        assert_eq!(flip.tolerated_fraction, None, "every fraction broke");
        assert!(breaking_points(&[]).is_empty());
    }

    #[test]
    fn honest_matrix_report_serializes_without_breaking_points() {
        let cases = filter_cases(standard_matrix(), "drop/k1");
        let mut runner = MatrixRunner::new(SweepEngine::serial());
        runner.trials = 1;
        runner.epochs = 1;
        let honest = runner.run(&cases[..1]);
        let json = serde_json::to_string(&honest).unwrap();
        assert!(
            !json.contains("breaking_points"),
            "honest reports must serialize byte-identically to the pre-axis format"
        );
        let byz = runner.run(&filter_cases(standard_matrix(), "byzantine/liar-50"));
        assert!(serde_json::to_string(&byz)
            .unwrap()
            .contains("breaking_points"));
    }

    #[test]
    fn one_case_runs_and_scores() {
        let cases = filter_cases(standard_matrix(), "drop/k1");
        assert!(!cases.is_empty());
        let mut runner = MatrixRunner::new(SweepEngine::serial());
        runner.trials = 1;
        runner.epochs = 1;
        let report = runner.run(&cases[..1]);
        assert_eq!(report.cases.len(), 1);
        let c = &report.cases[0];
        assert!(c.metrics.traced_flows > 0);
        assert!(c.metrics.accuracy.is_some());
    }
}
