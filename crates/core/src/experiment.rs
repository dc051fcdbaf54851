//! Multi-trial experiment runner.
//!
//! Every figure in the paper's §6 is a sweep over one parameter, with
//! each point averaged over repeated simulation runs. [`run_experiment`]
//! produces one such point: `trials` independent topologies/fault draws ×
//! `epochs` epochs each, aggregated into per-method accuracy, precision
//! and recall with confidence intervals.
//!
//! Trials are independent by construction — each draws its own topology
//! seed and fault plan from a per-trial [`ChaCha8Rng`] derived from the
//! master seed — and every *epoch* inside a trial reseeds from
//! [`crate::sweep::epoch_rng`], so the runner is factored into one
//! trial's partial report ([`TrialReport`], built by a
//! [`TrialAccumulator`]) plus associative merges ([`MethodReport::merge`],
//! [`ExperimentReport::merge_trial`]). The [`crate::sweep::SweepEngine`]
//! shards the flattened (trial × epoch) grid across worker threads (see
//! `crate::pool`) and merges in (trial, epoch) order, which makes its
//! output bit-identical to the serial reference
//! ([`crate::stream::stream_trial`]) at any thread count.

use crate::evaluate::EpochReport;
use crate::run::RunConfig;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use vigil_fabric::faults::FaultPlan;
use vigil_stats::{DetectionOutcome, RatioMetric, Summary};
use vigil_topology::ClosParams;

/// Full experiment specification (one plotted point).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct ExperimentConfig {
    /// Label used in printed reports.
    pub name: String,
    /// Topology parameters.
    pub params: ClosParams,
    /// Fault injection plan (re-sampled per trial).
    pub faults: FaultPlan,
    /// Pipeline configuration.
    pub run: RunConfig,
    /// Epochs per trial.
    pub epochs: usize,
    /// Independent trials (fresh topology seed + fault draw).
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            name: "experiment".into(),
            params: ClosParams::paper_sim(),
            faults: FaultPlan::paper_default(1),
            run: RunConfig::default(),
            epochs: 1,
            trials: 3,
            seed: 0xC1_05,
        }
    }
}

impl ExperimentConfig {
    /// The trial's derived seed ([`crate::sweep::task_seed`]): the root
    /// of the trial's RNG tree — [`trial_rng`](Self::trial_rng) for
    /// topology and fault draws, [`crate::sweep::epoch_rng`] for each
    /// epoch's traffic and drop draws.
    pub fn trial_seed(&self, trial: usize) -> u64 {
        crate::sweep::task_seed(self.seed, trial)
    }

    /// The per-trial RNG: seeded from the master seed and the trial index
    /// only, so trials can run in any order (or on any thread) and still
    /// draw identical topologies and faults. Epoch bodies do **not** draw
    /// from this stream — each epoch reseeds via
    /// [`crate::sweep::epoch_rng`], making every `(trial, epoch)` cell
    /// independently reproducible.
    pub fn trial_rng(&self, trial: usize) -> ChaCha8Rng {
        crate::sweep::task_rng(self.seed, trial)
    }
}

/// Aggregated metrics for one method.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MethodReport {
    /// Per-trial accuracy values.
    pub accuracy: Summary,
    /// Per-trial precision values.
    pub precision: Summary,
    /// Per-trial recall values.
    pub recall: Summary,
    /// Counts pooled over every epoch of every trial.
    pub pooled: DetectionOutcome,
}

impl MethodReport {
    /// Folds one trial's accumulated accuracy/outcome in — the bridge
    /// between per-epoch metrics and the per-trial summaries the figures
    /// average. Public so alternative trial drivers (the scenario
    /// [`crate::matrix`]) can build [`TrialReport`]s the same way.
    pub fn absorb_trial(&mut self, acc: RatioMetric, outcome: &DetectionOutcome) {
        if let Some(a) = acc.value() {
            self.accuracy.record(a);
        }
        if let Some(p) = outcome.confusion.precision() {
            self.precision.record(p);
        }
        if let Some(r) = outcome.confusion.recall() {
            self.recall.record(r);
        }
        self.pooled.merge(outcome);
    }

    /// Merges another method report (associative; across trials or
    /// shards).
    pub fn merge(&mut self, other: &MethodReport) {
        self.accuracy.merge(&other.accuracy);
        self.precision.merge(&other.precision);
        self.recall.merge(&other.recall);
        self.pooled.merge(&other.pooled);
    }
}

/// Wall-clock accounting for one experiment run. Excluded from the
/// serialized report (`#[serde(skip)]`): timing varies run to run, while
/// the rest of the report is a pure function of the config — keeping it
/// out of the JSON is what lets a 4-thread run be byte-identical to a
/// 1-thread run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ExperimentTiming {
    /// Wall-clock milliseconds per trial, in trial order.
    pub per_trial_ms: Vec<f64>,
    /// End-to-end wall-clock milliseconds for the whole experiment.
    pub total_ms: f64,
    /// Worker threads the run was sharded over.
    pub threads: usize,
}

/// The result of one experiment point.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentReport {
    /// Experiment label.
    pub name: String,
    /// 007's metrics.
    pub vigil: MethodReport,
    /// Integer program (4) metrics, when enabled.
    pub integer: Option<MethodReport>,
    /// Binary program (3) metrics, when enabled.
    pub binary: Option<MethodReport>,
    /// Flows noise-marked across all epochs.
    pub noise_marked: u64,
    /// Noise marks that violated ground truth (paper: always 0).
    pub noise_marked_incorrectly: u64,
    /// Detected-links-per-epoch distribution (the §8.3 "0.45 ± 0.12").
    pub detected_per_epoch: Summary,
    /// Vote gaps from single-failure epochs (Figure 13's variable).
    pub vote_gaps: Vec<f64>,
    /// Per-epoch reports, in (trial-major) order, for custom analyses.
    pub epochs: Vec<EpochReport>,
    /// Wall-clock accounting (not serialized; see [`ExperimentTiming`]).
    #[serde(skip)]
    pub timing: ExperimentTiming,
}

impl ExperimentReport {
    /// An empty report for `config`, ready to absorb trials.
    pub fn empty(config: &ExperimentConfig) -> Self {
        Self::empty_named(&config.name, &config.run.baselines)
    }

    /// An empty report from just a name and the enabled baselines — the
    /// shape [`merge_trial`](Self::merge_trial) needs; the scenario
    /// matrix builds reports without a full [`ExperimentConfig`].
    pub fn empty_named(name: &str, baselines: &crate::run::Baselines) -> Self {
        Self {
            name: name.into(),
            vigil: MethodReport::default(),
            integer: baselines.integer.then(MethodReport::default),
            binary: baselines.binary.then(MethodReport::default),
            noise_marked: 0,
            noise_marked_incorrectly: 0,
            detected_per_epoch: Summary::new(),
            vote_gaps: Vec::new(),
            epochs: Vec::new(),
            timing: ExperimentTiming::default(),
        }
    }

    /// Convenience: pooled accuracy over everything (flows weighted
    /// equally), `None` when nothing was scored.
    pub fn pooled_accuracy(&self) -> Option<f64> {
        self.vigil.pooled.accuracy.value()
    }

    /// Folds one trial's partial report in. Merging trials 0..n in index
    /// order reproduces the serial runner exactly, whichever threads
    /// computed the partials.
    pub fn merge_trial(&mut self, trial: TrialReport) {
        self.vigil.merge(&trial.vigil);
        if let (Some(mine), Some(theirs)) = (self.integer.as_mut(), trial.integer.as_ref()) {
            mine.merge(theirs);
        }
        if let (Some(mine), Some(theirs)) = (self.binary.as_mut(), trial.binary.as_ref()) {
            mine.merge(theirs);
        }
        self.noise_marked += trial.noise_marked;
        self.noise_marked_incorrectly += trial.noise_marked_incorrectly;
        self.detected_per_epoch.merge(&trial.detected_per_epoch);
        self.vote_gaps.extend(trial.vote_gaps);
        self.epochs.extend(trial.epochs);
        self.timing.per_trial_ms.push(trial.wall_ms);
    }

    /// Merges a whole sibling report (associative). Both sides must come
    /// from the same config shape (same baselines enabled); trial-derived
    /// vectors concatenate in call order. Consumes `other` so the
    /// per-epoch reports move instead of cloning — sibling reports can
    /// carry thousands of epochs.
    pub fn merge(&mut self, other: ExperimentReport) {
        self.vigil.merge(&other.vigil);
        if let (Some(mine), Some(theirs)) = (self.integer.as_mut(), other.integer.as_ref()) {
            mine.merge(theirs);
        }
        if let (Some(mine), Some(theirs)) = (self.binary.as_mut(), other.binary.as_ref()) {
            mine.merge(theirs);
        }
        self.noise_marked += other.noise_marked;
        self.noise_marked_incorrectly += other.noise_marked_incorrectly;
        self.detected_per_epoch.merge(&other.detected_per_epoch);
        self.vote_gaps.extend(other.vote_gaps);
        self.epochs.extend(other.epochs);
        self.timing.per_trial_ms.extend(other.timing.per_trial_ms);
        self.timing.total_ms += other.timing.total_ms;
    }
}

/// One trial's contribution to an [`ExperimentReport`] — the unit the
/// sweep engine computes on worker threads and merges in trial order.
#[derive(Debug, Clone)]
pub struct TrialReport {
    /// Trial index within the experiment.
    pub trial: usize,
    /// 007's per-trial metrics (≤ 1 recorded value per summary).
    pub vigil: MethodReport,
    /// Integer program partials, when enabled.
    pub integer: Option<MethodReport>,
    /// Binary program partials, when enabled.
    pub binary: Option<MethodReport>,
    /// Flows noise-marked in this trial.
    pub noise_marked: u64,
    /// Noise marks violating ground truth in this trial.
    pub noise_marked_incorrectly: u64,
    /// Detected-links-per-epoch observations of this trial.
    pub detected_per_epoch: Summary,
    /// Vote gaps of this trial's single-failure epochs.
    pub vote_gaps: Vec<f64>,
    /// This trial's epoch reports, in epoch order.
    pub epochs: Vec<EpochReport>,
    /// Wall-clock milliseconds this trial took.
    pub wall_ms: f64,
}

/// Accumulates per-epoch reports into one trial's partial report — the
/// shared spine of the serial trial loop ([`crate::stream::stream_trial`])
/// and the epoch pool. Feeding the same [`EpochReport`]s in the same
/// order produces the same [`TrialReport`], whichever runner generated
/// them.
#[derive(Debug)]
pub struct TrialAccumulator {
    vigil_acc: RatioMetric,
    vigil_out: DetectionOutcome,
    int_acc: RatioMetric,
    int_out: DetectionOutcome,
    bin_acc: RatioMetric,
    bin_out: DetectionOutcome,
    noise_marked: u64,
    noise_marked_incorrectly: u64,
    detected_per_epoch: Summary,
    vote_gaps: Vec<f64>,
    epochs: Vec<EpochReport>,
}

impl TrialAccumulator {
    /// An empty accumulator (capacity hint only; any epoch count works).
    pub fn new(expected_epochs: usize) -> Self {
        Self {
            vigil_acc: RatioMetric::default(),
            vigil_out: DetectionOutcome::default(),
            int_acc: RatioMetric::default(),
            int_out: DetectionOutcome::default(),
            bin_acc: RatioMetric::default(),
            bin_out: DetectionOutcome::default(),
            noise_marked: 0,
            noise_marked_incorrectly: 0,
            detected_per_epoch: Summary::new(),
            vote_gaps: Vec::new(),
            epochs: Vec::with_capacity(expected_epochs),
        }
    }

    /// Folds one epoch's report in (epoch order matters for the
    /// concatenated vectors, exactly like the serial trial loop).
    pub fn absorb(&mut self, er: EpochReport) {
        self.vigil_acc.merge(er.vigil.accuracy);
        self.vigil_out.accuracy.merge(er.vigil.accuracy);
        self.vigil_out.confusion.merge(er.vigil.confusion);
        if let Some(m) = &er.integer {
            self.int_acc.merge(m.accuracy);
            self.int_out.accuracy.merge(m.accuracy);
            self.int_out.confusion.merge(m.confusion);
        }
        if let Some(m) = &er.binary {
            self.bin_acc.merge(m.accuracy);
            self.bin_out.accuracy.merge(m.accuracy);
            self.bin_out.confusion.merge(m.confusion);
        }
        self.noise_marked += er.noise_marked;
        self.noise_marked_incorrectly += er.noise_marked_incorrectly;
        self.detected_per_epoch.record(er.detected.len() as f64);
        if let Some(g) = er.vote_gap {
            self.vote_gaps.push(g);
        }
        self.epochs.push(er);
    }

    /// Seals the trial (per-trial summaries recorded, wall clock taken).
    pub fn finish(
        self,
        run_config: &RunConfig,
        trial: usize,
        started: std::time::Instant,
    ) -> TrialReport {
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        self.finish_at(run_config, trial, wall_ms)
    }

    /// Seals the trial with an explicitly measured wall-clock figure —
    /// for drivers (the `crate::pool` work queue) whose trial is spread
    /// over workers and therefore has no single `started` instant; the
    /// caller sums the per-epoch wall times instead.
    pub fn finish_at(self, run_config: &RunConfig, trial: usize, wall_ms: f64) -> TrialReport {
        let mut vigil = MethodReport::default();
        vigil.absorb_trial(self.vigil_acc, &self.vigil_out);
        let integer = run_config.baselines.integer.then(|| {
            let mut m = MethodReport::default();
            m.absorb_trial(self.int_acc, &self.int_out);
            m
        });
        let binary = run_config.baselines.binary.then(|| {
            let mut m = MethodReport::default();
            m.absorb_trial(self.bin_acc, &self.bin_out);
            m
        });

        TrialReport {
            trial,
            vigil,
            integer,
            binary,
            noise_marked: self.noise_marked,
            noise_marked_incorrectly: self.noise_marked_incorrectly,
            detected_per_epoch: self.detected_per_epoch,
            vote_gaps: self.vote_gaps,
            epochs: self.epochs,
            wall_ms,
        }
    }
}

/// Runs the experiment on the current thread. [`crate::sweep::SweepEngine`]
/// runs the same trials across workers with a bit-identical result.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentReport {
    crate::sweep::SweepEngine::serial().run_experiment(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{stream_trial, StreamTuning};
    use vigil_fabric::faults::RateRange;
    use vigil_fabric::traffic::{ConnCount, TrafficSpec};

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            name: "test".into(),
            params: ClosParams::tiny(),
            faults: FaultPlan {
                failure_rate: RateRange::fixed(0.05),
                ..FaultPlan::paper_default(1)
            },
            run: RunConfig {
                traffic: TrafficSpec {
                    conns_per_host: ConnCount::Fixed(25),
                    ..TrafficSpec::paper_default()
                },
                ..RunConfig::default()
            },
            epochs: 2,
            trials: 2,
            seed: 5,
        }
    }

    #[test]
    fn experiment_aggregates_trials() {
        let report = run_experiment(&small_config());
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(report.vigil.accuracy.count(), 2, "one value per trial");
        assert!(report.pooled_accuracy().unwrap() > 0.5);
        assert!(report.integer.is_some());
        assert_eq!(report.noise_marked_incorrectly, 0);
        assert_eq!(report.vote_gaps.len(), 4, "single failure ⇒ gap per epoch");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_experiment(&small_config());
        let b = run_experiment(&small_config());
        assert_eq!(a.pooled_accuracy(), b.pooled_accuracy());
        assert_eq!(a.vote_gaps, b.vote_gaps);
        assert_eq!(a.detected_per_epoch.mean(), b.detected_per_epoch.mean());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_experiment(&small_config());
        let mut cfg = small_config();
        cfg.seed = 6;
        let b = run_experiment(&cfg);
        // Vote gaps are continuous; collision means something is ignoring
        // the seed.
        assert_ne!(a.vote_gaps, b.vote_gaps);
    }

    #[test]
    fn trial_merge_matches_runner() {
        let cfg = small_config();
        let mut manual = ExperimentReport::empty(&cfg);
        for trial in 0..cfg.trials {
            manual.merge_trial(stream_trial(&cfg, trial, &StreamTuning::default()).0);
        }
        let auto = run_experiment(&cfg);
        assert_eq!(manual.vote_gaps, auto.vote_gaps);
        assert_eq!(manual.vigil.pooled.accuracy, auto.vigil.pooled.accuracy);
        assert_eq!(
            manual.detected_per_epoch.mean(),
            auto.detected_per_epoch.mean()
        );
    }

    #[test]
    fn report_merge_is_associative_on_counts() {
        let cfg = small_config();
        let trials: Vec<TrialReport> = (0..3)
            .map(|t| stream_trial(&cfg, t, &StreamTuning::default()).0)
            .collect();

        // (a ⊕ b) ⊕ c
        let mut left = ExperimentReport::empty(&cfg);
        left.merge_trial(trials[0].clone());
        left.merge_trial(trials[1].clone());
        let mut c_only = ExperimentReport::empty(&cfg);
        c_only.merge_trial(trials[2].clone());
        left.merge(c_only);

        // a ⊕ (b ⊕ c)
        let mut right = ExperimentReport::empty(&cfg);
        right.merge_trial(trials[0].clone());
        let mut bc = ExperimentReport::empty(&cfg);
        bc.merge_trial(trials[1].clone());
        bc.merge_trial(trials[2].clone());
        right.merge(bc);

        assert_eq!(left.vigil.pooled.accuracy, right.vigil.pooled.accuracy);
        assert_eq!(left.noise_marked, right.noise_marked);
        assert_eq!(left.vote_gaps, right.vote_gaps);
        assert_eq!(left.epochs.len(), right.epochs.len());
        assert_eq!(
            left.detected_per_epoch.count(),
            right.detected_per_epoch.count()
        );
    }

    #[test]
    fn per_trial_timing_recorded() {
        let report = run_experiment(&small_config());
        assert_eq!(report.timing.per_trial_ms.len(), 2);
        assert!(report.timing.per_trial_ms.iter().all(|ms| *ms > 0.0));
        assert!(report.timing.total_ms > 0.0);
        assert_eq!(report.timing.threads, 1);
    }

    #[test]
    fn timing_is_not_serialized() {
        let report = run_experiment(&small_config());
        let json = serde_json::to_string(&report).unwrap();
        assert!(
            !json.contains("per_trial_ms"),
            "timing must stay out of the JSON"
        );
        assert!(json.contains("vote_gaps"));
    }
}
