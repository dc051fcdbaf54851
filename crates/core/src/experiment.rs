//! Multi-trial experiment reports.
//!
//! Every figure in the paper's §6 is a sweep over one parameter, with
//! each point averaged over repeated simulation runs. An
//! [`ExperimentConfig`] describes one such point: `trials` independent
//! topologies/fault draws × `epochs` epochs each;
//! [`crate::sweep::SweepEngine::run_experiment`] runs it into an
//! [`ExperimentReport`] of per-method accuracy, precision and recall with
//! confidence intervals.
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
use crate::pool::EpochGroup;
use crate::run::RunConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use vigil_fabric::compose::CompiledFaults;
use vigil_fabric::faults::{FaultPlan, LinkFaults};
use vigil_stats::{DetectionOutcome, Summary};
use vigil_topology::params::ParamError;
use vigil_topology::{ClosParams, ClosTopology};

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
    /// independently reproducible. Runners do not draw from it
    /// themselves: they hold the [`Trial`] drawn from it.
    pub fn trial_rng(&self, trial: usize) -> ChaCha8Rng {
        crate::sweep::task_rng(self.seed, trial)
    }

    /// Trial `trial`'s world (see [`Trial`]). Errs when
    /// [`params`](Self::params) do not describe a Clos fabric.
    pub fn trial(&self, trial: usize) -> Result<Trial, ParamError> {
        Trial::draw(&EpochGroup::from_experiment(self), trial)
    }
}

/// One trial's world: topology and faults drawn from the trial RNG, each
/// epoch's traffic and drops from [`epoch_rng`](Self::epoch_rng). Every
/// runner — `stream_trial`, the epoch pool, agent and collector, `stream
/// --forever` — runs its windows in one, so they agree byte for byte.
#[derive(Debug)]
pub struct Trial {
    /// The trial's fabric.
    pub topo: ClosTopology,
    /// [`ExperimentConfig::trial_seed`]: the root of the trial's RNG tree.
    seed: u64,
    faults: CompiledFaults,
}

impl Trial {
    /// Draws trial `trial` of `group`: the topology seed first, then the
    /// fault plan compiled over the group's epochs.
    pub(crate) fn draw(group: &EpochGroup<'_>, trial: usize) -> Result<Self, ParamError> {
        let seed = crate::sweep::task_seed(group.master_seed, trial);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let topo = ClosTopology::new(group.params, rng.gen())?;
        let faults = group
            .faults
            .compile(&topo, group.epochs, group.epoch_seconds, &mut rng);
        Ok(Self { seed, topo, faults })
    }

    /// The RNG stream of epoch `epoch` ([`crate::sweep::epoch_rng`]).
    pub fn epoch_rng(&self, epoch: usize) -> ChaCha8Rng {
        crate::sweep::epoch_rng(self.seed, epoch)
    }

    /// The fault table epoch `epoch` runs against (a static plan's one
    /// table, borrowed).
    pub fn faults(&self, epoch: usize) -> Cow<'_, LinkFaults> {
        self.faults.epoch_faults(epoch)
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
    /// Folds one trial's pooled outcome in — the bridge between
    /// per-epoch metrics and the per-trial summaries the figures
    /// average. [`TrialAccumulator::finish`] is its caller.
    pub fn absorb_trial(&mut self, outcome: &DetectionOutcome) {
        if let Some(a) = outcome.accuracy.value() {
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
    /// shape [`merge_trial`](Self::merge_trial) needs; the epoch pool
    /// builds each group's report without a full [`ExperimentConfig`].
    pub(crate) fn empty_named(name: &str, baselines: &crate::run::Baselines) -> Self {
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
    vigil_out: DetectionOutcome,
    int_out: DetectionOutcome,
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
            vigil_out: DetectionOutcome::default(),
            int_out: DetectionOutcome::default(),
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
        self.vigil_out.accuracy.merge(er.vigil.accuracy);
        self.vigil_out.confusion.merge(er.vigil.confusion);
        if let Some(m) = &er.integer {
            self.int_out.accuracy.merge(m.accuracy);
            self.int_out.confusion.merge(m.confusion);
        }
        if let Some(m) = &er.binary {
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

    /// Seals the trial (per-trial summaries recorded) with the wall
    /// time the caller measured — the pool sums a trial's per-epoch
    /// times, since its epochs may run on different workers.
    pub fn finish(self, run_config: &RunConfig, trial: usize, wall_ms: f64) -> TrialReport {
        let method = |outcome: &DetectionOutcome| {
            let mut m = MethodReport::default();
            m.absorb_trial(outcome);
            m
        };
        let vigil = method(&self.vigil_out);
        let integer = run_config.baselines.integer.then(|| method(&self.int_out));
        let binary = run_config.baselines.binary.then(|| method(&self.bin_out));

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{stream_trial, StreamTuning};
    use crate::sweep::SweepEngine;
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

    fn run_experiment(config: &ExperimentConfig) -> ExperimentReport {
        SweepEngine::serial().run_experiment(config).0
    }

    #[test]
    fn experiment_aggregates_trials() {
        let report = run_experiment(&small_config());
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(report.vigil.accuracy.count(), 2, "one value per trial");
        assert!(report.vigil.pooled.accuracy.value().unwrap() > 0.5);
        assert!(report.integer.is_some());
        assert_eq!(report.noise_marked_incorrectly, 0);
        assert_eq!(report.vote_gaps.len(), 4, "single failure ⇒ gap per epoch");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_experiment(&small_config());
        let b = run_experiment(&small_config());
        assert_eq!(a.vigil.pooled.accuracy, b.vigil.pooled.accuracy);
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
