//! The unified epoch×trial work pool.
//!
//! Every runner that repeats epochs — [`crate::sweep::SweepEngine::run_experiment`],
//! [`crate::sweep::SweepEngine::run_sweep`], and the scenario
//! [`crate::matrix::MatrixRunner`] — flattens its work into one grid of
//! `(group, trial, epoch)` cells and feeds it through [`run_epoch_grid`].
//! Each group carries one [`CompositeFaultPlan`], compiled once per
//! trial; an experiment's [`FaultPlan`] enters in its composite form,
//! which draws exactly what [`FaultPlan::build`] draws. Every cell scores
//! from what its session keeps ([`RetainPolicy::EvidenceOnly`]), never
//! from the whole epoch's table.
//! Sharding at epoch granularity (instead of whole trials) keeps every
//! worker busy to the end of the run: a 3-trial × 2-epoch experiment on
//! 6 threads is 6 concurrent cells, not 3 busy workers and 3 idle ones.
//!
//! Determinism is carried by the seeding scheme, not the schedule: each
//! cell runs epoch `epoch` of its trial's [`Trial`] — drawn from
//! `(master, trial)` alone, its RNG stream a pure function of the
//! coordinates — and the session
//! machinery guarantees that a window run on a freshly rebuilt
//! [`StreamSession`] is byte-identical to one run on a session that
//! already served the trial's earlier epochs (agent budgets refresh on
//! epoch ticks; the ledger's cross-window ring and health EWMA never
//! leak into scored output). So any assignment of cells to workers
//! absorbs, in `(group, trial, epoch)` order, into exactly the serial
//! reference's report ([`crate::stream::stream_trial`]).
//!
//! Workers cache per-trial state ([`run_tasks_with`]'s worker-local
//! `S`): claiming a cell of the same `(group, trial)` as the previous
//! one reuses the trial, simulator scratch, and stream session —
//! the common case, since cells are claimed from an ascending counter.
//! A grid smaller than the engine leaves the surplus threads idle: the
//! cell is the unit of parallelism.
//!
//! [`run_tasks_with`]: crate::sweep::SweepEngine::run_tasks_with
//! [`FaultPlan`]: vigil_fabric::FaultPlan
//! [`FaultPlan::build`]: vigil_fabric::FaultPlan::build

use crate::evaluate::{evaluate_epoch, EpochReport};
use crate::experiment::{ExperimentConfig, ExperimentReport, Trial, TrialAccumulator};
use crate::run::RunConfig;
use crate::stream::{RetainPolicy, StreamSession, StreamStats, StreamTuning};
use crate::sweep::SweepEngine;
use std::borrow::Cow;
use vigil_fabric::flowsim::EpochScratch;
use vigil_fabric::CompositeFaultPlan;
use vigil_topology::ClosParams;

/// One homogeneous block of the grid: `trials × epochs` cells sharing a
/// config, topology parameters, and master seed. A sweep submits one
/// group per knob value; the matrix one per case.
#[derive(Debug, Clone)]
pub(crate) struct EpochGroup<'a> {
    /// The name the group's [`ExperimentReport`] carries.
    pub(crate) name: &'a str,
    /// Pipeline configuration every cell runs.
    pub(crate) run: &'a RunConfig,
    /// Topology parameters (a fresh topology is drawn per trial).
    pub(crate) params: ClosParams,
    /// Master seed; trial seeds derive via [`crate::sweep::task_seed`].
    pub(crate) master_seed: u64,
    /// Trials in this group.
    pub(crate) trials: usize,
    /// Epochs per trial.
    pub(crate) epochs: usize,
    /// The fault story, compiled once per trial.
    pub(crate) faults: Cow<'a, CompositeFaultPlan>,
    /// Epoch length on the fault timeline's clock (paper: 30 s).
    pub(crate) epoch_seconds: f64,
}

impl<'a> EpochGroup<'a> {
    /// The group an [`ExperimentConfig`] describes, its `FaultPlan` in
    /// composite form.
    pub(crate) fn from_experiment(config: &'a ExperimentConfig) -> Self {
        Self {
            name: &config.name,
            run: &config.run,
            params: config.params,
            master_seed: config.seed,
            trials: config.trials,
            epochs: config.epochs,
            faults: Cow::Owned(CompositeFaultPlan::from(&config.faults)),
            // A static plan never reads the clock.
            epoch_seconds: 30.0,
        }
    }
}

/// One group's assembled output: its report (trials merged in order)
/// plus the summed streaming counters of its cells.
#[derive(Debug)]
pub(crate) struct GroupResult {
    /// The group's report; timing carries per-trial wall time only.
    pub(crate) report: ExperimentReport,
    /// Service-mode counters over the group's cells.
    pub(crate) stats: StreamStats,
}

/// Everything a worker needs to run any epoch of one trial. Rebuilt when
/// a worker's claimed cell crosses a trial boundary; reused otherwise.
struct TrialContext {
    trial: Trial,
    session: StreamSession,
}

impl TrialContext {
    /// Trial `trial` of `group`, drawn as the serial reference
    /// ([`crate::stream::stream_trial`]) draws it.
    fn new(group: &EpochGroup<'_>, trial: usize) -> Self {
        let trial = Trial::draw(group, trial).expect("group parameters validated upstream");
        let session = StreamSession::new(
            &trial.topo,
            group.run,
            StreamTuning::default(),
            RetainPolicy::EvidenceOnly,
        );
        Self { trial, session }
    }
}

/// One worker's cached trial state (plus the key it was built for).
/// The simulator scratch lives here rather than in [`TrialContext`] so
/// its interned paths and compiled route tables survive trial switches:
/// trials share [`ClosParams`], so a worker crossing a trial boundary
/// keeps its arena and — when the down-link set repeats, as flap and
/// maintenance timelines make it do — its fault-keyed routing plans.
#[derive(Default)]
struct WorkerState {
    key: Option<(usize, usize)>,
    ctx: Option<TrialContext>,
    scratch: EpochScratch,
}

/// One cell's output, before assembly.
struct EpochUnit {
    report: EpochReport,
    stats: StreamStats,
    wall_ms: f64,
}

/// Runs every `(trial, epoch)` cell of every group across the engine's
/// workers and assembles one report per group. Cells are flattened
/// group-major, trial-major, epochs ascending, absorbed in exactly that
/// order and their trials merged in trial order — bit-identical to
/// running each group's trials serially, at any thread count.
pub(crate) fn run_epoch_grid(engine: &SweepEngine, groups: &[EpochGroup<'_>]) -> Vec<GroupResult> {
    let mut offsets: Vec<usize> = Vec::with_capacity(groups.len() + 1);
    let mut total = 0usize;
    offsets.push(0);
    for g in groups {
        total += g.trials * g.epochs;
        offsets.push(total);
    }

    let units = engine.run_tasks_with(total, WorkerState::default, |state, flat| {
        let gi = offsets.partition_point(|&o| o <= flat) - 1;
        let group = &groups[gi];
        let within = flat - offsets[gi];
        let trial = within / group.epochs.max(1);
        let epoch = within % group.epochs.max(1);

        if state.key != Some((gi, trial)) {
            state.ctx = Some(TrialContext::new(group, trial));
            state.key = Some((gi, trial));
        }
        let WorkerState { ctx, scratch, .. } = state;
        let ctx = ctx.as_mut().expect("context built above");

        let started = std::time::Instant::now();
        let TrialContext { trial, session } = ctx;
        let (faults, mut rng) = (trial.faults(epoch), trial.epoch_rng(epoch));
        let before = session.stats().clone();
        let run = session.run_window(&trial.topo, group.run, &faults, &mut rng, scratch);
        EpochUnit {
            report: evaluate_epoch(&run),
            stats: session.stats().delta_since(&before),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        }
    });

    // Assembly: units arrive in flat order, which is the serial runners'
    // absorb order per trial and merge order per group.
    let mut results = Vec::with_capacity(groups.len());
    let mut units = units.into_iter();
    for group in groups {
        let mut report = ExperimentReport::empty_named(group.name, &group.run.baselines);
        let mut stats = StreamStats::default();
        for trial in 0..group.trials {
            let mut acc = TrialAccumulator::new(group.epochs);
            let mut wall_ms = 0.0;
            for _ in 0..group.epochs {
                let unit = units.next().expect("one unit per grid cell");
                wall_ms += unit.wall_ms;
                stats.merge(&unit.stats);
                acc.absorb(unit.report);
            }
            report.merge_trial(acc.finish(group.run, trial, wall_ms));
        }
        results.push(GroupResult { report, stats });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use vigil_fabric::faults::{FaultPlan, RateRange};
    use vigil_fabric::traffic::{ConnCount, TrafficSpec};
    use vigil_topology::ClosParams;

    fn tiny_config(trials: usize, epochs: usize) -> ExperimentConfig {
        ExperimentConfig {
            name: "pool-test".into(),
            params: ClosParams::tiny(),
            faults: FaultPlan {
                failure_rate: RateRange::fixed(0.05),
                ..FaultPlan::paper_default(1)
            },
            run: RunConfig {
                traffic: TrafficSpec {
                    conns_per_host: ConnCount::Fixed(20),
                    ..TrafficSpec::paper_default()
                },
                ..RunConfig::default()
            },
            epochs,
            trials,
            seed: 23,
        }
    }

    /// The grid's absorb and merge order must equal the serial trial
    /// loop's ([`crate::stream::stream_trial`]): the same report (epoch
    /// vectors concatenated identically) at widths 1, 2, and
    /// wider-than-the-grid — and every cell's counters reach the group at
    /// every width.
    #[test]
    fn grid_reproduces_serial_trials_at_any_width() {
        let cfg = tiny_config(2, 2);
        let mut reference = ExperimentReport::empty(&cfg);
        for t in 0..cfg.trials {
            reference.merge_trial(crate::stream::stream_trial(&cfg, t, &StreamTuning::default()).0);
        }
        let reference = serde_json::to_string(&reference).unwrap();
        for threads in [1usize, 2, 8] {
            let engine = SweepEngine::new(threads);
            let groups = [EpochGroup::from_experiment(&cfg)];
            let result = run_epoch_grid(&engine, &groups)
                .pop()
                .expect("one group in, one result out");
            assert_eq!(result.report.timing.per_trial_ms.len(), cfg.trials);
            assert_eq!(
                result.stats.windows,
                (cfg.trials * cfg.epochs) as u64,
                "threads = {threads}"
            );
            assert_eq!(
                serde_json::to_string(&result.report).unwrap(),
                reference,
                "threads = {threads}"
            );
        }
    }

    /// An empty grid (zero trials or zero epochs) assembles empty
    /// results without claiming any cell.
    #[test]
    fn degenerate_grids_assemble_cleanly() {
        let engine = SweepEngine::new(4);
        let no_trials = tiny_config(0, 3);
        let groups = [EpochGroup::from_experiment(&no_trials)];
        let result = run_epoch_grid(&engine, &groups).pop().unwrap();
        assert!(result.report.timing.per_trial_ms.is_empty());

        let no_epochs = tiny_config(2, 0);
        let groups = [EpochGroup::from_experiment(&no_epochs)];
        let result = run_epoch_grid(&engine, &groups).pop().unwrap();
        assert_eq!(
            result.report.timing.per_trial_ms.len(),
            2,
            "empty trials still report"
        );
        assert!(result.report.epochs.is_empty());
    }
}
