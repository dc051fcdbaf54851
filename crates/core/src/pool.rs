//! The unified epoch×trial work pool.
//!
//! Every runner that repeats epochs — [`crate::sweep::SweepEngine::run_experiment`]
//! and [`crate::stream::stream_experiment`] (one body, [`run_experiment`]),
//! [`crate::sweep::SweepEngine::run_sweep`], and the scenario
//! [`crate::matrix::MatrixRunner`] — flattens its work into one grid of
//! `(group, trial, epoch)` cells and feeds it through
//! [`run_epoch_grid`]. Every cell scores from what its session keeps
//! ([`RetainPolicy::EvidenceOnly`]), never from the whole epoch's table.
//! Sharding at epoch granularity (instead of whole trials) keeps every
//! worker busy to the end of the run: a 3-trial × 2-epoch experiment on
//! 6 threads is 6 concurrent cells, not 3 busy workers and 3 idle ones.
//!
//! Determinism is carried by the seeding scheme, not the schedule: each
//! cell's RNG is [`crate::sweep::epoch_rng`]`(task_seed(master, trial),
//! epoch)` — a pure function of its coordinates — and the session
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
//! one reuses the topology, simulator scratch, and stream session —
//! the common case, since cells are claimed from an ascending counter.
//! A grid smaller than the engine leaves the surplus threads idle: the
//! cell is the unit of parallelism.
//!
//! [`run_tasks_with`]: crate::sweep::SweepEngine::run_tasks_with

use crate::evaluate::{evaluate_epoch, EpochReport};
use crate::experiment::{ExperimentConfig, ExperimentReport, TrialAccumulator, TrialReport};
use crate::run::RunConfig;
use crate::stream::{RetainPolicy, StreamSession, StreamStats, StreamTuning};
use crate::sweep::{epoch_rng, task_seed, SweepEngine};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use vigil_fabric::compose::CompiledFaults;
use vigil_fabric::faults::{FaultPlan, LinkFaults};
use vigil_fabric::flowsim::EpochScratch;
use vigil_fabric::CompositeFaultPlan;
use vigil_topology::{ClosParams, ClosTopology};

/// How a group's per-trial fault tables are produced.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GroupFaults<'a> {
    /// One static table per trial, drawn by [`FaultPlan::build`] — the
    /// experiment runners.
    Static(&'a FaultPlan),
    /// A compiled fault timeline materializing per-epoch tables — the
    /// scenario matrix's flaps and maintenance windows.
    Timeline {
        /// The composite story to compile per trial.
        plan: &'a CompositeFaultPlan,
        /// Epoch length on the timeline clock (paper: 30 s).
        epoch_seconds: f64,
    },
}

/// One homogeneous block of the grid: `trials × epochs` cells sharing a
/// config, topology parameters, and master seed. A sweep submits one
/// group per knob value; the matrix one per case.
#[derive(Debug, Clone)]
pub(crate) struct EpochGroup<'a> {
    /// Pipeline configuration every cell runs.
    pub(crate) run: &'a RunConfig,
    /// Topology parameters (a fresh topology is drawn per trial).
    pub(crate) params: ClosParams,
    /// Master seed; trial seeds derive via [`task_seed`].
    pub(crate) master_seed: u64,
    /// Trials in this group.
    pub(crate) trials: usize,
    /// Epochs per trial.
    pub(crate) epochs: usize,
    /// Fault-table source.
    pub(crate) faults: GroupFaults<'a>,
    /// Streaming knobs for the per-worker sessions.
    pub(crate) tuning: StreamTuning,
}

impl<'a> EpochGroup<'a> {
    /// The group an [`ExperimentConfig`] describes.
    pub(crate) fn from_experiment(config: &'a ExperimentConfig, tuning: StreamTuning) -> Self {
        Self {
            run: &config.run,
            params: config.params,
            master_seed: config.seed,
            trials: config.trials,
            epochs: config.epochs,
            faults: GroupFaults::Static(&config.faults),
            tuning,
        }
    }
}

/// One group's assembled output: its trial reports (trial order) plus
/// the summed streaming counters of its cells.
#[derive(Debug)]
pub(crate) struct GroupResult {
    /// Per-trial reports, trials ascending.
    pub(crate) trials: Vec<TrialReport>,
    /// Service-mode counters over the group's cells.
    pub(crate) stats: StreamStats,
}

/// A trial's fault tables, materialized once per (worker, trial).
enum TrialFaults {
    Static(LinkFaults),
    Timeline(CompiledFaults),
}

impl TrialFaults {
    /// The table epoch `e` runs against.
    fn epoch(&self, e: usize) -> Cow<'_, LinkFaults> {
        match self {
            TrialFaults::Static(f) => Cow::Borrowed(f),
            TrialFaults::Timeline(c) => Cow::Owned(c.epoch_faults(e)),
        }
    }
}

/// Everything a worker needs to run any epoch of one trial. Rebuilt when
/// a worker's claimed cell crosses a trial boundary; reused otherwise.
struct TrialContext {
    trial_seed: u64,
    topo: ClosTopology,
    faults: TrialFaults,
    session: StreamSession,
}

/// Replays exactly the serial trial prologue ([`crate::stream::stream_trial`]):
/// topology seed and fault draws from the trial RNG, in that order.
fn build_trial(group: &EpochGroup<'_>, trial: usize) -> TrialContext {
    let trial_seed = task_seed(group.master_seed, trial);
    let mut rng = ChaCha8Rng::seed_from_u64(trial_seed);
    let topo =
        ClosTopology::new(group.params, rng.gen()).expect("group parameters validated upstream");
    let faults = match group.faults {
        GroupFaults::Static(plan) => TrialFaults::Static(plan.build(&topo, &mut rng)),
        GroupFaults::Timeline {
            plan,
            epoch_seconds,
        } => TrialFaults::Timeline(plan.compile(&topo, group.epochs, epoch_seconds, &mut rng)),
    };
    let session = StreamSession::new(
        &topo,
        group.run,
        group.tuning.clone(),
        RetainPolicy::EvidenceOnly,
    );
    TrialContext {
        trial_seed,
        topo,
        faults,
        session,
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
/// workers and assembles per-group results. Cells are flattened
/// group-major, trial-major, epochs ascending, and absorbed in exactly
/// that order — bit-identical to running each group's trials serially,
/// at any thread count.
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
            state.ctx = Some(build_trial(group, trial));
            state.key = Some((gi, trial));
        }
        let WorkerState { ctx, scratch, .. } = state;
        let ctx = ctx.as_mut().expect("context built above");

        let started = std::time::Instant::now();
        let mut rng = epoch_rng(ctx.trial_seed, epoch);
        let faults = ctx.faults.epoch(epoch);
        let before = ctx.session.stats().clone();
        let run = ctx
            .session
            .run_window(&ctx.topo, group.run, faults.as_ref(), &mut rng, scratch);
        EpochUnit {
            report: evaluate_epoch(&run),
            stats: ctx.session.stats().delta_since(&before),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        }
    });

    // Assembly: units arrive in flat order, which is the serial runners'
    // absorb order per trial and merge order per group.
    let mut results = Vec::with_capacity(groups.len());
    let mut units = units.into_iter();
    for group in groups {
        let mut trials = Vec::with_capacity(group.trials);
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
            trials.push(acc.finish_at(group.run, trial, wall_ms));
        }
        results.push(GroupResult { trials, stats });
    }
    results
}

/// One experiment through the grid, its trials merged in order — the
/// body behind both [`SweepEngine::run_experiment`] and
/// [`crate::stream::stream_experiment`].
pub(crate) fn run_experiment(
    engine: &SweepEngine,
    config: &ExperimentConfig,
    tuning: StreamTuning,
) -> (ExperimentReport, StreamStats) {
    let started = std::time::Instant::now();
    let groups = [EpochGroup::from_experiment(config, tuning)];
    let result = run_epoch_grid(engine, &groups)
        .pop()
        .expect("one group in, one result out");
    let mut report = ExperimentReport::empty(config);
    for trial in result.trials {
        report.merge_trial(trial);
    }
    report.timing.total_ms = started.elapsed().as_secs_f64() * 1e3;
    report.timing.threads = engine.threads();
    (report, result.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vigil_fabric::faults::RateRange;
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

    /// The grid's absorb order must equal the serial trial loop's
    /// ([`crate::stream::stream_trial`]): same trial reports (epoch
    /// vectors concatenated identically) at widths 1, 2, and
    /// wider-than-the-grid — and every cell's counters reach the group at
    /// every width.
    #[test]
    fn grid_reproduces_serial_trials_at_any_width() {
        let cfg = tiny_config(2, 2);
        let reference: Vec<TrialReport> = (0..cfg.trials)
            .map(|t| crate::stream::stream_trial(&cfg, t, &StreamTuning::default()).0)
            .collect();
        for threads in [1usize, 2, 8] {
            let engine = SweepEngine::new(threads);
            let groups = [EpochGroup::from_experiment(&cfg, StreamTuning::default())];
            let result = run_epoch_grid(&engine, &groups)
                .pop()
                .expect("one group in, one result out");
            assert_eq!(result.trials.len(), reference.len());
            assert_eq!(
                result.stats.windows,
                (cfg.trials * cfg.epochs) as u64,
                "threads = {threads}"
            );
            for (got, want) in result.trials.iter().zip(&reference) {
                assert_eq!(got.trial, want.trial);
                assert_eq!(got.vote_gaps, want.vote_gaps, "threads = {threads}");
                assert_eq!(
                    format!("{:?}", got.epochs),
                    format!("{:?}", want.epochs),
                    "threads = {threads}"
                );
            }
        }
    }

    /// An empty grid (zero trials or zero epochs) assembles empty
    /// results without claiming any cell.
    #[test]
    fn degenerate_grids_assemble_cleanly() {
        let engine = SweepEngine::new(4);
        let no_trials = tiny_config(0, 3);
        let groups = [EpochGroup::from_experiment(
            &no_trials,
            StreamTuning::default(),
        )];
        let result = run_epoch_grid(&engine, &groups).pop().unwrap();
        assert!(result.trials.is_empty());

        let no_epochs = tiny_config(2, 0);
        let groups = [EpochGroup::from_experiment(
            &no_epochs,
            StreamTuning::default(),
        )];
        let result = run_epoch_grid(&engine, &groups).pop().unwrap();
        assert_eq!(result.trials.len(), 2, "empty trials still report");
        assert!(result.trials.iter().all(|t| t.epochs.is_empty()));
    }
}
