//! The parallel sweep engine: shard independent trials across worker
//! threads, merge in deterministic order.
//!
//! 007 itself is embarrassingly parallel — a fleet of independent host
//! agents feeding one analysis agent (the paper's Figure 2) — and so is
//! its evaluation: every §6 figure is a sweep over one knob, each point
//! averaged over independent trials. [`SweepEngine`] exploits that shape:
//!
//! * [`SweepEngine::run_tasks`] is the primitive — a deterministic
//!   parallel index map. Workers claim task indices from a shared atomic
//!   counter (dynamic load balancing), results fan into the main thread
//!   over a crossbeam channel and are re-ordered by index, so the output
//!   is always `[f(0), f(1), …, f(n-1)]` regardless of scheduling.
//! * [`SweepEngine::run_experiment`] is the one experiment runner: it
//!   shards one config's `(trial, epoch)` cells over the epoch pool.
//!   Each trial is drawn from the master seed and its index alone
//!   ([`ExperimentConfig::trial`]), each epoch from
//!   [`epoch_rng`], and partial reports merge in trial order, so the
//!   report is **bit-identical** to the serial reference
//!   ([`crate::stream::stream_trial`]) at any thread count.
//! * [`SweepEngine::run_sweep`] runs a declarative [`SweepSpec`] — knob
//!   name, values, config mutator — flattening every point's trials into
//!   one task grid so a slow point cannot leave workers idle.
//!
//! The engine's width is its constructor's argument; the front door
//! (`vigil-sim`) resolves it from `--threads`, `VIGIL_THREADS` or the
//! machine's parallelism.

use crate::experiment::{ExperimentConfig, ExperimentReport};
use crate::pool::{run_epoch_grid, EpochGroup, GroupResult};
use crate::stream::StreamStats;
use crossbeam::channel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The golden-ratio multiplier every derived seed mixes with (the
/// Weyl-sequence constant ⌊2⁶⁴/φ⌋).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives task `index`'s seed from the master seed — the golden-ratio
/// multiply-XOR shared by trial seeding ([`ExperimentConfig::trial_rng`])
/// and matrix case seeding. Pure and position-free: any task's seed is
/// computable without running the tasks before it.
pub fn task_seed(master_seed: u64, index: usize) -> u64 {
    master_seed ^ (index as u64).wrapping_mul(GOLDEN)
}

/// Per-task RNG for custom replays driven through
/// [`SweepEngine::run_tasks`]: seeds from [`task_seed`] so tasks draw
/// independent streams in any execution order.
pub fn task_rng(master_seed: u64, index: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(task_seed(master_seed, index))
}

/// The RNG for one epoch of one trial, derived from the trial's seed and
/// the epoch index alone — the seeding scheme that makes epochs (not
/// trials) the unit of parallelism: any epoch of any trial is
/// independently reproducible without replaying its predecessors.
///
/// The trial seed is scrambled (multiply + xor-shift) before the epoch
/// term is mixed in. A naive `trial_seed ^ (epoch+1)·G` would collide
/// systematically: with `trial_seed = master ^ trial·G`, every trial `t`
/// at epoch `t−1` would fold back to the master seed.
pub fn epoch_rng(trial_seed: u64, epoch: usize) -> ChaCha8Rng {
    let mut t = trial_seed.wrapping_mul(GOLDEN);
    t ^= t >> 32;
    ChaCha8Rng::seed_from_u64(t ^ ((epoch as u64) + 1).wrapping_mul(GOLDEN))
}

/// A declarative parameter sweep: one knob, its values, and how each
/// value becomes an [`ExperimentConfig`].
///
/// `id` doubles as the output-path stem (`results/<id>.json`) for the
/// figure catalogue; `knob` labels the x-axis column in printed tables.
pub struct SweepSpec<'a, X> {
    /// Output identifier (e.g. `"fig05a"`).
    pub id: &'a str,
    /// The swept knob's display name (e.g. `"drop rate (%)"`).
    pub knob: &'a str,
    /// The knob values, one experiment point each.
    pub values: Vec<X>,
    /// Maps a knob value to the experiment to run at that point.
    #[allow(clippy::type_complexity)]
    pub config: Box<dyn Fn(&X) -> ExperimentConfig + Sync + 'a>,
}

impl<'a, X> SweepSpec<'a, X> {
    /// Builds a spec from the knob values and the config mutator.
    pub fn new(
        id: &'a str,
        knob: &'a str,
        values: Vec<X>,
        config: impl Fn(&X) -> ExperimentConfig + Sync + 'a,
    ) -> Self {
        Self {
            id,
            knob,
            values,
            config: Box::new(config),
        }
    }
}

/// The multi-threaded trial executor shared by the CLI and all figure
/// binaries.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    threads: NonZeroUsize,
}

impl SweepEngine {
    /// An engine with exactly `threads` workers (0 is clamped to 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// A single-threaded engine (the deterministic reference).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Worker threads this engine runs.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Deterministic parallel index map: returns
    /// `[task(0), task(1), …, task(n-1)]`, computed on up to
    /// [`Self::threads`] workers. Task order in the output never depends
    /// on scheduling; a panicking task propagates the panic.
    pub fn run_tasks<T, F>(&self, n: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_tasks_with(n, || (), move |_, i| task(i))
    }

    /// [`run_tasks`](Self::run_tasks) with worker-local state: every
    /// worker thread calls `init` once and threads its `&mut S` through
    /// each task it claims. The epoch pool uses this to cache a trial's
    /// topology, session, and scratch across consecutively-claimed
    /// epochs — state reuse that is observable only as speed, never in
    /// the results (tasks must not let `S` change their output).
    pub fn run_tasks_with<S, T, I, F>(&self, n: usize, init: I, task: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let workers = self.threads.get().min(n);
        if workers <= 1 {
            let mut state = init();
            return (0..n).map(|i| task(&mut state, i)).collect();
        }

        let next = AtomicUsize::new(0);
        let (tx, rx) = channel::unbounded::<(usize, T)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let init = &init;
                let task = &task;
                scope.spawn(move || {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // A send only fails when the collector is gone,
                        // i.e. the scope is already unwinding; stop
                        // quietly then.
                        if tx.send((i, task(&mut state, i))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
        });

        // All workers joined at scope exit: every result is queued.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        while let Ok((i, value)) = rx.try_recv() {
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task index completed"))
            .collect()
    }

    /// Runs one config through the unified epoch×trial pool: every
    /// `(trial, epoch)` pair is one task, so parallelism reaches inside
    /// trials. Partial reports merge in (trial, epoch) order —
    /// bit-identical to the serial reference
    /// ([`crate::stream::stream_trial`]) at any thread count. Returns
    /// the report and the summed service-mode counters of every window.
    pub fn run_experiment(&self, config: &ExperimentConfig) -> (ExperimentReport, StreamStats) {
        let started = std::time::Instant::now();
        let groups = [EpochGroup::from_experiment(config)];
        let GroupResult { mut report, stats } = run_epoch_grid(self, &groups)
            .pop()
            .expect("one group in, one result out");
        report.timing.total_ms = started.elapsed().as_secs_f64() * 1e3;
        report.timing.threads = self.threads();
        (report, stats)
    }

    /// Runs a declarative sweep: every `(point, trial, epoch)` triple
    /// becomes one task in a flattened grid, so parallelism spans the
    /// whole figure rather than one point at a time. Returns one report
    /// per knob value, in `spec.values` order, each bit-identical to
    /// running [`Self::run_experiment`] on that point alone.
    pub fn run_sweep<X>(&self, spec: &SweepSpec<'_, X>) -> Vec<ExperimentReport> {
        let started = std::time::Instant::now();
        let configs: Vec<ExperimentConfig> = spec.values.iter().map(|x| (spec.config)(x)).collect();

        let groups: Vec<EpochGroup<'_>> = configs.iter().map(EpochGroup::from_experiment).collect();
        let mut reports: Vec<ExperimentReport> = run_epoch_grid(self, &groups)
            .into_iter()
            .map(|result| result.report)
            .collect();
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        for report in &mut reports {
            report.timing.total_ms = total_ms;
            report.timing.threads = self.threads();
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunConfig;
    use vigil_fabric::faults::{FaultPlan, RateRange};
    use vigil_fabric::traffic::{ConnCount, TrafficSpec};
    use vigil_topology::ClosParams;

    fn tiny_config(trials: usize) -> ExperimentConfig {
        ExperimentConfig {
            name: "sweep-test".into(),
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
            epochs: 1,
            trials,
            seed: 11,
        }
    }

    #[test]
    fn run_tasks_preserves_index_order() {
        let engine = SweepEngine::new(4);
        let out = engine.run_tasks(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_tasks_with_threads_worker_state() {
        // Worker-local state persists across the tasks one worker claims
        // (each task sees how many the same worker ran before it), and
        // results still come back in index order.
        let engine = SweepEngine::new(3);
        let out = engine.run_tasks_with(
            50,
            || 0usize,
            |count, i| {
                *count += 1;
                (i, *count)
            },
        );
        assert_eq!(out.len(), 50);
        for (idx, (i, count)) in out.iter().enumerate() {
            assert_eq!(*i, idx);
            assert!(*count >= 1 && *count <= 50);
        }
        // Serial: one state serves every task, so counts are 1..=n.
        let serial = SweepEngine::serial().run_tasks_with(
            5,
            || 0usize,
            |count, i| {
                *count += 1;
                (i, *count)
            },
        );
        assert_eq!(serial, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn epoch_seeds_are_unique_across_the_grid() {
        // No (trial, epoch) pair may share an RNG stream with another —
        // including the degenerate diagonal that a naive xor derivation
        // collides on (trial t, epoch t−1 folding back to the master).
        use rand::Rng;
        let master = 0xD37E_2026u64;
        let mut seen = std::collections::HashSet::new();
        for trial in 0..64usize {
            let trial_seed = task_seed(master, trial);
            for epoch in 0..64usize {
                let mut rng = epoch_rng(trial_seed, epoch);
                let first: u64 = rng.gen();
                assert!(
                    seen.insert(first),
                    "trial {trial} epoch {epoch} collided with an earlier stream"
                );
            }
        }
    }

    #[test]
    fn run_tasks_handles_fewer_tasks_than_threads() {
        let engine = SweepEngine::new(8);
        assert_eq!(engine.run_tasks(2, |i| i), vec![0, 1]);
        assert!(engine.run_tasks(0, |i| i).is_empty());
    }

    #[test]
    fn thread_count_is_clamped_to_one() {
        assert_eq!(SweepEngine::new(0).threads(), 1);
        assert_eq!(SweepEngine::serial().threads(), 1);
    }

    #[test]
    fn parallel_experiment_matches_serial_bit_for_bit() {
        let cfg = tiny_config(4);
        let (serial, _) = SweepEngine::serial().run_experiment(&cfg);
        let (parallel, _) = SweepEngine::new(4).run_experiment(&cfg);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
        assert_eq!(parallel.timing.per_trial_ms.len(), 4);
        assert_eq!(parallel.timing.threads, 4);
    }

    #[test]
    fn sweep_points_match_individual_experiments() {
        let spec = SweepSpec::new("test", "trials", vec![1usize, 2, 3], |&t| tiny_config(t));
        let engine = SweepEngine::new(3);
        let reports = engine.run_sweep(&spec);
        assert_eq!(reports.len(), 3);
        for (i, &trials) in spec.values.iter().enumerate() {
            let (lone, _) = SweepEngine::serial().run_experiment(&tiny_config(trials));
            assert_eq!(
                serde_json::to_string(&reports[i]).unwrap(),
                serde_json::to_string(&lone).unwrap(),
                "sweep point {i} diverged from its standalone run"
            );
        }
    }
}
