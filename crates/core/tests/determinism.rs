//! The contract table: every driver, at every width and tuning the repo
//! promises, checked against its serial reference. The reference for an
//! experiment is [`stream_trial`] run for each trial and merged in trial
//! order; for a scenario-matrix case, whose composite fault plan has no
//! `ExperimentConfig` form, it is the same serial loop over the case's
//! compiled plan. The agent/collector fleet's reference is the trial-0
//! `stream_trial`. Each test checks one section of the table and asserts
//! once, naming every failing row.

use rand::Rng;
use serde::Serialize;
use vigil::evaluate::evaluate_epoch;
use vigil::matrix::CaseMetrics;
use vigil::prelude::*;
use vigil::{epoch_rng, AgentStats, CollectorStats, TrialAccumulator};
use vigil_agents::ByzantineSpec;

fn config() -> ExperimentConfig {
    ExperimentConfig {
        name: "honest".into(),
        params: ClosParams::tiny(),
        faults: FaultPlan {
            failure_rate: RateRange::fixed(0.02),
            ..FaultPlan::paper_default(2)
        },
        run: RunConfig {
            traffic: TrafficSpec {
                conns_per_host: ConnCount::Fixed(25),
                ..TrafficSpec::paper_default()
            },
            ..RunConfig::default()
        },
        epochs: 2,
        trials: 5,
        seed: 0xD37E_2026,
    }
}

/// The honest config, each byzantine behavior, and the SLB gate, which
/// defers agent dispatch to the window close.
fn configs() -> Vec<ExperimentConfig> {
    let mut configs = vec![config()];
    for spec in [
        ByzantineSpec::liars(0.2),
        ByzantineSpec::mutes(0.2),
        ByzantineSpec::flooders(0.2, 0.1),
        ByzantineSpec::flippers(0.2),
    ] {
        let mut cfg = config();
        cfg.name = spec.label().into();
        cfg.run.byzantine = spec;
        configs.push(cfg);
    }
    let mut gated = config();
    gated.name = "slb-gate".into();
    gated.run.slb = SlbModel::query_failures(0.4);
    configs.push(gated);
    configs
}

fn json(value: &impl Serialize) -> String {
    serde_json::to_string(value).unwrap()
}

/// The serial reference: [`stream_trial`] for every trial at `tuning`,
/// merged in trial order, plus the summed counters.
fn reference(cfg: &ExperimentConfig, tuning: &StreamTuning) -> (String, StreamStats) {
    let mut report = ExperimentReport::empty(cfg);
    let mut stats = StreamStats::default();
    for trial in 0..cfg.trials {
        let (partial, trial_stats) = stream_trial(cfg, trial, tuning);
        report.merge_trial(partial);
        stats.merge(&trial_stats);
    }
    (json(&report), stats)
}

/// A matrix case's serial reference: [`stream_trial`]'s loop — topology
/// and faults from the trial RNG, one session, each epoch on its own
/// [`epoch_rng`] stream — over the case's compiled composite plan.
fn case_reference(case: &ScenarioCase, runner: &MatrixRunner) -> String {
    let cfg = ExperimentConfig {
        name: case.name.clone(),
        params: case.params,
        run: case.run.clone(),
        epochs: runner.epochs,
        trials: runner.trials,
        seed: case.seed(runner.seed),
        ..ExperimentConfig::default()
    };
    let mut report = ExperimentReport::empty(&cfg);
    for trial in 0..cfg.trials {
        let mut rng = cfg.trial_rng(trial);
        let topo = ClosTopology::new(cfg.params, rng.gen()).unwrap();
        let plan = case
            .faults
            .compile(&topo, cfg.epochs, runner.epoch_seconds, &mut rng);
        let tuning = StreamTuning::default();
        let mut session = StreamSession::new(&topo, &cfg.run, tuning, RetainPolicy::EvidenceOnly);
        let mut scratch = EpochScratch::new();
        let mut acc = TrialAccumulator::new(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let mut erng = epoch_rng(cfg.trial_seed(trial), epoch);
            let faults = plan.epoch_faults(epoch);
            let run = session.run_window(&topo, &cfg.run, &faults, &mut erng, &mut scratch);
            acc.absorb(evaluate_epoch(&run));
        }
        report.merge_trial(acc.finish(&cfg.run, trial, 0.0));
    }
    json(&CaseMetrics {
        accuracy: report.vigil.pooled.accuracy.value(),
        precision: report.vigil.pooled.confusion.precision(),
        recall: report.vigil.pooled.confusion.recall(),
        blamed_per_epoch: report.detected_per_epoch.mean(),
        noise_marked_incorrectly: report.noise_marked_incorrectly,
        traced_flows: report.epochs.iter().map(|e| e.traced_flows as u64).sum(),
    })
}

/// `f` over every item, one scoped thread each: the references are
/// serial runs, so the table computes them side by side.
fn each<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items.iter().map(|x| scope.spawn(move || f(x))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The names of the rows that failed.
#[derive(Default)]
struct Table(Vec<String>);

impl Table {
    /// Row `name` holds when `got` serializes to the reference `want`.
    fn same(&mut self, name: String, got: &impl Serialize, want: &str) {
        if json(got) != want {
            self.0.push(name);
        }
    }

    /// Row `name` holds when `holds` does.
    fn check(&mut self, name: String, holds: bool) {
        if !holds {
            self.0.push(name);
        }
    }

    /// One assert, naming every failing row.
    fn holds(self) {
        assert!(self.0.is_empty(), "failing rows: {:#?}", self.0);
    }
}

/// Rows `run/<config>/width-<w>`: the experiment runner on each config
/// at each width against the config's reference, report and counters
/// alike. Counters also: one window per cell, nothing shed, and never a
/// whole epoch of flow records resident at once.
fn run_rows(configs: &[ExperimentConfig], widths: &[usize]) -> Table {
    let mut table = Table::default();
    let wants = each(configs, |c| {
        let (report, stats) = reference(c, &StreamTuning::default());
        (report, json(&stats))
    });
    let rows: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| widths.iter().map(move |&width| (c, width)))
        .collect();
    let runs = each(&rows, |&(c, width)| {
        SweepEngine::new(width).run_experiment(&configs[c])
    });
    for (&(c, width), (report, stats)) in rows.iter().zip(&runs) {
        let cfg = &configs[c];
        let row = format!("run/{}/width-{width}", cfg.name);
        table.same(row.clone(), report, &wants[c].0);
        table.same(format!("{row}: stream stats"), stats, &wants[c].1);
        let cells = (cfg.trials * cfg.epochs) as u64;
        table.check(
            format!("{row}: one window per cell"),
            stats.windows == cells,
        );
        table.check(format!("{row}: nothing shed"), stats.shed == 0);
        table.check(
            format!("{row}: peak resident below an epoch's flows"),
            stats.peak_resident_flows < stats.flows / stats.windows,
        );
    }
    table
}

/// Rows `matrix/width-<w>/<case>`: the matrix runner, 2 trials × 2
/// epochs, on the cases each pattern selects, each case's metrics
/// against its serial reference.
fn matrix_rows(patterns: &[&str], widths: &[usize]) -> Table {
    let mut table = Table::default();
    let mut cases = Vec::new();
    for pattern in patterns {
        let sample = vigil::matrix::filter_cases(scenarios::standard_matrix(), pattern);
        table.check(
            format!("matrix: a case matches {pattern}"),
            !sample.is_empty(),
        );
        cases.extend(sample);
    }
    let runner = |width| {
        let mut runner = MatrixRunner::new(SweepEngine::new(width));
        runner.trials = 2;
        runner.epochs = 2;
        runner
    };
    let wants = each(&cases, |c| case_reference(c, &runner(1)));
    let matrices = each(widths, |&width| runner(width).run(&cases));
    for (width, report) in widths.iter().zip(&matrices) {
        table.check(
            format!("matrix/width-{width}: one outcome per case"),
            report.cases.len() == cases.len(),
        );
        for (outcome, want) in report.cases.iter().zip(&wants) {
            let row = format!("matrix/width-{width}/{}", outcome.name);
            table.same(row, &outcome.metrics, want);
        }
        if patterns.iter().any(|p| p.starts_with("byzantine/")) {
            table.check(
                format!("matrix/width-{width}: the byzantine report carries breaking points"),
                json(&report).contains("breaking_points"),
            );
        }
    }
    table
}

/// What one loopback fleet run left: the collector's report and counters,
/// and every agent's counters.
#[cfg(unix)]
struct Fleet {
    report: String,
    stats: CollectorStats,
    agents: Vec<AgentStats>,
}

/// `agents` plain agents, each a contiguous share of trial 0's hosts,
/// streaming into one collector over the Unix socket `path`.
#[cfg(unix)]
fn fleet(cfg: &ExperimentConfig, agents: u32, path: &std::path::Path) -> Result<Fleet, String> {
    let hosts = ClosTopology::new(cfg.params, 0).unwrap().num_hosts() as u32;
    let endpoint = Endpoint::parse(path.to_str().ok_or("socket path")?);
    let listener = endpoint.bind().map_err(|e| e.to_string())?;
    let ccfg = CollectorConfig {
        agents: agents as usize,
        epochs: cfg.epochs,
        ..CollectorConfig::default()
    };
    let (outcome, agents) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..agents)
            .map(|i| {
                let spec = AgentSpec {
                    hosts: i * hosts / agents..(i + 1) * hosts / agents,
                    start_epoch: 0,
                    epochs: cfg.epochs,
                    chunk_flows: 128,
                };
                let endpoint = &endpoint;
                scope.spawn(move || run_agent(cfg, &spec, endpoint.connect()?))
            })
            .collect();
        let outcome = run_collector(cfg, &listener, &ccfg);
        let agents: Result<Vec<_>, _> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (outcome, agents)
    });
    let _ = std::fs::remove_file(path);
    match (outcome, agents) {
        (Ok(CollectorOutcome::Completed(report, stats)), Ok(agents)) => Ok(Fleet {
            report: json(&report),
            stats,
            agents,
        }),
        (Ok(CollectorOutcome::Paused(_)), _) => Err("the collector paused".into()),
        (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
    }
}

/// Rows `fleet/<config>/agents-<n>`: 2 and 3 plain agents into one
/// collector over a Unix socket, on every config, against the config's
/// trial-0 [`stream_trial`] reference. The host ranges' frames
/// interleave on the collector in an order the in-process session never
/// sees. Also: every agent sends every epoch with one flush each, and the
/// collector sheds nothing, sees no sequence gap and tallies evidence.
#[cfg(unix)]
#[test]
fn loopback_fleets_reproduce_the_stream() {
    let mut table = Table::default();
    let configs = configs();
    let wants = each(&configs, |cfg| {
        let (trial, _) = stream_trial(cfg, 0, &StreamTuning::default());
        let mut report = ExperimentReport::empty(cfg);
        report.merge_trial(trial);
        json(&report)
    });
    let rows: Vec<(usize, u32)> = (0..configs.len())
        .flat_map(|c| [2, 3].map(|n| (c, n)))
        .collect();
    let fleets = each(&rows, |&(c, n)| {
        let name = format!("vigil-fleet-{}-{c}-{n}.sock", std::process::id());
        fleet(&configs[c], n, &std::env::temp_dir().join(name))
    });
    for (&(c, n), fleet) in rows.iter().zip(fleets) {
        let cfg = &configs[c];
        let row = format!("fleet/{}/agents-{n}", cfg.name);
        let fleet = match fleet {
            Ok(fleet) => fleet,
            Err(e) => {
                table.check(format!("{row}: {e}"), false);
                continue;
            }
        };
        table.check(row.clone(), fleet.report == wants[c]);
        let epochs = cfg.epochs as u64;
        table.check(
            format!("{row}: every agent sent every epoch"),
            fleet.agents.iter().all(|a| a.epochs == cfg.epochs),
        );
        table.check(
            format!("{row}: one flush per epoch"),
            fleet.agents.iter().all(|a| a.flushes == epochs),
        );
        table.check(format!("{row}: nothing shed"), fleet.stats.shed == 0);
        table.check(format!("{row}: no sequence gap"), fleet.stats.seq_gaps == 0);
        table.check(format!("{row}: evidence tallied"), fleet.stats.evidence > 0);
    }
    table.holds();
}

#[test]
fn one_thread_and_four_threads_agree_exactly() {
    run_rows(&[config()], &[1, 4]).holds();
}

/// Width 2 is the first width where two workers race for the cells of
/// one trial, and the width every CI job pins.
#[test]
fn engine_reproduces_serial_runner() {
    run_rows(&[config()], &[2]).holds();
}

/// The SLB gate defers agent dispatch to the window close: the
/// pipeline's other dispatch path, at every width.
#[test]
fn stream_pipeline_reproduces_the_batch_experiment_exactly() {
    let last = configs().pop().unwrap();
    run_rows(&[last], &[1, 2, 4]).holds();
}

#[test]
fn byzantine_stream_reproduces_batch_for_every_behavior() {
    run_rows(&configs()[1..5], &[1, 2, 4]).holds();
}

/// One trial × one epoch on a 4-wide engine: three workers stay idle.
#[test]
fn more_threads_than_cells_matches_one_thread() {
    let mut lone = config();
    lone.name = "honest-1x1".into();
    lone.trials = 1;
    lone.epochs = 1;
    run_rows(&[lone], &[4]).holds();
}

/// Chunk size and hub depth are memory knobs, never science knobs:
/// every tuning reproduces the default tuning's reference.
#[test]
fn stream_chunk_and_hub_tuning_are_invisible() {
    let mut table = Table::default();
    let want = reference(&config(), &StreamTuning::default()).0;
    let tunings = [(1, 8), (37, 96), (5000, 10_000)];
    let runs = each(&tunings, |&(chunk_flows, hub_capacity)| {
        let tuning = StreamTuning {
            chunk_flows,
            hub_capacity,
        };
        reference(&config(), &tuning)
    });
    for ((chunk_flows, hub_capacity), (got, stats)) in tunings.iter().zip(runs) {
        let row = format!("stream_trial/tuning-{chunk_flows}x{hub_capacity}");
        table.check(row.clone(), got == want);
        table.check(format!("{row}: nothing shed"), stats.shed == 0);
    }
    table.holds();
}

/// A sweep's points, each against its own reference.
#[test]
fn sweep_grid_is_deterministic_across_thread_counts() {
    let mut table = Table::default();
    let point = |&k: &u32| ExperimentConfig {
        faults: FaultPlan {
            failure_rate: RateRange::fixed(0.02),
            ..FaultPlan::paper_default(k)
        },
        trials: 2,
        ..config()
    };
    let spec = SweepSpec::new("det", "#failures", vec![1u32, 2, 3], point);
    let wants = each(&spec.values, |k| {
        reference(&point(k), &StreamTuning::default()).0
    });
    let widths = [1, 4];
    let sweeps = each(&widths, |&width| SweepEngine::new(width).run_sweep(&spec));
    for (width, reports) in widths.iter().zip(&sweeps) {
        table.check(
            format!("sweep/width-{width}: one report per point"),
            reports.len() == 3,
        );
        for (i, (report, want)) in reports.iter().zip(&wants).enumerate() {
            table.same(format!("sweep/width-{width}/point-{i}"), report, want);
        }
    }
    table.holds();
}

/// Static, timeline, SLB-gated and degraded cases.
#[test]
fn matrix_runner_is_deterministic_across_thread_counts() {
    let patterns = ["flap/k1", "slb/q25", "degraded/drop-k2"];
    matrix_rows(&patterns, &[1, 2, 4]).holds();
}

#[test]
fn byzantine_matrix_is_deterministic_across_thread_counts() {
    let patterns = [
        "byzantine/liar-20",
        "byzantine/mute-50",
        "byzantine/flood-20",
        "byzantine/flip-10",
    ];
    matrix_rows(&patterns, &[1, 2, 4]).holds();
}

#[test]
fn pool_is_byte_identical_at_one_two_and_four_threads() {
    matrix_rows(&["drop/k1"], &[1, 2, 4]).holds();
}

#[test]
fn scratch_reuse_across_epochs_is_invisible() {
    // The allocation-free hot path threads one `EpochScratch` (flow-spec
    // buffer, compiled route tables, owned-path memo) through every
    // epoch of a trial. Reuse must be unobservable: a chain of
    // scratch-sharing epochs produces byte-identical reports to
    // fresh-scratch epochs on the same RNG stream — for the scored run
    // (evidence rows) and for the fabric's full table (every row).
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vigil_fabric::simulate_epoch;

    let cfg = config();
    let topo = ClosTopology::new(ClosParams::tiny(), 7).unwrap();
    let mut fault_rng = ChaCha8Rng::seed_from_u64(7);
    let faults = cfg.faults.build(&topo, &mut fault_rng);

    let mut fresh_rng = ChaCha8Rng::seed_from_u64(41);
    let mut shared_rng = ChaCha8Rng::seed_from_u64(41);
    let mut scratch = EpochScratch::new();
    let mut flows = 0u64;
    for epoch in 0..3 {
        let fresh = run_epoch(
            &topo,
            &faults,
            &cfg.run,
            &mut fresh_rng,
            &mut EpochScratch::new(),
        );
        flows += fresh.outcome.flows.len() as u64;
        let shared = run_epoch(&topo, &faults, &cfg.run, &mut shared_rng, &mut scratch);
        assert_eq!(
            fresh.reports, shared.reports,
            "epoch {epoch}: scratch reuse changed the reports"
        );
        assert_eq!(
            fresh.outcome.flows, shared.outcome.flows,
            "epoch {epoch}: scratch reuse changed the simulated flows"
        );
        assert_eq!(
            fresh.detection.detected_links(),
            shared.detection.detected_links(),
            "epoch {epoch}: scratch reuse changed the detections"
        );
    }
    // The warm scratch compiled its route table once and reused it.
    let stats = scratch.route_cache_stats();
    assert_eq!(stats.compiles, 1, "static faults compile one table");
    assert_eq!(stats.table_hits, 2, "epochs 1 and 2 reuse it warm");
    // `run_epoch` materializes exactly the rows it keeps, so each kept
    // flow's owned path was either built (once per distinct route) or
    // shared from the memo.
    assert_eq!(scratch.interned_paths() as u64, stats.path_misses);
    assert_eq!(stats.path_hits + stats.path_misses, flows);
    assert!(stats.path_misses > 0, "three epochs must build paths");
    assert!(stats.path_hits > 0, "flows on a repeated route share it");

    // The full table: every row of a scratch-sharing chain equals its
    // fresh-scratch twin, and every row's path went through the memo.
    let mut fresh_rng = ChaCha8Rng::seed_from_u64(41);
    let mut shared_rng = ChaCha8Rng::seed_from_u64(41);
    let mut scratch = EpochScratch::new();
    let mut flows = 0u64;
    let (traffic, sim) = (&cfg.run.traffic, &cfg.run.sim);
    for epoch in 0..3 {
        let fresh = simulate_epoch(
            &topo,
            &faults,
            traffic,
            sim,
            &mut fresh_rng,
            &mut EpochScratch::new(),
        );
        flows += fresh.flows.len() as u64;
        let shared = simulate_epoch(&topo, &faults, traffic, sim, &mut shared_rng, &mut scratch);
        assert_eq!(
            fresh.flows, shared.flows,
            "epoch {epoch}: scratch reuse changed the full flow table"
        );
    }
    let stats = scratch.route_cache_stats();
    assert_eq!((stats.compiles, stats.table_hits), (1, 2));
    assert_eq!(scratch.interned_paths() as u64, stats.path_misses);
    assert_eq!(stats.path_hits + stats.path_misses, flows);
}
