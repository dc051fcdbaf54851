//! Determinism regression: sharding trials across threads must never
//! change the science. `threads = 1` and `threads = 4` runs of the same
//! config produce identical `ExperimentReport`s (full serde_json
//! equality), and the engine reproduces the plain serial runner.

use vigil::prelude::*;
use vigil_fabric::faults::{FaultPlan, RateRange};
use vigil_fabric::traffic::{ConnCount, TrafficSpec};

fn config() -> ExperimentConfig {
    ExperimentConfig {
        name: "determinism-regression".into(),
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

#[test]
fn one_thread_and_four_threads_agree_exactly() {
    let cfg = config();
    let one = SweepEngine::new(1).run_experiment(&cfg);
    let four = SweepEngine::new(4).run_experiment(&cfg);
    assert_eq!(
        serde_json::to_string_pretty(&one).unwrap(),
        serde_json::to_string_pretty(&four).unwrap(),
        "thread count leaked into the report"
    );
}

#[test]
fn engine_reproduces_serial_runner() {
    let cfg = config();
    let reference = run_experiment(&cfg);
    let engine = SweepEngine::new(3).run_experiment(&cfg);
    assert_eq!(
        serde_json::to_string(&reference).unwrap(),
        serde_json::to_string(&engine).unwrap()
    );
}

#[test]
fn scratch_reuse_across_epochs_is_invisible() {
    // The allocation-free hot path threads one `EpochScratch` (flow-spec
    // buffer, compiled route tables, owned-path memo) through every
    // epoch of a trial.
    // Reuse must be unobservable: a chain of scratch-sharing epochs has
    // to produce byte-identical reports to fresh-scratch epochs on the
    // same RNG stream, and the experiment JSON must stay identical at
    // threads 1 vs 4 (both run the scratch-reusing trial loop).
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vigil_fabric::EpochScratch;

    let cfg = config();
    let topo = ClosTopology::new(ClosParams::tiny(), 7).unwrap();
    let mut fault_rng = ChaCha8Rng::seed_from_u64(7);
    let faults = cfg.faults.build(&topo, &mut fault_rng);

    let mut fresh_rng = ChaCha8Rng::seed_from_u64(41);
    let mut shared_rng = ChaCha8Rng::seed_from_u64(41);
    let mut scratch = EpochScratch::new();
    let mut flows = 0u64;
    for epoch in 0..3 {
        let fresh = run_epoch(&topo, &faults, &cfg.run, &mut fresh_rng);
        flows += fresh.outcome.flows.len() as u64;
        let shared = run_epoch_with(&topo, &faults, &cfg.run, &mut shared_rng, &mut scratch);
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
    // `run_epoch_with` keeps every record, so each flow's owned path was
    // either built (once per distinct route) or shared from the memo.
    assert_eq!(scratch.interned_paths() as u64, stats.path_misses);
    assert_eq!(stats.path_hits + stats.path_misses, flows);
    assert!(stats.path_misses > 0, "three epochs must build paths");
    assert!(stats.path_hits > 0, "flows on a repeated route share it");

    // And through the engine: both thread counts run the reusing loop.
    let mut cfg = config();
    cfg.epochs = 3;
    let one = SweepEngine::new(1).run_experiment(&cfg);
    let four = SweepEngine::new(4).run_experiment(&cfg);
    assert_eq!(
        serde_json::to_string_pretty(&one).unwrap(),
        serde_json::to_string_pretty(&four).unwrap(),
        "scratch reuse perturbed thread-count determinism"
    );
}

#[test]
fn stream_pipeline_reproduces_the_batch_experiment_exactly() {
    // The streaming refactor's contract, at the report level: the
    // event-driven constant-memory pipeline produces the same
    // ExperimentReport JSON as the batch path, and is itself identical
    // at threads 1 vs 4 (trials shard through the same engine).
    let cfg = config();
    let batch = SweepEngine::new(1).run_experiment(&cfg);
    let (stream_one, stats_one) =
        stream_experiment(&cfg, &SweepEngine::new(1), &StreamTuning::default());
    let (stream_four, stats_four) =
        stream_experiment(&cfg, &SweepEngine::new(4), &StreamTuning::default());
    assert_eq!(
        serde_json::to_string_pretty(&batch).unwrap(),
        serde_json::to_string_pretty(&stream_one).unwrap(),
        "streaming changed the science"
    );
    assert_eq!(
        serde_json::to_string_pretty(&stream_one).unwrap(),
        serde_json::to_string_pretty(&stream_four).unwrap(),
        "thread count leaked into the streamed report"
    );
    // Constant-memory evidence: the stream never held a full epoch of
    // flow records, and the bounded hub never shed an event.
    let epoch_flows = stats_one.flows / stats_one.windows;
    assert!(stats_one.peak_resident_flows < epoch_flows);
    assert_eq!(stats_one.shed, 0);
    assert_eq!(stats_four.shed, 0);
}

#[test]
fn stream_chunk_and_hub_tuning_are_invisible() {
    // Chunk size and queue depth are memory knobs, not science knobs.
    let cfg = config();
    let reference = serde_json::to_string_pretty(
        &stream_experiment(&cfg, &SweepEngine::serial(), &StreamTuning::default()).0,
    )
    .unwrap();
    for (chunk_flows, hub_capacity) in [(1, 8), (37, 96), (5000, 10_000)] {
        let tuning = StreamTuning {
            chunk_flows,
            hub_capacity,
        };
        let (report, stats) = stream_experiment(&cfg, &SweepEngine::serial(), &tuning);
        assert_eq!(
            serde_json::to_string_pretty(&report).unwrap(),
            reference,
            "tuning ({chunk_flows}, {hub_capacity}) changed the report"
        );
        assert_eq!(stats.shed, 0, "driver must drain before the hub fills");
    }
}

#[test]
fn matrix_runner_is_deterministic_across_thread_counts() {
    // A sampled sub-grid spanning static, timeline, SLB-gated, and
    // degraded cases: threads 1 and 4 must produce identical JSON
    // (CaseMetrics include every float the conformance check reads).
    let sample = |pat: &str| {
        let cases = vigil::matrix::filter_cases(scenarios::standard_matrix(), pat);
        assert!(!cases.is_empty(), "no case matches {pat}");
        cases
    };
    let mut cases = Vec::new();
    for pat in ["drop/k1", "flap/k1", "slb/q25", "degraded/drop-k2"] {
        cases.extend(sample(pat));
    }
    let run = |threads: usize| {
        let mut runner = MatrixRunner::new(SweepEngine::new(threads));
        runner.trials = 2;
        runner.epochs = 2;
        serde_json::to_string_pretty(&runner.run(&cases)).unwrap()
    };
    assert_eq!(run(1), run(4), "thread count leaked into the matrix report");
}

#[test]
fn byzantine_matrix_is_deterministic_across_thread_counts() {
    // The adversary's decisions are pure functions of (case seed, host
    // id, flow tuple) — so the byzantine sub-grid, breaking points
    // included, must serialize byte-identically at any thread count.
    let mut cases = Vec::new();
    for pat in [
        "byzantine/liar-20",
        "byzantine/mute-50",
        "byzantine/flood-20",
        "byzantine/flip-10",
    ] {
        let sample = vigil::matrix::filter_cases(scenarios::standard_matrix(), pat);
        assert!(!sample.is_empty(), "no case matches {pat}");
        cases.extend(sample);
    }
    let run = |threads: usize| {
        let mut runner = MatrixRunner::new(SweepEngine::new(threads));
        runner.trials = 2;
        runner.epochs = 1;
        serde_json::to_string_pretty(&runner.run(&cases)).unwrap()
    };
    let one = run(1);
    assert_eq!(one, run(4), "thread count leaked into the byzantine grid");
    assert!(
        one.contains("breaking_points"),
        "byzantine report must carry the breaking-point fold"
    );
}

#[test]
fn byzantine_stream_reproduces_batch_for_every_behavior() {
    // Adversarial emission rides the same per-flow hook in both paths:
    // for each behavior, the streaming pipeline must reproduce the batch
    // report byte-for-byte, at one thread and at four.
    use vigil_agents::ByzantineSpec;
    for spec in [
        ByzantineSpec::liars(0.2),
        ByzantineSpec::mutes(0.2),
        ByzantineSpec::flooders(0.2, 0.1),
        ByzantineSpec::flippers(0.2),
    ] {
        let mut cfg = config();
        cfg.name = format!("determinism-{}", spec.label());
        cfg.run.byzantine = spec;
        let batch =
            serde_json::to_string_pretty(&SweepEngine::new(1).run_experiment(&cfg)).unwrap();
        let (stream_one, _) =
            stream_experiment(&cfg, &SweepEngine::new(1), &StreamTuning::default());
        let (stream_four, _) =
            stream_experiment(&cfg, &SweepEngine::new(4), &StreamTuning::default());
        assert_eq!(
            batch,
            serde_json::to_string_pretty(&stream_one).unwrap(),
            "{}: streaming changed the adversarial science",
            cfg.name
        );
        assert_eq!(
            serde_json::to_string_pretty(&stream_one).unwrap(),
            serde_json::to_string_pretty(&stream_four).unwrap(),
            "{}: thread count leaked into the adversarial stream",
            cfg.name
        );
    }
}

#[test]
fn pool_is_byte_identical_at_one_two_and_four_threads() {
    // The unified epoch×trial pool's contract across every front door:
    // run, stream, and matrix reports serialize byte-identically at
    // widths 1, 2, and 4. Width 2 matters separately from 4 — it is the
    // first width where two workers race for units of the same trial,
    // and the width every CI job pins.
    let cfg = config();
    let runs: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&t| serde_json::to_string_pretty(&SweepEngine::new(t).run_experiment(&cfg)).unwrap())
        .collect();
    assert_eq!(runs[0], runs[1], "run: width 2 diverged from width 1");
    assert_eq!(runs[0], runs[2], "run: width 4 diverged from width 1");

    let streams: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            let (report, stats) =
                stream_experiment(&cfg, &SweepEngine::new(t), &StreamTuning::default());
            assert_eq!(stats.shed, 0, "width {t} shed evidence");
            serde_json::to_string_pretty(&report).unwrap()
        })
        .collect();
    assert_eq!(streams[0], streams[1], "stream: width 2 diverged");
    assert_eq!(streams[0], streams[2], "stream: width 4 diverged");

    let cases = vigil::matrix::filter_cases(scenarios::standard_matrix(), "drop/k1");
    assert!(!cases.is_empty());
    let matrices: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            let mut runner = MatrixRunner::new(SweepEngine::new(t));
            runner.trials = 2;
            runner.epochs = 2;
            serde_json::to_string_pretty(&runner.run(&cases)).unwrap()
        })
        .collect();
    assert_eq!(matrices[0], matrices[1], "matrix: width 2 diverged");
    assert_eq!(matrices[0], matrices[2], "matrix: width 4 diverged");
}

#[test]
fn more_threads_than_cells_matches_one_thread() {
    // One trial × one epoch on a 4-wide engine leaves three pool workers
    // without a cell. The report must still match the fully serial run
    // byte for byte.
    let mut cfg = config();
    cfg.trials = 1;
    cfg.epochs = 1;
    let serial = SweepEngine::new(1).run_experiment(&cfg);
    let wide = SweepEngine::new(4).run_experiment(&cfg);
    assert_eq!(
        serde_json::to_string_pretty(&serial).unwrap(),
        serde_json::to_string_pretty(&wide).unwrap(),
        "idle workers changed the report"
    );
}

#[test]
fn sweep_grid_is_deterministic_across_thread_counts() {
    let spec = || {
        SweepSpec::new("det", "#failures", vec![1u32, 2, 3], |&k| {
            ExperimentConfig {
                faults: FaultPlan {
                    failure_rate: RateRange::fixed(0.02),
                    ..FaultPlan::paper_default(k)
                },
                trials: 2,
                ..config()
            }
        })
    };
    let one = SweepEngine::new(1).run_sweep(&spec());
    let four = SweepEngine::new(4).run_sweep(&spec());
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap()
        );
    }
}
