//! The traced twins reproduce the real drivers' verdicts window for
//! window, and the traced run leaves a span file holding every layer.

use std::path::PathBuf;
use vigil_benchmark::run::{per_layer, RunSpec, PER_LAYER};
use vigil_benchmark::workloads::{Size, Workload};

fn traced(name: &str) -> (vigil_benchmark::run::RunResult, String) {
    let spec = RunSpec {
        workload: Workload::by_name(name).unwrap(),
        size: Size::Smoke,
        seed: 5,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    let (result, spans) = per_layer(&spec).unwrap();
    (result, std::fs::read_to_string(spans).unwrap())
}

fn assert_twin_matches(name: &str, layers: &[&str]) {
    let (result, spans) = traced(name);
    assert!(result.attempted > 1);
    assert_eq!(
        result.failed, 0,
        "{name}: twin verdicts differ from the real driver's"
    );
    assert_eq!(result.metrics.len(), PER_LAYER.len());
    for layer in layers {
        assert!(
            spans.lines().any(|l| l.split('\t').nth(1) == Some(layer)),
            "{name}: no {layer} span in the span file"
        );
    }
    let coverage = result.metric("core.trace_coverage").unwrap();
    assert!(coverage > 0.5, "{name}: coverage {coverage}");
}

const COMMON: [&str; 9] = [
    "window",
    "fabric.open",
    "fabric.finish",
    "agents.hub",
    "analysis.absorb",
    "analysis.close_window",
    "core.assemble",
    "core.evaluate",
    "topology.build",
];

#[test]
fn twin_matches_run_window_on_fabric_48k() {
    let mut layers = COMMON.to_vec();
    layers.extend([
        "fabric.next_batch",
        "fabric.materialize",
        "agents.dispatch",
        "agents.tick",
    ]);
    assert_twin_matches("fabric-48k", &layers);
}

#[test]
fn twin_matches_run_window_on_verdict_dense() {
    let mut layers = COMMON.to_vec();
    layers.extend([
        "fabric.next_batch",
        "agents.dispatch",
        "optim.integer_program",
    ]);
    assert_twin_matches("verdict-dense", &layers);
}

#[test]
fn twin_matches_run_window_on_byzantine_aos() {
    let mut layers = COMMON.to_vec();
    layers.extend(["fabric.next_chunk", "agents.adversary", "agents.dispatch"]);
    assert_twin_matches("byzantine-aos", &layers);
}

#[test]
fn collector_twin_matches_the_in_process_verdicts() {
    let mut layers = COMMON.to_vec();
    layers.extend(["fabric.next_batch", "wire.decode", "wire.encode"]);
    assert_twin_matches("collector-ingest", &layers);
    let (result, _) = traced("collector-ingest");
    assert_eq!(result.metric("core.collector_seq_gaps"), Some(0.0));
    assert_eq!(
        result.metric("core.collector_quarantined_frames"),
        Some(0.0)
    );
    assert!(result.metric("wire.bytes_per_event").unwrap() > 20.0);
}
