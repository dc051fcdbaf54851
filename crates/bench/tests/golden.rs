//! Golden-file regression tests for the figure catalogue.
//!
//! Every catalogue entry runs in-process at the pinned golden scale —
//! fast, 1 trial, 1 epoch, on a 2-worker engine — and each artifact it
//! returns must equal `tests/golden/<id>.json` **byte for byte**, the
//! bytes `vigil-sim figures` writes to `results/<id>.json`. On a mismatch
//! the message names the first differing JSON path.
//!
//! The simulation stack is deterministic end to end (vendored ChaCha8,
//! no ambient entropy, IEEE float ops), so any mismatch is a real
//! behavior change. To regenerate after an *intentional* change:
//!
//! ```text
//! VIGIL_FAST=1 VIGIL_TRIALS=1 VIGIL_EPOCHS=1 VIGIL_THREADS=2 \
//!   cargo run --release --bin vigil-sim -- figures --only <id>
//! cp results/<artifact>.json crates/bench/tests/golden/
//! ```

use serde_json::Value;
use std::path::{Path, PathBuf};
use vigil::SweepEngine;
use vigil_bench::{figure, Artifact, FIGURES};

/// Runs one entry at the golden scale on `threads` workers.
fn run_pinned(id: &str, threads: usize) -> Vec<Artifact> {
    let fig = figure(id).expect("catalogued");
    let artifacts = (fig.run)(
        fig.scale(true, Some(1), Some(1)),
        &SweepEngine::new(threads),
    )
    .unwrap_or_else(|e| panic!("{id} failed: {e}"));
    let ids: Vec<&str> = artifacts.iter().map(|a| a.id.as_str()).collect();
    assert_eq!(
        ids, fig.outputs,
        "{id} returned other artifacts than it declares"
    );
    artifacts
}

fn golden_path(id: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.json"))
}

/// Recursively locates the first difference, returning its JSON path —
/// the "clear diff message" a bytes-differ assert cannot give.
fn first_diff(path: &str, golden: &Value, actual: &Value) -> Option<String> {
    match (golden, actual) {
        (Value::Map(g), Value::Map(a)) => {
            for (k, gv) in g {
                let Some(av) = actual.get(k) else {
                    return Some(format!("{path}.{k}: missing from actual output"));
                };
                if let Some(d) = first_diff(&format!("{path}.{k}"), gv, av) {
                    return Some(d);
                }
            }
            for (k, _) in a {
                if golden.get(k).is_none() {
                    return Some(format!("{path}.{k}: unexpected new key"));
                }
            }
            None
        }
        (Value::Seq(g), Value::Seq(a)) => {
            if g.len() != a.len() {
                return Some(format!(
                    "{path}: length {} in golden vs {} in actual",
                    g.len(),
                    a.len()
                ));
            }
            g.iter()
                .zip(a)
                .enumerate()
                .find_map(|(i, (gv, av))| first_diff(&format!("{path}[{i}]"), gv, av))
        }
        _ => (golden != actual).then(|| format!("{path}: golden {golden:?} vs actual {actual:?}")),
    }
}

/// Panics unless `artifact` is byte-identical to its golden.
fn assert_golden(artifact: &Artifact) {
    let Artifact { id, json } = artifact;
    let path = golden_path(id);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if golden == *json {
        return;
    }
    let parse = |text: &str| serde_json::from_str::<Value>(text).expect("valid JSON");
    let diff = first_diff(id, &parse(&golden), &parse(json))
        .unwrap_or_else(|| format!("{id}: same values, different bytes"));
    panic!(
        "{id}.json diverged from its golden:\n  {diff}\n\
         If the change is intentional, regenerate it (see this file's header)."
    );
}

/// One test per catalogue entry, so entries run in parallel and a
/// failure names its figure.
macro_rules! goldens {
    ($($test:ident => $id:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                for artifact in run_pinned($id, 2) {
                    assert_golden(&artifact);
                }
            }
        )*

        /// The entries the tests above cover.
        const TESTED: &[&str] = &[$($id),*];
    };
}

goldens! {
    fig01_matches_golden => "fig01",
    fig03_matches_golden => "fig03",
    fig04_matches_golden => "fig04",
    fig05_matches_golden => "fig05",
    fig06_matches_golden => "fig06",
    fig07_matches_golden => "fig07",
    fig08_matches_golden => "fig08",
    fig09_matches_golden => "fig09",
    fig10_matches_golden => "fig10",
    fig11_matches_golden => "fig11",
    fig12_matches_golden => "fig12",
    sec6_7_matches_golden => "sec6_7",
    sec7_1_matches_golden => "sec7_1",
    sec7_2_matches_golden => "sec7_2",
    fig13_matches_golden => "fig13",
    sec7_3_matches_golden => "sec7_3",
    table1_matches_golden => "table1",
    sec8_2_matches_golden => "sec8_2",
    sec8_3_matches_golden => "sec8_3",
    fig14_matches_golden => "fig14",
    thm2_matches_golden => "thm2",
    ablation_matches_golden => "ablation",
}

#[test]
fn every_entry_and_every_golden_is_covered() {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    assert_eq!(ids, TESTED, "each catalogue entry needs a golden test");

    let mut declared: Vec<String> = FIGURES
        .iter()
        .flat_map(|f| f.outputs.iter().map(|o| format!("{o}.json")))
        .collect();
    declared.push("matrix.json".into()); // tests/matrix_conformance.rs
    declared.sort();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("golden dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    on_disk.sort();
    assert_eq!(declared, on_disk, "goldens and declared artifacts differ");
}

/// The sweep engine's contract at the catalogue level: the bytes do not
/// depend on the worker count.
#[test]
fn fig05_is_byte_identical_at_widths_1_and_4() {
    for threads in [1, 4] {
        for artifact in run_pinned("fig05", threads) {
            assert_golden(&artifact);
        }
    }
}

#[test]
fn diff_messages_are_path_precise() {
    let golden: Value = serde_json::from_str(r#"{"a": [1, {"b": 2.5}], "c": "x"}"#).unwrap();
    let same = golden.clone();
    assert_eq!(first_diff("root", &golden, &same), None);

    let changed: Value = serde_json::from_str(r#"{"a": [1, {"b": 3.5}], "c": "x"}"#).unwrap();
    let diff = first_diff("root", &golden, &changed).unwrap();
    assert!(diff.starts_with("root.a[1].b:"), "diff was: {diff}");

    let shorter: Value = serde_json::from_str(r#"{"a": [1], "c": "x"}"#).unwrap();
    let diff = first_diff("root", &golden, &shorter).unwrap();
    assert!(diff.contains("length"), "diff was: {diff}");
}
