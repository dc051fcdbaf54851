//! Golden-file regression tests for the figure pipeline.
//!
//! Each test runs a figure binary in a scratch directory with a fully
//! pinned environment (`VIGIL_FAST=1 VIGIL_TRIALS=1 VIGIL_EPOCHS=1
//! VIGIL_THREADS=2` — the committed goldens were generated the same way;
//! thread count is pinned only for hygiene, output is thread-invariant)
//! and compares the emitted JSON against `tests/golden/<id>.json` as
//! **serde_json values**, not bytes, with a path-precise diff message.
//!
//! The simulation stack is deterministic end to end (vendored ChaCha8,
//! no ambient entropy, IEEE float ops), so any mismatch is a real
//! behavior change. To regenerate after an *intentional* change:
//!
//! ```text
//! VIGIL_FAST=1 VIGIL_TRIALS=1 VIGIL_EPOCHS=1 VIGIL_THREADS=2 \
//!   cargo run --release -p vigil_bench --bin <binary>
//! cp results/<id>.json crates/bench/tests/golden/
//! ```

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `bin` in a fresh scratch dir with the pinned golden environment
/// and returns the parsed `results/<id>.json` files.
fn run_pinned(bin: &str, ids: &[&str]) -> Vec<(String, Value)> {
    let scratch = std::env::temp_dir().join(format!(
        "vigil-golden-{}-{}",
        bin.rsplit('/').next().unwrap_or("bin"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let out = Command::new(bin)
        .current_dir(&scratch)
        .env_remove("VIGIL_SEED")
        .env("VIGIL_FAST", "1")
        .env("VIGIL_TRIALS", "1")
        .env("VIGIL_EPOCHS", "1")
        .env("VIGIL_THREADS", "2")
        .output()
        .expect("spawn figure binary");
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let parsed = ids
        .iter()
        .map(|id| {
            let path = scratch.join("results").join(format!("{id}.json"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
            let value: Value =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("{id}.json invalid: {e}"));
            (id.to_string(), value)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);
    parsed
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

fn assert_matches_golden(bin: &str, ids: &[&str]) {
    for (id, actual) in run_pinned(bin, ids) {
        let path = golden_path(&id);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        let golden: Value = serde_json::from_str(&text).expect("golden parses");
        if let Some(diff) = first_diff(&id, &golden, &actual) {
            panic!(
                "{id}.json diverged from its golden:\n  {diff}\n\
                 If the change is intentional, regenerate with:\n  \
                 VIGIL_FAST=1 VIGIL_TRIALS=1 VIGIL_EPOCHS=1 VIGIL_THREADS=2 \
                 cargo run --release -p vigil_bench --bin <binary> && \
                 cp results/{id}.json crates/bench/tests/golden/"
            );
        }
    }
}

#[test]
fn fig05_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fig05_drop_rates"),
        &["fig05a", "fig05b"],
    );
}

#[test]
fn fig09_matches_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig09_hot_tor"), &["fig09"]);
}

#[test]
fn table1_matches_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_table1_icmp_rate"), &["table1"]);
}

// The two figures that read `EpochRun.outcome` rows: thm2 counts the
// epoch's connections, sec7_2 looks up each reported flow's record.
#[test]
fn thm2_matches_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_thm2_bounds"), &["thm2"]);
}

#[test]
fn sec7_2_matches_golden() {
    assert_matches_golden(env!("CARGO_BIN_EXE_sec7_2_two_failures"), &["sec7_2"]);
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
