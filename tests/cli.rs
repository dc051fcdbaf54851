//! End-to-end tests of the `vigil-sim` CLI front door: preset listing,
//! the JSON config path (`run-config`), machine-readable reports, and the
//! figure catalogue (`figures`).

use std::process::Command;
use vigil::prelude::*;

fn vigil_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vigil-sim"))
}

#[test]
fn list_prints_every_preset() {
    let out = vigil_sim().arg("list").output().expect("spawn vigil-sim");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for preset in [
        "single-failure",
        "multi-failure",
        "skewed-traffic",
        "hot-tor",
        "skewed-rates",
        "test-cluster",
        "byzantine-liar",
    ] {
        assert!(text.contains(preset), "missing preset {preset} in:\n{text}");
    }
}

#[test]
fn unknown_inputs_fail_cleanly() {
    let out = vigil_sim()
        .args(["run", "no-such-preset"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = vigil_sim().output().unwrap();
    assert!(!out.status.success());
    let out = vigil_sim()
        .args(["run-config", "/nonexistent/config.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn run_config_round_trips_a_serialized_config() {
    // A tiny-but-real experiment, serialized exactly the way a user would
    // write a config file.
    let cfg = ExperimentConfig {
        name: "cli-round-trip".into(),
        params: ClosParams::tiny(),
        faults: FaultPlan::paper_default(1),
        epochs: 1,
        trials: 1,
        seed: 11,
        ..ExperimentConfig::default()
    };
    let json = serde_json::to_string_pretty(&cfg).unwrap();
    let path = std::env::temp_dir().join(format!("vigil-sim-cli-{}.json", std::process::id()));
    std::fs::write(&path, &json).unwrap();

    let out = vigil_sim()
        .arg("run-config")
        .arg(&path)
        .arg("--json")
        .output()
        .expect("spawn vigil-sim");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "vigil-sim failed: {stderr}");

    let report: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).expect("valid JSON report");
    assert_eq!(
        report.get("name").and_then(serde_json::Value::as_str),
        Some("cli-round-trip")
    );
    assert!(report.get("vigil").is_some(), "report missing 007 metrics");
}

#[test]
fn matrix_list_enumerates_the_grid_and_filter_narrows_it() {
    let out = vigil_sim()
        .args(["matrix", "--list"])
        .output()
        .expect("spawn vigil-sim");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let named_lines = text.lines().filter(|l| l.contains("topology=")).count();
    assert!(
        named_lines >= 24,
        "matrix --list shows only {named_lines} scenarios:\n{text}"
    );
    for probe in ["blackhole", "gray", "flap", "maintenance", "slb"] {
        assert!(text.contains(probe), "missing fault axis {probe}:\n{text}");
    }

    let out = vigil_sim()
        .args(["matrix", "--list", "--filter", "blackhole"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let shown = text.lines().filter(|l| l.contains("topology=")).count();
    assert!(shown >= 1 && shown < named_lines, "filter did not narrow");
    assert!(!text.contains("gray/k1"), "filtered case leaked:\n{text}");

    // A filter matching nothing is an error.
    let out = vigil_sim()
        .args(["matrix", "--filter", "no-such-scenario"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn matrix_run_with_filter_reports_conformance_and_is_thread_invariant() {
    let run = |threads: &str| {
        let out = vigil_sim()
            .args([
                "matrix",
                "--filter",
                "drop/k1",
                "--trials",
                "1",
                "--epochs",
                "1",
                "--threads",
                threads,
                "--json",
            ])
            .env("VIGIL_THREADS", "1")
            .env_remove("VIGIL_FAST")
            .output()
            .expect("spawn vigil-sim");
        assert!(
            out.status.success(),
            "matrix --threads {threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let one = run("1");
    let four = run("4");
    // The banner names the worker count; everything from the JSON on must
    // be byte-identical.
    let json_of = |s: &str| {
        let start = s.find('{').expect("json in stdout");
        let end = s.rfind('}').expect("json in stdout");
        s[start..=end].to_string()
    };
    assert_eq!(
        json_of(&one),
        json_of(&four),
        "thread count changed the matrix JSON"
    );

    // The JSON verdict is machine-readable and case-complete, and the
    // byzantine axis does not even annotate an honest-only report.
    let report: serde_json::Value = serde_json::from_str(&json_of(&one)).unwrap();
    assert!(
        report.get("breaking_points").is_none(),
        "honest report grew byzantine fields"
    );
    let cases = report
        .get("cases")
        .and_then(serde_json::Value::as_seq)
        .expect("cases array");
    assert!(!cases.is_empty());
    for case in cases {
        assert_eq!(
            case.get("pass").and_then(serde_json::Value::as_bool),
            Some(true),
            "case failed conformance: {case:?}"
        );
    }

    // A `results` path that cannot be a directory must fail and say so.
    let dir = scratch_dir("matrix-unwritable");
    std::fs::write(dir.join("results"), "not a directory").unwrap();
    let out = vigil_sim()
        .args(["matrix", "--filter", "drop/k1-severe"])
        .args(["--trials", "1", "--epochs", "1"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "an unwritable results/ must fail"
    );
    assert!(
        err.contains("results/matrix.json"),
        "must name the path: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn byzantine_matrix_gates_and_forced_violation_fails() {
    // The committed byzantine grid conforms (exit 0) at the calibrated
    // smoke scale; forcing every byzantine case to 90 % compromised
    // hosts must break at least one tolerance envelope (exit 1).
    let run = |extra: &[&str]| {
        let mut args = vec![
            "matrix",
            "--filter",
            "byzantine",
            "--trials",
            "2",
            "--epochs",
            "1",
            "--threads",
            "2",
            "--json",
        ];
        args.extend_from_slice(extra);
        vigil_sim().args(&args).output().expect("spawn vigil-sim")
    };

    let committed = run(&[]);
    assert!(
        committed.status.success(),
        "committed byzantine grid violated its envelopes: {}",
        String::from_utf8_lossy(&committed.stdout)
    );
    let text = String::from_utf8(committed.stdout).unwrap();
    let report: serde_json::Value = {
        let start = text.find('{').expect("json in stdout");
        let end = text.rfind('}').expect("json in stdout");
        serde_json::from_str(&text[start..=end]).unwrap()
    };
    let points = report
        .get("breaking_points")
        .and_then(serde_json::Value::as_seq)
        .expect("byzantine report carries breaking_points");
    assert!(points.len() >= 4, "one fold entry per behavior: {points:?}");

    let forced = run(&["--byzantine-fraction", "0.9"]);
    assert!(
        !forced.status.success(),
        "90 % compromised hosts passed the tolerance envelopes:\n{}",
        String::from_utf8_lossy(&forced.stdout)
    );

    // The override is an adversary knob, not an honest-case knob: it
    // refuses filters with no byzantine case to act on.
    let misapplied = vigil_sim()
        .args([
            "matrix",
            "--filter",
            "drop/k1",
            "--byzantine-fraction",
            "0.5",
        ])
        .output()
        .unwrap();
    assert!(!misapplied.status.success());
}

#[test]
fn byzantine_stream_json_equals_batch_run() {
    // The adversarial preset rides the same per-flow hook in both entry
    // points: `stream --json` must be byte-identical to `run --json`.
    let run = |cmd: &str| {
        let out = vigil_sim()
            .args([
                cmd,
                "byzantine-liar",
                "--trials",
                "1",
                "--epochs",
                "2",
                "--threads",
                "2",
                "--json",
            ])
            .output()
            .expect("spawn vigil-sim");
        assert!(
            out.status.success(),
            "vigil-sim {cmd} byzantine-liar failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(
        run("run"),
        run("stream"),
        "adversarial stream diverged from the batch path"
    );
}

#[test]
fn stream_json_equals_batch_run_and_is_thread_invariant() {
    // The streaming determinism contract, end to end through the front
    // door: `stream --epochs 3 --json` is byte-identical to the batch
    // `run` path on the same preset, and to itself at --threads 1 vs 4.
    let run = |cmd: &str, threads: &str| {
        let out = vigil_sim()
            .args([
                cmd,
                "single-failure",
                "--trials",
                "2",
                "--epochs",
                "3",
                "--threads",
                threads,
                "--json",
            ])
            .output()
            .expect("spawn vigil-sim");
        assert!(
            out.status.success(),
            "vigil-sim {cmd} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let batch = run("run", "1");
    let stream = run("stream", "1");
    assert_eq!(batch, stream, "stream JSON diverged from the batch path");
    let stream4 = run("stream", "4");
    assert_eq!(stream, stream4, "thread count changed the stream JSON");
    assert_eq!(
        stream,
        run("stream", "2"),
        "thread count changed the stream JSON"
    );

    // The service-mode accounting lands on stderr, not in the JSON.
    let out = vigil_sim()
        .args([
            "stream",
            "single-failure",
            "--trials",
            "1",
            "--epochs",
            "1",
            "--threads",
            "1",
            "--json",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        stderr.contains("peak resident") && stderr.contains("shed"),
        "stream stats missing from stderr: {stderr}"
    );
}

/// Plain `stream` text, stdout and stderr, at `VIGIL_THREADS` 1, 2 and 4:
/// identical once the thread count and the wall time are masked. The
/// hub event count on stderr counts each window's epoch ticks from that
/// window's own dispatches, so it does not depend on which worker ran
/// which window.
#[test]
fn plain_stream_text_is_thread_invariant() {
    let mask = |text: &[u8]| -> String {
        let text = String::from_utf8_lossy(text);
        let lines = text.lines().map(|line| match line.find(" thread(s), ") {
            Some(i) => {
                let head = &line[..line[..i].rfind(", ").expect("a counts clause")];
                format!("{head}, <threads>, <ms>)")
            }
            None => line.to_owned(),
        });
        lines.collect::<Vec<_>>().join("\n")
    };
    let run = |threads: &str| {
        let out = vigil_sim()
            .args(["stream", "test-cluster", "--trials", "2", "--epochs", "2"])
            .env("VIGIL_THREADS", threads)
            .output()
            .expect("spawn vigil-sim");
        assert!(
            out.status.success(),
            "vigil-sim stream at {threads} thread(s) failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (mask(&out.stdout), mask(&out.stderr))
    };
    let one = run("1");
    assert!(
        one.0.contains("<threads>"),
        "no thread count masked:\n{}",
        one.0
    );
    assert!(one.1.contains("events"), "no stream counters:\n{}", one.1);
    for threads in ["2", "4"] {
        assert_eq!(
            one,
            run(threads),
            "VIGIL_THREADS={threads} changed the text"
        );
    }
}

#[test]
fn stream_forever_caps_at_explicit_epochs_and_prints_windows() {
    let out = vigil_sim()
        .args([
            "stream",
            "single-failure",
            "--forever",
            "--epochs",
            "2",
            "--window-ms",
            "30000",
        ])
        .output()
        .expect("spawn vigil-sim");
    assert!(
        out.status.success(),
        "stream --forever failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let windows = text.lines().filter(|l| l.starts_with("window")).count();
    assert_eq!(windows, 2, "expected 2 window lines:\n{text}");
    assert!(text.contains("heat map"), "missing heat map:\n{text}");

    // Unknown presets and bad window lengths fail cleanly.
    let bad = vigil_sim()
        .args(["stream", "no-such-preset"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let bad = vigil_sim()
        .args(["stream", "--window-ms", "zero"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

/// `stream --forever`'s window w is epoch w of trial 0: each window
/// line's evidence and detected-link count equal `traced_flows` and
/// `detected` of `epochs[w]` in the one-trial report.
#[test]
fn stream_forever_windows_match_the_report_epoch_by_epoch() {
    let run = |extra: &[&str]| {
        let out = vigil_sim()
            .args(["stream", "single-failure", "--epochs", "3", "--seed", "7"])
            .args(extra)
            .output()
            .expect("spawn vigil-sim");
        assert!(
            out.status.success(),
            "stream {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let report: serde_json::Value =
        serde_json::from_str(&run(&["--json", "--trials", "1"])).expect("valid JSON report");
    let field = |v: &serde_json::Value, name: &str| v.get(name).cloned().expect(name);
    let expected: Vec<(u64, usize)> = field(&report, "epochs")
        .as_seq()
        .expect("epoch reports")
        .iter()
        .map(|e| {
            let traced = field(e, "traced_flows").as_f64().expect("a count") as u64;
            (traced, field(e, "detected").as_seq().expect("links").len())
        })
        .collect();
    // "window     1  evidence    21  detected  1 link(s)  …"
    let windows: Vec<(u64, usize)> = run(&["--forever"])
        .lines()
        .filter_map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            match words[..] {
                ["window", _, "evidence", evidence, "detected", detected, ..] => {
                    Some((evidence.parse().unwrap(), detected.parse().unwrap()))
                }
                _ => None,
            }
        })
        .collect();
    assert_eq!(expected.len(), 3);
    assert_eq!(windows, expected, "windows (evidence, detected) vs epochs");
}

#[test]
fn zero_valued_counts_are_rejected_not_vacuous() {
    // A zero window, trial, or epoch count must fail loudly — not
    // "succeed" with an empty report (or divide the pacer budget by a
    // zero-length window).
    let dir = scratch_dir("zero-counts");
    for args in [
        ["stream", "--window-ms", "0"],
        ["stream", "--trials", "0"],
        ["stream", "--epochs", "0"],
        ["run", "single-failure", "--trials"], // missing value
        ["matrix", "--trials", "0"],
        ["matrix", "--epochs", "0"],
    ] {
        let out = vigil_sim().args(args).current_dir(&dir).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not print a report");
    }
    // A rejected matrix run leaves no `results/matrix.json` behind.
    assert!(!dir.join("results").exists());
    std::fs::remove_dir_all(&dir).ok();
    for (sub, flag) in [("run", "--trials"), ("run", "--epochs")] {
        let out = vigil_sim()
            .args([sub, "single-failure", flag, "0"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{sub} {flag} 0 must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("positive integer"),
            "{sub} {flag} 0: unexpected stderr:\n{err}"
        );
    }
    // `figures` takes its counts from the environment: zero and
    // non-integers are one-line errors (exit 1), not a JSON of nulls or a
    // panic.
    let dir = scratch_dir("zero-figures");
    for (var, value) in [
        ("VIGIL_TRIALS", "0"),
        ("VIGIL_EPOCHS", "0"),
        ("VIGIL_TRIALS", "x"),
    ] {
        let out = vigil_sim()
            .args(["figures", "--only", "fig05"])
            .current_dir(&dir)
            .env(var, value)
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{var}={value}: {err}");
        assert!(out.stdout.is_empty(), "{var}={value} must not run a figure");
        assert_eq!(err.lines().count(), 1, "{var}={value}: {err}");
        assert!(err.contains(var), "{var}={value}: {err}");
    }
    assert!(!dir.join("results/fig05a.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A fresh, empty directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vigil-sim-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn figures_writes_golden_bytes_and_fails_loudly() {
    let golden = |id: &str| {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/tests/golden");
        std::fs::read(dir.join(format!("{id}.json"))).unwrap()
    };
    let figures = |dir: &std::path::Path, id: &str| {
        vigil_sim()
            .args(["figures", "--only", id])
            .current_dir(dir)
            .env("VIGIL_FAST", "1")
            .env("VIGIL_TRIALS", "1")
            .env("VIGIL_EPOCHS", "1")
            .env("VIGIL_THREADS", "2")
            .output()
            .expect("spawn vigil-sim")
    };

    let dir = scratch_dir("figures");
    let out = figures(&dir, "fig05");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for id in ["fig05a", "fig05b"] {
        let written = std::fs::read(dir.join(format!("results/{id}.json"))).unwrap();
        assert!(written == golden(id), "{id}.json differs from its golden");
    }

    let out = figures(&dir, "fig99");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("fig99") && err.contains("fig05 ") && err.contains("table1"));

    // A results path that cannot be a directory must fail and say so.
    std::fs::remove_dir_all(dir.join("results")).unwrap();
    std::fs::write(dir.join("results"), "not a directory").unwrap();
    let out = figures(&dir, "fig05");
    assert!(!out.status.success(), "an unwritable results/ must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("results"),
        "the error must name the path: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounds_prints_the_theorem_numbers() {
    let out = vigil_sim().arg("bounds").output().expect("spawn vigil-sim");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in ["Theorem 1: Ct = ", "Theorem 2 (k=1", "noise ceiling"] {
        assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
    }
}

#[test]
fn collect_resume_without_snapshot_is_rejected_at_parse() {
    // `--resume` restores collector state from the snapshot file; with
    // no `--snapshot` there is nothing to resume from. That must be an
    // argument error with a clear message — not a daemon that binds a
    // socket and then dies (or silently starts from scratch).
    let out = vigil_sim()
        .args(["collect", "--agents", "1", "--resume"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "collect --resume alone must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--resume needs --snapshot"),
        "expected a clear arg-parse message, got:\n{err}"
    );
    assert!(
        !err.contains("listening on"),
        "must be rejected before binding the listener:\n{err}"
    );

    // The valid combination still parses (bad path → later I/O error is
    // fine, but not the arg-parse message).
    let out = vigil_sim()
        .args([
            "collect",
            "--agents",
            "1",
            "--resume",
            "--snapshot",
            "/nonexistent/dir/snap.json",
        ])
        .output()
        .unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        !err.contains("--resume needs --snapshot"),
        "--resume with --snapshot must pass arg parsing:\n{err}"
    );
}

#[test]
fn threads_flag_is_accepted_and_output_is_thread_invariant() {
    // `--threads N` routes through the sweep engine; the JSON report must
    // be byte-identical at any width.
    let run = |threads: &str| {
        let out = vigil_sim()
            .args([
                "run",
                "single-failure",
                "--trials",
                "3",
                "--epochs",
                "1",
                "--threads",
                threads,
                "--json",
            ])
            // The flag must win over any ambient env setting.
            .env("VIGIL_THREADS", "1")
            .output()
            .expect("spawn vigil-sim");
        assert!(
            out.status.success(),
            "vigil-sim --threads {threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let one = run("1");
    let four = run("4");
    assert_eq!(one, four, "thread count changed the report JSON");
    assert_eq!(one, run("2"), "thread count changed the report JSON");

    let bad = vigil_sim()
        .args(["run", "single-failure", "--threads", "zero"])
        .output()
        .unwrap();
    assert!(!bad.status.success(), "non-numeric --threads must fail");
}

#[test]
#[cfg(target_os = "linux")]
fn stdout_write_errors_exit_1_without_panicking() {
    // A full disk (or a closed pipe) under stdout is an ordinary error:
    // one line on stderr and exit code 1, not a panic.
    for args in ["list", "run single-failure --trials 1 --epochs 1 --json"] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .unwrap();
        let out = vigil_sim()
            .args(args.split(' '))
            .stdout(full)
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn usage_and_readme_synopsis_declare_the_same_flags() {
    // The flags each subcommand's generated usage names (printed on an
    // unknown flag) must be exactly the ones README's command-line
    // synopsis lists for it, and the synopsis must cover every subcommand.
    let flags_in = |text: &str| -> std::collections::BTreeSet<String> {
        text.split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .filter(|t| t.starts_with("--") && *t != "--no-such-flag")
            .map(String::from)
            .collect()
    };
    let readme = include_str!("../README.md");
    let section = readme
        .split("\n## Command line\n")
        .nth(1)
        .expect("README has a `## Command line` section");
    let block = section.split("```").nth(1).expect("a synopsis code block");
    let mut synopsis = std::collections::BTreeMap::<String, String>::new();
    let mut current = String::new();
    for line in block.lines() {
        if let Some(rest) = line.strip_prefix("vigil-sim ") {
            current = rest.split_whitespace().next().unwrap().to_string();
        }
        if !current.is_empty() {
            let text = synopsis.entry(current.clone()).or_default();
            text.push_str(line);
            text.push('\n');
        }
    }

    let out = vigil_sim().output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    let listed = err.split(['<', '>']).nth(1).expect("subcommand list");
    let subcommands: Vec<&str> = listed.split('|').collect();
    let mut sorted = subcommands.clone();
    sorted.sort();
    assert_eq!(
        synopsis.keys().map(String::as_str).collect::<Vec<_>>(),
        sorted,
        "README's synopsis and the subcommand table differ"
    );
    for sub in subcommands {
        let out = vigil_sim().args([sub, "--no-such-flag"]).output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{sub} --no-such-flag: {err}");
        assert!(err.contains(&format!("usage: vigil-sim {sub}")), "{err}");
        assert_eq!(
            flags_in(&err),
            flags_in(&synopsis[sub]),
            "{sub}: usage (left) and README synopsis (right) differ"
        );
    }
}
