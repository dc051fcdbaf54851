//! Driving the benchmark as a whole: every workload for one seed, and
//! the A/A check that the bounds in `BENCHMARK.json` are set from.
//!
//! Each run is a child process of this binary, exactly as the contract
//! runs it, so peak RSS and the allocation counters start from zero.

use crate::run::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// The regression bound of each end-to-end metric, as written into
/// `BENCHMARK.json` (a test keeps the two in step): the share of the
/// parent's median by which the metric may get worse.
pub const BOUNDS: [(&str, f64); 6] = [
    ("setup_s", 0.25),
    ("flows_per_sec", 0.25),
    ("window_ms_p50", 0.25),
    ("allocs_per_window", 0.05),
    ("alloc_kib_per_window", 0.15),
    ("peak_rss_mib", 0.15),
];

fn bound_of(metric: &str) -> f64 {
    BOUNDS
        .iter()
        .find(|(name, _)| *name == metric)
        .map(|b| b.1)
        .expect("every end-to-end metric has a bound")
}

/// One child run's parsed result.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<f64>,
}

/// Runs `--workload name` in a child process and parses its last line.
fn run_child(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Path,
    defs: &[MetricDef],
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(last) = stdout.lines().last() else {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "{name} seed {seed}: no result ({}): {}",
            output.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    };
    let json: serde_json::Value =
        serde_json::from_str(last).map_err(|e| format!("{name}: result line: {e}"))?;
    let field = |key: &str| json.get(key).ok_or(format!("{name}: result lacks {key}"));
    let metrics = field("metrics")?;
    let values = defs
        .iter()
        .map(|(metric, _, _)| {
            metrics
                .get(metric)
                .and_then(|m| m.get("value"))
                .and_then(serde_json::Value::as_f64)
                .ok_or(format!("{name}: result lacks metric {metric}"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        values,
    })
}

/// Every workload, both passes, one seed: prints every metric by name
/// with its unit. `Ok(false)` when any window failed.
pub fn run_all(seed: u64, seconds: u64, out: &Path) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in &WORKLOADS {
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = run_child(workload.name, seed, seconds, trace, out, defs)?;
            println!(
                "{} ({}): {} of {} windows failed",
                workload.name,
                if trace { "per layer" } else { "end to end" },
                result.failed,
                result.attempted
            );
            for ((metric, unit, _), value) in defs.iter().zip(&result.values) {
                println!("  {metric} = {value} {unit}");
            }
            all_correct &= result.correct && result.failed == 0;
        }
    }
    Ok(all_correct)
}

/// How much worse `b` is than `a`, as a share of `a`; negative when `b`
/// is better.
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The A/A check: each workload `2 × runs` times, sets A and B
/// alternating (A first on even pairs, B first on odd ones), both sets
/// on the same seeds so only the machine differs. Prints medians,
/// quartiles, spreads and the A-to-B gap of every end-to-end metric
/// against its bound, and writes the table to `AA.md` beside `out`.
/// `Ok(false)` when a gap or a spread exceeds its bound, or a run failed.
pub fn run_aa(runs: usize, seed: u64, seconds: u64, out: &Path) -> Result<bool, String> {
    let mut ok = true;
    let mut table = String::new();
    writeln!(
        table,
        "| workload | metric | unit | median A | median B | gap | spread A | spread B | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|---|"
    )
    .expect("writing to a string");
    for workload in &WORKLOADS {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for pair in 0..runs {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let result = run_child(
                    workload.name,
                    seed + pair as u64,
                    seconds,
                    false,
                    out,
                    &END_TO_END,
                )?;
                if !result.correct || result.failed > 0 {
                    eprintln!(
                        "{} seed {}: {} of {} windows failed",
                        workload.name,
                        seed + pair as u64,
                        result.failed,
                        result.attempted
                    );
                    ok = false;
                }
                sets[set].push(result.values);
            }
            eprintln!("{}: pair {} of {runs} done", workload.name, pair + 1);
        }
        for (m, &(metric, unit, higher_is_better)) in END_TO_END.iter().enumerate() {
            let column = |set: usize| -> Vec<f64> { sets[set].iter().map(|v| v[m]).collect() };
            let (a, b) = (column(0), column(1));
            let (med_a, med_b) = (median(&a), median(&b));
            let (spread_a, spread_b) = (spread(&a), spread(&b));
            // Either set may be the "parent": the gap is the worse of
            // the two directions.
            let gap = worse_by(med_a, med_b, higher_is_better).max(worse_by(
                med_b,
                med_a,
                higher_is_better,
            ));
            let bound = bound_of(metric);
            // Set-up's spread is reported but, as in the acceptance
            // rule, only its median gap is held to the bound.
            let spread_ok = metric == "setup_s" || spread_a.max(spread_b) <= bound;
            let verdict = if gap <= bound && spread_ok {
                "ok"
            } else {
                ok = false;
                "EXCEEDS"
            };
            writeln!(
                table,
                "| {} | {metric} | {unit} | {med_a:.6} | {med_b:.6} | {:.2} % | {:.2} % | {:.2} % | {:.0} % | {verdict} |",
                workload.name,
                gap * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                bound * 100.0,
            )
            .expect("writing to a string");
        }
    }
    print!("{table}");
    let path = out.parent().unwrap_or(Path::new(".")).join("AA.md");
    let text = format!(
        "# A/A check\n\n\
         Written by `vigil-benchmark --aa {runs} --seed {seed} --seconds {seconds}`: every workload\n\
         {} times, sets A and B alternating on the same seeds ({seed}..{}), so the two\n\
         sets differ only in when they ran. *gap* is how much worse the worse set's median\n\
         is than the other's; *spread* is the distance between the first and third quartile\n\
         of a set's values (Python's `statistics.quantiles(v, n=4)`) as a share of its median;\n\
         *bound* is the regression bound in `BENCHMARK.json`.\n\n{table}",
        2 * runs,
        seed + runs as u64 - 1,
    );
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(ok)
}
