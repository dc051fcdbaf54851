//! `vigil-benchmark`: one contract run, every workload for one seed, or
//! the A/A check. See `--help`.

use std::path::PathBuf;
use std::process::ExitCode;
use vigil_benchmark::aa;
use vigil_benchmark::run::{end_to_end, per_layer, RunResult, RunSpec};
use vigil_benchmark::workloads::{Size, Workload, FULL_SECONDS, WORKLOADS};

const USAGE: &str = "\
usage: vigil-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]
       vigil-benchmark --all [--seed N] [--seconds S] [--out DIR]
       vigil-benchmark --aa [N] [--seed N] [--seconds S] [--out DIR]

  --workload  one of: fabric-48k verdict-dense byzantine-aos collector-ingest
  --seed      every input of the run derives from it (default 1)
  --seconds   selects the size: 10 or more is the measured size, less is a
              smoke run a twentieth as long (default 10)
  --trace     0 reports the end-to-end metrics, tracing off (default);
              1 runs the traced twin and reports the per-layer metrics
  --out       where recordings, sockets and span files go (default
              benchmark/out)
  --all       every workload, both passes, for one seed; prints every metric
              by name with its unit; exits non-zero on any failed window
  --aa        A/A check: every workload 2N times (default N = 10), set A and
              set B alternating; fails when a median gap or a spread exceeds
              its bound; writes AA.md beside the out directory

The last line of standard output of a --workload run is one JSON object with
the keys correct, attempted, failed and metrics.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    all: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: FULL_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        all: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--all" => args.all = true,
            "--aa" => {
                let n = match it.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => 10,
                };
                if n < 2 {
                    return Err("--aa needs at least 2 runs per set".into());
                }
                args.aa = Some(n);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Prints a result: the work line, every metric by name with its unit,
/// and last the contract's JSON object.
fn print_result(workload: &Workload, result: &RunResult) {
    println!(
        "{}: windows {} flows {} evidence {} alloc_calls {}",
        workload.name,
        result.work.windows,
        result.work.flows,
        result.work.evidence,
        result.work.alloc_calls
    );
    for (name, unit, value) in &result.metrics {
        println!("  {name} = {value} {unit}");
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
}

fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let workload = Workload::by_name(name).ok_or(format!("unknown workload {name}"))?;
    let spec = RunSpec {
        workload,
        size: Size::from_seconds(args.seconds),
        seed: args.seed,
        out_dir: args.out.clone(),
    };
    let result = if args.trace {
        let (result, spans) = per_layer(&spec).map_err(|e| format!("{name}: {e}"))?;
        println!("spans written to {}", spans.display());
        result
    } else {
        end_to_end(&spec).map_err(|e| format!("{name}: {e}"))?
    };
    print_result(workload, &result);
    Ok(result.correct())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("vigil-benchmark: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(n) = args.aa {
        aa::run_aa(n, args.seed, args.seconds, &args.out)
    } else if args.all {
        aa::run_all(args.seed, args.seconds, &args.out)
    } else if let Some(name) = &args.workload {
        run_one(&args, name)
    } else {
        Err(format!(
            "nothing to do; workloads: {}",
            WORKLOADS.map(|w| w.name).join(" ")
        ))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("vigil-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
