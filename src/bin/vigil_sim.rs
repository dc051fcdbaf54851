//! `vigil-sim` — run 007 fault-localization experiments from the command
//! line.
//!
//! ```text
//! vigil-sim list                          # available scenario presets
//! vigil-sim run <preset> [options]        # run a preset (batch)
//! vigil-sim stream [preset] [options]     # run it event-driven, constant
//!                                         # memory (default preset:
//!                                         # single-failure)
//! vigil-sim run-config <config.json>      # run a JSON ExperimentConfig
//! vigil-sim bounds                        # print the Theorem 1/2 numbers
//! vigil-sim matrix [--filter pat] [--list]  # the scenario-matrix grid
//! vigil-sim collect [preset] [options]    # distributed collector daemon
//! vigil-sim agent [preset] [options]      # one distributed host-agent
//!                                         # process (feeds a collector)
//!
//! options:
//!   --trials N     independent trials (fresh topology + fault draw)
//!   --epochs N     epochs per trial
//!   --seed N       master seed
//!   --threads N    worker threads for the sweep engine (default:
//!                  VIGIL_THREADS, else all available cores; results
//!                  are bit-identical at any thread count)
//!   --json         machine-readable report on stdout
//!
//! stream-only options:
//!   --forever      long-running service mode: windows roll until killed
//!                  (or for --epochs N windows when given), one summary
//!                  line each, heat map on exit
//!   --window-ms W  window length on the pacing clock (default 30000 —
//!                  the paper's 30-second epoch; rescales the Theorem 1
//!                  traceroute budget)
//! ```
//!
//! `stream --epochs N --json` emits byte-identical JSON to
//! `run --json` on the same preset and flags: the streaming pipeline
//! reproduces the batch pipeline's RNG draw order and canonical
//! evidence order while holding only evidence-bearing flow records in
//! memory. Service-mode counters (events/s, peak resident flows,
//! shed/delivered) go to stderr.
//!
//! distributed service mode (the paper's Figure 2 over sockets):
//!
//! ```text
//! vigil-sim collect [preset] --agents N [--listen ADDR] [--addr-file F]
//!            [--epochs N] [--seed N] [--json] [--snapshot F] [--resume]
//!            [--exit-after K] [--metrics ADDR] [--metrics-addr-file F]
//!            [--max-events-per-window N] [--max-hosts N]
//!            [--reconnect-grace-ms N] [--idle-timeout-ms N]
//!            [--quarantine-budget N]
//! vigil-sim agent [preset] --collector ADDR --hosts LO..HI
//!            [--start-epoch S] [--epochs N] [--seed N] [--resilient]
//!            [--chaos SPEC] [--backoff-ms N] [--ack-timeout-ms N]
//!            [--max-reconnects N]
//! ```
//!
//! Addresses containing `/` are Unix-domain socket paths, anything else
//! is TCP `host:port` (port 0 binds ephemerally; `--addr-file` records
//! the bound address for agents to discover). A loopback fleet whose
//! `--hosts` ranges cover the topology emits a final `--json` report
//! byte-identical to `stream --json --trials 1`; `--snapshot` +
//! `--exit-after` + `--resume` drill the collector failover path
//! (`--resume` requires `--snapshot` — there is nothing to resume from
//! otherwise).
//!
//! `agent --resilient` switches the agent into the self-healing
//! protocol: capped exponential backoff with seeded jitter, resume from
//! the collector's last acked epoch, replay of unacked epochs (the
//! collector deduplicates, so the tally stays exactly-once). `--chaos`
//! (implies `--resilient`) wraps the connection in a seeded fault
//! injector — `seed=7,corrupt=0.01,truncate=0.005,dup=0.01,`
//! `delay=0.01:5,reset_every=500,partition=0.2:3` — whose faults are
//! a pure function of `(seed, host range, frame index)`, identical over
//! loopback and real sockets.
//!
//! `matrix` runs every named scenario (fault × topology × traffic) and
//! asserts each case's accuracy envelope: exit code 1 when any case
//! falls outside it. `--filter pat` keeps cases whose name contains
//! `pat` (seeds are name-derived, so filtering never changes a case's
//! numbers); `--list` prints the grid without running. The JSON verdict
//! lands in `results/matrix.json` and is byte-identical at any thread
//! count. `byzantine/*` cases also report per-behavior breaking points
//! (the smallest compromised-host fraction outside the honest-voter
//! envelope); `--byzantine-fraction F` overrides every byzantine case's
//! fraction while keeping its calibrated envelope — the forced-violation
//! knob (e.g. `--filter byzantine --byzantine-fraction 0.9` must exit 1).

use std::process::ExitCode;
use vigil::prelude::*;
use vigil_wire::chaos::{ChaosPlan, ChaosSchedule};

const PRESETS: &[(&str, &str)] = &[
    (
        "single-failure",
        "one fabric link failing at 0.05–1% (fig. 3 point)",
    ),
    ("multi-failure", "six simultaneous failures (fig. 5b point)"),
    ("skewed-traffic", "80% of flows into 25% of racks (fig. 8)"),
    (
        "hot-tor",
        "one ToR sinks half the traffic, 5 failures (fig. 9)",
    ),
    (
        "skewed-rates",
        "one scorching link among mild ones (fig. 12)",
    ),
    (
        "test-cluster",
        "the paper's 10-ToR test cluster, 0.1% failure (fig. 13)",
    ),
    (
        "byzantine-liar",
        "two failures with 20% of hosts lying about paths",
    ),
];

fn preset(name: &str) -> Option<ExperimentConfig> {
    Some(match name {
        "single-failure" => scenarios::fig03_optimal_case(1),
        "multi-failure" => scenarios::fig05_multi(6),
        "skewed-traffic" => scenarios::fig08_skew(1, Some(1e-3)),
        "hot-tor" => scenarios::fig09_hot_tor(0.5, 5),
        "skewed-rates" => scenarios::fig12_skewed_rates(6),
        "test-cluster" => scenarios::fig13_cluster(1e-3),
        "byzantine-liar" => {
            let mut cfg = scenarios::fig03_optimal_case(2);
            cfg.name = "byzantine-liar k=2 f=0.2".into();
            cfg.run.byzantine = vigil_agents::ByzantineSpec::liars(0.2);
            cfg
        }
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("available presets:");
            for (name, what) in PRESETS {
                println!("  {name:<16} {what}");
            }
            ExitCode::SUCCESS
        }
        Some("bounds") => {
            let p = ClosParams::paper_sim();
            let ct = vigil_topology::bounds::theorem1_ct_bound(&p, 100.0);
            println!("paper topology: {p:?}");
            println!("Theorem 1: Ct = {ct:.2} traceroutes/s/host at Tmax = 100/s");
            let t2 = vigil_topology::bounds::Theorem2 {
                params: p,
                k: 1,
                p_bad: 5e-4,
                p_good: 1e-7,
                c_lower: 50,
                c_upper: 100,
            };
            println!(
                "Theorem 2 (k=1, p_bad=0.05%): α = {:.3}, noise ceiling = {:.2e}",
                t2.alpha().unwrap_or(f64::NAN),
                t2.noise_ceiling().unwrap_or(f64::NAN)
            );
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(name) = args.get(1) else {
                eprintln!(
                    "usage: vigil-sim run <preset> [--trials N] [--epochs N] [--seed N] \
                     [--threads N] [--json]"
                );
                return ExitCode::FAILURE;
            };
            let Some(mut cfg) = preset(name) else {
                eprintln!("unknown preset '{name}'; try `vigil-sim list`");
                return ExitCode::FAILURE;
            };
            let engine = match apply_flags(&mut cfg, &args[2..]) {
                Ok(engine) => engine,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            execute(cfg, engine, args.iter().any(|a| a == "--json"))
        }
        Some("run-config") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: vigil-sim run-config <config.json> [--threads N] [--json]");
                return ExitCode::FAILURE;
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut cfg: ExperimentConfig = match serde_json::from_str(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("invalid config: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let engine = match apply_flags(&mut cfg, &args[2..]) {
                Ok(engine) => engine,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            execute(cfg, engine, args.iter().any(|a| a == "--json"))
        }
        Some("stream") => run_stream(&args[1..]),
        Some("agent") => run_agent_cmd(&args[1..]),
        Some("collect") => run_collect_cmd(&args[1..]),
        Some("matrix") => run_matrix(&args[1..]),
        _ => {
            eprintln!(
                "usage: vigil-sim <list|bounds|run|stream|agent|collect|run-config|matrix> …"
            );
            ExitCode::FAILURE
        }
    }
}

/// The `stream` subcommand: the event-driven, constant-memory pipeline.
fn run_stream(flags: &[String]) -> ExitCode {
    // An optional leading preset name; everything else is flags.
    let (preset_name, rest) = match flags.first() {
        Some(f) if !f.starts_with("--") => (f.as_str(), &flags[1..]),
        _ => ("single-failure", flags),
    };
    let Some(mut cfg) = preset(preset_name) else {
        eprintln!("unknown preset '{preset_name}'; try `vigil-sim list`");
        return ExitCode::FAILURE;
    };

    // Stream-only flags peel off first; the shared ones go through
    // `apply_flags` so `stream` and `run` parse identically.
    let mut forever = false;
    let mut window_ms: Option<u64> = None;
    let mut shared: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--forever" => forever = true,
            "--window-ms" => {
                let v = match it.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(v)) if v > 0 => v,
                    _ => {
                        eprintln!("--window-ms needs a positive integer (milliseconds)");
                        return ExitCode::FAILURE;
                    }
                };
                window_ms = Some(v);
            }
            other => shared.push(other.to_string()),
        }
    }
    let epochs_capped = shared.iter().any(|f| f == "--epochs");
    let json = shared.iter().any(|f| f == "--json");
    let engine = match apply_flags(&mut cfg, &shared) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = cfg.params.validate() {
        eprintln!("invalid topology parameters: {e}");
        return ExitCode::FAILURE;
    }
    // A non-default window rescales the Theorem 1 traceroute budget:
    // `Ct × window_seconds` traces per window.
    if let Some(ms) = window_ms {
        if let PacerBudget::Theorem1 { tmax, .. } = cfg.run.pacer {
            cfg.run.pacer = PacerBudget::Theorem1 {
                tmax,
                epoch_seconds: ms as f64 / 1000.0,
            };
        }
    }

    if forever {
        // The service loop has no final report: it runs one continuous
        // session (trial 0) and prints per-window lines. Flags that only
        // shape a report are contradictions, not no-ops.
        if json {
            eprintln!("--forever has no JSON report; drop --json (or drop --forever)");
            return ExitCode::FAILURE;
        }
        if shared.iter().any(|f| f == "--trials" || f == "--threads") {
            eprintln!(
                "--forever runs one continuous session (trial 0, serial); \
                 --trials/--threads only apply to the report mode"
            );
            return ExitCode::FAILURE;
        }
        return stream_forever(&cfg, epochs_capped.then_some(cfg.epochs));
    }

    let (report, stats) = stream_experiment(&cfg, &engine, &StreamTuning::default());
    // Service-mode accounting goes to stderr so `--json` stdout stays
    // byte-identical to the batch `run --json` output.
    eprintln!(
        "stream: {} flows, {} events ({} evidence), peak resident {} flow record(s), \
         hub delivered {} / shed {}",
        stats.flows,
        stats.events,
        stats.evidence,
        stats.peak_resident_flows,
        stats.delivered,
        stats.shed
    );
    if stats.shed > 0 {
        eprintln!(
            "stream: WARNING — {} event(s) shed on the bounded hub (votes lost)",
            stats.shed
        );
    }
    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    print_report(&cfg, &report);
    println!(
        "\nstreaming: {} window(s), peak resident {} flow record(s) (vs {} simulated), \
         {} hub event(s), shed {}",
        stats.windows, stats.peak_resident_flows, stats.flows, stats.events, stats.shed
    );
    ExitCode::SUCCESS
}

/// `stream --forever`: the long-running service. One topology + fault
/// draw (trial 0), windows rolling until killed — or for `cap` windows
/// when `--epochs` was explicit — with a summary line per window and the
/// cross-window heat map at the end.
fn stream_forever(cfg: &ExperimentConfig, cap: Option<usize>) -> ExitCode {
    use rand::Rng;
    let trial_seed = cfg.trial_seed(0);
    let mut rng = cfg.trial_rng(0);
    let topo = match ClosTopology::new(cfg.params, rng.gen()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("invalid topology parameters: {e}");
            return ExitCode::FAILURE;
        }
    };
    let faults = cfg.faults.build(&topo, &mut rng);
    let mut scratch = vigil_fabric::EpochScratch::new();
    let mut session = StreamSession::new(
        &topo,
        &cfg.run,
        StreamTuning::default(),
        RetainPolicy::EvidenceOnly,
    );
    println!(
        "streaming service mode: preset {}, {} host(s), {} link(s){}",
        cfg.name,
        topo.num_hosts(),
        topo.num_links(),
        cap.map_or(String::from(" (until killed)"), |c| format!(
            " ({c} window(s))"
        )),
    );
    let started = std::time::Instant::now();
    let mut window = 0usize;
    loop {
        // Every window reseeds from its index — the same derivation the
        // epoch pool uses, so window w here is byte-identical to epoch w
        // of a batch trial on the same preset.
        let mut wrng = vigil::epoch_rng(trial_seed, window);
        window += 1;
        let run = session.run_window(&topo, &cfg.run, &faults, &mut wrng, &mut scratch);
        let stats = session.stats();
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        println!(
            "window {:>5}  evidence {:>5}  detected {:>2} link(s)  resident peak {:>6}  \
             {:>9.0} events/s  shed {}",
            stats.windows,
            run.evidence.len(),
            run.detection.detections.len(),
            stats.peak_resident_flows,
            stats.events as f64 / elapsed,
            stats.shed,
        );
        if cap.is_some_and(|c| stats.windows >= c as u64) {
            break;
        }
    }
    session.shutdown();
    let health = session.ledger().health();
    let head: Vec<String> = health
        .heat_map()
        .into_iter()
        .take(5)
        .map(|(l, s)| format!("{l:?}={s:.2}"))
        .collect();
    println!(
        "heat map (EWMA, top {}): {}",
        head.len(),
        if head.is_empty() {
            String::from("(cold)")
        } else {
            head.join("  ")
        }
    );
    ExitCode::SUCCESS
}

/// Pulls `(preset, flags)` apart for the distributed subcommands (same
/// leading-preset convention as `stream`).
fn split_preset(flags: &[String]) -> Result<(ExperimentConfig, &[String]), ExitCode> {
    let (preset_name, rest) = match flags.first() {
        Some(f) if !f.starts_with("--") => (f.as_str(), &flags[1..]),
        _ => ("single-failure", flags),
    };
    match preset(preset_name) {
        Some(cfg) => Ok((cfg, rest)),
        None => {
            eprintln!("unknown preset '{preset_name}'; try `vigil-sim list`");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Parses a flag's value as a positive integer (rejecting 0 and junk).
fn positive(flag: &str, value: Option<&String>) -> Result<u64, String> {
    match value.map(|v| v.parse::<u64>()) {
        Some(Ok(v)) if v > 0 => Ok(v),
        _ => Err(format!("{flag} needs a positive integer")),
    }
}

/// The `agent` subcommand: one distributed host-agent process.
fn run_agent_cmd(flags: &[String]) -> ExitCode {
    let (mut cfg, rest) = match split_preset(flags) {
        Ok(x) => x,
        Err(code) => return code,
    };
    let mut collector: Option<String> = None;
    let mut hosts: Option<std::ops::Range<u32>> = None;
    let mut start_epoch = 0usize;
    let mut epochs: Option<usize> = None;
    let mut resilient = false;
    let mut chaos: Option<ChaosSchedule> = None;
    let mut rcfg = ResilienceConfig::default();
    let mut it = rest.iter();
    let fail = |msg: &str| {
        eprintln!("{msg}");
        eprintln!(
            "usage: vigil-sim agent [preset] --collector ADDR --hosts LO..HI \
             [--start-epoch S] [--epochs N] [--seed N] [--resilient] [--chaos SPEC] \
             [--backoff-ms N] [--ack-timeout-ms N] [--max-reconnects N]"
        );
        ExitCode::FAILURE
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--collector" => match it.next() {
                Some(a) => collector = Some(a.clone()),
                None => return fail("--collector needs an address"),
            },
            "--hosts" => {
                let parsed = it.next().and_then(|v| {
                    let (lo, hi) = v.split_once("..")?;
                    Some(lo.trim().parse::<u32>().ok()?..hi.trim().parse::<u32>().ok()?)
                });
                match parsed {
                    Some(r) => hosts = Some(r),
                    None => return fail("--hosts needs a half-open range LO..HI"),
                }
            }
            "--start-epoch" => {
                // 0 is a legitimate start.
                match it.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(v)) => start_epoch = v as usize,
                    _ => return fail("--start-epoch needs an integer"),
                }
            }
            "--epochs" => match positive(flag, it.next()) {
                Ok(v) => epochs = Some(v as usize),
                Err(e) => return fail(&e),
            },
            "--seed" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => cfg.seed = v,
                _ => return fail("--seed needs an integer"),
            },
            "--resilient" => resilient = true,
            "--chaos" => match it.next().map(|v| ChaosPlan::parse(v)) {
                Some(Ok(plan)) => {
                    chaos = Some(ChaosSchedule::constant(plan));
                    resilient = true; // chaos without reconnect is just loss
                }
                Some(Err(e)) => return fail(&format!("--chaos: {e}")),
                None => {
                    return fail("--chaos needs a spec, e.g. seed=7,corrupt=0.01,reset_every=500")
                }
            },
            "--backoff-ms" => match positive(flag, it.next()) {
                Ok(v) => rcfg.backoff_base = std::time::Duration::from_millis(v),
                Err(e) => return fail(&e),
            },
            "--ack-timeout-ms" => match positive(flag, it.next()) {
                Ok(v) => rcfg.ack_timeout = std::time::Duration::from_millis(v),
                Err(e) => return fail(&e),
            },
            "--max-reconnects" => match positive(flag, it.next()) {
                Ok(v) => rcfg.max_reconnects = v,
                Err(e) => return fail(&e),
            },
            other => return fail(&format!("unknown flag {other}")),
        }
    }
    let Some(collector) = collector else {
        return fail("--collector is required");
    };
    let Some(hosts) = hosts else {
        return fail("--hosts is required");
    };
    let spec = AgentSpec {
        hosts,
        start_epoch,
        epochs: epochs.unwrap_or(cfg.epochs),
        chunk_flows: 256,
    };
    // Decorrelate the fleet's reconnect storms by host range.
    rcfg.jitter_seed ^= (spec.hosts.start as u64) << 32 | spec.hosts.end as u64;
    let endpoint = Endpoint::parse(&collector);
    let result = if resilient {
        run_agent_resilient(&cfg, &spec, &endpoint, &rcfg, chaos.as_ref())
    } else {
        match endpoint.connect() {
            Ok(sink) => run_agent(&cfg, &spec, sink),
            Err(e) => {
                eprintln!("agent: cannot connect to {collector}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    match result {
        Ok(stats) => {
            eprintln!(
                "agent: hosts {}..{}: {} epoch(s), {} event(s) sent ({} evidence), \
                 {} reconnect(s)",
                spec.hosts.start,
                spec.hosts.end,
                stats.epochs,
                stats.events_sent,
                stats.evidence_sent,
                stats.reconnects
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("agent: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `collect` subcommand: the distributed collector daemon.
fn run_collect_cmd(flags: &[String]) -> ExitCode {
    let (mut cfg, rest) = match split_preset(flags) {
        Ok(x) => x,
        Err(code) => return code,
    };
    cfg.trials = 1; // the daemon runs trial 0's schedule
    let mut listen = "127.0.0.1:0".to_string();
    let mut addr_file: Option<String> = None;
    let mut json = false;
    let mut ccfg = CollectorConfig {
        epochs: cfg.epochs,
        ..CollectorConfig::default()
    };
    let mut it = rest.iter();
    let fail = |msg: &str| {
        eprintln!("{msg}");
        eprintln!(
            "usage: vigil-sim collect [preset] --agents N [--listen ADDR] [--addr-file F] \
             [--epochs N] [--seed N] [--json] [--snapshot F] [--resume] [--exit-after K] \
             [--metrics ADDR] [--metrics-addr-file F] \
             [--max-events-per-window N] [--max-hosts N] [--reconnect-grace-ms N] \
             [--idle-timeout-ms N] [--quarantine-budget N]"
        );
        ExitCode::FAILURE
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => match it.next() {
                Some(a) => listen = a.clone(),
                None => return fail("--listen needs an address"),
            },
            "--addr-file" => match it.next() {
                Some(p) => addr_file = Some(p.clone()),
                None => return fail("--addr-file needs a path"),
            },
            "--agents" => match positive(flag, it.next()) {
                Ok(v) => ccfg.agents = v as usize,
                Err(e) => return fail(&e),
            },
            "--epochs" => match positive(flag, it.next()) {
                Ok(v) => {
                    cfg.epochs = v as usize;
                    ccfg.epochs = v as usize;
                }
                Err(e) => return fail(&e),
            },
            "--seed" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => cfg.seed = v,
                _ => return fail("--seed needs an integer"),
            },
            "--json" => json = true,
            "--snapshot" => match it.next() {
                Some(p) => ccfg.snapshot_path = Some(p.into()),
                None => return fail("--snapshot needs a path"),
            },
            "--resume" => ccfg.resume = true,
            "--exit-after" => match positive(flag, it.next()) {
                Ok(v) => ccfg.exit_after = Some(v as usize),
                Err(e) => return fail(&e),
            },
            "--metrics" => match it.next() {
                Some(a) => ccfg.metrics = Some(a.clone()),
                None => return fail("--metrics needs a TCP address"),
            },
            "--metrics-addr-file" => match it.next() {
                Some(p) => ccfg.metrics_addr_file = Some(p.into()),
                None => return fail("--metrics-addr-file needs a path"),
            },
            "--max-events-per-window" => match positive(flag, it.next()) {
                Ok(v) => ccfg.max_events_per_window = v,
                Err(e) => return fail(&e),
            },
            "--max-hosts" => match positive(flag, it.next()) {
                Ok(v) => ccfg.max_hosts = Some(v as u32),
                Err(e) => return fail(&e),
            },
            "--reconnect-grace-ms" => match positive(flag, it.next()) {
                Ok(v) => ccfg.reconnect_grace = std::time::Duration::from_millis(v),
                Err(e) => return fail(&e),
            },
            "--idle-timeout-ms" => match positive(flag, it.next()) {
                Ok(v) => ccfg.idle_timeout = std::time::Duration::from_millis(v),
                Err(e) => return fail(&e),
            },
            "--quarantine-budget" => match positive(flag, it.next()) {
                Ok(v) => ccfg.quarantine_budget = v,
                Err(e) => return fail(&e),
            },
            other => return fail(&format!("unknown flag {other}")),
        }
    }
    if ccfg.resume && ccfg.snapshot_path.is_none() {
        return fail(
            "--resume needs --snapshot: the snapshot file is what a successor resumes from",
        );
    }
    let listener = match Endpoint::parse(&listen).bind() {
        Ok(l) => l,
        Err(e) => {
            eprintln!("collect: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = listener.local_addr();
    eprintln!("collect: listening on {bound}");
    if let Some(path) = &addr_file {
        if let Err(e) = std::fs::write(path, &bound) {
            eprintln!("collect: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match run_collector(&cfg, &listener, &ccfg) {
        Ok(CollectorOutcome::Completed(report, stats)) => {
            eprintln!(
                "collect: done: {} window(s), {} evidence, delivered {}, shed {}, \
                 gaps {}, resets {}, rate-limited {}, reconnects {}, \
                 quarantined {}, evicted {}, malformed {}",
                stats.windows,
                stats.evidence,
                stats.delivered,
                stats.shed,
                stats.seq_gaps,
                stats.seq_resets,
                stats.rate_limited,
                stats.reconnects,
                stats.quarantined_frames,
                stats.hosts_evicted,
                stats.malformed
            );
            if json {
                match serde_json::to_string_pretty(&*report) {
                    Ok(s) => println!("{s}"),
                    Err(e) => {
                        eprintln!("serialization failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                print_report(&cfg, &report);
            }
            ExitCode::SUCCESS
        }
        Ok(CollectorOutcome::Paused(stats)) => {
            eprintln!(
                "collect: paused after {} window(s) (snapshot persisted); \
                 resume with --resume",
                stats.windows
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("collect: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `matrix` subcommand: run the scenario grid, assert envelopes,
/// write `results/matrix.json`.
fn run_matrix(flags: &[String]) -> ExitCode {
    let mut engine = SweepEngine::from_env();
    let mut runner_trials: Option<usize> = None;
    let mut runner_epochs: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut filter = String::new();
    let mut list_only = false;
    let mut json = false;
    let mut byz_fraction: Option<f64> = None;

    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--byzantine-fraction" => {
                let v = match it.next().map(|v| v.parse::<f64>()) {
                    Some(Ok(v)) if (0.0..=1.0).contains(&v) => v,
                    _ => {
                        eprintln!("--byzantine-fraction needs a fraction in [0, 1]");
                        return ExitCode::FAILURE;
                    }
                };
                byz_fraction = Some(v);
            }
            "--filter" => {
                let Some(v) = it.next() else {
                    eprintln!("--filter needs a pattern");
                    return ExitCode::FAILURE;
                };
                filter = v.clone();
            }
            "--list" => list_only = true,
            "--json" => json = true,
            "--trials" | "--epochs" | "--seed" | "--threads" => {
                let v = match it.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(v)) => v,
                    _ => {
                        eprintln!("{flag} needs an integer value");
                        return ExitCode::FAILURE;
                    }
                };
                match flag.as_str() {
                    "--trials" => runner_trials = Some(v as usize),
                    "--epochs" => runner_epochs = Some(v as usize),
                    "--threads" => engine = SweepEngine::new(v as usize),
                    _ => seed = Some(v),
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut cases = vigil::matrix::filter_cases(scenarios::standard_matrix(), &filter);
    if cases.is_empty() {
        eprintln!("no scenario matches filter '{filter}'");
        return ExitCode::FAILURE;
    }
    // Override every byzantine case's compromised fraction while keeping
    // its calibrated envelope: the forced-violation / what-if knob.
    if let Some(f) = byz_fraction {
        let mut hit = false;
        for c in &mut cases {
            if c.run.byzantine.enabled() {
                c.run.byzantine.fraction = f;
                hit = true;
            }
        }
        if !hit {
            eprintln!("--byzantine-fraction matched no byzantine case (try --filter byzantine)");
            return ExitCode::FAILURE;
        }
    }
    if list_only {
        println!("{} scenario(s):", cases.len());
        for c in &cases {
            println!(
                "  {:<28} topology={:<16} traffic={:<12} faults={}",
                c.name,
                c.topology,
                c.traffic,
                c.fault_labels().join("+")
            );
        }
        return ExitCode::SUCCESS;
    }

    let mut runner = MatrixRunner::new(engine.clone());
    // VIGIL_FAST shrinks the conformance run like the figure binaries.
    if std::env::var("VIGIL_FAST").is_ok_and(|v| v == "1") {
        runner.trials = 2;
        runner.epochs = 1;
    }
    if let Some(t) = runner_trials {
        runner.trials = t;
    }
    if let Some(e) = runner_epochs {
        runner.epochs = e;
    }
    if let Some(s) = seed {
        runner.seed = s;
    }

    println!(
        "scenario matrix: {} case(s) × {} trial(s) × {} epoch(s), {} worker thread(s)",
        cases.len(),
        runner.trials,
        runner.epochs,
        engine.threads()
    );
    let report = runner.run(&cases);

    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let pct = |v: Option<f64>| v.map_or("-".into(), |x| format!("{:.1}", x * 100.0));
        println!(
            "\n{:<28} {:>7} {:>7} {:>7} {:>9}  verdict",
            "case", "acc%", "rec%", "prec%", "blamed/ep"
        );
        for c in &report.cases {
            println!(
                "{:<28} {:>7} {:>7} {:>7} {:>9.2}  {}",
                c.name,
                pct(c.metrics.accuracy),
                pct(c.metrics.recall),
                pct(c.metrics.precision),
                c.metrics.blamed_per_epoch,
                if c.pass { "pass" } else { "FAIL" }
            );
            for v in &c.violations {
                println!("{:>30} ! {v}", "");
            }
        }
        if !report.breaking_points.is_empty() {
            println!(
                "\n{:<12} {:>10} {:>11} {:>11}",
                "behavior", "breaks at", "tolerates", "max tested"
            );
            let pct_or = |v: Option<f64>, none: &str| {
                v.map_or(none.into(), |f| format!("{:.0}%", f * 100.0))
            };
            for p in &report.breaking_points {
                println!(
                    "{:<12} {:>10} {:>11} {:>11.0}%",
                    p.behavior,
                    pct_or(p.breaking_fraction, "never"),
                    pct_or(p.tolerated_fraction, "-"),
                    p.max_tested_fraction * 100.0
                );
            }
        }
    }

    // Best-effort JSON drop, like the figure binaries.
    if std::fs::create_dir_all("results").is_ok() {
        if let Ok(s) = serde_json::to_string_pretty(&report) {
            if std::fs::write("results/matrix.json", s).is_ok() {
                println!("\n(wrote results/matrix.json)");
            }
        }
    }

    let failures = report.failures();
    if failures.is_empty() {
        println!(
            "\nconformance: all {} case(s) inside their envelopes",
            report.cases.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nconformance: {} case(s) FAILED:", failures.len());
        for c in failures {
            eprintln!("  {}: {}", c.name, c.violations.join("; "));
        }
        ExitCode::FAILURE
    }
}

/// Applies CLI flags to the config; returns the sweep engine to run it
/// on (`--threads N`, defaulting to `VIGIL_THREADS` / all cores).
fn apply_flags(cfg: &mut ExperimentConfig, flags: &[String]) -> Result<SweepEngine, String> {
    let mut engine = SweepEngine::from_env();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trials" | "--epochs" | "--seed" | "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("{flag}: {e}"))?;
                // Zero trials/epochs would "succeed" with a vacuous
                // report — reject loudly like any other bad value.
                if v == 0 && matches!(flag.as_str(), "--trials" | "--epochs") {
                    return Err(format!("{flag} needs a positive integer, got 0"));
                }
                match flag.as_str() {
                    "--trials" => cfg.trials = v as usize,
                    "--epochs" => cfg.epochs = v as usize,
                    "--threads" => engine = SweepEngine::new(v as usize),
                    _ => cfg.seed = v,
                }
            }
            "--json" => {}
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(engine)
}

fn execute(cfg: ExperimentConfig, engine: SweepEngine, json: bool) -> ExitCode {
    if let Err(e) = cfg.params.validate() {
        eprintln!("invalid topology parameters: {e}");
        return ExitCode::FAILURE;
    }
    let report = engine.run_experiment(&cfg);
    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    print_report(&cfg, &report);
    ExitCode::SUCCESS
}

/// The human-readable report table (shared by `run` and `stream`).
fn print_report(cfg: &ExperimentConfig, report: &ExperimentReport) {
    println!("experiment: {}", report.name);
    println!(
        "topology: {:?} ({} trials × {} epochs, {} thread(s), {:.0} ms)",
        cfg.params, cfg.trials, cfg.epochs, report.timing.threads, report.timing.total_ms
    );
    let pct = |v: Option<f64>| v.map_or("-".into(), |x| format!("{:.1}%", x * 100.0));
    println!("\n                         007      integer-opt");
    println!(
        "per-flow accuracy   {:>8}   {:>12}",
        pct(report.vigil.pooled.accuracy.value()),
        pct(report
            .integer
            .as_ref()
            .and_then(|m| m.pooled.accuracy.value())),
    );
    println!(
        "detection precision {:>8}   {:>12}",
        pct(report.vigil.pooled.confusion.precision()),
        pct(report
            .integer
            .as_ref()
            .and_then(|m| m.pooled.confusion.precision())),
    );
    println!(
        "detection recall    {:>8}   {:>12}",
        pct(report.vigil.pooled.confusion.recall()),
        pct(report
            .integer
            .as_ref()
            .and_then(|m| m.pooled.confusion.recall())),
    );
    println!(
        "\nlinks blamed per epoch: {:.2} ± {:.2}",
        report.detected_per_epoch.mean(),
        report.detected_per_epoch.ci95_half_width().unwrap_or(0.0)
    );
    println!(
        "noise-marked flows: {} (incorrect: {})",
        report.noise_marked, report.noise_marked_incorrectly
    );
}
