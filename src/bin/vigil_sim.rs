//! `vigil-sim` — run 007 fault-localization experiments from the command
//! line.
//!
//! Every subcommand declares its operand and flags once, in [`COMMANDS`]:
//! one parser reads them, and an argument error (an unknown flag such as
//! `--help`, a missing or malformed value) prints the subcommand's usage,
//! generated from the same table. A repeated flag's last value wins. Run
//! `vigil-sim` alone for the list of subcommands and `vigil-sim list` for
//! the presets. Every error is one message on stderr and exit code 1.
//!
//! `stream --epochs N --json` emits byte-identical JSON to
//! `run --json` on the same preset and flags: both call
//! `SweepEngine::run_experiment`. `stream` adds the service-mode
//! counters (events, peak resident flows, shed) on stderr.
//! `stream --forever` rolls windows until killed (or for `--epochs N`
//! windows when given), one summary line each and the heat map on exit;
//! `--window-ms` rescales the Theorem 1 traceroute budget.
//!
//! `collect` and `agent` are the distributed service mode (the paper's
//! Figure 2 over sockets). Addresses containing `/` are Unix-domain
//! socket paths, anything else is TCP `host:port` (port 0 binds
//! ephemerally; `--addr-file` records the bound address for agents to
//! discover). A loopback fleet whose `--hosts` ranges cover the topology
//! emits a final `--json` report byte-identical to `stream --json
//! --trials 1`; `--snapshot` + `--exit-after` + `--resume` drill the
//! collector failover path (`--resume` requires `--snapshot` — there is
//! nothing to resume from otherwise).
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
//!
//! `figures` runs the figure catalogue (`vigil_bench::FIGURES`; every
//! entry, or the one `--only` names) and writes each artifact to
//! `results/<id>.json`, exiting 1 when a write or an entry's check fails.
//! Its scale comes from the environment: `VIGIL_FAST=1` shrinks every
//! entry (a quarter of its trials, half its epochs, a smaller fabric),
//! `VIGIL_TRIALS` / `VIGIL_EPOCHS` override trials and epochs, and
//! `VIGIL_THREADS` sets the engine width — the bytes are the same at any.

use std::process::ExitCode;
use std::time::Duration;
use vigil::prelude::*;
use vigil::scenarios::PRESETS;
use vigil_bench::{Figure, FIGURES};
use vigil_repro::cli::{self, Flag, Kind::*, Out, Parsed};
use vigil_wire::chaos::{ChaosPlan, ChaosSchedule};

/// A subcommand's body.
type Body = fn(&Parsed, &mut Out) -> Result<(), String>;

/// One subcommand: its name, its operand as the usage shows it (`<…>`
/// required, `[…]` an optional preset, empty for none), its flag groups
/// and its body.
struct Command(&'static str, &'static str, &'static [&'static [Flag]], Body);

const REPORT_FLAGS: &[Flag] = &[
    ("--trials", Positive, "independent trials"),
    ("--epochs", Positive, "epochs per trial"),
    ("--seed", Integer, "master seed"),
    ("--threads", Integer, "sweep-engine workers"),
    ("--json", Switch, "machine-readable report"),
];
const STREAM_FLAGS: &[Flag] = &[
    ("--forever", Switch, "roll windows until killed"),
    ("--window-ms", Positive, "window length, default 30000"),
];
const AGENT_FLAGS: &[Flag] = &[
    ("--collector", Text("ADDR"), "collector address (required)"),
    ("--hosts", Hosts, "hosts to run (required)"),
    ("--start-epoch", Integer, "first epoch to send"),
    ("--epochs", Positive, "epochs to send"),
    ("--seed", Integer, "master seed"),
    ("--resilient", Switch, "reconnect, resume, replay"),
    ("--chaos", Text("SPEC"), "seeded fault injector"),
    ("--backoff-ms", Positive, "first reconnect backoff"),
    ("--ack-timeout-ms", Positive, "ack wait before reconnect"),
    ("--max-reconnects", Positive, "reconnects before giving up"),
];
const COLLECT_FLAGS: &[Flag] = &[
    ("--agents", Positive, "agents to wait for"),
    ("--listen", Text("ADDR"), "bind address"),
    ("--addr-file", Text("PATH"), "write the bound address here"),
    ("--epochs", Positive, "windows to close"),
    ("--seed", Integer, "master seed"),
    ("--json", Switch, "machine-readable report"),
    ("--snapshot", Text("PATH"), "persist state here"),
    ("--resume", Switch, "restore the snapshot"),
    ("--exit-after", Positive, "pause after K windows"),
    ("--metrics", Text("ADDR"), "serve metrics over HTTP"),
    ("--metrics-addr-file", Text("PATH"), "its address file"),
    ("--max-events-per-window", Positive, "per-host budget"),
    ("--max-hosts", Positive, "admission cap"),
    ("--reconnect-grace-ms", Positive, "wait for reconnects"),
    ("--idle-timeout-ms", Positive, "drop silent peers"),
    ("--quarantine-budget", Positive, "bad frames allowed"),
];
const MATRIX_FLAGS: &[Flag] = &[
    ("--filter", Text("PAT"), "cases whose name has PAT"),
    ("--list", Switch, "print the grid, do not run"),
    ("--byzantine-fraction", Fraction, "override the fraction"),
];
const FIGURE_FLAGS: &[Flag] = &[("--only", Text("ID"), "run one entry")];

/// The subcommands, in usage order.
const COMMANDS: &[Command] = &[
    Command("list", "", &[], list),
    Command("bounds", "", &[], bounds),
    Command("run", "<preset>", &[REPORT_FLAGS], run),
    Command("stream", "[preset]", &[REPORT_FLAGS, STREAM_FLAGS], stream),
    Command("agent", "[preset]", &[AGENT_FLAGS], agent),
    Command("collect", "[preset]", &[COLLECT_FLAGS], collect),
    Command("run-config", "<config.json>", &[REPORT_FLAGS], run_config),
    Command("matrix", "", &[REPORT_FLAGS, MATRIX_FLAGS], matrix),
    Command("figures", "", &[FIGURE_FLAGS], figures),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Out::stdout();
    let cmd = args
        .first()
        .and_then(|a| COMMANDS.iter().find(|c| c.0 == a));
    let result = match cmd {
        Some(Command(name, operand, flags, run)) => cli::parse(operand, flags, &args[1..])
            .map_err(|e| format!("{e}\n{}", cli::usage(name, operand, flags)))
            .and_then(|parsed| run(&parsed, &mut out)),
        None => {
            let names: Vec<_> = COMMANDS.iter().map(|c| c.0).collect();
            Err(format!("usage: vigil-sim <{}> …", names.join("|")))
        }
    };
    match result.and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The preset the operand names (default `single-failure`).
fn preset(p: &Parsed) -> Result<ExperimentConfig, String> {
    let name = p.operand.as_deref().unwrap_or("single-failure");
    scenarios::preset(name).ok_or_else(|| format!("unknown preset '{name}'; try `vigil-sim list`"))
}

/// The engine `--threads` (else `VIGIL_THREADS`, else all cores) asks for.
fn engine(p: &Parsed) -> Result<SweepEngine, String> {
    let threads = match p.get("--threads") {
        Some(n) => Some(n),
        None => cli::env("VIGIL_THREADS", Integer)?,
    };
    let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(SweepEngine::new(threads.unwrap_or_else(cores)))
}

fn fast() -> bool {
    std::env::var("VIGIL_FAST").is_ok_and(|v| v == "1")
}

/// Applies `--trials`, `--epochs` and `--seed`, checks the topology and
/// returns the engine to run on.
fn apply_report_flags(cfg: &mut ExperimentConfig, p: &Parsed) -> Result<SweepEngine, String> {
    cfg.trials = p.get("--trials").unwrap_or(cfg.trials);
    cfg.epochs = p.get("--epochs").unwrap_or(cfg.epochs);
    cfg.seed = p.get("--seed").unwrap_or(cfg.seed);
    cfg.params
        .validate()
        .map_err(|e| format!("invalid topology parameters: {e}"))?;
    engine(p)
}

fn list(_: &Parsed, out: &mut Out) -> Result<(), String> {
    writeln!(out, "available presets:")?;
    for preset in PRESETS {
        writeln!(out, "  {:<16} {}", preset.name, preset.what)?;
    }
    Ok(())
}

fn bounds(_: &Parsed, out: &mut Out) -> Result<(), String> {
    let p = ClosParams::paper_sim();
    let ct = vigil_topology::bounds::theorem1_ct_bound(&p, 100.0);
    writeln!(out, "paper topology: {p:?}")?;
    writeln!(
        out,
        "Theorem 1: Ct = {ct:.2} traceroutes/s/host at Tmax = 100/s"
    )?;
    let t2 = vigil_topology::bounds::Theorem2 {
        params: p,
        k: 1,
        p_bad: 5e-4,
        p_good: 1e-7,
        c_lower: 50,
        c_upper: 100,
    };
    writeln!(
        out,
        "Theorem 2 (k=1, p_bad=0.05%): α = {:.3}, noise ceiling = {:.2e}",
        t2.alpha().unwrap_or(f64::NAN),
        t2.noise_ceiling().unwrap_or(f64::NAN)
    )
}

fn run(p: &Parsed, out: &mut Out) -> Result<(), String> {
    execute(preset(p)?, p, out)
}

fn run_config(p: &Parsed, out: &mut Out) -> Result<(), String> {
    let path = p.operand.as_deref().unwrap_or_default();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cfg = serde_json::from_str(&text).map_err(|e| format!("invalid config: {e}"))?;
    execute(cfg, p, out)
}

/// Runs `cfg` on the batch pipeline.
fn execute(mut cfg: ExperimentConfig, p: &Parsed, out: &mut Out) -> Result<(), String> {
    let (report, _) = apply_report_flags(&mut cfg, p)?.run_experiment(&cfg);
    out.report(p.has("--json"), &cfg, &report)
}

/// `stream`: the event-driven, constant-memory pipeline.
fn stream(p: &Parsed, out: &mut Out) -> Result<(), String> {
    let mut cfg = preset(p)?;
    let engine = apply_report_flags(&mut cfg, p)?;
    // A non-default window rescales the Theorem 1 traceroute budget:
    // `Ct × window_seconds` traces per window.
    if let Some(ms) = p.get::<u64>("--window-ms") {
        if let PacerBudget::Theorem1 { tmax, .. } = cfg.run.pacer {
            cfg.run.pacer = PacerBudget::Theorem1 {
                tmax,
                epoch_seconds: ms as f64 / 1000.0,
            };
        }
    }
    if p.has("--forever") {
        // The service loop has no final report: it runs one continuous
        // session (trial 0) and prints per-window lines. Flags that only
        // shape a report are contradictions, not no-ops.
        if p.has("--json") {
            return Err("--forever has no JSON report; drop --json (or drop --forever)".into());
        }
        if p.has("--trials") || p.has("--threads") {
            return Err("--forever runs one continuous session (trial 0, serial); \
                 --trials/--threads only apply to the report mode"
                .into());
        }
        return stream_forever(&cfg, p.has("--epochs").then_some(cfg.epochs), out);
    }

    let (report, stats) = engine.run_experiment(&cfg);
    // Service-mode accounting goes to stderr so `--json` stdout stays
    // byte-identical to the batch `run --json` output.
    eprintln!(
        "stream: {} flows, {} events ({} evidence), peak resident {} flow record(s), shed {}",
        stats.flows, stats.events, stats.evidence, stats.peak_resident_flows, stats.shed
    );
    out.report(p.has("--json"), &cfg, &report)?;
    if p.has("--json") {
        return Ok(());
    }
    writeln!(
        out,
        "\nstreaming: {} window(s), peak resident {} flow record(s) (vs {} simulated), \
         {} event(s), shed {}",
        stats.windows, stats.peak_resident_flows, stats.flows, stats.events, stats.shed
    )
}

/// `stream --forever`: the long-running service. One topology + fault
/// draw (trial 0), windows rolling until killed — or for `cap` windows
/// when `--epochs` was explicit — with a summary line per window and the
/// cross-window heat map at the end.
fn stream_forever(cfg: &ExperimentConfig, cap: Option<usize>, out: &mut Out) -> Result<(), String> {
    let trial = cfg
        .trial(0)
        .map_err(|e| format!("invalid topology parameters: {e}"))?;
    let topo = &trial.topo;
    let mut scratch = vigil_fabric::EpochScratch::new();
    let mut session = StreamSession::new(
        topo,
        &cfg.run,
        StreamTuning::default(),
        RetainPolicy::EvidenceOnly,
    );
    writeln!(
        out,
        "streaming service mode: preset {}, {} host(s), {} link(s){}",
        cfg.name,
        topo.num_hosts(),
        topo.num_links(),
        cap.map_or(String::from(" (until killed)"), |c| format!(
            " ({c} window(s))"
        )),
    )?;
    let started = std::time::Instant::now();
    let mut window = 0usize;
    loop {
        // Window w runs epoch w of trial 0, as every runner draws it, so
        // its verdict is epoch w's in `stream --json --trials 1`.
        let (faults, mut rng) = (trial.faults(window), trial.epoch_rng(window));
        window += 1;
        let run = session.run_window(topo, &cfg.run, &faults, &mut rng, &mut scratch);
        let stats = session.stats();
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        writeln!(
            out,
            "window {:>5}  evidence {:>5}  detected {:>2} link(s)  resident peak {:>6}  \
             {:>9.0} events/s  shed {}",
            stats.windows,
            run.evidence.len(),
            run.detection.detections.len(),
            stats.peak_resident_flows,
            stats.events as f64 / elapsed,
            stats.shed,
        )?;
        if cap.is_some_and(|c| stats.windows >= c as u64) {
            break;
        }
    }
    let health = session.ledger().health();
    let head: Vec<String> = health
        .heat_map()
        .into_iter()
        .take(5)
        .map(|(l, s)| format!("{l:?}={s:.2}"))
        .collect();
    writeln!(
        out,
        "heat map (EWMA, top {}): {}",
        head.len(),
        if head.is_empty() {
            String::from("(cold)")
        } else {
            head.join("  ")
        }
    )
}

/// `agent`: one distributed host-agent process.
fn agent(p: &Parsed, _: &mut Out) -> Result<(), String> {
    let mut cfg = preset(p)?;
    cfg.seed = p.get("--seed").unwrap_or(cfg.seed);
    let collector = p.text("--collector").ok_or("--collector is required")?;
    let hosts = p
        .text("--hosts")
        .and_then(cli::host_range)
        .ok_or("--hosts is required")?;
    let chaos = match p.text("--chaos") {
        Some(spec) => Some(ChaosPlan::parse(spec).map_err(|e| format!("--chaos: {e}"))?),
        None => None,
    };
    let ms = |name: &str| p.get(name).map(Duration::from_millis);
    let mut rcfg = ResilienceConfig::default();
    rcfg.backoff_base = ms("--backoff-ms").unwrap_or(rcfg.backoff_base);
    rcfg.ack_timeout = ms("--ack-timeout-ms").unwrap_or(rcfg.ack_timeout);
    rcfg.max_reconnects = p.get("--max-reconnects").unwrap_or(rcfg.max_reconnects);
    let spec = AgentSpec {
        hosts,
        start_epoch: p.get("--start-epoch").unwrap_or(0),
        epochs: p.get("--epochs").unwrap_or(cfg.epochs),
        chunk_flows: 256,
    };
    let endpoint = Endpoint::parse(collector);
    // Chaos without reconnect is just loss, so it implies --resilient.
    let stats = if p.has("--resilient") || chaos.is_some() {
        let chaos = chaos.map(ChaosSchedule::constant);
        run_agent_resilient(&cfg, &spec, &endpoint, &rcfg, chaos.as_ref())
    } else {
        let sink = endpoint
            .connect()
            .map_err(|e| format!("agent: cannot connect to {collector}: {e}"))?;
        run_agent(&cfg, &spec, sink)
    }
    .map_err(|e| format!("agent: {e}"))?;
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
    Ok(())
}

/// `collect`: the distributed collector daemon.
fn collect(p: &Parsed, out: &mut Out) -> Result<(), String> {
    let mut cfg = preset(p)?;
    cfg.trials = 1; // the daemon runs trial 0's schedule
    cfg.epochs = p.get("--epochs").unwrap_or(cfg.epochs);
    cfg.seed = p.get("--seed").unwrap_or(cfg.seed);
    let ms = |name: &str| p.get(name).map(Duration::from_millis);
    let d = CollectorConfig::default();
    let ccfg = CollectorConfig {
        agents: p.get("--agents").unwrap_or(d.agents),
        epochs: cfg.epochs,
        snapshot_path: p.text("--snapshot").map(Into::into),
        resume: p.has("--resume"),
        exit_after: p.get("--exit-after"),
        metrics: p.text("--metrics").map(Into::into),
        metrics_addr_file: p.text("--metrics-addr-file").map(Into::into),
        max_events_per_window: p
            .get("--max-events-per-window")
            .unwrap_or(d.max_events_per_window),
        max_hosts: p.get("--max-hosts").or(d.max_hosts),
        reconnect_grace: ms("--reconnect-grace-ms").unwrap_or(d.reconnect_grace),
        idle_timeout: ms("--idle-timeout-ms").unwrap_or(d.idle_timeout),
        quarantine_budget: p.get("--quarantine-budget").unwrap_or(d.quarantine_budget),
        ..d
    };
    if ccfg.resume && ccfg.snapshot_path.is_none() {
        return Err(
            "--resume needs --snapshot: the snapshot file is what a successor resumes from".into(),
        );
    }
    let listen = p.text("--listen").unwrap_or("127.0.0.1:0");
    let listener = Endpoint::parse(listen)
        .bind()
        .map_err(|e| format!("collect: cannot bind {listen}: {e}"))?;
    let bound = listener.local_addr();
    eprintln!("collect: listening on {bound}");
    if let Some(path) = p.text("--addr-file") {
        std::fs::write(path, &bound).map_err(|e| format!("collect: cannot write {path}: {e}"))?;
    }
    match run_collector(&cfg, &listener, &ccfg).map_err(|e| format!("collect: {e}"))? {
        CollectorOutcome::Completed(report, stats) => {
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
            out.report(p.has("--json"), &cfg, &report)
        }
        CollectorOutcome::Paused(stats) => {
            eprintln!(
                "collect: paused after {} window(s) (snapshot persisted); \
                 resume with --resume",
                stats.windows
            );
            Ok(())
        }
    }
}

/// `matrix`: run the scenario grid, write `results/matrix.json` and fail
/// when a case falls outside its envelope.
fn matrix(p: &Parsed, out: &mut Out) -> Result<(), String> {
    let filter = p.text("--filter").unwrap_or_default();
    let mut cases = vigil::matrix::filter_cases(scenarios::standard_matrix(), filter);
    if cases.is_empty() {
        return Err(format!("no scenario matches filter '{filter}'"));
    }
    // Override every byzantine case's compromised fraction while keeping
    // its calibrated envelope: the forced-violation / what-if knob.
    if let Some(f) = p.get("--byzantine-fraction") {
        let mut hit = false;
        for c in cases.iter_mut().filter(|c| c.run.byzantine.enabled()) {
            c.run.byzantine.fraction = f;
            hit = true;
        }
        if !hit {
            return Err(
                "--byzantine-fraction matched no byzantine case (try --filter byzantine)".into(),
            );
        }
    }
    if p.has("--list") {
        return out.cases(&cases);
    }

    let engine = engine(p)?;
    let mut runner = MatrixRunner::new(engine.clone());
    // VIGIL_FAST shrinks the conformance run like the figure catalogue.
    if fast() {
        runner.trials = 2;
        runner.epochs = 1;
    }
    runner.trials = p.get("--trials").unwrap_or(runner.trials);
    runner.epochs = p.get("--epochs").unwrap_or(runner.epochs);
    runner.seed = p.get("--seed").unwrap_or(runner.seed);
    writeln!(
        out,
        "scenario matrix: {} case(s) × {} trial(s) × {} epoch(s), {} worker thread(s)",
        cases.len(),
        runner.trials,
        runner.epochs,
        engine.threads()
    )?;
    let report = runner.run(&cases);
    let json =
        serde_json::to_string_pretty(&report).map_err(|e| format!("serialization failed: {e}"))?;
    if p.has("--json") {
        writeln!(out, "{json}")?;
    } else {
        out.matrix(&report)?;
    }
    let path = "results/matrix.json";
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(path, json))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    writeln!(out, "\n(wrote {path})")?;

    let failures: Vec<String> = report
        .failures()
        .iter()
        .map(|c| format!("  {}: {}", c.name, c.violations.join("; ")))
        .collect();
    if !failures.is_empty() {
        let (n, lines) = (failures.len(), failures.join("\n"));
        return Err(format!("\nconformance: {n} case(s) FAILED:\n{lines}"));
    }
    writeln!(
        out,
        "\nconformance: all {} case(s) inside their envelopes",
        report.cases.len()
    )
}

/// `figures`: run the catalogue, write `results/<id>.json`.
fn figures(p: &Parsed, out: &mut Out) -> Result<(), String> {
    let figures: Vec<&Figure> = match p.text("--only") {
        None => FIGURES.iter().collect(),
        Some(id) => vec![vigil_bench::figure(id).ok_or_else(|| {
            let ids: Vec<_> = FIGURES.iter().map(|f| f.id).collect();
            format!("unknown figure '{id}'; valid ids: {}", ids.join(" "))
        })?],
    };
    let engine = engine(p)?;
    let trials = cli::env("VIGIL_TRIALS", Positive)?;
    let epochs = cli::env("VIGIL_EPOCHS", Positive)?;
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let rule = "=".repeat(64);
    for fig in figures {
        let scale = fig.scale(fast(), trials, epochs);
        writeln!(
            out,
            "{rule}\n{}: {}\npaper: {}",
            fig.id, fig.what, fig.paper
        )?;
        writeln!(
            out,
            "{} trial(s) × {} epoch(s), {} worker thread(s)\n{rule}",
            scale.trials,
            scale.epochs,
            engine.threads()
        )?;
        let artifacts = (fig.run)(scale, &engine).map_err(|e| format!("{}: {e}", fig.id))?;
        for artifact in artifacts {
            let path = dir.join(format!("{}.json", artifact.id));
            std::fs::write(&path, artifact.json)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            writeln!(out, "(wrote {})", path.display())?;
        }
    }
    Ok(())
}
