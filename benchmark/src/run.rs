//! One benchmark run: the end-to-end pass (tracing off) or the per-layer
//! pass (traced twin), each checking the program's verdicts against a
//! reference before it reports a number.

use crate::alloc::AllocCount;
use crate::collector::{record_fleet, replay};
use crate::session::{
    cold_setup, reference_digests, route_since, run_timed, verdict_digest, SessionOutcome, World,
};
use crate::stats::{median, quantile_ns};
use crate::trace::{Ledger, Tracer, WINDOW};
use crate::twin::{trace_wire, CollectorTwin, Twin};
use crate::workloads::{Driver, Fabric, Size, Workload, SETUP_REPS};
use std::hint::black_box;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;
use vigil::{
    stream_trial, CollectorStats, ExperimentConfig, ExperimentReport, StreamSession, StreamTuning,
};
use vigil_fabric::flowsim::EpochScratch;
use vigil_fabric::traffic::ConnCount;
use vigil_optim::{integer_program, CoverInstance, FlowRow, SearchLimits};
use vigil_topology::{ClosTopology, LinkSet, RouteTable};

/// Name, unit, and whether larger is better.
pub type MetricDef = (&'static str, &'static str, bool);

/// The end-to-end metrics, in reporting order. Every workload reports
/// all of them, measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    ("setup_s", "s", false),
    ("flows_per_sec", "1/s", true),
    ("window_ms_p50", "ms", false),
    ("allocs_per_window", "count", false),
    ("alloc_kib_per_window", "KiB", false),
    ("peak_rss_mib", "MiB", false),
];

/// The per-layer metrics, in reporting order. A layer that is not on a
/// workload's path reports 0 there.
pub const PER_LAYER: [MetricDef; 34] = [
    ("topology.build_us", "us", false),
    ("topology.route_compile_us", "us", false),
    ("fabric.open_us_per_window", "us", false),
    ("fabric.next_batch_ns_per_flow", "ns", false),
    ("fabric.next_chunk_ns_per_flow", "ns", false),
    ("fabric.materialize_ns_per_record", "ns", false),
    ("fabric.interned_paths_per_window", "count", false),
    ("fabric.route_path_hit_ratio", "ratio", true),
    ("fabric.route_table_compiles", "count", false),
    ("agents.adversary_ns_per_flow", "ns", false),
    ("agents.dispatch_ns_per_event", "ns", false),
    ("agents.hub_ns_per_event", "ns", false),
    ("agents.tick_us_per_window", "us", false),
    ("agents.events_per_window", "count", false),
    ("agents.hub_shed", "count", false),
    ("analysis.absorb_ns_per_evidence", "ns", false),
    ("analysis.close_window_us_p50", "us", false),
    ("analysis.close_window_us_p95", "us", false),
    ("analysis.evidence_per_window", "count", false),
    ("analysis.detected_per_window", "count", true),
    ("wire.encode_ns_per_frame", "ns", false),
    ("wire.decode_ns_per_frame", "ns", false),
    ("wire.bytes_per_event", "B", false),
    ("core.assemble_us_per_window", "us", false),
    ("core.evaluate_us_per_window", "us", false),
    ("core.collector_overhead_ratio", "ratio", false),
    ("core.collector_seq_gaps", "count", false),
    ("core.collector_quarantined_frames", "count", false),
    ("core.window_ms_p90", "ms", false),
    ("core.window_ms_p99", "ms", false),
    ("core.window_drift_ratio", "ratio", false),
    ("optim.integer_program_ms_per_instance", "ms", false),
    ("core.trace_coverage", "ratio", true),
    ("core.trace_overhead_ratio", "ratio", false),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload.
    pub workload: &'static Workload,
    /// The size-table row.
    pub size: Size,
    /// The run's seed; every input derives from it.
    pub seed: u64,
    /// Directory for recordings, sockets and the span file.
    pub out_dir: PathBuf,
}

/// The work a run did — a pure function of `(workload, size, seed)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Timed windows.
    pub windows: u64,
    /// Flows simulated in them.
    pub flows: u64,
    /// Evidence absorbed in them.
    pub evidence: u64,
    /// Allocation calls during them (exact on in-process workloads).
    pub alloc_calls: u64,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Windows whose verdict was checked.
    pub attempted: u64,
    /// Windows whose verdict differed from the reference, or that rode
    /// a session with a non-zero loss counter.
    pub failed: u64,
    /// The work done.
    pub work: Work,
    /// `(name, unit, value)` in reporting order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    /// Whether every checked verdict matched.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Looks a metric's value up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|m| m.2)
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Set-up repetitions at `size`.
fn setup_reps(size: Size) -> usize {
    match size {
        Size::Full => SETUP_REPS,
        Size::Smoke => 3,
    }
}

/// Flows one window of `config` simulates: every workload fixes the
/// connections per host.
fn flows_per_window(config: &ExperimentConfig) -> u64 {
    match config.run.traffic.conns_per_host {
        ConnCount::Fixed(n) => u64::from(config.params.num_hosts()) * u64::from(n),
        ConnCount::Uniform(..) => unreachable!("workloads fix the connection count"),
    }
}

fn ns_to_s(ns: f64) -> f64 {
    ns / 1e9
}

/// The end-to-end metrics from per-session timings and run-wide counts.
fn end_to_end_metrics(
    setup_ns: &[u64],
    session_rates: &[f64],
    window_ns: &[u64],
    allocs: AllocCount,
    windows: u64,
    rss_mib: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let values = [
        ns_to_s(quantile_ns(setup_ns, 0.5)),
        median(session_rates),
        quantile_ns(window_ns, 0.5) / 1e6,
        allocs.calls as f64 / windows as f64,
        allocs.bytes as f64 / 1024.0 / windows as f64,
        rss_mib,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| (name, unit, v))
        .collect()
}

/// The end-to-end pass: tracing off, the real drivers.
pub fn end_to_end(spec: &RunSpec) -> io::Result<RunResult> {
    match spec.workload.driver {
        Driver::InProcess => end_to_end_in_process(spec),
        Driver::Collector => end_to_end_collector(spec),
    }
}

fn end_to_end_in_process(spec: &RunSpec) -> io::Result<RunResult> {
    let wl = spec.workload;
    let (sessions, windows) = (wl.sessions(spec.size), wl.windows(spec.size));

    // Set-up, repeated cold on session 0's config: the repetitions
    // double as CPU warm-up for the timed sessions.
    let first = wl.config(spec.seed, 0, windows);
    let setup_ns: Vec<u64> = (0..setup_reps(spec.size))
        .map(|_| {
            let started = Instant::now();
            let warm = cold_setup::<StreamSession>(&first);
            let ns = started.elapsed().as_nanos() as u64;
            black_box(warm.cold_digest);
            ns
        })
        .collect();

    let mut runs: Vec<(ExperimentConfig, u64, SessionOutcome)> = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let config = wl.config(spec.seed, s, windows);
        let mut warm = cold_setup::<StreamSession>(&config);
        let out = run_timed(&mut warm, &config.run, windows);
        runs.push((config, warm.cold_digest, out));
    }
    // Read before the reference pass builds sessions of its own.
    let rss_mib = peak_rss_mib()?;

    let mut result = RunResult::default();
    let mut allocs = AllocCount::default();
    let mut window_ns = Vec::with_capacity(sessions * windows);
    let mut rates = Vec::with_capacity(sessions);
    for (config, cold_digest, out) in &runs {
        let reference = reference_digests(config);
        let ours = std::iter::once(cold_digest).chain(&out.digests);
        let mismatched = ours.zip(&reference).filter(|(a, b)| a != b).count() as u64;
        result.attempted += reference.len() as u64;
        // A shed event is a lost vote: the whole session is suspect.
        result.failed += if out.shed > 0 {
            reference.len() as u64
        } else {
            mismatched
        };
        result.work.windows += out.window_ns.len() as u64;
        result.work.flows += out.flows;
        result.work.evidence += out.evidence;
        allocs.add(out.allocs);
        window_ns.extend_from_slice(&out.window_ns);
        rates.push(out.flows as f64 / ns_to_s(out.busy_ns as f64));
    }
    result.work.alloc_calls = allocs.calls;
    result.metrics = end_to_end_metrics(
        &setup_ns,
        &rates,
        &window_ns,
        allocs,
        result.work.windows,
        rss_mib,
    );
    Ok(result)
}

/// The in-process report a collector run must reproduce byte for byte
/// (`fleet ≡ stream`): `stream_trial` folded into an experiment report.
fn reference_report_json(config: &ExperimentConfig) -> io::Result<String> {
    let (trial, _) = stream_trial(config, 0, &StreamTuning::default());
    let mut report = ExperimentReport::empty(config);
    report.merge_trial(trial);
    serde_json::to_string(&report).map_err(io::Error::other)
}

/// Whether a collector session lost nothing: no hub shed, no sequence
/// gap, no quarantined frame.
fn lossless(stats: &CollectorStats) -> bool {
    stats.shed == 0 && stats.seq_gaps == 0 && stats.quarantined_frames == 0
}

fn socket_path(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("collector-{}.sock", std::process::id()))
}

fn end_to_end_collector(spec: &RunSpec) -> io::Result<RunResult> {
    let wl = spec.workload;
    let (sessions, windows) = (wl.sessions(spec.size), wl.windows(spec.size));
    std::fs::create_dir_all(&spec.out_dir)?;
    let socket = socket_path(&spec.out_dir);
    let tag = format!("rec-{}", std::process::id());

    let mut result = RunResult::default();
    let mut setup_ns = Vec::new();
    let mut allocs = AllocCount::default();
    let mut window_ns = Vec::with_capacity(sessions * windows);
    let mut rates = Vec::with_capacity(sessions);
    let mut reports: Vec<(ExperimentConfig, String, bool)> = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let config = wl.config(spec.seed, s, windows);
        let fleet = record_fleet(&config, &spec.out_dir, &tag)?;
        if s == 0 {
            // Set-up, repeated cold: bind, admit the fleet, window 0.
            for _ in 0..setup_reps(spec.size) {
                setup_ns.push(replay(&config, &fleet, 0, &socket)?.setup_ns);
            }
        }
        let out = replay(&config, &fleet, windows, &socket)?;
        let busy_ns: u64 = out.window_ns.iter().sum();
        let flows = flows_per_window(&config) * windows as u64;
        rates.push(flows as f64 / ns_to_s(busy_ns as f64));
        window_ns.extend_from_slice(&out.window_ns);
        allocs.add(out.allocs);
        result.work.windows += windows as u64;
        result.work.flows += flows;
        result.work.evidence += out.stats.evidence;
        let json = serde_json::to_string(&*out.report).map_err(io::Error::other)?;
        reports.push((config, json, lossless(&out.stats)));
    }
    let rss_mib = peak_rss_mib()?;

    for (config, json, lossless) in &reports {
        result.attempted += config.epochs as u64;
        if !lossless || *json != reference_report_json(config)? {
            result.failed += config.epochs as u64;
        }
    }
    result.work.alloc_calls = allocs.calls;
    result.metrics = end_to_end_metrics(
        &setup_ns,
        &rates,
        &window_ns,
        allocs,
        result.work.windows,
        rss_mib,
    );
    Ok(result)
}

/// Sessions' drift: the median window time of a session's last quarter
/// over that of its first quarter; the median over sessions.
fn drift_ratio(sessions: &[&[u64]]) -> f64 {
    let ratios: Vec<f64> = sessions
        .iter()
        .map(|ns| {
            let q = (ns.len() / 4).max(1);
            quantile_ns(&ns[ns.len() - q..], 0.5) / quantile_ns(&ns[..q], 0.5)
        })
        .collect();
    median(&ratios)
}

/// Times topology construction and a route-table compile on `config`'s
/// parameters, outside any window (they are set-up layers).
fn trace_setup_layers(tracer: &mut Tracer, config: &ExperimentConfig) {
    for rep in 0..5u64 {
        let span = tracer.open("topology.build");
        let topo = ClosTopology::new(config.params, config.seed ^ rep)
            .expect("workload parameters are fixed and valid");
        tracer.close(span, 1);
        let down = LinkSet::new(topo.num_links());
        let span = tracer.open("topology.route_compile");
        black_box(RouteTable::compile(&topo, &down));
        tracer.close(span, 1);
    }
}

/// Times the integer program (4) on the first windows' evidence sets of
/// `config` — off the serving path by construction, so outside any
/// window.
fn trace_integer_program(tracer: &mut Tracer, config: &ExperimentConfig, instances: usize) {
    let mut warm = cold_setup::<StreamSession>(config);
    let limits = SearchLimits {
        max_nodes: config.run.baselines.max_nodes,
    };
    for w in 1..=instances {
        let mut rng = warm.world.epoch_rng(w);
        let run = warm.pipeline.run_window(
            &warm.world.topo,
            &config.run,
            &warm.world.faults,
            &mut rng,
            &mut warm.scratch,
        );
        let rows: Vec<FlowRow> = run
            .reports
            .iter()
            .map(|r| FlowRow {
                links: r.links.iter().map(|l| l.0).collect(),
                demand: r.retransmissions,
            })
            .collect();
        let instance = CoverInstance::new(&rows);
        let span = tracer.open("optim.integer_program");
        black_box(integer_program(&instance, &limits));
        tracer.close(span, rows.len());
    }
}

/// Everything the per-layer metrics are computed from.
#[derive(Default)]
struct LayerInputs {
    ledger: Ledger,
    /// Untraced window times of every session, full length.
    untraced: Vec<Vec<u64>>,
    /// Untraced and traced times of the traced windows, pooled.
    untraced_twin_windows: Vec<u64>,
    traced_windows: Vec<u64>,
    interned_paths: u64,
    path_hits: u64,
    path_misses: u64,
    table_compiles: u64,
    events: u64,
    evidence: u64,
    detected: u64,
    shed: u64,
    wire_bytes: u64,
    wire_events: u64,
    collector_overhead: f64,
    seq_gaps: u64,
    quarantined: u64,
}

fn per_layer_metrics(x: &LayerInputs) -> Vec<(&'static str, &'static str, f64)> {
    let l = &x.ledger;
    let windows = x.traced_windows.len().max(1) as f64;
    let per_window_us = |name: &str| l.get(name).self_ns as f64 / 1e3 / windows;
    let per_unit = |name: &str| l.get(name).ns_per_unit();
    let per_span_us = |name: &str| {
        let t = l.get(name);
        if t.spans == 0 {
            0.0
        } else {
            t.self_ns as f64 / 1e3 / t.spans as f64
        }
    };
    let close = &l.get("analysis.close_window").durations;
    let close_us = |q: f64| {
        if close.is_empty() {
            0.0
        } else {
            quantile_ns(close, q) / 1e3
        }
    };
    let untraced_all: Vec<u64> = x.untraced.iter().flatten().copied().collect();
    let untraced_sessions: Vec<&[u64]> = x.untraced.iter().map(Vec::as_slice).collect();
    let untraced_twin_ns: u64 = x.untraced_twin_windows.iter().sum();
    let lookups = x.path_hits + x.path_misses;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let values = [
        per_span_us("topology.build"),
        per_span_us("topology.route_compile"),
        per_window_us("fabric.open"),
        per_unit("fabric.next_batch"),
        per_unit("fabric.next_chunk"),
        per_unit("fabric.materialize"),
        x.interned_paths as f64 / windows,
        ratio(x.path_hits as f64, lookups as f64),
        x.table_compiles as f64,
        per_unit("agents.adversary"),
        per_unit("agents.dispatch"),
        per_unit("agents.hub"),
        per_window_us("agents.tick"),
        x.events as f64 / windows,
        x.shed as f64,
        per_unit("analysis.absorb"),
        close_us(0.5),
        close_us(0.95),
        x.evidence as f64 / windows,
        x.detected as f64 / windows,
        per_unit("wire.encode"),
        per_unit("wire.decode"),
        ratio(x.wire_bytes as f64, x.wire_events as f64),
        per_window_us("core.assemble"),
        per_window_us("core.evaluate"),
        x.collector_overhead,
        x.seq_gaps as f64,
        x.quarantined as f64,
        quantile_ns(&untraced_all, 0.9) / 1e6,
        quantile_ns(&untraced_all, 0.99) / 1e6,
        drift_ratio(&untraced_sessions),
        l.get("optim.integer_program").self_ns as f64
            / 1e6
            / l.get("optim.integer_program").spans.max(1) as f64,
        ratio(l.covered_ns() as f64, untraced_twin_ns as f64),
        ratio(
            quantile_ns(&x.traced_windows, 0.5),
            quantile_ns(&x.untraced_twin_windows, 0.5),
        ),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| (name, unit, v))
        .collect()
}

/// Windows the traced twin runs per session: a quarter of the timed ones.
fn twin_window_count(windows: usize) -> usize {
    (windows / 4).max(1)
}

/// Writes the span file; returns its path.
fn write_spans(spec: &RunSpec, tracer: &Tracer) -> io::Result<PathBuf> {
    std::fs::create_dir_all(&spec.out_dir)?;
    let path = spec
        .out_dir
        .join(format!("spans-{}-{}.tsv", spec.workload.name, spec.seed));
    tracer.write_tsv(BufWriter::new(std::fs::File::create(&path)?))?;
    Ok(path)
}

/// The per-layer pass: the untraced driver for the baseline, then the
/// traced twin over a quarter of the windows, verdicts checked equal.
/// Returns the result and where the span file went.
pub fn per_layer(spec: &RunSpec) -> io::Result<(RunResult, PathBuf)> {
    match spec.workload.driver {
        Driver::InProcess => per_layer_in_process(spec),
        Driver::Collector => per_layer_collector(spec),
    }
}

fn per_layer_in_process(spec: &RunSpec) -> io::Result<(RunResult, PathBuf)> {
    let wl = spec.workload;
    let (sessions, windows) = (wl.sessions(spec.size), wl.windows(spec.size));
    let twin_windows = twin_window_count(windows);

    let mut untraced: Vec<(u64, SessionOutcome)> = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let config = wl.config(spec.seed, s, windows);
        let mut warm = cold_setup::<StreamSession>(&config);
        let out = run_timed(&mut warm, &config.run, windows);
        untraced.push((warm.cold_digest, out));
    }

    let mut tracer = Tracer::new();
    let mut x = LayerInputs::default();
    let mut result = RunResult::default();
    for (s, (cold_digest, real)) in untraced.iter().enumerate() {
        let config = wl.config(spec.seed, s, windows);
        let mut warm = cold_setup::<Twin>(&config);
        // The cold window is set-up: its spans stay out of the ledger.
        warm.pipeline.tracer.clear();
        let events_before = warm.pipeline.events;
        let out = run_timed(&mut warm, &config.run, twin_windows);
        let ours = std::iter::once(&warm.cold_digest).chain(&out.digests);
        let theirs = std::iter::once(cold_digest).chain(&real.digests);
        let mismatched = ours.zip(theirs).filter(|(a, b)| a != b).count() as u64;
        result.attempted += twin_windows as u64 + 1;
        result.failed += if out.shed > 0 || real.shed > 0 {
            twin_windows as u64 + 1
        } else {
            mismatched
        };
        result.work.windows += twin_windows as u64;
        result.work.flows += out.flows;
        result.work.evidence += out.evidence;
        result.work.alloc_calls += out.allocs.calls;
        x.untraced_twin_windows
            .extend_from_slice(&real.window_ns[..twin_windows]);
        x.traced_windows.extend_from_slice(&out.window_ns);
        x.interned_paths += out.interned_paths;
        x.path_hits += out.route.path_hits;
        x.path_misses += out.route.path_misses;
        x.table_compiles += warm.scratch.route_cache_stats().compiles;
        x.events += warm.pipeline.events - events_before;
        x.evidence += out.evidence;
        x.detected += out.detected;
        x.shed += out.shed + real.shed;
        tracer.absorb(
            std::mem::take(&mut warm.pipeline.tracer),
            (s * (windows + 1)) as u32,
        );
    }
    x.untraced = untraced.into_iter().map(|(_, o)| o.window_ns).collect();

    let first = wl.config(spec.seed, 0, windows);
    trace_setup_layers(&mut tracer, &first);
    // The integer program is timed where its instances are small enough
    // to finish: the honest cluster's evidence sets.
    if wl.fabric == Fabric::Cluster {
        trace_integer_program(&mut tracer, &first, 20.min(windows));
    }
    x.ledger = Ledger::from_spans(tracer.spans());
    debug_assert_eq!(x.ledger.get(WINDOW).spans as usize, sessions * twin_windows);
    result.metrics = per_layer_metrics(&x);
    let path = write_spans(spec, &tracer)?;
    Ok((result, path))
}

fn per_layer_collector(spec: &RunSpec) -> io::Result<(RunResult, PathBuf)> {
    let wl = spec.workload;
    let sessions = wl.sessions(spec.size);
    // Everything here runs on the traced windows only: the in-process
    // reference, the real collector for the untraced baseline, the twin.
    let windows = twin_window_count(wl.windows(spec.size));
    std::fs::create_dir_all(&spec.out_dir)?;
    let socket = socket_path(&spec.out_dir);
    let tag = format!("rec-{}", std::process::id());

    let mut tracer = Tracer::new();
    let mut x = LayerInputs::default();
    let mut result = RunResult::default();
    let mut in_process_ns = Vec::new();
    for s in 0..sessions {
        let config = wl.config(spec.seed, s, windows);
        let fleet = record_fleet(&config, &spec.out_dir, &tag)?;

        let mut reference = cold_setup::<StreamSession>(&config);
        let in_process = run_timed(&mut reference, &config.run, windows);
        in_process_ns.extend_from_slice(&in_process.window_ns);

        let real = replay(&config, &fleet, windows, &socket)?;
        x.seq_gaps += real.stats.seq_gaps;
        x.quarantined += real.stats.quarantined_frames;
        x.shed += real.stats.shed;

        // The twin: one thread, the same recorded bytes.
        let world = World::build(&config);
        let mut scratch = EpochScratch::new();
        let mut twin = CollectorTwin::open(&world, &config.run);
        let mut bufs = [Vec::new(), Vec::new()];
        let mut frames = Vec::new();
        let mut encoded = Vec::new();
        let mut mismatched = 0;
        let mut paths_before = 0;
        let mut route_before = scratch.route_cache_stats();
        for w in 0..=windows {
            for (buf, rec) in bufs.iter_mut().zip(&fleet) {
                rec.read_epoch(w, buf)?;
            }
            let opened = Instant::now();
            let (run, report) =
                twin.window(&world, &config.run, w, &mut scratch, [&bufs[0], &bufs[1]]);
            let ns = opened.elapsed().as_nanos() as u64;
            let expected = if w == 0 {
                reference.cold_digest
            } else {
                in_process.digests[w - 1]
            };
            mismatched += u64::from(verdict_digest(&report) != expected);
            if w == 0 {
                // The cold window is set-up: its spans stay out of the
                // ledger, its paths and routes out of the counts.
                twin.tracer.clear();
                paths_before = scratch.interned_paths();
                route_before = scratch.route_cache_stats();
                continue;
            }
            x.traced_windows.push(ns);
            x.evidence += run.evidence.len() as u64;
            x.detected += report.detected.len() as u64;
            // The wire layer on its own, outside the window.
            for buf in &bufs {
                let n = trace_wire(&mut twin.tracer, buf, &mut frames, &mut encoded);
                x.wire_bytes += buf.len() as u64;
                // Every frame but the closing barrier is an event.
                x.wire_events += n as u64 - 1;
            }
        }
        let route = route_since(scratch.route_cache_stats(), route_before);
        x.interned_paths += (scratch.interned_paths() - paths_before) as u64;
        x.path_hits += route.path_hits;
        x.path_misses += route.path_misses;
        x.table_compiles += scratch.route_cache_stats().compiles;
        x.shed += twin.shed();

        result.attempted += windows as u64 + 1;
        result.failed += if lossless(&real.stats) && twin.shed() == 0 {
            mismatched
        } else {
            windows as u64 + 1
        };
        result.work.windows += windows as u64;
        result.work.flows += flows_per_window(&config) * windows as u64;
        x.untraced_twin_windows.extend_from_slice(&real.window_ns);
        x.untraced.push(real.window_ns);
        tracer.absorb(std::mem::take(&mut twin.tracer), (s * (windows + 1)) as u32);
    }
    x.events = x.wire_events;
    result.work.evidence = x.evidence;
    x.collector_overhead =
        quantile_ns(&x.untraced_twin_windows, 0.5) / quantile_ns(&in_process_ns, 0.5);

    trace_setup_layers(&mut tracer, &wl.config(spec.seed, 0, windows));
    x.ledger = Ledger::from_spans(tracer.spans());
    result.metrics = per_layer_metrics(&x);
    let path = write_spans(spec, &tracer)?;
    Ok((result, path))
}
