//! The in-process driver: one session = one trial of the workload's
//! config, run window by window through a pipeline (the real
//! `StreamSession::run_window`, or the traced twin), closed loop, one
//! thread, every window on a fresh epoch index.

use crate::alloc::{self, AllocCount};
use rand::Rng;
use std::fmt::Write as _;
use std::time::Instant;
use vigil::evaluate::evaluate_epoch;
use vigil::{
    epoch_rng, stream_trial, EpochReport, EpochRun, ExperimentConfig, RetainPolicy, RunConfig,
    StreamSession, StreamTuning,
};
use vigil_fabric::flowsim::{EpochScratch, RouteCacheStats};
use vigil_fabric::LinkFaults;
use vigil_topology::ClosTopology;

/// What a session derives once from its config: the deterministic world
/// every runner of that config agrees on (`stream_trial`'s seed
/// discipline — topology seed and fault plan from the trial RNG, each
/// epoch on its own `epoch_rng` stream).
#[derive(Debug)]
pub struct World {
    /// The trial's derived seed (root of the per-epoch RNG streams).
    pub trial_seed: u64,
    /// The fabric.
    pub topo: ClosTopology,
    /// The sampled fault plan.
    pub faults: LinkFaults,
}

impl World {
    /// Builds trial 0's world.
    pub fn build(config: &ExperimentConfig) -> World {
        let mut rng = config.trial_rng(0);
        let topo = ClosTopology::new(config.params, rng.gen())
            .expect("workload parameters are fixed and valid");
        let faults = config.faults.build(&topo, &mut rng);
        World {
            trial_seed: config.trial_seed(0),
            topo,
            faults,
        }
    }

    /// The RNG stream of window `w`.
    pub fn epoch_rng(&self, w: usize) -> impl Rng {
        epoch_rng(self.trial_seed, w)
    }
}

/// Something that can run one window of a [`World`]: the real stream
/// session, or the traced twin of it.
pub trait Pipeline {
    /// Opens the pipeline for `world` running `run`.
    fn open(world: &World, run: &RunConfig) -> Self;
    /// Runs window `w` from open to scored verdict: simulate, analyze,
    /// assemble, evaluate.
    fn window(
        &mut self,
        world: &World,
        run: &RunConfig,
        w: usize,
        scratch: &mut EpochScratch,
    ) -> (EpochRun, EpochReport);
    /// Flows simulated so far.
    fn flows(&self) -> u64;
    /// Events the bounded hub shed so far.
    fn shed(&self) -> u64;
}

impl Pipeline for StreamSession {
    fn open(world: &World, run: &RunConfig) -> Self {
        StreamSession::new(
            &world.topo,
            run,
            StreamTuning::default(),
            RetainPolicy::EvidenceOnly,
        )
    }

    fn window(
        &mut self,
        world: &World,
        run: &RunConfig,
        w: usize,
        scratch: &mut EpochScratch,
    ) -> (EpochRun, EpochReport) {
        let mut rng = world.epoch_rng(w);
        let epoch = self.run_window(&world.topo, run, &world.faults, &mut rng, scratch);
        let report = evaluate_epoch(&epoch);
        (epoch, report)
    }

    fn flows(&self) -> u64 {
        self.stats().flows
    }

    fn shed(&self) -> u64 {
        self.stats().shed
    }
}

/// FNV-1a over whatever is formatted into it — a digest of a `Debug`
/// rendering that never builds the string.
struct FnvSink(u64);

impl std::fmt::Write for FnvSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// The verdict digest of one scored window: detected links, evidence
/// count (`traced_flows`) and every other field `evaluate_epoch`
/// produced. Allocation-free, so it can sit inside a counted region.
pub fn verdict_digest(report: &EpochReport) -> u64 {
    let mut sink = FnvSink(0xCBF2_9CE4_8422_2325);
    write!(sink, "{report:?}").expect("hashing sink never fails");
    sink.0
}

/// A session that has paid its set-up: world, scratch and pipeline
/// built, the cold window 0 run and scored.
pub struct Warm<P> {
    /// The session's world.
    pub world: World,
    /// The simulator scratch (route tables, interned paths).
    pub scratch: EpochScratch,
    /// The pipeline.
    pub pipeline: P,
    /// Digest of the cold window's verdict.
    pub cold_digest: u64,
}

/// Set-up as a user pays it: build topology, fault plan, scratch and
/// session, then the first, cold window (route-table compile, first
/// interning, agent creation) through to its scored verdict.
pub fn cold_setup<P: Pipeline>(config: &ExperimentConfig) -> Warm<P> {
    let world = World::build(config);
    let mut scratch = EpochScratch::new();
    let mut pipeline = P::open(&world, &config.run);
    let (_, report) = pipeline.window(&world, &config.run, 0, &mut scratch);
    let cold_digest = verdict_digest(&report);
    Warm {
        world,
        scratch,
        pipeline,
        cold_digest,
    }
}

/// What the timed windows of one session produced.
#[derive(Debug, Clone, Default)]
pub struct SessionOutcome {
    /// Per-window wall time, window open to scored verdict (ns).
    pub window_ns: Vec<u64>,
    /// Wall time of the timed windows including the drop of each
    /// window's result, excluding only the harness's own digest (ns).
    pub busy_ns: u64,
    /// Flows simulated in the timed windows.
    pub flows: u64,
    /// Evidence (traced flows) in the timed windows.
    pub evidence: u64,
    /// Links detected, summed over the timed windows.
    pub detected: u64,
    /// Verdict digest per timed window.
    pub digests: Vec<u64>,
    /// Allocation delta over the timed windows.
    pub allocs: AllocCount,
    /// Hub sheds over the whole session.
    pub shed: u64,
    /// Paths interned during the timed windows.
    pub interned_paths: u64,
    /// Route-cache counters accumulated during the timed windows.
    pub route: RouteCacheStats,
}

/// Runs the timed windows `1..=windows` of a warm session, back to back.
pub fn run_timed<P: Pipeline>(
    warm: &mut Warm<P>,
    run_cfg: &RunConfig,
    windows: usize,
) -> SessionOutcome {
    let mut out = SessionOutcome {
        window_ns: Vec::with_capacity(windows),
        digests: Vec::with_capacity(windows),
        ..SessionOutcome::default()
    };
    let paths_before = warm.scratch.interned_paths();
    let route_before = warm.scratch.route_cache_stats();
    let flows_before = warm.pipeline.flows();
    let allocs_before = alloc::snapshot();
    for w in 1..=windows {
        let opened = Instant::now();
        let (run, report) = warm
            .pipeline
            .window(&warm.world, run_cfg, w, &mut warm.scratch);
        let scored = Instant::now();
        out.digests.push(verdict_digest(&report));
        out.evidence += run.evidence.len() as u64;
        out.detected += report.detected.len() as u64;
        let digested = Instant::now();
        drop(run);
        drop(report);
        let window_ns = (scored - opened).as_nanos() as u64;
        out.window_ns.push(window_ns);
        out.busy_ns += window_ns + digested.elapsed().as_nanos() as u64;
    }
    out.allocs = alloc::snapshot().since(allocs_before);
    out.flows = warm.pipeline.flows() - flows_before;
    out.shed = warm.pipeline.shed();
    out.interned_paths = (warm.scratch.interned_paths() - paths_before) as u64;
    out.route = route_since(warm.scratch.route_cache_stats(), route_before);
    out
}

/// The route-cache counters accumulated between `before` and `now`.
pub fn route_since(now: RouteCacheStats, before: RouteCacheStats) -> RouteCacheStats {
    RouteCacheStats {
        table_hits: now.table_hits - before.table_hits,
        table_misses: now.table_misses - before.table_misses,
        compiles: now.compiles - before.compiles,
        path_hits: now.path_hits - before.path_hits,
        path_misses: now.path_misses - before.path_misses,
    }
}

/// The reference verdicts of a session: `stream_trial` on the same
/// config, one digest per epoch (index 0 is the cold window).
pub fn reference_digests(config: &ExperimentConfig) -> Vec<u64> {
    let (trial, _stats) = stream_trial(config, 0, &StreamTuning::default());
    trial.epochs.iter().map(verdict_digest).collect()
}
