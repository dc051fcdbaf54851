//! The event-driven streaming pipeline: fabric → host agents → ledger
//! over the typed hub, at bounded queue depth and constant memory.
//!
//! The deployed 007 is not a batch job (paper §3, §5.1): host agents
//! stream retransmission events as they happen, path discovery fires per
//! event, and votes are tallied over sliding 30-second windows by an
//! always-on analysis backend. This module is that shape:
//!
//! ```text
//!  EpochStream ──chunks──▶ TcpMonitor-style eventing ──▶ HostAgent(s)
//!      (fabric)              (per flow record)              │ AgentEvent
//!                                                           ▼
//!  EpochRun ◀── close_window ── VoteLedger ◀── drain ── bounded hub
//! ```
//!
//! Flow records live only inside the current chunk, plus the rows scoring
//! consults: flows that retransmit and flows some agent reported (007
//! traces only connections that retransmit, §4–5, so scoring never reads
//! a drop-free flow). Evidence — a few links and a count per traced flow
//! — is all else that survives to the window close. Every runner scores
//! through [`StreamSession::run_window`] ([`crate::run::run_epoch_with`]
//! is a one-window session); the whole-epoch flow table comes only from
//! `vigil_fabric::flowsim::simulate_epoch`, for analyses that walk every
//! flow.
//!
//! The SLB gate (§4.2) needs the epoch's gate salt, which the batch
//! pipeline draws *after* the simulation's RNG draws; when the gate is
//! active the driver therefore defers agent processing to the window
//! close, buffering only (event, discovered-path) pairs — evidence-sized,
//! not flow-sized. With the gate off (the default), evidence streams
//! through the hub while the epoch is still being simulated.

use crate::evaluate::evaluate_epoch;
use crate::experiment::{ExperimentConfig, ExperimentReport, TrialAccumulator, TrialReport};
use crate::run::{assemble_epoch, fresh_ledger, EpochRun, RunConfig};
use crate::sweep::SweepEngine;
use rand::Rng;
use serde::Serialize;
use std::convert::Infallible;
use std::ops::Range;
use vigil_agents::{
    event_channel_bounded, AdversaryModel, AgentEvent, DiscoveredPath, EventCollector, EventSender,
    HostAgent, RetransmissionEvent, TraceReport,
};
use vigil_analysis::{FlowEvidence, VoteLedger};
use vigil_fabric::flowsim::{EpochOutcome, EpochScratch, EpochStream, FlowBatch, FlowRecord};
use vigil_fabric::LinkFaults;
use vigil_packet::FiveTuple;
use vigil_topology::{ClosTopology, HostId};

/// The canonical evidence key: one traced flow per host per window. Its
/// `Ord` is the pipeline's canonical evidence order (the batch report
/// sort), maintained incrementally by the ledger.
pub type EvidenceKey = (HostId, FiveTuple);

/// Streaming knobs: how much fabric is materialized at once and how deep
/// the agent→analysis hub queue is.
#[derive(Debug, Clone)]
pub struct StreamTuning {
    /// Flow records simulated (and resident) per pull. Invisible in the
    /// output — only in peak memory.
    pub chunk_flows: usize,
    /// Bounded hub depth. Size it to hold one chunk's worth of protocol
    /// events (two per eventful flow) so the single-threaded drive loop
    /// never sheds its own evidence; a multi-host deployment would size
    /// this to its drain latency instead. Any capacity ≥ 1 is accepted:
    /// an undersized hub degrades gracefully — events are shed, the
    /// [`StreamStats::shed`] counter bumps, and a warning is logged —
    /// identically in debug and release builds.
    pub hub_capacity: usize,
}

impl Default for StreamTuning {
    fn default() -> Self {
        Self {
            chunk_flows: 256,
            hub_capacity: 1024,
        }
    }
}

impl StreamTuning {
    fn validate(&self) {
        assert!(self.chunk_flows > 0, "chunk must hold at least one flow");
        assert!(self.hub_capacity >= 1, "hub capacity must be at least 1");
    }
}

/// What the driver keeps of each simulated flow record. There is one
/// policy; the type survives only as [`StreamSession::new`]'s argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainPolicy {
    /// Keep the records with at least one retransmission, plus any record
    /// an agent emitted evidence for — everything scoring ever consults
    /// (evidence lookups, ground-truth dominant links, retransmitting-flow
    /// counts). Peak resident records stay proportional to the *eventful*
    /// fraction of traffic, not the epoch.
    EvidenceOnly,
}

/// Streaming service-mode counters, aggregated across windows (and
/// mergeable across trials).
#[derive(Debug, Clone, Default, Serialize)]
pub struct StreamStats {
    /// Flow records simulated.
    pub flows: u64,
    /// Protocol events drained from the hub (opens, evidence, ticks,
    /// drains).
    pub events: u64,
    /// Evidence events among them (= reports absorbed by the ledger).
    pub evidence: u64,
    /// Events accepted onto the hub ([`EventCollector::delivered`]).
    pub delivered: u64,
    /// Events shed by the bounded hub ([`EventCollector::shed`]) — the
    /// silent-loss counter the driver logs every window.
    pub shed: u64,
    /// Peak simultaneously-resident flow records (chunk + retained).
    pub peak_resident_flows: u64,
    /// Windows closed.
    pub windows: u64,
}

impl StreamStats {
    /// Merges another session's counters (sums; peak takes the max).
    pub fn merge(&mut self, other: &StreamStats) {
        self.flows += other.flows;
        self.events += other.events;
        self.evidence += other.evidence;
        self.delivered += other.delivered;
        self.shed += other.shed;
        self.peak_resident_flows = self.peak_resident_flows.max(other.peak_resident_flows);
        self.windows += other.windows;
    }

    /// The counters accumulated since `before` (a snapshot of the same
    /// session's stats): sums subtract; the peak is the current value —
    /// the epoch pool uses this to attribute one window's work out of a
    /// per-worker session.
    pub fn delta_since(&self, before: &StreamStats) -> StreamStats {
        StreamStats {
            flows: self.flows - before.flows,
            events: self.events - before.events,
            evidence: self.evidence - before.evidence,
            delivered: self.delivered - before.delivered,
            shed: self.shed - before.shed,
            peak_resident_flows: self.peak_resident_flows,
            windows: self.windows - before.windows,
        }
    }
}

/// The agent side of the hub (Figure 2's left half): one process's host
/// agents, the model deciding what each reports, and the hub they emit
/// onto. [`run_epoch`](Self::run_epoch) is the pipeline's one agent loop
/// — the in-process session, the distributed agent and the collector's
/// local replay all drive their epochs through it.
#[derive(Debug)]
pub(crate) struct HostFleet {
    /// Per-host agents, created on a host's first dispatched event.
    pub(crate) agents: Vec<Option<HostAgent>>,
    /// Hosts this process speaks for; flows sourced elsewhere are
    /// simulated (every process draws the same epoch) but never emitted.
    hosts: Range<u32>,
    adversary: AdversaryModel,
    hub: EventSender,
    batch: FlowBatch,
    pending: Vec<(RetransmissionEvent, DiscoveredPath)>,
}

/// What [`HostFleet::run_epoch`] leaves for scoring.
pub(crate) struct EpochPull {
    /// The retained flow records (none unless `retain`) plus the epoch's
    /// ground truth.
    pub(crate) outcome: EpochOutcome,
    /// Flow records simulated.
    pub(crate) flows: usize,
    /// Peak simultaneously-resident flow rows (chunk + retained).
    pub(crate) peak_resident: usize,
}

impl HostFleet {
    /// A fleet for `hosts` of `topo` running `config`'s pipeline, emitting
    /// onto `hub`.
    pub(crate) fn new(
        topo: &ClosTopology,
        config: &RunConfig,
        hosts: Range<u32>,
        hub: EventSender,
    ) -> Self {
        Self {
            agents: (0..topo.num_hosts()).map(|_| None).collect(),
            hosts,
            adversary: AdversaryModel::new(config.byzantine, topo.num_links()),
            hub,
            batch: FlowBatch::new(),
            pending: Vec::new(),
        }
    }

    /// Runs `act` on every live agent, calling `sink` after every `burst`
    /// agents (so a large fleet's announcements cannot overflow a bounded
    /// hub) and once at the end.
    pub(crate) fn each_agent<E>(
        &mut self,
        burst: usize,
        act: impl Fn(&mut HostAgent, &EventSender),
        mut sink: impl FnMut() -> Result<(), E>,
    ) -> Result<(), E> {
        let mut since_sink = 0usize;
        for agent in self.agents.iter_mut().flatten() {
            act(agent, &self.hub);
            since_sink += 1;
            if since_sink >= burst {
                sink()?;
                since_sink = 0;
            }
        }
        sink()
    }

    /// One epoch of the agent side: pull the fabric in column batches,
    /// decide per row what its source host reports, route this fleet's
    /// share through the host agents onto the hub, and roll the agents
    /// into `next_epoch`. `sink` runs after every batch (and every burst
    /// of deferred dispatches or ticks) to move what the hub holds — the
    /// ledger drain in process, the wire flush in an agent; its error
    /// aborts the epoch.
    ///
    /// A record is materialized only for rows that emit from this fleet
    /// or, when `retain` is set (a scorer), for the rows scoring consults
    /// ([`RetainPolicy::EvidenceOnly`]); the agent process keeps none. The
    /// common clean flow never allocates. The batch pipeline draws the SLB
    /// gate salt *after* the epoch's simulation draws; an active gate
    /// therefore defers dispatch to the end of the epoch, buffering
    /// evidence-sized (event, path) pairs, while the gate-off path streams
    /// evidence as the epoch is simulated.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_epoch<R: Rng + ?Sized, E>(
        &mut self,
        topo: &ClosTopology,
        config: &RunConfig,
        faults: &LinkFaults,
        rng: &mut R,
        scratch: &mut EpochScratch,
        tuning: &StreamTuning,
        retain: bool,
        next_epoch: u64,
        mut sink: impl FnMut() -> Result<(), E>,
    ) -> Result<EpochPull, E> {
        let Self {
            agents,
            hosts,
            adversary,
            hub,
            batch,
            pending,
        } = self;
        // Routes one emission through its (lazily created) host agent,
        // which emits protocol events onto the hub.
        let mut dispatch = |event: RetransmissionEvent, path: DiscoveredPath| {
            agents[event.host.0 as usize]
                .get_or_insert_with(|| HostAgent::new(event.host, config.pacer.pacer(topo)))
                .on_retransmission(&event, path, hub);
        };
        let deferred_gate = config.slb.enabled();
        pending.clear(); // an aborted epoch may have left some behind

        let mut stream =
            EpochStream::open(topo, faults, &config.traffic, &config.sim, rng, scratch);
        let flows = stream.total_flows();
        let mut retained: Vec<FlowRecord> = Vec::new();
        let mut peak_resident = 0usize;
        loop {
            batch.clear();
            if stream.next_batch(tuning.chunk_flows, batch) == 0 {
                break;
            }
            peak_resident = peak_resident.max(retained.len() + batch.len());
            for i in 0..batch.len() {
                let src = batch.src()[i];
                let retransmissions = batch.retransmissions()[i];
                let emitted = adversary.decide(
                    src,
                    &batch.tuples()[i],
                    batch.established()[i],
                    retransmissions,
                );
                // Everything scoring consults: retransmitting flows, plus
                // any healthy flow a byzantine agent emitted evidence for
                // (its record must resolve in the flow index).
                let keep = retain && (retransmissions > 0 || emitted.is_some());
                let emitted = emitted.filter(|_| hosts.contains(&src.0));
                if emitted.is_none() && !keep {
                    continue;
                }
                let rec = stream.materialize(batch, i);
                if let Some(event) = emitted {
                    let path = adversary.claimed_path(&event, &rec.path);
                    if deferred_gate {
                        pending.push((event, path));
                    } else {
                        dispatch(event, path);
                    }
                }
                if keep {
                    retained.push(rec);
                }
            }
            sink()?;
        }
        let ground_truth = stream.finish();

        if deferred_gate {
            // Same draw position as the batch runner: first draw after
            // the simulation stream.
            let salt = rng.gen::<u64>();
            for (i, (event, path)) in pending.drain(..).enumerate() {
                if !config.slb.skips(&event.tuple, salt) {
                    dispatch(event, path);
                }
                if (i + 1) % tuning.chunk_flows == 0 {
                    sink()?;
                }
            }
            sink()?;
        }

        // Roll every live agent into the next epoch (budget refresh,
        // trace-cache clear), announced on the hub like any other event.
        self.each_agent(
            tuning.hub_capacity,
            |agent, hub| agent.epoch_tick(next_epoch, hub),
            sink,
        )?;
        Ok(EpochPull {
            outcome: EpochOutcome {
                flows: retained,
                ground_truth,
            },
            flows,
            peak_resident,
        })
    }
}

/// The analysis side of the hub: drains events into the ledger.
#[derive(Debug)]
struct Intake {
    hub_rx: EventCollector,
    inbox: Vec<AgentEvent>,
    ledger: VoteLedger<EvidenceKey>,
    reports: Vec<TraceReport>,
    stats: StreamStats,
}

impl Intake {
    /// Drains the hub into the ledger: evidence is absorbed the moment it
    /// crosses; lifecycle events are counted and dropped.
    fn drain(&mut self) -> Result<(), Infallible> {
        self.inbox.clear();
        self.hub_rx.drain_into(&mut self.inbox);
        for event in self.inbox.drain(..) {
            self.stats.events += 1;
            if let AgentEvent::Evidence { report, .. } = event {
                self.ledger.absorb(
                    (report.host, report.tuple),
                    FlowEvidence {
                        links: report.links.clone(),
                        retransmissions: report.retransmissions,
                        complete: report.complete,
                    },
                );
                self.reports.push(report);
                self.stats.evidence += 1;
            }
        }
        Ok(())
    }
}

/// An always-on streaming pipeline over one topology: persistent host
/// agents (budgets roll via epoch ticks), a persistent ledger (window
/// ring + link-health EWMA accumulate), and reusable buffers. Each
/// [`run_window`](Self::run_window) call simulates, analyzes, and scores
/// one 30-second window; the caller owns the RNG and simulator scratch
/// so a trial's windows share one draw stream exactly like the batch
/// trial loop.
///
/// The session owns no borrow of the topology or run config — both are
/// passed per call — so pool workers can keep a session in worker-local
/// state alongside the owned [`ClosTopology`] it serves.
#[derive(Debug)]
pub struct StreamSession {
    tuning: StreamTuning,
    fleet: HostFleet,
    intake: Intake,
}

impl StreamSession {
    /// Opens a session sized for `topo` running `config`'s pipeline.
    /// Every subsequent [`run_window`](Self::run_window) must pass the
    /// same topology and config (the session only retains what sizing
    /// requires: agent slots, the ledger, the adversary model).
    ///
    /// `retain` is always [`RetainPolicy::EvidenceOnly`], the only policy:
    /// [`EpochRun::outcome`] holds the rows scoring consults.
    ///
    /// # Panics
    ///
    /// Panics when `tuning` is inconsistent (zero chunk, or zero hub
    /// capacity).
    pub fn new(
        topo: &ClosTopology,
        config: &RunConfig,
        tuning: StreamTuning,
        retain: RetainPolicy,
    ) -> Self {
        let RetainPolicy::EvidenceOnly = retain;
        tuning.validate();
        let (hub_tx, hub_rx) = event_channel_bounded(tuning.hub_capacity);
        let all_hosts = 0..topo.num_hosts() as u32;
        Self {
            tuning,
            fleet: HostFleet::new(topo, config, all_hosts, hub_tx),
            intake: Intake {
                hub_rx,
                inbox: Vec::new(),
                ledger: fresh_ledger(topo.num_links(), config),
                reports: Vec::new(),
                stats: StreamStats::default(),
            },
        }
    }

    /// The session's counters so far.
    pub fn stats(&self) -> &StreamStats {
        &self.intake.stats
    }

    /// The live analysis ledger (between-closes snapshots: rankings, the
    /// window ring, the cross-window heat map).
    pub fn ledger(&self) -> &VoteLedger<EvidenceKey> {
        &self.intake.ledger
    }

    /// Runs one window: simulate the epoch in chunks, stream evidence
    /// through the hub, close the ledger window, assemble the scored
    /// [`EpochRun`]. Byte-identical to the batch epoch on the same RNG
    /// stream (the goldens' contract). `topo` and `config` must be the
    /// ones the session was sized for.
    pub fn run_window<R: Rng + ?Sized>(
        &mut self,
        topo: &ClosTopology,
        config: &RunConfig,
        faults: &LinkFaults,
        rng: &mut R,
        scratch: &mut EpochScratch,
    ) -> EpochRun {
        debug_assert_eq!(
            self.fleet.agents.len(),
            topo.num_hosts(),
            "session sized for a different topology"
        );
        let Self {
            tuning,
            fleet,
            intake,
        } = self;
        let next_epoch = intake.ledger.epoch() + 1;
        let Ok(pull) = fleet.run_epoch(
            topo,
            config,
            faults,
            rng,
            scratch,
            tuning,
            true,
            next_epoch,
            || intake.drain(),
        );
        let stats = &mut intake.stats;
        stats.flows += pull.flows as u64;
        stats.peak_resident_flows = stats.peak_resident_flows.max(pull.peak_resident as u64);

        self.account_hub(Some(self.intake.stats.windows));
        self.intake.stats.windows += 1;

        let window = self.intake.ledger.close_window();
        let reports = std::mem::take(&mut self.intake.reports);
        assemble_epoch(pull.outcome, reports, window, config)
    }

    /// Shuts the session down: every live agent announces
    /// [`AgentEvent::Drain`] and the hub is drained one last time.
    pub fn shutdown(&mut self) {
        let intake = &mut self.intake;
        let Ok(()) = self.fleet.each_agent(
            self.tuning.hub_capacity,
            |agent, hub| agent.drain(hub),
            || intake.drain(),
        );
        self.account_hub(None);
    }

    /// Rolls the hub's delivered/shed counters into the session stats.
    /// Shedding never panics — an undersized hub loses votes, bumps the
    /// counter, and logs a warning, the same in debug and release — so
    /// the accounting below is the *only* place loss becomes visible.
    fn account_hub(&mut self, window: Option<u64>) {
        let Intake { hub_rx, stats, .. } = &mut self.intake;
        let shed_before = stats.shed;
        stats.delivered = hub_rx.delivered();
        stats.shed = hub_rx.shed();
        if stats.shed > shed_before {
            let lost = stats.shed - shed_before;
            match window {
                Some(w) => eprintln!(
                    "vigil-stream: warning: window {w}: hub shed {lost} event(s) \
                     ({} total) — votes lost to backpressure",
                    stats.shed
                ),
                None => eprintln!(
                    "vigil-stream: warning: shutdown drain shed {lost} event(s) \
                     ({} total) — votes lost to backpressure",
                    stats.shed
                ),
            }
        }
    }
}

/// One trial on the current thread — the serial reference every other
/// runner reproduces: topology and faults from the trial RNG, each epoch
/// on its own derived [`crate::sweep::epoch_rng`] stream, all driven
/// through one [`StreamSession`]. The epoch pool's report for the same
/// trial is bit-identical at any width.
pub fn stream_trial(
    config: &ExperimentConfig,
    trial: usize,
    tuning: &StreamTuning,
) -> (TrialReport, StreamStats) {
    let started = std::time::Instant::now();
    let trial_seed = config.trial_seed(trial);
    let mut rng = config.trial_rng(trial);
    let topo = vigil_topology::ClosTopology::new(config.params, rng.gen())
        .expect("experiment parameters validated upstream");
    let faults = config.faults.build(&topo, &mut rng);
    let mut scratch = EpochScratch::new();
    let mut session = StreamSession::new(
        &topo,
        &config.run,
        tuning.clone(),
        RetainPolicy::EvidenceOnly,
    );
    let mut acc = TrialAccumulator::new(config.epochs);
    for epoch in 0..config.epochs {
        let mut erng = crate::sweep::epoch_rng(trial_seed, epoch);
        let run = session.run_window(&topo, &config.run, &faults, &mut erng, &mut scratch);
        acc.absorb(evaluate_epoch(&run));
    }
    session.shutdown();
    let stats = session.stats().clone();
    (acc.finish(&config.run, trial, started), stats)
}

/// Runs a whole experiment through the epoch pool: `(trial, epoch)`
/// tasks shard across the sweep engine's workers exactly like
/// [`SweepEngine::run_experiment`] (the same body, at `tuning`), so the
/// report is bit-identical to [`stream_trial`]'s at any thread count —
/// plus the aggregated service-mode counters.
pub fn stream_experiment(
    config: &ExperimentConfig,
    engine: &SweepEngine,
    tuning: &StreamTuning,
) -> (ExperimentReport, StreamStats) {
    crate::pool::run_experiment(engine, config, tuning.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vigil_agents::ByzantineSpec;
    use vigil_fabric::faults::{FaultPlan, RateRange};
    use vigil_fabric::slb::SlbModel;
    use vigil_fabric::traffic::{ConnCount, TrafficSpec};
    use vigil_topology::ClosParams;

    fn setup(failures: u32, seed: u64) -> (ClosTopology, LinkFaults) {
        let topo = ClosTopology::new(ClosParams::tiny(), seed).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let faults = FaultPlan {
            failure_rate: RateRange::fixed(0.05),
            ..FaultPlan::paper_default(failures)
        }
        .build(&topo, &mut rng);
        (topo, faults)
    }

    fn config() -> RunConfig {
        RunConfig {
            traffic: TrafficSpec {
                conns_per_host: ConnCount::Fixed(30),
                ..TrafficSpec::paper_default()
            },
            ..RunConfig::default()
        }
    }

    /// Strips an epoch run to its scoring-visible parts.
    fn fingerprint(run: &EpochRun) -> (Vec<TraceReport>, Vec<vigil_topology::LinkId>, String) {
        (
            run.reports.clone(),
            run.detection.detected_links(),
            format!("{:?}", evaluate_epoch(run)),
        )
    }

    /// Honest, then every byzantine behavior, each with and without the
    /// SLB gate's deferred dispatch.
    fn variants() -> Vec<(ByzantineSpec, SlbModel)> {
        let gate = SlbModel::query_failures(0.4);
        let mut variants = vec![(ByzantineSpec::default(), SlbModel::default())];
        for spec in [
            ByzantineSpec::liars(0.33),
            ByzantineSpec::mutes(0.33),
            ByzantineSpec::flooders(0.33, 0.5),
            ByzantineSpec::flippers(0.33),
        ] {
            variants.push((spec, SlbModel::default()));
            variants.push((spec, gate));
        }
        variants
    }

    #[test]
    fn chunk_size_is_invisible_in_the_epoch_run() {
        // Chunking moves batch boundaries and hub drains, never a report.
        let (topo, faults) = setup(2, 51);
        for (byzantine, slb) in variants() {
            let cfg = RunConfig {
                byzantine,
                slb,
                ..config()
            };
            let what = format!("{} / gate {}", byzantine.label(), slb.enabled());
            let baseline = {
                let mut rng = ChaCha8Rng::seed_from_u64(3);
                let mut session = StreamSession::new(
                    &topo,
                    &cfg,
                    StreamTuning::default(),
                    RetainPolicy::EvidenceOnly,
                );
                session.run_window(&topo, &cfg, &faults, &mut rng, &mut EpochScratch::new())
            };
            for chunk in [1usize, 17, 4096] {
                let mut rng = ChaCha8Rng::seed_from_u64(3);
                let tuning = StreamTuning {
                    chunk_flows: chunk,
                    hub_capacity: 2 * chunk + 16,
                };
                let mut session =
                    StreamSession::new(&topo, &cfg, tuning, RetainPolicy::EvidenceOnly);
                let run =
                    session.run_window(&topo, &cfg, &faults, &mut rng, &mut EpochScratch::new());
                assert_eq!(run.outcome.flows, baseline.outcome.flows, "{what}");
                assert_eq!(run.reports, baseline.reports, "{what}");
                assert_eq!(fingerprint(&run), fingerprint(&baseline), "{what}");
                assert_eq!(session.stats().shed, 0, "{what}");
            }
        }
    }

    #[test]
    fn evidence_only_retention_scores_identically_and_bounds_memory() {
        // Scoring must read nothing the session drops: swapping the
        // retained rows for the fabric's full table (same RNG stream,
        // index rebuilt) leaves every epoch report unchanged. Flooders
        // emit evidence for healthy flows, so the keep rule must retain
        // those rows too; the gated variants cover deferred dispatch.
        let (topo, faults) = setup(2, 53);
        for (byzantine, slb) in variants() {
            let cfg = RunConfig {
                byzantine,
                slb,
                ..config()
            };
            let what = format!("{} / gate {}", byzantine.label(), slb.enabled());
            let tuning = StreamTuning {
                chunk_flows: 32,
                hub_capacity: 256,
            };
            let mut lean = StreamSession::new(&topo, &cfg, tuning, RetainPolicy::EvidenceOnly);
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let full = vigil_fabric::flowsim::simulate_epoch_with(
                &topo,
                &faults,
                &cfg.traffic,
                &cfg.sim,
                &mut rng.clone(),
                &mut EpochScratch::new(),
            );
            let slim = lean.run_window(&topo, &cfg, &faults, &mut rng, &mut EpochScratch::new());
            let slim_report = format!("{:?}", evaluate_epoch(&slim));

            // The resident flow table is the eventful slice only: every
            // kept row is the full table's row for its tuple, and every
            // reported flow resolves (a flooder's healthy ones included).
            let full_index = vigil_agents::FlowIndex::from_flows(&full.flows);
            assert!(slim.outcome.flows.len() < full.flows.len(), "{what}");
            for rec in &slim.outcome.flows {
                let i = full_index.get(&rec.tuple).expect("kept rows are simulated");
                assert_eq!(rec, &full.flows[i], "{what}");
            }
            for report in &slim.reports {
                assert!(slim.flow_index.get(&report.tuple).is_some(), "{what}");
            }
            if !byzantine.enabled() {
                assert!(slim.outcome.flows.iter().all(|f| f.retransmissions > 0));
            }
            assert!(
                lean.stats().peak_resident_flows < full.flows.len() as u64,
                "{what}: peak {} must undercut the epoch's {} flows",
                lean.stats().peak_resident_flows,
                full.flows.len()
            );
            assert_eq!(lean.stats().flows as usize, full.flows.len(), "{what}");
            assert_eq!(lean.stats().shed, 0, "{what}");
            assert!(lean.stats().evidence > 0, "{what}");
            assert_eq!(lean.stats().evidence as usize, slim.reports.len(), "{what}");

            let widened = EpochRun {
                flow_index: full_index,
                outcome: full,
                ..slim
            };
            assert_eq!(
                format!("{:?}", evaluate_epoch(&widened)),
                slim_report,
                "{what}"
            );
        }
    }

    #[test]
    fn deferred_gate_matches_batch_runner() {
        // SLB gating forces the deferred path; an evidence-only session
        // at an odd chunk size must still reproduce run_epoch.
        let (topo, faults) = setup(2, 57);
        let mut cfg = config();
        cfg.slb = SlbModel::query_failures(0.5);
        let mut rng_batch = ChaCha8Rng::seed_from_u64(23);
        let mut rng_stream = ChaCha8Rng::seed_from_u64(23);
        let batch = crate::run::run_epoch(&topo, &faults, &cfg, &mut rng_batch);
        let tuning = StreamTuning {
            chunk_flows: 19,
            hub_capacity: 64,
        };
        let mut session = StreamSession::new(&topo, &cfg, tuning, RetainPolicy::EvidenceOnly);
        let run = session.run_window(
            &topo,
            &cfg,
            &faults,
            &mut rng_stream,
            &mut EpochScratch::new(),
        );
        assert_eq!(run.reports, batch.reports);
        assert_eq!(
            run.detection.detected_links(),
            batch.detection.detected_links()
        );
        // Both runners leave the RNG at the same position.
        assert_eq!(rng_batch.gen::<u64>(), rng_stream.gen::<u64>());
    }

    #[test]
    fn session_persists_health_across_windows() {
        let (topo, faults) = setup(1, 61);
        let cfg = config();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut scratch = EpochScratch::new();
        let mut session = StreamSession::new(
            &topo,
            &cfg,
            StreamTuning::default(),
            RetainPolicy::EvidenceOnly,
        );
        let mut detected = Vec::new();
        for w in 0..3 {
            assert_eq!(session.ledger().epoch(), w);
            let run = session.run_window(&topo, &cfg, &faults, &mut rng, &mut scratch);
            detected.push(run.detection.detected_links());
        }
        assert_eq!(session.stats().windows, 3);
        assert_eq!(session.ledger().windows().count(), 3);
        let bad = *faults.failed_set().iter().next().unwrap();
        assert!(detected.iter().all(|d| d.contains(&bad)));
        assert!(session.ledger().health().current_streak(bad) == 3);
        session.shutdown();
        assert_eq!(session.stats().shed, 0);
    }

    #[test]
    fn stream_trial_matches_batch_trial() {
        let cfg = ExperimentConfig {
            name: "stream-vs-batch".into(),
            params: ClosParams::tiny(),
            faults: FaultPlan {
                failure_rate: RateRange::fixed(0.05),
                ..FaultPlan::paper_default(1)
            },
            run: config(),
            epochs: 2,
            trials: 2,
            seed: 5,
        };
        // The batch runner shards (trial, epoch) cells over the pool.
        let batch = SweepEngine::new(2).run_experiment(&cfg);
        let mut stream = ExperimentReport::empty(&cfg);
        for trial in 0..cfg.trials {
            let (report, stats) = stream_trial(&cfg, trial, &StreamTuning::default());
            assert_eq!(stats.windows, cfg.epochs as u64);
            stream.merge_trial(report);
        }
        assert_eq!(
            serde_json::to_string(&batch).unwrap(),
            serde_json::to_string(&stream).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "hub capacity")]
    fn tuning_rejects_zero_capacity_hub() {
        let (topo, _) = setup(1, 3);
        let cfg = config();
        let _ = StreamSession::new(
            &topo,
            &cfg,
            StreamTuning {
                chunk_flows: 100,
                hub_capacity: 0,
            },
            RetainPolicy::EvidenceOnly,
        );
    }

    #[test]
    fn capacity_one_hub_sheds_gracefully_never_panics() {
        // Regression for the shed accounting: a capacity-1 hub under a
        // 64-flow chunk cannot hold even one flow's two protocol events,
        // so it must shed — counted and logged, never a panic. The same
        // code path runs in debug and release (no debug_assert gate).
        let (topo, faults) = setup(2, 51);
        let cfg = config();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let tuning = StreamTuning {
            chunk_flows: 64,
            hub_capacity: 1,
        };
        let mut session = StreamSession::new(&topo, &cfg, tuning, RetainPolicy::EvidenceOnly);
        let run = session.run_window(&topo, &cfg, &faults, &mut rng, &mut EpochScratch::new());
        session.shutdown();
        let stats = session.stats();
        assert!(stats.shed > 0, "capacity-1 hub must shed under load");
        // Votes were lost, not corrupted: every report that did survive is
        // mirrored in the ledger window's evidence (assemble_epoch already
        // checked reports.len() == window.evidence.len()).
        assert_eq!(stats.evidence as usize, run.reports.len());
        assert_eq!(stats.windows, 1);
    }
}
