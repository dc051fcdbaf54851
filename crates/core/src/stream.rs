//! The event-driven streaming pipeline: fabric → host agents → ledger
//! on one thread, in constant memory.
//!
//! The deployed 007 is not a batch job (paper §3, §5.1): host agents
//! stream retransmission events as they happen, path discovery fires per
//! event, and votes are tallied over sliding 30-second windows by an
//! always-on analysis backend. This module is that shape:
//!
//! ```text
//!  EpochStream ──chunks──▶ §4.2 eventing (is_eventful) ──▶ HostAgent(s)
//!      (fabric)              (per flow row)                  │ AgentEvent
//!                                                            ▼
//!  EpochRun ◀── close_window ── VoteLedger ◀── absorb ── event buffer
//! ```
//!
//! Flow records live only inside the current chunk, plus the rows scoring
//! consults: flows that retransmit and flows some agent reported (007
//! traces only connections that retransmit, §4–5, so scoring never reads
//! a drop-free flow). Evidence — a few links and a count per traced flow
//! — is all else that survives to the window close. Every runner scores
//! through [`StreamSession::run_window`] ([`crate::run::run_epoch`]
//! is a one-window session); the whole-epoch flow table comes only from
//! `vigil_fabric::flowsim::simulate_epoch`, for analyses that walk every
//! flow.
//!
//! The SLB gate (§4.2) needs the epoch's gate salt, which the batch
//! pipeline draws *after* the simulation's RNG draws; when the gate is
//! active the driver therefore defers agent processing to the window
//! close, buffering only (event, discovered-path) pairs — evidence-sized,
//! not flow-sized. With the gate off (the default), evidence reaches the
//! ledger after every chunk, while the epoch is still being simulated.

use crate::evaluate::evaluate_epoch;
use crate::experiment::{ExperimentConfig, TrialAccumulator, TrialReport};
use crate::run::{assemble_epoch, fresh_ledger, EpochRun, RunConfig};
use rand::Rng;
use serde::Serialize;
use std::convert::Infallible;
use std::ops::Range;
use vigil_agents::{
    AdversaryModel, AgentEvent, DiscoveredPath, HostAgent, RetransmissionEvent, TraceReport,
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

/// Streaming knobs: how much fabric is materialized at once.
#[derive(Debug, Clone)]
pub struct StreamTuning {
    /// Flow records simulated (and resident) per pull. Invisible in the
    /// output — only in peak memory.
    pub chunk_flows: usize,
    /// Not read: agents emit into a buffer the session drains after every
    /// chunk, so there is no queue to size. Kept only because the
    /// benchmark's twin sizes its own hub from it (ROADMAP item 24).
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
    /// Protocol events the agents emitted (opens, evidence, ticks,
    /// drains).
    pub events: u64,
    /// Evidence events among them (= reports absorbed by the ledger).
    pub evidence: u64,
    /// Always 0: the session drains every event its agents emit. Kept
    /// only because the benchmark reads it (ROADMAP item 24).
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
            shed: self.shed - before.shed,
            peak_resident_flows: self.peak_resident_flows,
            windows: self.windows - before.windows,
        }
    }
}

/// Figure 2's left half: one process's host agents, the model deciding
/// what each reports, and the buffer they emit into.
/// [`run_epoch`](Self::run_epoch) is the pipeline's one agent loop — the
/// stream session (in process and in the collector) and the distributed
/// agent drive their epochs through it.
#[derive(Debug)]
pub(crate) struct HostFleet {
    /// One agent per host of `hosts`, in host order, created up front.
    pub(crate) agents: Vec<HostAgent>,
    /// Which agents the current epoch dispatched to. Only they roll into
    /// the next epoch with a tick; every other agent's pacer is already
    /// fresh. A window's events therefore depend on that window alone,
    /// never on which hosts earlier windows woke.
    awake: Vec<bool>,
    /// Hosts this process speaks for; flows sourced elsewhere are
    /// simulated (every process draws the same epoch) but never emitted.
    hosts: Range<u32>,
    adversary: AdversaryModel,
    /// What the agents emitted since the last `sink` call, in emission
    /// order; every `sink` call drains it.
    events: Vec<AgentEvent>,
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
    /// A fleet for `hosts` of `topo` running `config`'s pipeline.
    pub(crate) fn new(topo: &ClosTopology, config: &RunConfig, hosts: Range<u32>) -> Self {
        Self {
            agents: (hosts.clone())
                .map(|h| HostAgent::new(HostId(h), config.pacer.pacer(topo)))
                .collect(),
            awake: vec![false; hosts.len()],
            hosts,
            adversary: AdversaryModel::new(config.byzantine, topo.num_links()),
            events: Vec::new(),
            batch: FlowBatch::new(),
            pending: Vec::new(),
        }
    }

    /// Announces [`AgentEvent::Drain`] from every agent that has emitted
    /// since it was created or rewound, then hands the events to `sink`.
    pub(crate) fn drain<E>(
        &mut self,
        mut sink: impl FnMut(&mut Vec<AgentEvent>) -> Result<(), E>,
    ) -> Result<(), E> {
        let events = &mut self.events;
        events.clear();
        for agent in self.agents.iter_mut().filter(|a| a.events_emitted() > 0) {
            agent.drain(&mut *events);
        }
        sink(events)
    }

    /// One epoch of the agent side: pull the fabric in batches of
    /// `chunk_flows` rows, decide per row what its source host reports,
    /// route this fleet's share through the host agents, and roll the
    /// agents into `next_epoch`. `sink` takes the emitted events after
    /// every batch (every `chunk_flows` deferred dispatches, and the
    /// ticks) and must drain them — ledger absorb in process, frame
    /// writes in an agent; its error aborts the epoch.
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
        chunk_flows: usize,
        retain: bool,
        next_epoch: u64,
        mut sink: impl FnMut(&mut Vec<AgentEvent>) -> Result<(), E>,
    ) -> Result<EpochPull, E> {
        let Self {
            agents,
            awake,
            hosts,
            adversary,
            events,
            batch,
            pending,
        } = self;
        // An aborted epoch may have left some behind.
        events.clear();
        pending.clear();
        awake.fill(false);
        // Routes one emission through its host's agent, which emits
        // protocol events into the buffer.
        let mut dispatch =
            |event: RetransmissionEvent, path: DiscoveredPath, events: &mut Vec<AgentEvent>| {
                let i = (event.host.0 - hosts.start) as usize;
                awake[i] = true;
                agents[i].on_retransmission(&event, path, events);
            };
        let deferred_gate = config.slb.enabled();

        let mut stream =
            EpochStream::open(topo, faults, &config.traffic, &config.sim, rng, scratch);
        let flows = stream.total_flows();
        let mut retained: Vec<FlowRecord> = Vec::new();
        let mut peak_resident = 0usize;
        loop {
            batch.clear();
            if stream.next_batch(chunk_flows, batch) == 0 {
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
                        dispatch(event, path, events);
                    }
                }
                if keep {
                    retained.push(rec);
                }
            }
            sink(events)?;
        }
        let ground_truth = stream.finish();

        if deferred_gate {
            // Same draw position as the batch runner: first draw after
            // the simulation stream.
            let salt = rng.gen::<u64>();
            for (i, (event, path)) in pending.drain(..).enumerate() {
                if !config.slb.skips(&event.tuple, salt) {
                    dispatch(event, path, events);
                }
                if (i + 1) % chunk_flows == 0 {
                    sink(events)?;
                }
            }
            sink(events)?;
        }

        // Roll every agent this epoch woke into the next epoch (budget
        // refresh, trace-cache clear), announced like any other event.
        for (agent, &woke) in agents.iter_mut().zip(awake.iter()) {
            if woke {
                agent.epoch_tick(next_epoch, &mut *events);
            }
        }
        sink(events)?;
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

/// Figure 2's right half, the one place evidence becomes votes and a
/// window closes: the in-process [`StreamSession`] feeds it its fleet's
/// events, the collector what its core forwards off the wire.
#[derive(Debug)]
pub(crate) struct Intake {
    pub(crate) ledger: VoteLedger<EvidenceKey>,
    /// The open window's reports, in arrival order.
    pub(crate) reports: Vec<TraceReport>,
    stats: StreamStats,
}

impl Intake {
    pub(crate) fn new(ledger: VoteLedger<EvidenceKey>) -> Self {
        Self {
            ledger,
            reports: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// Takes one event: evidence is absorbed into the ledger; lifecycle
    /// events are counted and dropped.
    pub(crate) fn absorb(&mut self, event: AgentEvent) {
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

    /// Closes the open window and scores it with the epoch's `outcome`.
    pub(crate) fn close(&mut self, outcome: EpochOutcome, config: &RunConfig) -> EpochRun {
        self.stats.windows += 1;
        let window = self.ledger.close_window();
        assemble_epoch(outcome, std::mem::take(&mut self.reports), window, config)
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
    /// What the agents' events go into; the collector's core feeds it too.
    pub(crate) intake: Intake,
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
    /// Panics when `tuning.chunk_flows` is 0.
    pub fn new(
        topo: &ClosTopology,
        config: &RunConfig,
        tuning: StreamTuning,
        retain: RetainPolicy,
    ) -> Self {
        let RetainPolicy::EvidenceOnly = retain;
        assert!(tuning.chunk_flows > 0, "chunk must hold at least one flow");
        let all_hosts = 0..topo.num_hosts() as u32;
        Self {
            tuning,
            fleet: HostFleet::new(topo, config, all_hosts),
            intake: Intake::new(fresh_ledger(topo.num_links(), config)),
        }
    }

    /// The collector's session: it speaks for no host, scoring what the
    /// agents sent, and tallies into `ledger` (a predecessor's, on resume).
    pub(crate) fn collector(
        topo: &ClosTopology,
        config: &RunConfig,
        ledger: VoteLedger<EvidenceKey>,
    ) -> Self {
        Self {
            tuning: StreamTuning::default(),
            fleet: HostFleet::new(topo, config, 0..0),
            intake: Intake::new(ledger),
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

    /// Runs one window: simulate the epoch in chunks, absorb each chunk's
    /// events, then close the window and assemble the scored [`EpochRun`].
    /// Every runner's windows close here, so a window on the same
    /// [`crate::experiment::Trial`] stream is the same bytes whichever
    /// runner drew it (the goldens' contract). `topo` and `config` must be
    /// the ones the session was sized for.
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
        let no_pump = |_: &mut Intake, _| Ok::<(), Infallible>(());
        let Ok(run) = self.run_window_with(topo, config, faults, rng, scratch, no_pump);
        run
    }

    /// [`run_window`](Self::run_window) with a `pump` that may feed the
    /// intake events from elsewhere: after every chunk (`false`), and once
    /// more before the close (`true`), which must leave the window's
    /// evidence complete. The collector's pump steps its protocol core
    /// and waits out the barrier there; its error aborts the window.
    pub(crate) fn run_window_with<R: Rng + ?Sized, E>(
        &mut self,
        topo: &ClosTopology,
        config: &RunConfig,
        faults: &LinkFaults,
        rng: &mut R,
        scratch: &mut EpochScratch,
        mut pump: impl FnMut(&mut Intake, bool) -> Result<(), E>,
    ) -> Result<EpochRun, E> {
        let Self {
            tuning,
            fleet,
            intake,
        } = self;
        let next_epoch = intake.ledger.epoch() + 1;
        let pull = fleet.run_epoch(
            topo,
            config,
            faults,
            rng,
            scratch,
            tuning.chunk_flows,
            true,
            next_epoch,
            |events| {
                events.drain(..).for_each(|event| intake.absorb(event));
                pump(intake, false)
            },
        )?;
        pump(intake, true)?;
        let stats = &mut intake.stats;
        stats.flows += pull.flows as u64;
        stats.peak_resident_flows = stats.peak_resident_flows.max(pull.peak_resident as u64);
        Ok(intake.close(pull.outcome, config))
    }
}

/// One trial on the current thread — the serial reference every other
/// runner reproduces: each epoch of the config's
/// [`Trial`](crate::experiment::Trial) driven through one
/// [`StreamSession`] at `tuning`. The epoch pool's report for
/// the same trial is bit-identical at any width, and `tuning` never
/// changes it. The returned counters are the sum of the trial's windows,
/// which is what the pool sums per cell.
pub fn stream_trial(
    config: &ExperimentConfig,
    trial: usize,
    tuning: &StreamTuning,
) -> (TrialReport, StreamStats) {
    let started = std::time::Instant::now();
    let world = config
        .trial(trial)
        .expect("experiment parameters validated upstream");
    let mut scratch = EpochScratch::new();
    let mut session = StreamSession::new(
        &world.topo,
        &config.run,
        tuning.clone(),
        RetainPolicy::EvidenceOnly,
    );
    let mut acc = TrialAccumulator::new(config.epochs);
    for epoch in 0..config.epochs {
        let (faults, mut rng) = (world.faults(epoch), world.epoch_rng(epoch));
        let run = session.run_window(&world.topo, &config.run, &faults, &mut rng, &mut scratch);
        acc.absorb(evaluate_epoch(&run));
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    (
        acc.finish(&config.run, trial, wall_ms),
        session.stats().clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentReport;
    use crate::sweep::SweepEngine;
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
        // Chunking moves batch boundaries and ledger drains, never a report.
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
                    ..StreamTuning::default()
                };
                let mut session =
                    StreamSession::new(&topo, &cfg, tuning, RetainPolicy::EvidenceOnly);
                let run =
                    session.run_window(&topo, &cfg, &faults, &mut rng, &mut EpochScratch::new());
                assert_eq!(run.outcome.flows, baseline.outcome.flows, "{what}");
                assert_eq!(run.reports, baseline.reports, "{what}");
                assert_eq!(fingerprint(&run), fingerprint(&baseline), "{what}");
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
                ..StreamTuning::default()
            };
            let mut lean = StreamSession::new(&topo, &cfg, tuning, RetainPolicy::EvidenceOnly);
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let full = vigil_fabric::flowsim::simulate_epoch(
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
        let batch = crate::run::run_epoch(
            &topo,
            &faults,
            &cfg,
            &mut rng_batch,
            &mut EpochScratch::new(),
        );
        let tuning = StreamTuning {
            chunk_flows: 19,
            ..StreamTuning::default()
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
        let (batch, _) = SweepEngine::new(2).run_experiment(&cfg);
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
}
