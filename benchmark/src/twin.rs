//! The traced twin: `StreamSession::run_window` re-implemented from the
//! layers' public calls, with one span around each of them.
//!
//! The twin exists so the per-layer ledger can be taken from outside the
//! program: it pulls the same chunks, makes the same agent calls in the
//! same order and closes the same ledger window as the real driver, and
//! its verdicts are checked equal to the real driver's on every traced
//! window. Where the real loop interleaves two per-flow calls
//! (materialize then dispatch, row by row) the twin runs them as two
//! passes over the chunk, so each pass is one span and the clock is read
//! per chunk rather than per flow; the calls and their order within each
//! layer are unchanged.
//!
//! Not reproduced: the SLB gate's deferred path and retain-all (no
//! workload uses them), and the §5.3 baselines (off in every workload).

use crate::session::{Pipeline, World};
use crate::trace::{Tracer, WINDOW};
use std::collections::BTreeMap;
use vigil::evaluate::evaluate_epoch;
use vigil::stream::EvidenceKey;
use vigil::{CollectorConfig, EpochReport, EpochRun, PacerBudget, RunConfig, StreamTuning};
use vigil_agents::{
    event_channel_bounded, AdversaryModel, AgentEvent, DiscoveredPath, EventCollector, EventSender,
    FlowIndex, HostAgent, HostPacer, RetransmissionEvent, TraceReport,
};
use vigil_analysis::ledger::WindowAnalysis;
use vigil_analysis::{FlowEvidence, VoteLedger};
use vigil_fabric::flowsim::{EpochOutcome, EpochScratch, EpochStream, FlowBatch, FlowRecord};
use vigil_topology::ClosTopology;
use vigil_wire::{emit_frame, parse_frame, WireFrame};

/// Ledger ring depth and health EWMA factor of the epoch runners
/// (`vigil::run`'s crate-private constants; neither reaches a verdict,
/// and the twin-equals-real check would catch a drift that did).
const LEDGER_RING_WINDOWS: usize = 8;
const LEDGER_HEALTH_ALPHA: f64 = 0.3;

/// The analysis ledger the epoch runners open for `run`.
pub fn fresh_ledger(num_links: usize, run: &RunConfig) -> VoteLedger<EvidenceKey> {
    VoteLedger::new(
        num_links,
        run.alg1,
        LEDGER_RING_WINDOWS,
        LEDGER_HEALTH_ALPHA,
    )
}

/// The host pacer a [`PacerBudget`] stands for.
fn pacer(budget: &PacerBudget, topo: &ClosTopology) -> HostPacer {
    match *budget {
        PacerBudget::Theorem1 {
            tmax,
            epoch_seconds,
        } => HostPacer::from_theorem1(topo, tmax, epoch_seconds),
        PacerBudget::Fixed(n) => HostPacer::with_budget(n),
        PacerBudget::Unlimited => HostPacer::with_budget(u32::MAX),
    }
}

/// Canonical report order plus the flow index, into an [`EpochRun`]
/// (`vigil::run::assemble_epoch` with both baselines off).
fn assemble(
    outcome: EpochOutcome,
    mut reports: Vec<TraceReport>,
    window: WindowAnalysis,
) -> EpochRun {
    reports.sort_by_key(|r| (r.host, r.tuple));
    let flow_index = FlowIndex::from_flows(&outcome.flows);
    EpochRun {
        outcome,
        flow_index,
        reports,
        evidence: window.evidence,
        detection: window.detection,
        unbounded_picks: window.unbounded_picks,
        classes: window.classes,
        integer: None,
        binary: None,
    }
}

/// The end of a window, shared by both twins: close the ledger window,
/// assemble the epoch, evaluate it — one span each.
fn close_and_score(
    tracer: &mut Tracer,
    ledger: &mut VoteLedger<EvidenceKey>,
    outcome: EpochOutcome,
    reports: Vec<TraceReport>,
) -> (EpochRun, EpochReport) {
    let span = tracer.open("analysis.close_window");
    let window = ledger.close_window();
    tracer.close(span, window.evidence.len());

    let span = tracer.open("core.assemble");
    let epoch = assemble(outcome, reports, window);
    tracer.close(span, 1);

    let span = tracer.open("core.evaluate");
    let report = evaluate_epoch(&epoch);
    tracer.close(span, 1);
    (epoch, report)
}

/// The traced stand-in for `StreamSession` (evidence-only retention).
pub struct Twin {
    tuning: StreamTuning,
    agents: Vec<Option<HostAgent>>,
    adversary: Option<AdversaryModel>,
    ledger: VoteLedger<EvidenceKey>,
    hub_tx: EventSender,
    hub_rx: EventCollector,
    reports: Vec<TraceReport>,
    chunk: Vec<FlowRecord>,
    batch: FlowBatch,
    inbox: Vec<AgentEvent>,
    staged: Vec<FlowRecord>,
    emitted: Vec<Option<(RetransmissionEvent, DiscoveredPath)>>,
    flows: u64,
    /// Events drained from the hub so far.
    pub events: u64,
    /// The spans recorded so far.
    pub tracer: Tracer,
}

impl Twin {
    /// Drains the hub into the ledger, as `StreamSession::drain_hub`.
    fn drain_hub(&mut self) {
        self.inbox.clear();
        let span = self.tracer.open("agents.hub");
        let drained = self.hub_rx.drain_into(&mut self.inbox);
        self.tracer.close(span, drained);
        self.events += drained as u64;
        let span = self.tracer.open("analysis.absorb");
        let mut absorbed = 0;
        for event in self.inbox.drain(..) {
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
                absorbed += 1;
            }
        }
        self.tracer.close(span, absorbed);
    }

    /// Routes one event through its (lazily created) host agent.
    fn dispatch(
        &mut self,
        topo: &ClosTopology,
        run: &RunConfig,
        event: RetransmissionEvent,
        path: DiscoveredPath,
    ) {
        let slot = &mut self.agents[event.host.0 as usize];
        let agent = slot.get_or_insert_with(|| HostAgent::new(event.host, pacer(&run.pacer, topo)));
        agent.on_retransmission(&event, path, &self.hub_tx);
    }
}

impl Pipeline for Twin {
    fn open(world: &World, run: &RunConfig) -> Self {
        assert!(!run.slb.enabled(), "the twin has no deferred-gate path");
        let tuning = StreamTuning::default();
        let (hub_tx, hub_rx) = event_channel_bounded(tuning.hub_capacity);
        Twin {
            tuning,
            agents: (0..world.topo.num_hosts()).map(|_| None).collect(),
            adversary: run
                .byzantine
                .enabled()
                .then(|| AdversaryModel::new(run.byzantine, world.topo.num_links())),
            ledger: fresh_ledger(world.topo.num_links(), run),
            hub_tx,
            hub_rx,
            reports: Vec::new(),
            chunk: Vec::new(),
            batch: FlowBatch::new(),
            inbox: Vec::new(),
            staged: Vec::new(),
            emitted: Vec::new(),
            flows: 0,
            events: 0,
            tracer: Tracer::new(),
        }
    }

    fn window(
        &mut self,
        world: &World,
        run: &RunConfig,
        w: usize,
        scratch: &mut EpochScratch,
    ) -> (EpochRun, EpochReport) {
        let topo = &world.topo;
        self.tracer.set_window(w as u32);
        let root = self.tracer.open(WINDOW);
        let mut rng = world.epoch_rng(w);

        let span = self.tracer.open("fabric.open");
        let mut stream = EpochStream::open(
            topo,
            &world.faults,
            &run.traffic,
            &run.sim,
            &mut rng,
            scratch,
        );
        self.tracer.close(span, stream.total_flows());
        let mut retained: Vec<FlowRecord> = Vec::new();

        if self.adversary.is_some() {
            // Adversarial path: array-of-structs chunks, the model
            // inspects whole records.
            loop {
                self.chunk.clear();
                let span = self.tracer.open("fabric.next_chunk");
                let pulled = stream.next_chunk(self.tuning.chunk_flows, &mut self.chunk);
                self.tracer.close(span, pulled);
                if pulled == 0 {
                    break;
                }
                self.flows += pulled as u64;

                let span = self.tracer.open("agents.adversary");
                let adversary = self.adversary.as_ref().expect("adversarial path");
                self.emitted.clear();
                self.emitted
                    .extend(self.chunk.iter().map(|rec| adversary.emission(rec)));
                self.tracer.close(span, pulled);

                let span = self.tracer.open("agents.dispatch");
                let mut chunk = std::mem::take(&mut self.chunk);
                let mut emitted = std::mem::take(&mut self.emitted);
                let mut dispatched = 0;
                for (rec, emission) in chunk.drain(..).zip(emitted.drain(..)) {
                    let emitted_some = emission.is_some();
                    if let Some((event, path)) = emission {
                        self.dispatch(topo, run, event, path);
                        dispatched += 1;
                    }
                    if rec.retransmissions > 0 || emitted_some {
                        retained.push(rec);
                    }
                }
                self.chunk = chunk;
                self.emitted = emitted;
                self.tracer.close(span, dispatched);
                self.drain_hub();
            }
        } else {
            // Honest path: struct-of-arrays batches; only rows that
            // retransmitted are materialized.
            loop {
                self.batch.clear();
                let span = self.tracer.open("fabric.next_batch");
                let pulled = stream.next_batch(self.tuning.chunk_flows, &mut self.batch);
                self.tracer.close(span, pulled);
                if pulled == 0 {
                    break;
                }
                self.flows += pulled as u64;

                let span = self.tracer.open("fabric.materialize");
                let batch = std::mem::take(&mut self.batch);
                for i in 0..batch.len() {
                    if batch.retransmissions()[i] > 0 {
                        self.staged.push(stream.materialize(&batch, i));
                    }
                }
                self.batch = batch;
                self.tracer.close(span, self.staged.len());

                let span = self.tracer.open("agents.dispatch");
                let mut staged = std::mem::take(&mut self.staged);
                let mut dispatched = 0;
                for rec in staged.drain(..) {
                    if rec.established {
                        let event = RetransmissionEvent {
                            host: rec.src,
                            tuple: rec.tuple,
                            retransmissions: rec.retransmissions,
                        };
                        let path = DiscoveredPath::of_flow_path(&rec.path);
                        self.dispatch(topo, run, event, path);
                        dispatched += 1;
                    }
                    retained.push(rec);
                }
                self.staged = staged;
                self.tracer.close(span, dispatched);
                self.drain_hub();
            }
        }
        let span = self.tracer.open("fabric.finish");
        let ground_truth = stream.finish();
        self.tracer.close(span, 1);

        // Roll every live agent into the next epoch, announced on the
        // hub; drain periodically so the ticks cannot overflow it.
        let span = self.tracer.open("agents.tick");
        let next_epoch = self.ledger.epoch() + 1;
        let mut ticked = 0;
        let mut since_drain = 0;
        for i in 0..self.agents.len() {
            if let Some(agent) = self.agents[i].as_mut() {
                agent.epoch_tick(next_epoch, &self.hub_tx);
                ticked += 1;
                since_drain += 1;
                if since_drain >= self.tuning.hub_capacity {
                    self.drain_hub();
                    since_drain = 0;
                }
            }
        }
        self.drain_hub();
        self.tracer.close(span, ticked);

        let reports = std::mem::take(&mut self.reports);
        let outcome = EpochOutcome {
            flows: retained,
            ground_truth,
        };
        let scored = close_and_score(&mut self.tracer, &mut self.ledger, outcome, reports);
        self.tracer.close(root, 1);
        scored
    }

    fn flows(&self) -> u64 {
        self.flows
    }

    fn shed(&self) -> u64 {
        self.hub_rx.shed()
    }
}

/// The collector's window loop, single-threaded and traced: simulate
/// locally for ground truth and retained records, decode the fleet's
/// frames, push the events through the bounded hub, absorb, close,
/// assemble, evaluate. Admission, `(host, seq)` dedup, the barrier and
/// the ack live in `run_collector`'s private threads and are not
/// reproduced; their cost is what the real collector's window time
/// holds beyond this twin's.
pub struct CollectorTwin {
    ledger: VoteLedger<EvidenceKey>,
    hub_tx: EventSender,
    hub_rx: EventCollector,
    batch: FlowBatch,
    frames: Vec<WireFrame>,
    inbox: Vec<AgentEvent>,
    reports: BTreeMap<EvidenceKey, TraceReport>,
    /// The spans recorded so far.
    pub tracer: Tracer,
}

impl CollectorTwin {
    /// Opens the twin for `world` running `run` (honest fleets only).
    pub fn open(world: &World, run: &RunConfig) -> Self {
        assert!(!run.slb.enabled() && !run.byzantine.enabled());
        let (hub_tx, hub_rx) = event_channel_bounded(CollectorConfig::default().hub_capacity);
        CollectorTwin {
            ledger: fresh_ledger(world.topo.num_links(), run),
            hub_tx,
            hub_rx,
            batch: FlowBatch::new(),
            frames: Vec::new(),
            inbox: Vec::new(),
            reports: BTreeMap::new(),
            tracer: Tracer::new(),
        }
    }

    /// Runs window `w` on the fleet's recorded frames for that epoch,
    /// one byte slice per connection.
    pub fn window(
        &mut self,
        world: &World,
        run: &RunConfig,
        w: usize,
        scratch: &mut EpochScratch,
        streams: [&[u8]; 2],
    ) -> (EpochRun, EpochReport) {
        self.tracer.set_window(w as u32);
        let root = self.tracer.open(WINDOW);
        let mut rng = world.epoch_rng(w);

        let span = self.tracer.open("fabric.open");
        let mut stream = EpochStream::open(
            &world.topo,
            &world.faults,
            &run.traffic,
            &run.sim,
            &mut rng,
            scratch,
        );
        self.tracer.close(span, stream.total_flows());
        let mut retained: Vec<FlowRecord> = Vec::new();
        loop {
            self.batch.clear();
            let span = self.tracer.open("fabric.next_batch");
            let pulled = stream.next_batch(256, &mut self.batch);
            self.tracer.close(span, pulled);
            if pulled == 0 {
                break;
            }
            let span = self.tracer.open("fabric.materialize");
            let before = retained.len();
            for i in 0..self.batch.len() {
                if self.batch.retransmissions()[i] > 0 {
                    retained.push(stream.materialize(&self.batch, i));
                }
            }
            self.tracer.close(span, retained.len() - before);
        }
        let span = self.tracer.open("fabric.finish");
        let ground_truth = stream.finish();
        self.tracer.close(span, 1);

        let span = self.tracer.open("wire.decode");
        self.frames.clear();
        for bytes in streams {
            decode_frames(bytes, &mut self.frames);
        }
        self.tracer.close(span, self.frames.len());

        let span = self.tracer.open("agents.hub");
        let mut events = 0;
        for frame in self.frames.drain(..) {
            match frame {
                WireFrame::Event(event) => {
                    self.hub_tx.try_send(event);
                    events += 1;
                }
                WireFrame::EpochDone { epoch, .. } => assert_eq!(epoch, w as u64),
                other => panic!("unexpected frame in a recorded epoch: {other:?}"),
            }
        }
        self.inbox.clear();
        self.hub_rx.drain_into(&mut self.inbox);
        self.tracer.close(span, events);

        let span = self.tracer.open("analysis.absorb");
        let mut absorbed = 0;
        for event in self.inbox.drain(..) {
            if let AgentEvent::Evidence { report, .. } = event {
                self.ledger.absorb(
                    (report.host, report.tuple),
                    FlowEvidence {
                        links: report.links.clone(),
                        retransmissions: report.retransmissions,
                        complete: report.complete,
                    },
                );
                self.reports.insert((report.host, report.tuple), report);
                absorbed += 1;
            }
        }
        self.tracer.close(span, absorbed);

        let reports = std::mem::take(&mut self.reports).into_values().collect();
        let outcome = EpochOutcome {
            flows: retained,
            ground_truth,
        };
        let scored = close_and_score(&mut self.tracer, &mut self.ledger, outcome, reports);
        self.tracer.close(root, 1);
        scored
    }

    /// Events the twin's hub shed so far.
    pub fn shed(&self) -> u64 {
        self.hub_rx.shed()
    }
}

/// Parses every frame of `bytes` onto `out`; recorded streams are whole
/// frames, so anything else is a harness bug.
fn decode_frames(mut bytes: &[u8], out: &mut Vec<WireFrame>) {
    while !bytes.is_empty() {
        let (frame, used) = parse_frame(bytes).expect("recorded stream holds whole frames");
        out.push(frame);
        bytes = &bytes[used..];
    }
}

/// Times the wire layer on one epoch's recorded bytes, outside any
/// window: decode every frame, then encode them all again — and check
/// the bytes come back identical. Returns the number of frames.
pub fn trace_wire(
    tracer: &mut Tracer,
    bytes: &[u8],
    frames: &mut Vec<WireFrame>,
    out: &mut Vec<u8>,
) -> usize {
    frames.clear();
    let span = tracer.open("wire.decode");
    decode_frames(bytes, frames);
    tracer.close(span, frames.len());
    out.clear();
    let span = tracer.open("wire.encode");
    for frame in frames.iter() {
        emit_frame(frame, out);
    }
    tracer.close(span, frames.len());
    assert!(out == bytes, "re-encoded frames differ from the recording");
    frames.len()
}
