//! A deterministic fleet simulation of the service on one thread: the
//! real agent and collector code over in-memory pipes, under a virtual
//! clock and a seeded scheduler.
//!
//! Each agent is a real [`AgentCore`], [`AgentWorld`] and [`ChaosWriter`]
//! writing real frame bytes. The collector side reads every connection
//! leniently with a [`FrameReader`] into the real [`CollectorCore`] and
//! closes each window through [`Windows::close`], the function the
//! threaded window loop calls. The scheduler picks every move: deliver a
//! chunk of one connection's bytes, let an agent act, let time pass (ack
//! timeouts and heartbeats), tick the collector's grace clock, kill an
//! agent and start a fresh one, partition an agent (its connection dies
//! and its next connects are refused), or restart the collector from the
//! *bytes* of its last snapshot. Chaos corrupts, truncates, duplicates
//! and resets the agents' writes; the `delay` axis is wall-clock only,
//! and the scheduler's interleaving takes its place.
//!
//! Every run is checked against one `stream_trial` reference:
//!
//! - the final report's JSON is byte-identical;
//! - every window closes exactly once across collector incarnations
//!   (no epoch leaks);
//! - no host is evicted (every plan here is loss-recoverable);
//! - after every ack the collector core holds no dedup entry and at most
//!   one range and one connection per agent, and the tally no report —
//!   the per-window state is bounded by a per-window constant, the
//!   structural form of flat memory.
//!
//! A failing run names its seed and the schedule that replays it through
//! [`run`].

use super::agent_core::{self, AgentCore};
use super::collector_core::{self, CollectorCore};
use super::{
    parse_snapshot, AgentSpec, AgentWorld, CollectorConfig, ExperimentConfig, ResilienceConfig,
    Tally, Windows,
};
use crate::experiment::ExperimentReport;
use crate::run::RunConfig;
use crate::stream::{stream_trial, StreamTuning};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::rc::Rc;
use std::time::{Duration, Instant};
use vigil_agents::ByzantineSpec;
use vigil_fabric::faults::{FaultPlan, RateRange};
use vigil_fabric::traffic::{ConnCount, TrafficSpec};
use vigil_topology::ClosParams;
use vigil_wire::chaos::{ChaosPlan, ChaosSchedule, ChaosWriter};
use vigil_wire::{FrameReader, FrameWriter, WireFrame, HELLO_RESILIENT, WIRE_VERSION};

/// One move of the virtual clock.
const TICK: Duration = Duration::from_millis(100);

/// One direction of an in-memory connection: bytes written and not yet
/// read, and whether the writer hung up.
#[derive(Debug, Default)]
struct Pipe {
    bytes: VecDeque<u8>,
    closed: bool,
}

/// A handle on a [`Pipe`]: writes append, reads take. An empty pipe
/// reads as `WouldBlock` — a socket's read tick — until it is closed.
#[derive(Debug, Clone, Default)]
struct End(Rc<RefCell<Pipe>>);

impl End {
    fn close(&self) {
        self.0.borrow_mut().closed = true;
    }
}

impl Write for End {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut pipe = self.0.borrow_mut();
        if pipe.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        pipe.bytes.extend(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for End {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut pipe = self.0.borrow_mut();
        if pipe.bytes.is_empty() && !pipe.closed {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        pipe.bytes.read(buf)
    }
}

/// One connection as the collector sees it: bytes the agent wrote
/// (`up`), the share of them delivered so far (read by `reader`), and
/// the way back (`writer`).
struct Conn {
    up: End,
    arrived: End,
    reader: FrameReader<End>,
    writer: FrameWriter<End>,
    down: End,
    greeted: bool,
    /// The reader forwarded a Hello or a barrier and waits for the core.
    parked: bool,
}

/// One agent process: the real core, world and chaos writer.
struct Agent {
    spec: AgentSpec,
    core: AgentCore,
    world: AgentWorld,
    /// What the core asked for and the agent has yet to do.
    next: Option<agent_core::Output>,
    /// When a pending connect may go out (the backoff).
    wake: Instant,
    link: Option<Link>,
    /// Connect attempts a partition still refuses.
    refuse: u32,
}

struct Link {
    up: End,
    reader: FrameReader<End>,
    writer: FrameWriter<ChaosWriter<End>>,
}

/// The collector's incarnation: its core and tally.
struct Collector {
    core: CollectorCore,
    tally: Tally,
    /// The first window this incarnation serves, plus windows closed.
    window: usize,
    out: Vec<collector_core::Output>,
}

/// One scheduler move. Indices are taken modulo what exists, so any
/// list of moves is a schedule.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Deliver up to `bytes` of a connection's bytes and let its reader
    /// read on.
    Deliver { conn: u32, bytes: u32 },
    /// An agent does what its core asked, or reads its answer.
    Agent(u32),
    /// Virtual time passes: waiting agents tick.
    Time,
    /// The collector ticks (its reconnect grace).
    Grace,
    /// An agent process dies; a fresh one starts.
    Kill(u32),
    /// An agent's connection dies and its next two connects are refused.
    Partition(u32),
    /// The collector restarts from its last snapshot's bytes.
    Restart,
}

/// What a run did, for the suite's coverage checks.
#[derive(Debug, Default)]
struct Outcome {
    kills: u64,
    partitions: u64,
    restarts: u64,
    agent_reconnects: u64,
    quarantined: u64,
    collector_reconnects: u64,
}

/// One simulated fleet.
struct Sim<'a> {
    windows: Windows<'a>,
    rcfg: ResilienceConfig,
    chaos: Option<ChaosSchedule>,
    now: Instant,
    agents: Vec<Agent>,
    conns: BTreeMap<usize, Conn>,
    next_conn: usize,
    collector: Collector,
    snapshot: Option<String>,
    /// Closes per window, across incarnations.
    closes: Vec<u32>,
    report: Option<String>,
    outcome: Outcome,
}

impl<'a> Sim<'a> {
    fn new(windows: Windows<'a>, ranges: &[Range<u32>], chaos: Option<ChaosSchedule>) -> Self {
        let config = windows.config;
        let rcfg = ResilienceConfig {
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
            ack_timeout: Duration::from_secs(1),
            ..ResilienceConfig::default()
        };
        let now = Instant::now();
        let mut sim = Sim {
            rcfg,
            chaos,
            now,
            agents: Vec::new(),
            conns: BTreeMap::new(),
            next_conn: 0,
            collector: Self::collector(&windows, None, now),
            snapshot: None,
            closes: vec![0; config.epochs],
            report: None,
            outcome: Outcome::default(),
            windows,
        };
        sim.agents = ranges.iter().map(|r| sim.agent(r.clone())).collect();
        sim
    }

    fn collector(windows: &Windows, snapshot: Option<&str>, now: Instant) -> Collector {
        let (config, ccfg, topo) = (windows.config, windows.ccfg, &windows.trial.topo);
        let snap = snapshot.map(|text| parse_snapshot(config, ccfg, text).expect("snapshot"));
        let (tally, window) = Tally::open(config, topo, snap).expect("snapshot fits");
        let (hosts, links) = (topo.num_hosts() as u32, topo.num_links());
        let core = CollectorCore::new(ccfg, hosts, links, window as u64, now);
        let out = Vec::new();
        Collector {
            core,
            tally,
            window,
            out,
        }
    }

    /// A fresh agent process for `hosts`, about to connect.
    fn agent(&self, hosts: Range<u32>) -> Agent {
        let config = self.windows.config;
        let spec = AgentSpec {
            hosts,
            start_epoch: 0,
            epochs: config.epochs,
            chunk_flows: 64,
        };
        let mut core = AgentCore::new(&spec, &self.rcfg, self.chaos.clone());
        let world = AgentWorld::build(config, &spec).expect("agent world");
        let next = Some(core.start());
        Agent {
            spec,
            core,
            world,
            next,
            wake: self.now,
            link: None,
            refuse: 0,
        }
    }

    fn apply(&mut self, mv: Move) -> Result<(), String> {
        let n = self.agents.len() as u32;
        match mv {
            Move::Deliver { conn, bytes } => {
                let live: Vec<usize> = self.conns.keys().copied().collect();
                if let Some(&id) = live.get(conn as usize % live.len().max(1)) {
                    self.deliver(id, bytes as usize)?;
                }
            }
            Move::Agent(i) => self.act((i % n) as usize)?,
            Move::Time => {
                self.now += TICK;
                for i in 0..self.agents.len() {
                    if self.agents[i].next.is_none() {
                        self.read(i, true);
                    }
                }
            }
            Move::Grace => {
                self.collector.core.step(
                    collector_core::Input::Tick(self.now),
                    &mut self.collector.out,
                );
                self.carry_out()?;
            }
            Move::Kill(i) => {
                let i = (i % n) as usize;
                if let Some(link) = self.agents[i].link.take() {
                    link.up.close();
                }
                self.agents[i] = self.agent(self.agents[i].spec.hosts.clone());
                self.outcome.kills += 1;
            }
            Move::Partition(i) => {
                let i = (i % n) as usize;
                if self.agents[i].link.is_some() && self.agents[i].next.is_none() {
                    self.lose(i);
                    self.agents[i].refuse = 2;
                    self.outcome.partitions += 1;
                }
            }
            Move::Restart => {
                for conn in std::mem::take(&mut self.conns).into_values() {
                    conn.down.close();
                }
                let stats = self.collector.core.stats();
                self.outcome.quarantined += stats.quarantined_frames;
                self.outcome.collector_reconnects += stats.reconnects;
                if stats.hosts_evicted > 0 {
                    return Err(format!("{} hosts evicted", stats.hosts_evicted));
                }
                let snapshot = self.snapshot.as_deref();
                self.collector = Self::collector(&self.windows, snapshot, self.now);
                self.outcome.restarts += 1;
            }
        }
        Ok(())
    }

    /// Moves up to `bytes` of connection `id`'s bytes to the collector,
    /// whose reader then reads on until it parks or runs dry.
    fn deliver(&mut self, id: usize, bytes: usize) -> Result<(), String> {
        if let Some(conn) = self.conns.get_mut(&id) {
            let mut up = conn.up.0.borrow_mut();
            let mut arrived = conn.arrived.0.borrow_mut();
            let n = bytes.min(up.bytes.len());
            arrived.bytes.extend(up.bytes.drain(..n));
            arrived.closed |= up.closed && up.bytes.is_empty();
        }
        loop {
            let Some(conn) = self.conns.get_mut(&id).filter(|c| !c.parked) else {
                return Ok(());
            };
            let read = conn.reader.next_frame_lenient();
            let quarantined = conn.reader.quarantined_frames();
            let input = match read {
                Ok(Some(frame)) => {
                    conn.parked =
                        matches!(frame, WireFrame::Hello { .. } | WireFrame::EpochDone { .. });
                    if conn.greeted {
                        collector_core::Input::Frame {
                            conn: id,
                            frame,
                            quarantined,
                        }
                    } else {
                        conn.greeted = true;
                        collector_core::Input::Open { conn: id, frame }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                ended => {
                    let greeted = conn.greeted;
                    self.conns.remove(&id);
                    if !greeted {
                        return Ok(());
                    }
                    collector_core::Input::Closed {
                        conn: id,
                        error: ended.err().map(|e| e.to_string()),
                        quarantined,
                    }
                }
            };
            self.collector.core.step(input, &mut self.collector.out);
            self.carry_out()?;
        }
    }

    /// Plays the collector's shell for what its core asked.
    fn carry_out(&mut self) -> Result<(), String> {
        while !self.collector.out.is_empty() {
            let out = std::mem::take(&mut self.collector.out);
            for output in out {
                match output {
                    collector_core::Output::Unpark { conn, resume } => {
                        let Some(c) = self.conns.get_mut(&conn) else {
                            continue;
                        };
                        if let Some(epoch) = resume {
                            let _ = c.writer.write_frame(&WireFrame::ResumeAt { epoch });
                        }
                        c.parked = false;
                    }
                    collector_core::Output::Drop(conn) => {
                        if let Some(c) = self.conns.remove(&conn) {
                            c.down.close();
                        }
                    }
                    collector_core::Output::Absorb(event) => {
                        self.collector.tally.session.intake.absorb(event)
                    }
                    collector_core::Output::WindowComplete => self.close()?,
                    collector_core::Output::Abort(why) => return Err(why),
                    collector_core::Output::Log(_) => {}
                }
            }
        }
        Ok(())
    }

    /// The window loop's step: close the complete window, keep its
    /// snapshot's bytes, ack. The scheduler feeds the core, so the pump
    /// has nothing to do.
    fn close(&mut self) -> Result<(), String> {
        let w = self.collector.window;
        let (_, snapshot) = (self.windows)
            .close(&mut self.collector.tally, w, |_, _| Ok(()), true)
            .map_err(|e| e.to_string())?;
        self.snapshot = snapshot;
        self.closes[w] += 1;
        self.collector.window += 1;
        let c = &mut self.collector;
        c.core.ack(&mut c.out);
        let agents = self.agents.len();
        let (dedup, ranges, conns) = c.core.footprint();
        let reports = c.tally.session.intake.reports.len();
        if dedup > 0 || ranges > agents || conns > agents || reports > 0 {
            return Err(format!(
                "after window {w}: {dedup} dedup entries, {ranges} ranges, {conns} connections, \
                 {reports} reports"
            ));
        }
        if w + 1 == self.windows.ccfg.epochs {
            let report = self.windows.report(c.tally.scored.clone(), 0.0);
            self.report = Some(serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
        }
        Ok(())
    }

    /// Agent `i` does what its core asked, or reads the answer it awaits.
    fn act(&mut self, i: usize) -> Result<(), String> {
        let agent = &mut self.agents[i];
        let input = match agent.next.take() {
            Some(agent_core::Output::Connect { after }) if self.now < agent.wake + after => {
                agent.next = Some(agent_core::Output::Connect { after });
                return Ok(());
            }
            Some(agent_core::Output::Connect { .. }) if agent.refuse > 0 => {
                agent.refuse -= 1;
                agent_core::Input::ConnectFailed
            }
            Some(agent_core::Output::Connect { .. }) => {
                self.connect(i);
                agent_core::Input::Connected
            }
            Some(agent_core::Output::Hello { frames }) => {
                let link = agent.link.as_mut().ok_or("Hello without a link")?;
                let key = u64::from(agent.spec.hosts.start);
                let up = link.up.clone();
                link.writer = FrameWriter::new(ChaosWriter::new(up, None, key, frames));
                let hello = WireFrame::Hello {
                    version: WIRE_VERSION,
                    flags: HELLO_RESILIENT,
                    host_lo: agent.spec.hosts.start,
                    host_hi: agent.spec.hosts.end,
                };
                return self.send(i, &hello);
            }
            Some(agent_core::Output::Emit { epoch, start, plan }) => {
                let link = agent.link.as_mut().ok_or("Emit without a link")?;
                agent
                    .world
                    .position(epoch, start)
                    .map_err(|e| e.to_string())?;
                link.writer.get_mut().set_plan(plan);
                if agent
                    .world
                    .emit(epoch, &mut link.writer, &mut agent.core.stats)
                    .is_err()
                {
                    self.lose(i);
                }
                return Ok(());
            }
            Some(agent_core::Output::Heartbeat) => return self.send(i, &WireFrame::Heartbeat),
            Some(agent_core::Output::Hangup) => {
                self.lose(i);
                return Ok(());
            }
            Some(agent_core::Output::GiveUp { attempts }) => {
                return Err(format!("agent {i} gave up after {attempts} attempts"));
            }
            Some(agent_core::Output::Unsettled { epoch }) => {
                return Err(format!("agent {i} gave up on epoch {epoch}"));
            }
            done @ Some(agent_core::Output::Done) => {
                agent.next = done;
                return Ok(());
            }
            None => {
                self.read(i, false);
                return Ok(());
            }
        };
        self.step_agent(i, input);
        Ok(())
    }

    /// Agent `i` reads the answer it awaits; with `tick`, an empty pipe
    /// is a read tick (the virtual clock moved while it waited).
    fn read(&mut self, i: usize, tick: bool) {
        let Some(link) = self.agents[i].link.as_mut() else {
            return;
        };
        let input = match link.reader.next_frame() {
            Ok(Some(WireFrame::ResumeAt { epoch })) => agent_core::Input::ResumeAt(epoch),
            Ok(Some(_)) => return,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && tick => {
                agent_core::Input::Tick(self.now)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Ok(None) | Err(_) => return self.lose(i),
        };
        self.step_agent(i, input);
    }

    fn step_agent(&mut self, i: usize, input: agent_core::Input) {
        let agent = &mut self.agents[i];
        agent.next = agent.core.step(input);
        agent.wake = self.now;
    }

    /// Writes `frame` on agent `i`'s link; a failed write loses it.
    fn send(&mut self, i: usize, frame: &WireFrame) -> Result<(), String> {
        let link = self.agents[i].link.as_mut().ok_or("send without a link")?;
        if link.writer.write_frame(frame).is_err() {
            self.lose(i);
        }
        Ok(())
    }

    /// Agent `i` hangs up its link and tells its core.
    fn lose(&mut self, i: usize) {
        let Some(mut link) = self.agents[i].link.take() else {
            return;
        };
        link.up.close();
        let chaos = link.writer.get_mut();
        let input = agent_core::Input::Lost {
            reset: chaos.take_reset_ordinal(),
            frames: chaos.index(),
        };
        self.step_agent(i, input);
    }

    /// Opens a connection for agent `i`.
    fn connect(&mut self, i: usize) {
        let (up, arrived, down) = (End::default(), End::default(), End::default());
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(
            id,
            Conn {
                up: up.clone(),
                arrived: arrived.clone(),
                reader: FrameReader::new(arrived),
                writer: FrameWriter::new(down.clone()),
                down: down.clone(),
                greeted: false,
                parked: false,
            },
        );
        let key = u64::from(self.agents[i].spec.hosts.start);
        self.agents[i].link = Some(Link {
            up: up.clone(),
            reader: FrameReader::new(down),
            writer: FrameWriter::new(ChaosWriter::new(up, None, key, 0)),
        });
    }

    /// Fair play with no faults until the report is in.
    fn finish(&mut self) -> Result<(), String> {
        for _ in 0..20_000 {
            if self.report.is_some() {
                return Ok(());
            }
            let ids: Vec<usize> = self.conns.keys().copied().collect();
            for id in ids {
                self.deliver(id, usize::MAX)?;
            }
            for i in 0..self.agents.len() {
                self.act(i)?;
            }
            self.apply(Move::Time)?;
        }
        Err("no report after 20 000 fair rounds".into())
    }
}

/// Runs `schedule`, then fair play to the end, and checks the run
/// against `reference` (see the module docs).
fn run(
    config: &ExperimentConfig,
    ranges: &[Range<u32>],
    chaos: Option<ChaosSchedule>,
    schedule: &[Move],
    reference: &str,
) -> Result<Outcome, String> {
    let ccfg = CollectorConfig {
        agents: ranges.len(),
        epochs: config.epochs,
        reconnect_grace: Duration::from_secs(3600),
        ..CollectorConfig::default()
    };
    let trial = config.trial(0).map_err(|e| e.to_string())?;
    let windows = Windows {
        config,
        ccfg: &ccfg,
        trial: &trial,
        metrics: None,
    };
    let mut sim = Sim::new(windows, ranges, chaos);
    for &mv in schedule {
        if sim.report.is_some() {
            break;
        }
        sim.apply(mv)?;
    }
    sim.finish()?;
    if sim.report.as_deref() != Some(reference) {
        return Err("the report differs from the stream's".into());
    }
    if sim.closes.iter().any(|&c| c != 1) {
        return Err(format!("windows closed {:?} times", sim.closes));
    }
    let stats = sim.collector.core.stats();
    if stats.hosts_evicted > 0 {
        return Err(format!("{} hosts evicted", stats.hosts_evicted));
    }
    let mut outcome = sim.outcome;
    outcome.quarantined += stats.quarantined_frames;
    outcome.collector_reconnects += stats.reconnects;
    outcome.agent_reconnects = sim.agents.iter().map(|a| a.core.stats.reconnects).sum();
    Ok(outcome)
}

/// A schedule of `len` moves drawn from `seed`: mostly deliveries and
/// agent moves, some time, and at most two kills, two partitions and one
/// collector restart.
fn schedule(seed: u64, len: usize) -> Vec<Move> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut faults = [2u32, 2, 1];
    (0..len)
        .map(|_| loop {
            let k = rng.gen_range(0u32..100);
            let (a, b) = (rng.gen_range(0u32..8), rng.gen_range(1u32..4096));
            let fault = match k {
                97 => 0,
                98 => 1,
                99 => 2,
                _ => usize::MAX,
            };
            if let Some(left) = faults.get_mut(fault) {
                if *left == 0 {
                    continue;
                }
                *left -= 1;
            }
            break match k {
                0..=44 => Move::Deliver { conn: a, bytes: b },
                45..=84 => Move::Agent(a),
                85..=94 => Move::Time,
                95 | 96 => Move::Grace,
                97 => Move::Kill(a),
                98 => Move::Partition(a),
                _ => Move::Restart,
            };
        })
        .collect()
}

/// A small world: the tiny fabric with few connections per host, so a
/// whole fleet run costs milliseconds.
fn world(byzantine: ByzantineSpec, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        name: "fleet-sim".into(),
        params: ClosParams::tiny(),
        faults: FaultPlan {
            failure_rate: RateRange::fixed(0.05),
            ..FaultPlan::paper_default(2)
        },
        run: RunConfig {
            traffic: TrafficSpec {
                conns_per_host: ConnCount::Fixed(6),
                ..TrafficSpec::paper_default()
            },
            byzantine,
            ..RunConfig::default()
        },
        epochs: 3,
        trials: 1,
        seed,
    }
}

fn reference(config: &ExperimentConfig) -> String {
    let (trial, _) = stream_trial(config, 0, &StreamTuning::default());
    let mut report = ExperimentReport::empty(config);
    report.merge_trial(trial);
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// Splits `hosts` hosts into `n` contiguous ranges.
fn ranges(hosts: u32, n: u32) -> Vec<Range<u32>> {
    (0..n).map(|i| i * hosts / n..(i + 1) * hosts / n).collect()
}

/// The suite: seeded schedules over two worlds, two- and three-agent
/// fleets, with and without chaos — every one byte-identical to the
/// stream — and, across them, every fault actually happened.
#[test]
fn seeded_fleet_schedules_match_the_stream() {
    let mut total = Outcome::default();
    let mut runs = 0;
    for (w, byzantine) in [ByzantineSpec::default(), ByzantineSpec::flooders(0.25, 0.5)]
        .into_iter()
        .enumerate()
    {
        let config = world(byzantine, 51 + w as u64);
        let reference = reference(&config);
        assert!(reference.contains("\"accuracy\""), "{reference}");
        for seed in 0..40u64 {
            let seed = seed + 1000 * w as u64;
            let ranges = ranges(config.params.num_hosts(), 2 + (seed % 2) as u32);
            let chaos = (!seed.is_multiple_of(4)).then(|| {
                let spec = format!(
                    "seed={seed},corrupt=0.02,truncate=0.01,dup=0.02,reset_every=150,\
                     partition=0.5:2"
                );
                ChaosSchedule::constant(ChaosPlan::parse(&spec).expect("chaos spec"))
            });
            let moves = schedule(seed, 300);
            let outcome = run(&config, &ranges, chaos, &moves, &reference)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\nschedule: {moves:?}"));
            total.kills += outcome.kills;
            total.partitions += outcome.partitions;
            total.restarts += outcome.restarts;
            total.agent_reconnects += outcome.agent_reconnects;
            total.quarantined += outcome.quarantined;
            total.collector_reconnects += outcome.collector_reconnects;
            runs += 1;
        }
    }
    assert_eq!(runs, 80);
    let Outcome {
        kills,
        partitions,
        restarts,
        agent_reconnects,
        quarantined,
        collector_reconnects,
    } = total;
    assert!(
        kills > 0 && partitions > 0 && restarts > 0,
        "churn happened: {total:?}"
    );
    assert!(
        agent_reconnects > 0 && quarantined > 0 && collector_reconnects > 0,
        "chaos bit: {total:?}"
    );
}
