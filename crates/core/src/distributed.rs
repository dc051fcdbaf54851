//! Distributed service mode: host agents in their own processes, a
//! collector daemon absorbing their evidence over sockets.
//!
//! The paper's deployment (§3, Figure 2) is not one process: every
//! production host runs a monitoring + path-discovery agent, and a
//! centralized analysis service tallies their votes per 30-second
//! window. This module is that shape over real transport:
//!
//! ```text
//!   vigil-sim agent --hosts 0..N/2 ─┐  length-prefixed frames
//!   vigil-sim agent --hosts N/2..N ─┤  (vigil_wire, TCP or Unix)
//!                                   ▼
//!            vigil-sim collect ── bounded hub ── VoteLedger
//!                 │                                  │
//!            snapshot.json                    window close →
//!          (failover/restart)              EpochRun → EpochReport
//! ```
//!
//! * [`run_agent`] simulates a slice of the fabric's hosts (the same
//!   deterministic epoch streams every runner draws) and writes the
//!   typed [`AgentEvent`] protocol over a socket, one
//!   [`WireFrame::EpochDone`] barrier per window.
//! * [`run_collector`] admits agent connections (version check,
//!   host-range non-overlap, optional host cap), forwards their events
//!   onto the bounded hub — backpressure sheds are counted, never
//!   panicked — detects per-host sequence gaps and agent restarts
//!   *before* the hub so in-flight loss and collector backpressure are
//!   accounted separately, closes the ledger window at the epoch
//!   barrier, and scores it with the exact batch machinery.
//!
//! Determinism contract: a loopback run (N agent processes feeding one
//! collector) produces a final report **byte-identical** to
//! `vigil-sim stream --json --trials 1` on the same preset. Both sides
//! derive topology, faults, and per-epoch RNG streams from the same
//! seeds; evidence admission (pacer, trace cache, SLB gate, byzantine
//! emission) runs on the agent exactly as in-process; the collector
//! re-simulates each epoch locally only for ground truth and retained
//! flow records (it never dispatches evidence of its own).
//!
//! Failover: with a snapshot path the collector serializes
//! `{ledger, epoch reports}` at every window close (atomic
//! temp-and-rename). A restarted collector `--resume`s from the last
//! closed window; agents launched with `--start-epoch` cover the
//! remaining epochs (per-epoch RNG streams are independent, so nothing
//! is replayed) and the final tally matches the uninterrupted run.
//!
//! Fault tolerance (protocol v2): the wire is treated as hostile.
//! Every frame is checksummed; the collector reads leniently,
//! quarantining corrupt bytes against a per-window error budget that
//! evicts a poisoned host range without stalling the window close.
//! [`run_agent_resilient`] reconnects through capped exponential
//! backoff with seeded jitter and replays exactly the epochs the
//! collector has not settled: the collector's only utterance,
//! [`WireFrame::ResumeAt`], names the first unsettled epoch at
//! admission (resume point), at window close (ack), and on an
//! incomplete window (replay request). Replays are byte-identical —
//! the agent rewinds its per-host sequence counters to the epoch-start
//! snapshot — so the collector's per-range `(host, seq)` dedup set
//! absorbs them exactly-once and the final tally stays byte-identical
//! to the chaos-free run whenever the chaos plan is loss-recoverable.

use crate::evaluate::{evaluate_epoch, EpochReport};
use crate::experiment::{ExperimentConfig, ExperimentReport, TrialAccumulator};
use crate::run::{
    assemble_epoch, fresh_ledger, RunConfig, LEDGER_HEALTH_ALPHA, LEDGER_RING_WINDOWS,
};
use crate::stream::{EvidenceKey, HostFleet, RetainPolicy, StreamTuning};
use crate::sweep::epoch_rng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::convert::Infallible;
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vigil_agents::{
    event_channel, event_channel_bounded, AgentEvent, EventCollector, EventSender, TraceReport,
};
use vigil_analysis::{FlowEvidence, LedgerSnapshot, VoteLedger};
use vigil_fabric::faults::LinkFaults;
use vigil_fabric::flowsim::EpochScratch;
use vigil_topology::{ClosTopology, MAX_ROUTE_LINKS};
use vigil_wire::chaos::{ChaosSchedule, ChaosWriter};
use vigil_wire::{FrameReader, FrameWriter, WireFrame, HELLO_RESILIENT, WIRE_VERSION};

fn invalid<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
}

fn other<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::other(e.to_string())
}

// ---------------------------------------------------------------------
// Transport: one address syntax for TCP and Unix-domain sockets.
// ---------------------------------------------------------------------

/// A socket address an agent connects to / a collector listens on.
/// Operands containing `/` are Unix-domain socket paths; everything
/// else is a TCP `host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`host:port`; port `0` binds an ephemeral port).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses the CLI address syntax (`/`-containing → Unix path).
    pub fn parse(s: &str) -> Self {
        #[cfg(unix)]
        if s.contains('/') {
            return Endpoint::Unix(PathBuf::from(s));
        }
        Endpoint::Tcp(s.to_string())
    }

    /// Connects as a plain (fire-and-forget) agent; only the write half
    /// is exposed. The collector's acks pile up unread in the socket
    /// buffer — harmless at a few bytes per window.
    pub fn connect(&self) -> io::Result<Box<dyn Write + Send>> {
        match self {
            Endpoint::Tcp(addr) => Ok(Box::new(TcpStream::connect(addr)?)),
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Box::new(std::os::unix::net::UnixStream::connect(path)?)),
        }
    }

    /// Connects as a resilient agent: both halves, with the read half
    /// ticking every `read_tick` so ack waits can interleave heartbeats
    /// and notice a dead collector.
    pub fn connect_duplex(&self, read_tick: Duration) -> io::Result<Duplex> {
        match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_read_timeout(Some(read_tick))?;
                let reader = stream.try_clone()?;
                Ok(Duplex {
                    reader: Box::new(reader),
                    writer: Box::new(stream),
                })
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let stream = std::os::unix::net::UnixStream::connect(path)?;
                stream.set_read_timeout(Some(read_tick))?;
                let reader = stream.try_clone()?;
                Ok(Duplex {
                    reader: Box::new(reader),
                    writer: Box::new(stream),
                })
            }
        }
    }

    /// Binds the collector's listening socket. An existing Unix socket
    /// file is unlinked first (the crash-leftover case).
    pub fn bind(&self) -> io::Result<Listener> {
        match self {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(std::os::unix::net::UnixListener::bind(
                    path,
                )?))
            }
        }
    }
}

/// A bound collector socket (see [`Endpoint::bind`]).
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    /// The bound address in [`Endpoint::parse`] syntax — what
    /// `--addr-file` records so agents can find an ephemeral port.
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".into()),
            #[cfg(unix)]
            Listener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_else(|| "?".into()),
        }
    }

    /// Accepts one connection as a read half + write half, with the
    /// read half ticking every `read_tick` (the granularity of idle
    /// detection and shutdown checks in reader threads).
    fn accept_duplex(&self, read_tick: Duration) -> io::Result<Duplex> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_read_timeout(Some(read_tick))?;
                let reader = stream.try_clone()?;
                Ok(Duplex {
                    reader: Box::new(reader),
                    writer: Box::new(stream),
                })
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                stream.set_read_timeout(Some(read_tick))?;
                let reader = stream.try_clone()?;
                Ok(Duplex {
                    reader: Box::new(reader),
                    writer: Box::new(stream),
                })
            }
        }
    }
}

/// The two halves of one agent↔collector connection.
pub struct Duplex {
    /// The read half (ticks at the configured read timeout).
    pub reader: Box<dyn Read + Send>,
    /// The write half.
    pub writer: Box<dyn Write + Send>,
}

/// True when a socket read error is just the read-timeout tick firing
/// (EAGAIN on Unix, WSAETIMEDOUT elsewhere), not a real failure.
fn is_tick(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

// ---------------------------------------------------------------------
// Agent process driver.
// ---------------------------------------------------------------------

/// What one agent process covers: a host slice and an epoch slice of
/// trial 0's deterministic schedule.
#[derive(Debug, Clone)]
pub struct AgentSpec {
    /// Half-open host-id range this process emits events for.
    pub hosts: Range<u32>,
    /// First epoch to simulate (0-based; a restarted fleet resumes here).
    pub start_epoch: usize,
    /// Epochs to simulate starting at `start_epoch`.
    pub epochs: usize,
    /// Flow records materialized per simulator pull (memory knob only —
    /// invisible on the wire).
    pub chunk_flows: usize,
}

/// What [`run_agent`] / [`run_agent_resilient`] sent.
#[derive(Debug, Clone, Default)]
pub struct AgentStats {
    /// Epochs simulated and settled (acked, for a resilient agent).
    pub epochs: usize,
    /// Event frames written (opens, evidence, ticks, drains; replays
    /// count again — this is wire volume, not distinct events).
    pub events_sent: u64,
    /// Evidence frames among them.
    pub evidence_sent: u64,
    /// Reconnect attempts a resilient agent made (always 0 for
    /// [`run_agent`]).
    pub reconnects: u64,
    /// Buffered-writer flushes at [`WireFrame::EpochDone`] barriers —
    /// event frames coalesce in the agent's `BufWriter` and hit the
    /// socket here, so this counts wire pushes, not frames. Replays
    /// after a reconnect flush (and count) again.
    pub flushes: u64,
}

/// Drains the staging hub onto the wire, in emission order.
fn flush_staging<W: Write>(
    writer: &mut FrameWriter<W>,
    staging: &EventCollector,
    inbox: &mut Vec<AgentEvent>,
    stats: &mut AgentStats,
) -> io::Result<()> {
    inbox.clear();
    staging.drain_into(inbox);
    for event in inbox.drain(..) {
        if matches!(event, AgentEvent::Evidence { .. }) {
            stats.evidence_sent += 1;
        }
        writer.write_frame(&WireFrame::Event(event))?;
        stats.events_sent += 1;
    }
    Ok(())
}

/// One agent process's simulation state: the deterministic world both
/// ends of the wire derive from the experiment config, this process's
/// [`HostFleet`], and the unbounded staging hub between the fleet and
/// the socket (an agent never sheds its own evidence; loss happens — and
/// is counted — only at the collector).
struct AgentWorld {
    trial_seed: u64,
    topo: ClosTopology,
    faults: LinkFaults,
    fleet: HostFleet,
    scratch: EpochScratch,
    staging: EventCollector,
    inbox: Vec<AgentEvent>,
}

impl AgentWorld {
    fn build(config: &ExperimentConfig, spec: &AgentSpec) -> io::Result<Self> {
        let trial_seed = config.trial_seed(0);
        let mut rng = config.trial_rng(0);
        let topo = ClosTopology::new(config.params, rng.gen()).map_err(invalid)?;
        let faults = config.faults.build(&topo, &mut rng);
        let num_hosts = u32::try_from(topo.num_hosts()).map_err(invalid)?;
        if spec.hosts.start >= spec.hosts.end || spec.hosts.end > num_hosts {
            return Err(invalid(format!(
                "host range {}..{} invalid for a {num_hosts}-host topology",
                spec.hosts.start, spec.hosts.end
            )));
        }
        if spec.chunk_flows == 0 || spec.epochs == 0 {
            return Err(invalid("agent needs chunk_flows >= 1 and epochs >= 1"));
        }
        let (hub_tx, staging) = event_channel();
        let fleet = HostFleet::new(&topo, &config.run, spec.hosts.clone(), hub_tx);
        Ok(Self {
            trial_seed,
            topo,
            faults,
            fleet,
            scratch: EpochScratch::new(),
            staging,
            inbox: Vec::new(),
        })
    }

    /// Simulates one epoch of `spec.hosts`' share of trial 0 and writes
    /// its events onto `writer`, up to (but not including) the
    /// `EpochDone` barrier. Returns the number of event frames the epoch
    /// emitted — deterministic per epoch, so a byte-identical replay
    /// re-emits exactly this many. A kill flag aborts with `Interrupted`
    /// between chunks (the soak harness's simulated agent crash).
    fn emit_epoch<W: Write>(
        &mut self,
        run_cfg: &RunConfig,
        spec: &AgentSpec,
        epoch: usize,
        writer: &mut FrameWriter<W>,
        stats: &mut AgentStats,
        kill: Option<&AtomicBool>,
    ) -> io::Result<u64> {
        let before = stats.events_sent;
        let Self {
            trial_seed,
            topo,
            faults,
            fleet,
            scratch,
            staging,
            inbox,
        } = self;
        let mut flush = || -> io::Result<()> {
            flush_staging(writer, staging, inbox, stats)?;
            if kill.is_some_and(|k| k.load(Ordering::Relaxed)) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "agent killed by churn schedule",
                ));
            }
            Ok(())
        };
        flush()?;
        // The staging hub is unbounded, so only the chunk cadence matters.
        let tuning = StreamTuning {
            chunk_flows: spec.chunk_flows,
            hub_capacity: usize::MAX,
        };
        fleet.run_epoch(
            topo,
            run_cfg,
            faults,
            &mut epoch_rng(*trial_seed, epoch),
            scratch,
            &tuning,
            None,
            epoch as u64 + 1,
            &mut flush,
        )?;
        if epoch == spec.start_epoch + spec.epochs - 1 {
            // Shutdown drains ride inside the final window (before its
            // barrier) so the agent never writes after the collector may
            // have torn the run down.
            fleet.each_agent(usize::MAX, |agent, hub| agent.drain(hub), &mut flush)?;
        }
        Ok(stats.events_sent - before)
    }
}

/// Runs one plain (fire-and-forget) agent process: simulates
/// `spec.hosts`' share of trial 0's epochs and streams the
/// [`AgentEvent`] protocol over `sink`, ending each epoch with a
/// [`WireFrame::EpochDone`] barrier. The emitted evidence is exactly
/// what the in-process stream driver's agents for those hosts would put
/// on the hub — same pacer admissions, same SLB gate salt, same
/// byzantine emissions, same per-host sequence numbers — because both
/// run the same agent loop.
///
/// This driver never reads the socket — the collector's acks accumulate
/// unread — and dies on the first write failure;
/// [`run_agent_resilient`] is the self-healing variant.
pub fn run_agent<W: Write>(
    config: &ExperimentConfig,
    spec: &AgentSpec,
    sink: W,
) -> io::Result<AgentStats> {
    let mut world = AgentWorld::build(config, spec)?;
    let mut writer = FrameWriter::new(BufWriter::new(sink));
    writer.write_frame(&WireFrame::Hello {
        version: WIRE_VERSION,
        // Fire-and-forget: no resilient bit, so the collector never
        // writes back (a write into this socket after the agent exits
        // would RST away its still-buffered frames).
        flags: 0,
        host_lo: spec.hosts.start,
        host_hi: spec.hosts.end,
    })?;

    let mut stats = AgentStats::default();
    let last_epoch = spec.start_epoch + spec.epochs - 1;
    for epoch in spec.start_epoch..=last_epoch {
        let events = world.emit_epoch(&config.run, spec, epoch, &mut writer, &mut stats, None)?;
        writer.write_frame(&WireFrame::EpochDone {
            epoch: epoch as u64,
            events,
        })?;
        writer.flush()?;
        stats.flushes += 1;
        stats.epochs += 1;
    }
    Ok(stats)
}

// ---------------------------------------------------------------------
// Resilient agent: reconnect, resume, replay.
// ---------------------------------------------------------------------

/// Knobs of [`run_agent_resilient`]'s self-healing loop.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// First backoff after a failure (doubles per consecutive failure).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Give up after this many consecutive failed reconnect attempts.
    pub max_reconnects: u64,
    /// How long to wait for the collector's [`WireFrame::ResumeAt`]
    /// before treating the connection as dead and reconnecting.
    pub ack_timeout: Duration,
    /// Socket read-timeout granularity while waiting (each tick also
    /// sends a [`WireFrame::Heartbeat`] so the collector's idle timeout
    /// never reaps a healthy waiting agent).
    pub read_tick: Duration,
    /// Seed of the backoff jitter (decorrelates a fleet's reconnect
    /// storms deterministically).
    pub jitter_seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            max_reconnects: 1_000,
            ack_timeout: Duration::from_secs(15),
            read_tick: Duration::from_millis(500),
            jitter_seed: 0x0077_0077,
        }
    }
}

/// Splitmix64 — backoff jitter and nothing else (chaos decisions live
/// in `vigil_wire::chaos`).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Capped exponential backoff with seeded jitter in [½, 1]× the step.
fn backoff_delay(rcfg: &ResilienceConfig, attempt: u64) -> Duration {
    let step = rcfg
        .backoff_base
        .saturating_mul(1u32 << attempt.min(16) as u32)
        .min(rcfg.backoff_cap);
    let jitter = (splitmix(rcfg.jitter_seed ^ attempt) >> 11) as f64 / (1u64 << 53) as f64;
    step.mul_f64(0.5 + 0.5 * jitter)
}

/// The agent side of the ack protocol: blocks until the collector says
/// [`WireFrame::ResumeAt`], heartbeating every read tick, giving up
/// after `ack_timeout` of silence.
fn wait_resume_at<R: Read, W: Write>(
    reader: &mut FrameReader<R>,
    writer: &mut FrameWriter<W>,
    rcfg: &ResilienceConfig,
) -> io::Result<u64> {
    let mut idle = Duration::ZERO;
    let mut last = Instant::now();
    loop {
        match reader.next_frame() {
            Ok(Some(WireFrame::ResumeAt { epoch })) => return Ok(epoch),
            Ok(Some(_)) => {} // stray frame; the ack is all we want
            Ok(None) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "collector closed while an ack was pending",
                ))
            }
            Err(e) if is_tick(&e) => {
                let now = Instant::now();
                idle += now - last;
                last = now;
                if idle >= rcfg.ack_timeout {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no ResumeAt within the ack timeout",
                    ));
                }
                writer.write_frame(&WireFrame::Heartbeat)?;
                writer.flush()?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The resilient agent's world + replay state between sessions.
struct ResilientState<'a> {
    config: &'a ExperimentConfig,
    spec: &'a AgentSpec,
    rcfg: &'a ResilienceConfig,
    chaos: Option<&'a ChaosSchedule>,
    kill: Option<&'a AtomicBool>,
    world: AgentWorld,
    stats: AgentStats,
    /// The epoch whose *start* state `agents` + `snapshot` represent.
    epoch: usize,
    /// Per-host sequence counters at the start of `epoch` — rewinding
    /// to them makes a replay byte-identical.
    snapshot: Vec<(u32, u64)>,
    /// Shared chaos frame index: survives reconnects so replayed frames
    /// draw fresh faults and scheduled resets stay spaced.
    chaos_index: Arc<AtomicU64>,
    key: u64,
}

impl ResilientState<'_> {
    fn last_epoch(&self) -> usize {
        self.spec.start_epoch + self.spec.epochs - 1
    }

    fn capture_snapshot(&mut self) {
        self.snapshot.clear();
        for h in self.spec.hosts.clone() {
            if let Some(agent) = self.world.fleet.agents[h as usize].as_ref() {
                self.snapshot.push((h, agent.events_emitted()));
            }
        }
    }

    /// Brings `agents` to the start-of-`target` state. Fast path: we
    /// are already positioned there (or part-way through it) — rewind
    /// the sequence counters and reset the pacers. Slow path (a fresh
    /// process resuming mid-run, or a collector restarted from an older
    /// snapshot): rebuild from `start_epoch`, re-simulating the settled
    /// epochs with their writes suppressed — determinism makes the
    /// suppressed epochs evolve the exact per-host state the settled
    /// ones did.
    fn position_to(&mut self, target: usize) -> io::Result<()> {
        let agents = &mut self.world.fleet.agents;
        if target == self.epoch {
            let snap: HashMap<u32, u64> = self.snapshot.iter().copied().collect();
            for h in self.spec.hosts.clone() {
                match snap.get(&h) {
                    Some(&seq) => {
                        let agent = agents[h as usize]
                            .as_mut()
                            .expect("snapshotted agent exists");
                        agent.rewind(seq);
                        agent.next_epoch();
                    }
                    None => agents[h as usize] = None,
                }
            }
            return Ok(());
        }
        for h in self.spec.hosts.clone() {
            agents[h as usize] = None;
        }
        let mut sink = FrameWriter::new(io::sink());
        let mut ghost = AgentStats::default();
        for e in self.spec.start_epoch..target {
            self.world.emit_epoch(
                &self.config.run,
                self.spec,
                e,
                &mut sink,
                &mut ghost,
                self.kill,
            )?;
        }
        self.epoch = target;
        self.capture_snapshot();
        Ok(())
    }

    /// One connected session: handshake, then emit/replay epochs until
    /// the collector settles everything (`Ok(true)`), the run's epochs
    /// are exhausted from our side but unsettled (`Ok(false)` cannot
    /// happen — we wait for acks), or the connection dies (`Err`).
    fn session(&mut self, duplex: Duplex) -> io::Result<bool> {
        let mut reader = FrameReader::new(duplex.reader);
        let chaos_writer = ChaosWriter::new(
            BufWriter::new(duplex.writer),
            None, // the Hello travels clean; each epoch sets its plan
            self.key,
            Arc::clone(&self.chaos_index),
        );
        let mut writer = FrameWriter::new(chaos_writer);
        let result = self.session_inner(&mut reader, &mut writer);
        if let Err(e) = &result {
            // An injected reset may escalate into a partition: the next
            // N reconnect attempts will be refused (simulated in the
            // reconnect loop, keyed to this reset's ordinal).
            if e.kind() != io::ErrorKind::Interrupted {
                if let Some(ordinal) = writer.get_mut().take_reset_ordinal() {
                    if let Some(plan) = self.chaos.map(|s| s.plan_for(self.epoch as u64)) {
                        return result.map_err(|e| {
                            partition_error(e, plan.blocked_attempts(self.key, ordinal))
                        });
                    }
                }
            }
        }
        result
    }

    fn session_inner<R: Read, W: Write>(
        &mut self,
        reader: &mut FrameReader<R>,
        writer: &mut FrameWriter<ChaosWriter<W>>,
    ) -> io::Result<bool> {
        writer.write_frame(&WireFrame::Hello {
            version: WIRE_VERSION,
            flags: HELLO_RESILIENT,
            host_lo: self.spec.hosts.start,
            host_hi: self.spec.hosts.end,
        })?;
        writer.flush()?;
        let mut resume_at = wait_resume_at(reader, writer, self.rcfg)?;
        loop {
            if resume_at > self.last_epoch() as u64 {
                return Ok(true); // everything settled
            }
            let target = (resume_at as usize).max(self.spec.start_epoch);
            self.position_to(target)?;
            writer
                .get_mut()
                .set_plan(self.chaos.map(|s| s.plan_for(target as u64)));
            let events = self.world.emit_epoch(
                &self.config.run,
                self.spec,
                target,
                writer,
                &mut self.stats,
                self.kill,
            )?;
            writer.write_frame(&WireFrame::EpochDone {
                epoch: target as u64,
                events,
            })?;
            writer.flush()?;
            self.stats.flushes += 1;
            resume_at = wait_resume_at(reader, writer, self.rcfg)?;
            if resume_at > target as u64 {
                // Acked: the epoch is settled. `emit_epoch` already
                // ticked the agents into `target + 1`; snapshot that
                // state as the new replay anchor.
                self.stats.epochs += 1;
                self.epoch = target + 1;
                self.capture_snapshot();
            }
            // Not acked (resume_at <= target): loop replays it.
        }
    }
}

/// Tags an error with how many reconnect attempts a chaos partition
/// refuses before the wire heals (0 = plain reset, reconnect freely).
fn partition_error(e: io::Error, blocked: u32) -> io::Error {
    if blocked == 0 {
        e
    } else {
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("partition:{blocked}:{e}"),
        )
    }
}

/// Extracts the blocked-attempt count a [`partition_error`] carried.
fn partition_width(e: &io::Error) -> u32 {
    let text = e.to_string();
    text.strip_prefix("partition:")
        .and_then(|rest| rest.split(':').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Runs one self-healing agent: like [`run_agent`], but over a
/// reconnectable [`Endpoint`], surviving connection resets, collector
/// restarts, and (optionally) a seeded [`ChaosSchedule`] injecting
/// faults into its own writes. The agent replays exactly the epochs the
/// collector has not settled (see the module docs for the ack
/// protocol); `kill` lets a soak harness crash it between chunks.
///
/// Returns when the collector acknowledges every epoch of `spec`, or
/// errs after `max_reconnects` consecutive failed attempts (and
/// immediately on a kill, with `ErrorKind::Interrupted`).
pub fn run_agent_resilient(
    config: &ExperimentConfig,
    spec: &AgentSpec,
    endpoint: &Endpoint,
    rcfg: &ResilienceConfig,
    chaos: Option<&ChaosSchedule>,
    kill: Option<&AtomicBool>,
) -> io::Result<AgentStats> {
    let mut state = ResilientState {
        config,
        spec,
        rcfg,
        chaos,
        kill,
        world: AgentWorld::build(config, spec)?,
        stats: AgentStats::default(),
        epoch: spec.start_epoch,
        snapshot: Vec::new(),
        chaos_index: Arc::new(AtomicU64::new(0)),
        key: spec.hosts.start as u64,
    };

    let mut failures: u64 = 0; // consecutive, for backoff + give-up
    let mut blocked: u32 = 0; // partition-refused attempts remaining
    let mut last_err: Option<io::Error> = None;
    loop {
        if kill.is_some_and(|k| k.load(Ordering::Relaxed)) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "agent killed by churn schedule",
            ));
        }
        if failures > 0 {
            if failures > rcfg.max_reconnects {
                return Err(last_err.unwrap_or_else(|| {
                    other(format!("gave up after {} reconnect attempts", failures - 1))
                }));
            }
            std::thread::sleep(backoff_delay(rcfg, failures - 1));
        }
        if blocked > 0 {
            // Partitioned: the connect itself is refused.
            blocked -= 1;
            failures += 1;
            state.stats.reconnects += 1;
            continue;
        }
        let duplex = match endpoint.connect_duplex(rcfg.read_tick) {
            Ok(d) => d,
            Err(e) => {
                last_err = Some(e);
                failures += 1;
                state.stats.reconnects += 1;
                continue;
            }
        };
        let settled_before = state.stats.epochs;
        match state.session(duplex) {
            Ok(true) => return Ok(state.stats),
            Ok(false) => unreachable!("session only returns on settle or error"),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Err(e),
            Err(e) => {
                // A session that settled epochs was healthy: its failure
                // starts a fresh backoff ladder instead of climbing one.
                if state.stats.epochs > settled_before {
                    failures = 0;
                }
                blocked = partition_width(&e);
                last_err = Some(e);
                failures += 1;
                state.stats.reconnects += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Collector: sequence accounting, admission, reader threads.
// ---------------------------------------------------------------------

/// Per-host wire-sequence accounting, shared across connections so an
/// agent restart (a *new* connection re-claiming the same hosts) is
/// recognized as a reset rather than a giant backwards gap.
#[derive(Debug, Default)]
struct SeqTracker {
    next: HashMap<u32, u64>,
    gaps: u64,
    resets: u64,
}

impl SeqTracker {
    /// Notes `seq` from `host`; returns how many events were lost
    /// immediately before it (0 when in order). A sequence running
    /// *backwards* is a restarted agent: counted as a reset, not a gap.
    fn note(&mut self, host: u32, seq: u64) -> u64 {
        match self.next.get_mut(&host) {
            None => {
                // First sighting: a nonzero start means the prefix never
                // arrived (frames lost before admission).
                self.next.insert(host, seq + 1);
                self.gaps += seq;
                seq
            }
            Some(next) => {
                if seq < *next {
                    self.resets += 1;
                    *next = seq + 1;
                    0
                } else {
                    let lost = seq - *next;
                    self.gaps += lost;
                    *next = seq + 1;
                    lost
                }
            }
        }
    }
}

/// What a valid Hello maps to: a brand-new host range, or a reconnect
/// re-claiming a known one (the agent restarted or rode out a reset).
#[derive(Debug, Clone, PartialEq, Eq)]
enum AdmitAction {
    /// Admit a new range (coverage expansion counts too).
    New(Range<u32>),
    /// Replace the connection of the range at this index.
    Reattach(usize),
}

/// A claimed range's admission-relevant state (projection of
/// `RangeState` so the rules stay unit-testable).
#[derive(Debug, Clone)]
struct Claim {
    hosts: Range<u32>,
    evicted: bool,
}

/// Validates a Hello against the admission rules. An exact match on a
/// known range is a reconnect — always re-admitted (even if the old
/// connection looks live: a parked reader cannot detect its socket
/// died) unless the range was evicted. Partial overlaps are rejected;
/// disjoint in-bounds ranges are admitted as coverage expansion.
fn admit_range(
    version: u16,
    host_lo: u32,
    host_hi: u32,
    num_hosts: u32,
    max_hosts: Option<u32>,
    claims: &[Claim],
) -> Result<AdmitAction, String> {
    if version != WIRE_VERSION {
        return Err(format!(
            "protocol version {version} (collector speaks {WIRE_VERSION})"
        ));
    }
    if host_lo >= host_hi {
        return Err(format!("empty host range {host_lo}..{host_hi}"));
    }
    if host_hi > num_hosts {
        return Err(format!(
            "host range {host_lo}..{host_hi} exceeds the {num_hosts}-host topology"
        ));
    }
    if let Some(idx) = claims.iter().position(|c| c.hosts == (host_lo..host_hi)) {
        if claims[idx].evicted {
            return Err(format!(
                "host range {host_lo}..{host_hi} was evicted (error budget); not re-admitting"
            ));
        }
        return Ok(AdmitAction::Reattach(idx));
    }
    for c in claims {
        if host_lo < c.hosts.end && c.hosts.start < host_hi {
            return Err(format!(
                "host range {host_lo}..{host_hi} overlaps already-claimed {}..{}",
                c.hosts.start, c.hosts.end
            ));
        }
    }
    if let Some(cap) = max_hosts {
        let span: u32 = claims.iter().map(|c| c.hosts.end - c.hosts.start).sum();
        if span + (host_hi - host_lo) > cap {
            return Err(format!(
                "host cap exceeded: {span} already claimed, {} requested, cap {cap}",
                host_hi - host_lo
            ));
        }
    }
    Ok(AdmitAction::New(host_lo..host_hi))
}

/// Reader/handshake-thread → window-loop control messages.
enum Ctrl {
    /// A connection completed its handshake; the main loop decides
    /// admission and replies on `reply`.
    Hello(HelloMsg),
    /// A connection barriered an epoch. `events` is the agent's claimed
    /// frame count; `delivered` the distinct `(host, seq)` pairs the
    /// range's dedup set holds — equal iff the window arrived complete.
    EpochDone {
        conn: usize,
        epoch: u64,
        events: u64,
        delivered: u64,
        quarantined: u64,
    },
    /// Forward-progress nudge (every 1024 forwarded events) so the main
    /// loop drains the hub without polling.
    Progress,
    /// A connection ended. `poisoned` means the per-window quarantine
    /// budget was blown — the main loop evicts the range immediately.
    Closed {
        conn: usize,
        error: Option<String>,
        quarantined: u64,
        poisoned: bool,
    },
}

/// A completed handshake, handed to the main loop for admission.
struct HelloMsg {
    version: u16,
    flags: u8,
    host_lo: u32,
    host_hi: u32,
    writer: FrameWriter<Box<dyn Write + Send>>,
    reply: mpsc::Sender<Verdict>,
}

/// The main loop's admission reply.
enum Verdict {
    Admitted {
        conn: usize,
        resume: mpsc::Receiver<bool>,
        dedup: Arc<Mutex<HashSet<(u32, u64)>>>,
        revoked: Arc<AtomicBool>,
    },
    Rejected(String),
}

/// Everything constant across a collector's reader threads.
#[derive(Clone)]
struct ReaderShared {
    hub: EventSender,
    tracker: Arc<Mutex<SeqTracker>>,
    ctrl: mpsc::Sender<Ctrl>,
    rate_cap: u64,
    rate_limited: Arc<AtomicU64>,
    foreign: Arc<AtomicU64>,
    malformed: Arc<AtomicU64>,
    num_links: usize,
    idle_timeout: Duration,
    quarantine_budget: u64,
    stop: Arc<AtomicBool>,
}

struct ReaderTask {
    conn: usize,
    frames: FrameReader<Box<dyn Read + Send>>,
    hosts: Range<u32>,
    shared: ReaderShared,
    resume: mpsc::Receiver<bool>,
    /// Distinct `(host, seq)` pairs of the current window, shared with
    /// any replacement reader of the same range. Cleared only by the
    /// main loop at window close.
    dedup: Arc<Mutex<HashSet<(u32, u64)>>>,
    /// Set by the main loop when a reconnect replaced this connection:
    /// a revoked reader must stop touching the dedup set and exit.
    revoked: Arc<AtomicBool>,
}

/// How often a reader nudges the main loop to drain the hub.
const PROGRESS_EVERY: u64 = 1024;

/// One connection's read loop: lenient (resynchronizing) decode with a
/// per-window quarantine budget, sequence accounting *before* dedup and
/// the hub (wire loss, replays, and collector backpressure stay
/// separate counters), the per-window rate cap, idle timeout, and the
/// epoch barrier. After reporting an [`WireFrame::EpochDone`] the
/// reader parks until the main loop acks or nacks the window, so events
/// of epoch `w+1` can never leak into window `w`'s ledger.
fn reader_loop(mut task: ReaderTask) {
    let s = &task.shared;
    let mut window_events: u64 = 0; // rate-cap counter
    let mut window_quarantined: u64 = 0;
    let mut prev_quarantined: u64 = 0;
    let mut forwarded = 0u64;
    let mut idle = Duration::ZERO;
    let mut last = Instant::now();
    // Wire-level duplicate of the previous frame, when that frame was an
    // EpochDone. A duplicated barrier frame is poison: the copy would be
    // read only after the window settles and the dedup set is cleared,
    // turn into a spurious nack, and the stale replay it triggers would
    // re-absorb the epoch's events into the NEXT window. Duplicates are
    // always adjacent (that is how they are injected and how TCP can
    // replay them), and a legitimate replay's EpochDone is always
    // preceded by the replayed event frames — so suppressing an
    // identical immediate successor is exact, not heuristic.
    let mut prev_epoch_done: Option<(u64, u64)> = None;
    let closed = |error: Option<String>, q: u64, poisoned: bool| Ctrl::Closed {
        conn: task.conn,
        error,
        quarantined: q,
        poisoned,
    };
    loop {
        if s.stop.load(Ordering::Relaxed) || task.revoked.load(Ordering::Relaxed) {
            return; // the main loop already knows this conn is gone
        }
        let result = task.frames.next_frame_lenient();
        let q = task.frames.quarantined_frames();
        if q > prev_quarantined {
            window_quarantined += q - prev_quarantined;
            prev_quarantined = q;
            if window_quarantined > s.quarantine_budget {
                let _ = s.ctrl.send(closed(
                    Some(format!(
                        "quarantine budget blown: {window_quarantined} corrupt frames in one window"
                    )),
                    q,
                    true,
                ));
                return;
            }
        }
        match result {
            Ok(Some(WireFrame::Event(event))) => {
                idle = Duration::ZERO;
                last = Instant::now();
                prev_epoch_done = None;
                let host = event.host().0;
                if !task.hosts.contains(&host) {
                    s.foreign.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // Evidence the ledger cannot tally (a link outside the
                // fabric, or more links than any route has) is refused
                // here, before it can shadow an honest (host, seq).
                if let AgentEvent::Evidence { report, .. } = &event {
                    if report.links.len() > MAX_ROUTE_LINKS
                        || report.links.iter().any(|l| l.index() >= s.num_links)
                    {
                        s.malformed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
                let seq = event.seq();
                // Sequence accounting sees every arrival, replays
                // included (a replay shows up as one spurious reset —
                // diagnostic noise, never tally impact).
                s.tracker.lock().expect("seq tracker lock").note(host, seq);
                if !task.dedup.lock().expect("dedup lock").insert((host, seq)) {
                    continue; // replayed duplicate: already tallied
                }
                if window_events >= s.rate_cap {
                    s.rate_limited.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                window_events += 1;
                // try_send: a full hub sheds (the hub counts it); the
                // reader never blocks the barrier on backpressure.
                s.hub.try_send(event);
                forwarded += 1;
                if forwarded % PROGRESS_EVERY == 0 {
                    let _ = s.ctrl.send(Ctrl::Progress);
                }
            }
            Ok(Some(WireFrame::EpochDone { epoch, events })) => {
                if prev_epoch_done == Some((epoch, events)) {
                    // Immediate wire-level duplicate of the barrier we
                    // just reported — drop it. Reporting it again would
                    // race the window close: read after the dedup set is
                    // cleared it looks like a zero-delivery epoch, draws
                    // a spurious nack, and the stale replay re-tallies
                    // the epoch into the next window.
                    continue;
                }
                prev_epoch_done = Some((epoch, events));
                let delivered = task.dedup.lock().expect("dedup lock").len() as u64;
                if s.ctrl
                    .send(Ctrl::EpochDone {
                        conn: task.conn,
                        epoch,
                        events,
                        delivered,
                        quarantined: q,
                    })
                    .is_err()
                {
                    return;
                }
                match task.resume.recv() {
                    Ok(advance) => {
                        if advance {
                            // Window settled (the main loop cleared the
                            // dedup set); fresh rate + budget counters.
                            window_events = 0;
                            window_quarantined = 0;
                        }
                        // Nack: keep everything — the replay fills holes.
                        idle = Duration::ZERO;
                        last = Instant::now();
                    }
                    Err(_) => return,
                }
            }
            Ok(Some(WireFrame::Heartbeat)) => {
                idle = Duration::ZERO;
                last = Instant::now();
                prev_epoch_done = None;
            }
            Ok(Some(WireFrame::ResumeAt { .. })) => {
                // Collector-bound streams never carry acks; stray noise.
                prev_epoch_done = None;
            }
            Ok(Some(WireFrame::Hello { .. })) => {
                let _ = s
                    .ctrl
                    .send(closed(Some("unexpected mid-stream Hello".into()), q, false));
                return;
            }
            Ok(None) => {
                let _ = s.ctrl.send(closed(None, q, false));
                return;
            }
            Err(e) if is_tick(&e) => {
                let now = Instant::now();
                idle += now - last;
                last = now;
                if idle >= s.idle_timeout {
                    let _ = s.ctrl.send(closed(
                        Some(format!("idle timeout ({:?} of silence)", s.idle_timeout)),
                        q,
                        false,
                    ));
                    return;
                }
            }
            Err(e) => {
                let _ = s.ctrl.send(closed(Some(e.to_string()), q, false));
                return;
            }
        }
    }
}

/// The accept-thread side of a handshake: read the first frame (bounded
/// by the idle timeout), hand the Hello to the main loop, and on
/// admission become the connection's reader thread.
fn handshake_and_read(duplex: Duplex, shared: ReaderShared) {
    let mut frames = FrameReader::new(duplex.reader);
    let deadline = Instant::now() + shared.idle_timeout;
    let first = loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        match frames.next_frame_lenient() {
            Ok(Some(f)) => break f,
            Ok(None) => {
                eprintln!("collect: connection closed before Hello");
                return;
            }
            Err(e) if is_tick(&e) => {
                if Instant::now() >= deadline {
                    eprintln!("collect: connection silent before Hello; dropping");
                    return;
                }
            }
            Err(e) => {
                eprintln!("collect: handshake read failed: {e}");
                return;
            }
        }
    };
    let WireFrame::Hello {
        version,
        flags,
        host_lo,
        host_hi,
    } = first
    else {
        eprintln!("collect: connection rejected: first frame was not a Hello");
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    if shared
        .ctrl
        .send(Ctrl::Hello(HelloMsg {
            version,
            flags,
            host_lo,
            host_hi,
            writer: FrameWriter::new(duplex.writer),
            reply: reply_tx,
        }))
        .is_err()
    {
        return; // collector main loop is gone
    }
    match reply_rx.recv() {
        Ok(Verdict::Admitted {
            conn,
            resume,
            dedup,
            revoked,
        }) => reader_loop(ReaderTask {
            conn,
            frames,
            hosts: host_lo..host_hi,
            shared,
            resume,
            dedup,
            revoked,
        }),
        Ok(Verdict::Rejected(why)) => {
            eprintln!("collect: connection rejected: {why}");
        }
        Err(_) => {} // main loop exited before replying
    }
}

// ---------------------------------------------------------------------
// Collector daemon.
// ---------------------------------------------------------------------

/// Collector knobs (the `vigil-sim collect` flags).
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Agent connections to admit before window 0 (the start barrier).
    pub agents: usize,
    /// Total epochs the run covers (including any already in the
    /// snapshot when resuming).
    pub epochs: usize,
    /// Bounded-hub depth; undersizing sheds (counted), never panics.
    pub hub_capacity: usize,
    /// Per-connection events admitted per window; the excess is dropped
    /// and counted as rate-limited.
    pub max_events_per_window: u64,
    /// Admission cap on the total host span across connections.
    pub max_hosts: Option<u32>,
    /// Where to persist the window-close snapshot (enables failover).
    pub snapshot_path: Option<PathBuf>,
    /// Restore from `snapshot_path` and continue at the next window.
    pub resume: bool,
    /// Exit cleanly after closing this many windows *this run* (snapshot
    /// persisted) — the failover drill's kill switch.
    pub exit_after: Option<usize>,
    /// TCP address for the metrics endpoint (JSON; `?text` for plain).
    pub metrics: Option<String>,
    /// File to write the metrics endpoint's bound address to.
    pub metrics_addr_file: Option<PathBuf>,
    /// How long a host range may sit disconnected mid-window before it
    /// is evicted and the window closes without it.
    pub reconnect_grace: Duration,
    /// Reap a connection after this much silence (heartbeats count as
    /// liveness).
    pub idle_timeout: Duration,
    /// Corrupt frames tolerated per connection per window before the
    /// host range is evicted as poisoned.
    pub quarantine_budget: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        Self {
            agents: 1,
            epochs: 1,
            // Roomy default: loopback fleets should never shed.
            hub_capacity: 65_536,
            max_events_per_window: u64::MAX,
            max_hosts: None,
            snapshot_path: None,
            resume: false,
            exit_after: None,
            metrics: None,
            metrics_addr_file: None,
            reconnect_grace: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            quarantine_budget: 10_000,
        }
    }
}

/// Loss-accounting and liveness counters, updated at every window close.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CollectorStats {
    /// Windows closed across the whole run (resumed ones included).
    pub windows: u64,
    /// Events drained from the hub.
    pub events: u64,
    /// Evidence events among them (= ledger absorptions).
    pub evidence: u64,
    /// Events accepted onto the hub.
    pub delivered: u64,
    /// Events shed by the bounded hub (collector backpressure).
    pub shed: u64,
    /// Events lost on the wire or agent side (sequence gaps).
    pub seq_gaps: u64,
    /// Agent restarts observed (sequence numbers running backwards).
    pub seq_resets: u64,
    /// Events dropped by the per-connection rate cap.
    pub rate_limited: u64,
    /// Events for hosts outside the connection's admitted range.
    pub foreign: u64,
    /// Evidence refused as untallyable: a link id outside the fabric or
    /// more links than `MAX_ROUTE_LINKS`.
    pub malformed: u64,
    /// Connections admitted at the start barrier.
    pub agents_admitted: u64,
    /// Connections still live at the last window close.
    pub agents_live: u64,
    /// Reconnects: admissions that replaced a known range's connection.
    pub reconnects: u64,
    /// Corrupt frames quarantined by the lenient readers.
    pub quarantined_frames: u64,
    /// Hosts evicted (poisoned budget or reconnect grace expiry),
    /// summed over evicted ranges' spans.
    pub hosts_evicted: u64,
}

/// The collector's persistent state, written at every window close. A
/// successor restores the ledger ring/health and the already-scored
/// epoch reports, then continues at window `epochs_done`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectorSnapshot {
    /// Master seed of the run (resume refuses a mismatch).
    pub seed: u64,
    /// Windows closed so far (= the next window index).
    pub epochs_done: usize,
    /// The analysis ledger at the last window boundary.
    pub ledger: LedgerSnapshot,
    /// Scored reports of the closed windows, in epoch order.
    pub epochs: Vec<EpochReport>,
}

/// How [`run_collector`] ended.
#[derive(Debug)]
pub enum CollectorOutcome {
    /// Every epoch closed and scored; the report is byte-identical to
    /// `stream --json --trials 1` on the same config.
    Completed(Box<ExperimentReport>, CollectorStats),
    /// `exit_after` tripped; the snapshot holds everything a successor
    /// needs.
    Paused(CollectorStats),
}

/// Rolling metrics served by the HTTP endpoint.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MetricsState {
    /// Cumulative counters as of the last window close.
    pub totals: CollectorStats,
    /// Per-window deltas, most recent last (bounded ring).
    pub windows: Vec<WindowMetrics>,
}

/// One closed window's metrics entry.
#[derive(Debug, Clone, Serialize)]
pub struct WindowMetrics {
    /// Window index (epoch).
    pub window: u64,
    /// Evidence absorbed this window.
    pub evidence: u64,
    /// Hub-delivered events this window.
    pub delivered: u64,
    /// Hub-shed events this window.
    pub shed: u64,
    /// New sequence gaps this window.
    pub seq_gaps: u64,
    /// New rate-limited drops this window.
    pub rate_limited: u64,
    /// New reconnects this window.
    pub reconnects: u64,
    /// New quarantined frames this window.
    pub quarantined_frames: u64,
    /// New host evictions this window.
    pub hosts_evicted: u64,
    /// Host ranges `(start, end)` that delivered this window in full —
    /// live coverage of the tally.
    pub coverage: Vec<(u32, u32)>,
    /// Links Algorithm 1 detected this window.
    pub detected: Vec<u32>,
    /// Top of the cross-window link-health heat map `(link, score)`.
    pub heat: Vec<(u32, f64)>,
}

const METRICS_RING: usize = 16;

fn render_metrics_text(m: &MetricsState) -> String {
    let t = &m.totals;
    let mut out = format!(
        "vigil_windows_closed {}\nvigil_events {}\nvigil_evidence {}\n\
         vigil_delivered {}\nvigil_shed {}\nvigil_seq_gaps {}\n\
         vigil_seq_resets {}\nvigil_rate_limited {}\nvigil_foreign {}\n\
         vigil_malformed {}\nvigil_agents_admitted {}\nvigil_agents_live {}\n\
         vigil_reconnects {}\nvigil_quarantined_frames {}\n\
         vigil_hosts_evicted {}\n",
        t.windows,
        t.events,
        t.evidence,
        t.delivered,
        t.shed,
        t.seq_gaps,
        t.seq_resets,
        t.rate_limited,
        t.foreign,
        t.malformed,
        t.agents_admitted,
        t.agents_live,
        t.reconnects,
        t.quarantined_frames,
        t.hosts_evicted,
    );
    if let Some(w) = m.windows.last() {
        for (start, end) in &w.coverage {
            out.push_str(&format!(
                "vigil_window_coverage{{range=\"{start}..{end}\"}} 1\n"
            ));
        }
        for (link, score) in &w.heat {
            out.push_str(&format!("vigil_link_heat{{link=\"{link}\"}} {score}\n"));
        }
    }
    out
}

/// Serves `state` over HTTP/1.0 until the process exits: JSON by
/// default, the plain-text counter rendering when the request path
/// mentions `text`.
fn spawn_metrics_server(listener: TcpListener, state: Arc<Mutex<MetricsState>>) {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut buf = [0u8; 512];
            let n = stream.read(&mut buf).unwrap_or(0);
            let req = String::from_utf8_lossy(&buf[..n]);
            let want_text = req.lines().next().is_some_and(|l| l.contains("text"));
            let snap = state.lock().expect("metrics lock").clone();
            let (ctype, body) = if want_text {
                ("text/plain", render_metrics_text(&snap))
            } else {
                (
                    "application/json",
                    serde_json::to_string_pretty(&snap).unwrap_or_else(|_| "{}".into()),
                )
            };
            let _ = write!(
                stream,
                "HTTP/1.0 200 OK\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.flush();
        }
    });
}

fn write_snapshot(path: &PathBuf, snap: &CollectorSnapshot) -> io::Result<()> {
    let text = serde_json::to_string_pretty(snap).map_err(other)?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Drains the hub into the ledger and the window's canonical report map
/// (keyed like the ledger, so duplicates supersede identically).
fn drain_hub(
    hub_rx: &EventCollector,
    inbox: &mut Vec<AgentEvent>,
    ledger: &mut VoteLedger<EvidenceKey>,
    reports: &mut BTreeMap<EvidenceKey, TraceReport>,
    stats: &mut CollectorStats,
) {
    inbox.clear();
    hub_rx.drain_into(inbox);
    for event in inbox.drain(..) {
        stats.events += 1;
        if let AgentEvent::Evidence { report, .. } = event {
            ledger.absorb(
                (report.host, report.tuple),
                FlowEvidence {
                    links: report.links.clone(),
                    retransmissions: report.retransmissions,
                    complete: report.complete,
                },
            );
            stats.evidence += 1;
            reports.insert((report.host, report.tuple), report);
        }
    }
}

/// One admitted host range's window-loop state. Ranges are permanent
/// (they survive reconnects); connections come and go.
struct RangeState {
    hosts: Range<u32>,
    /// Index into `conns` of the range's current connection, if any.
    conn: Option<usize>,
    /// Barriered the current window (ack deferred to window close).
    done: bool,
    /// Evicted (poisoned or grace expiry) — excluded from barriers.
    evicted: bool,
    /// When the range lost its connection (grace timer origin).
    orphaned_at: Option<Instant>,
    reconnects: u64,
    /// This window's distinct `(host, seq)` pairs, shared with the
    /// range's reader; cleared here (only here) at window close.
    dedup: Arc<Mutex<HashSet<(u32, u64)>>>,
}

/// One connection's window-loop state (readers run detached; the main
/// loop owns the write half and the park/advance channel).
struct ConnState {
    /// The write half; dropped (None) as soon as the connection dies or
    /// is replaced, so hours-scale soaks don't leak descriptors.
    writer: Option<FrameWriter<Box<dyn Write + Send>>>,
    /// Unparks the reader after EpochDone: `true` advances the window,
    /// `false` requests a replay. Dropped (None) to kill a parked
    /// reader whose connection was replaced.
    resume: Option<mpsc::Sender<bool>>,
    /// Index into `ranges`.
    range: usize,
    alive: bool,
    /// Sent [`HELLO_RESILIENT`]: reads acks and replays lost windows.
    /// The collector never writes to a non-resilient connection (see
    /// the flag's docs for the TCP-reset hazard).
    resilient: bool,
    revoked: Arc<AtomicBool>,
    /// Quarantined-frame high-water mark last folded into stats.
    last_quarantined: u64,
}

/// Writes `ResumeAt{epoch}` to a resilient agent and unparks its
/// reader with `advance`. Write failures drop the write half (the
/// reader notices the dead socket on its own and reports Closed).
fn nudge(c: &mut ConnState, epoch: u64, advance: bool) {
    if let Some(w) = c.writer.as_mut() {
        let ok = w.write_frame(&WireFrame::ResumeAt { epoch }).is_ok() && w.flush().is_ok();
        if !ok {
            c.writer = None;
        }
    }
    if let Some(tx) = &c.resume {
        let _ = tx.send(advance);
    }
}

/// Admits (or reattaches) a handshake: decide with [`admit_range`],
/// reply the verdict, tell the agent which window to (re)start with,
/// and wire the connection into the range table.
fn handle_hello(
    msg: HelloMsg,
    window: u64,
    num_hosts: u32,
    max_hosts: Option<u32>,
    conns: &mut Vec<ConnState>,
    ranges: &mut Vec<RangeState>,
    stats: &mut CollectorStats,
) {
    let claims: Vec<Claim> = ranges
        .iter()
        .map(|r| Claim {
            hosts: r.hosts.clone(),
            evicted: r.evicted,
        })
        .collect();
    let action = match admit_range(
        msg.version,
        msg.host_lo,
        msg.host_hi,
        num_hosts,
        max_hosts,
        &claims,
    ) {
        Ok(a) => a,
        Err(why) => {
            let _ = msg.reply.send(Verdict::Rejected(why));
            return;
        }
    };
    let range = match action {
        AdmitAction::New(hosts) => {
            eprintln!("collect: admitted hosts {}..{}", hosts.start, hosts.end);
            ranges.push(RangeState {
                hosts,
                conn: None,
                done: false,
                evicted: false,
                // Stamped orphaned until the connection is wired in, so
                // a handshake thread dying mid-admission leaves a range
                // the grace timer can reap.
                orphaned_at: Some(Instant::now()),
                reconnects: 0,
                dedup: Arc::new(Mutex::new(HashSet::new())),
            });
            ranges.len() - 1
        }
        AdmitAction::Reattach(idx) => {
            if let Some(old) = ranges[idx].conn.take() {
                conns[old].alive = false;
                conns[old].revoked.store(true, Ordering::Relaxed);
                conns[old].resume = None;
                conns[old].writer = None;
            }
            // The replacement must (re)barrier the live window — any
            // ack the old connection earned died with it.
            ranges[idx].done = false;
            ranges[idx].orphaned_at = Some(Instant::now());
            ranges[idx].reconnects += 1;
            stats.reconnects += 1;
            eprintln!(
                "collect: hosts {}..{} reconnected (#{})",
                ranges[idx].hosts.start, ranges[idx].hosts.end, ranges[idx].reconnects
            );
            idx
        }
    };
    let conn = conns.len();
    let (resume_tx, resume_rx) = mpsc::channel::<bool>();
    let revoked = Arc::new(AtomicBool::new(false));
    if msg
        .reply
        .send(Verdict::Admitted {
            conn,
            resume: resume_rx,
            dedup: Arc::clone(&ranges[range].dedup),
            revoked: Arc::clone(&revoked),
        })
        .is_err()
    {
        return; // handshake thread died; the range sits orphaned
    }
    let resilient = msg.flags & HELLO_RESILIENT != 0;
    let writer = if resilient {
        // Admission response: where to (re)start. Only resilient
        // agents read it — or anything else we might write.
        let mut writer = msg.writer;
        let ok = writer
            .write_frame(&WireFrame::ResumeAt { epoch: window })
            .is_ok()
            && writer.flush().is_ok();
        ok.then_some(writer)
    } else {
        None
    };
    conns.push(ConnState {
        writer,
        resume: Some(resume_tx),
        range,
        alive: true,
        resilient,
        revoked,
        last_quarantined: 0,
    });
    ranges[range].conn = Some(conn);
    ranges[range].orphaned_at = None;
}

/// Uniform control-plane dispatch, shared by the start barrier and the
/// per-window barrier (Hellos, barriers, disconnects, and progress
/// nudges arrive whenever agents feel like it).
fn handle_ctrl(
    msg: Ctrl,
    window: u64,
    num_hosts: u32,
    max_hosts: Option<u32>,
    conns: &mut Vec<ConnState>,
    ranges: &mut Vec<RangeState>,
    stats: &mut CollectorStats,
) {
    match msg {
        Ctrl::Hello(hello) => {
            handle_hello(hello, window, num_hosts, max_hosts, conns, ranges, stats);
        }
        Ctrl::Progress => {} // the caller drains the hub after dispatch
        Ctrl::EpochDone {
            conn,
            epoch,
            events,
            delivered,
            quarantined,
        } => {
            if !conns[conn].alive {
                return; // stale: this connection was already replaced
            }
            let delta = quarantined.saturating_sub(conns[conn].last_quarantined);
            conns[conn].last_quarantined = quarantined;
            stats.quarantined_frames += delta;
            let range = conns[conn].range;
            let (lo, hi) = (ranges[range].hosts.start, ranges[range].hosts.end);
            if !conns[conn].resilient {
                // Fire-and-forget stream: no replay protocol. Barrier
                // on its claim (sequence accounting surfaces loss) and
                // keep the reader parked until the window closes.
                if epoch != window {
                    eprintln!(
                        "collect: warning: hosts {lo}..{hi} barriered epoch {epoch} \
                         at window {window} (schedule mismatch)"
                    );
                }
                ranges[range].done = true;
            } else if epoch < window {
                // Behind the live window (reconnected late): re-point.
                nudge(&mut conns[conn], window, false);
            } else if epoch > window {
                eprintln!(
                    "collect: warning: hosts {lo}..{hi} barriered epoch {epoch} \
                     at window {window} (schedule mismatch)"
                );
                ranges[range].done = true;
            } else if delivered >= events {
                ranges[range].done = true; // ack deferred to window close
            } else {
                eprintln!(
                    "collect: hosts {lo}..{hi} window {window} incomplete \
                     ({delivered}/{events} delivered); requesting replay"
                );
                nudge(&mut conns[conn], window, false);
            }
        }
        Ctrl::Closed {
            conn,
            error,
            quarantined,
            poisoned,
        } => {
            if !conns[conn].alive {
                return; // stale: replaced before the old reader noticed
            }
            let delta = quarantined.saturating_sub(conns[conn].last_quarantined);
            conns[conn].last_quarantined = quarantined;
            stats.quarantined_frames += delta;
            conns[conn].alive = false;
            conns[conn].resume = None;
            conns[conn].writer = None;
            let range = conns[conn].range;
            ranges[range].conn = None;
            let (lo, hi) = (ranges[range].hosts.start, ranges[range].hosts.end);
            if poisoned {
                ranges[range].evicted = true;
                ranges[range].done = false;
                ranges[range].orphaned_at = None;
                stats.hosts_evicted += u64::from(hi - lo);
                eprintln!(
                    "collect: hosts {lo}..{hi} evicted: {}",
                    error.as_deref().unwrap_or("poisoned")
                );
            } else {
                ranges[range].orphaned_at = Some(Instant::now());
                match error {
                    Some(e) => eprintln!("collect: warning: hosts {lo}..{hi} lost: {e}"),
                    None => eprintln!("collect: hosts {lo}..{hi} disconnected"),
                }
            }
        }
    }
}

/// Runs the collector daemon over an already-bound `listener`: admits
/// `ccfg.agents` connections, then closes one window per epoch —
/// simulate locally for ground truth, absorb the fleet's evidence off
/// the hub, barrier on every connection's [`WireFrame::EpochDone`],
/// close the ledger window, score, snapshot. See the module docs for
/// the determinism and failover contracts.
pub fn run_collector(
    config: &ExperimentConfig,
    listener: &Listener,
    ccfg: &CollectorConfig,
) -> io::Result<CollectorOutcome> {
    let started = std::time::Instant::now();
    if ccfg.agents == 0 || ccfg.epochs == 0 {
        return Err(invalid("collector needs agents >= 1 and epochs >= 1"));
    }

    // Resume: load the predecessor's snapshot before touching sockets.
    let mut epoch_reports: Vec<EpochReport> = Vec::new();
    let mut start_epoch = 0usize;
    let mut restored: Option<LedgerSnapshot> = None;
    if ccfg.resume {
        let path = ccfg
            .snapshot_path
            .as_ref()
            .ok_or_else(|| invalid("--resume needs a snapshot path"))?;
        let text = std::fs::read_to_string(path)?;
        let snap: CollectorSnapshot =
            serde_json::from_str(&text).map_err(|e| other(format!("invalid snapshot: {e}")))?;
        if snap.seed != config.seed {
            return Err(invalid(format!(
                "snapshot seed {} does not match config seed {}",
                snap.seed, config.seed
            )));
        }
        if snap.epochs_done >= ccfg.epochs {
            return Err(invalid(format!(
                "snapshot already covers {} epoch(s) of {}",
                snap.epochs_done, ccfg.epochs
            )));
        }
        start_epoch = snap.epochs_done;
        epoch_reports = snap.epochs;
        restored = Some(snap.ledger);
    }

    let trial_seed = config.trial_seed(0);
    let mut rng = config.trial_rng(0);
    let topo = ClosTopology::new(config.params, rng.gen()).map_err(invalid)?;
    let faults = config.faults.build(&topo, &mut rng);
    let run_cfg = &config.run;
    let num_hosts = u32::try_from(topo.num_hosts()).map_err(invalid)?;
    let mut ledger = match restored {
        Some(snap) => VoteLedger::restore(
            topo.num_links(),
            run_cfg.alg1,
            LEDGER_RING_WINDOWS,
            LEDGER_HEALTH_ALPHA,
            snap,
        ),
        None => fresh_ledger(topo.num_links(), run_cfg),
    };

    // Metrics endpoint, up before the start barrier so operators can
    // watch admission.
    let metrics_state = match &ccfg.metrics {
        Some(addr) => {
            let l = TcpListener::bind(addr)?;
            if let Some(file) = &ccfg.metrics_addr_file {
                std::fs::write(file, l.local_addr()?.to_string())?;
            }
            let state = Arc::new(Mutex::new(MetricsState::default()));
            spawn_metrics_server(l, Arc::clone(&state));
            Some(state)
        }
        None => None,
    };

    // Control plane: an accept thread turns every connection into a
    // handshake thread; admission verdicts, barriers, and disconnects
    // all flow to this thread over one channel — the window loop blocks
    // on it (no polling) and wakes for orphan-grace deadlines.
    let (hub_tx, hub_rx) = event_channel_bounded(ccfg.hub_capacity);
    let tracker = Arc::new(Mutex::new(SeqTracker::default()));
    let rate_limited = Arc::new(AtomicU64::new(0));
    let foreign = Arc::new(AtomicU64::new(0));
    let malformed = Arc::new(AtomicU64::new(0));
    let (ctrl_tx, ctrl_rx) = mpsc::channel::<Ctrl>();
    let stop = Arc::new(AtomicBool::new(false));
    let read_tick =
        (ccfg.idle_timeout / 8).clamp(Duration::from_millis(50), Duration::from_secs(1));
    let shared = ReaderShared {
        hub: hub_tx.clone(),
        tracker: Arc::clone(&tracker),
        ctrl: ctrl_tx.clone(),
        rate_cap: ccfg.max_events_per_window,
        rate_limited: Arc::clone(&rate_limited),
        foreign: Arc::clone(&foreign),
        malformed: Arc::clone(&malformed),
        num_links: topo.num_links(),
        idle_timeout: ccfg.idle_timeout,
        quarantine_budget: ccfg.quarantine_budget,
        stop: Arc::clone(&stop),
    };

    std::thread::scope(|scope| {
        let accept_shared = shared.clone();
        let accept_stop = Arc::clone(&stop);
        scope.spawn(move || loop {
            if accept_stop.load(Ordering::Relaxed) {
                return;
            }
            match listener.accept_duplex(read_tick) {
                Ok(duplex) => {
                    let sh = accept_shared.clone();
                    scope.spawn(move || handshake_and_read(duplex, sh));
                }
                Err(e) => {
                    if accept_stop.load(Ordering::Relaxed) {
                        return;
                    }
                    eprintln!("collect: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        });

        // The window loop runs as a closure so its state (the control
        // receiver, resume senders, write halves) drops before teardown:
        // dropped resume senders unpark parked readers, the stop flag
        // plus a self-connect poke unblock the accept thread, and the
        // read ticks bound every reader's exit.
        let ctrl_rx = ctrl_rx;
        let result = (|| -> io::Result<CollectorOutcome> {
            let mut conns: Vec<ConnState> = Vec::new();
            let mut ranges: Vec<RangeState> = Vec::new();
            let mut stats = CollectorStats {
                windows: start_epoch as u64,
                ..CollectorStats::default()
            };

            // Start barrier: wait until `ccfg.agents` host ranges are
            // admitted (reconnects reattach, they don't add ranges).
            loop {
                let covered = ranges.iter().filter(|r| !r.evicted).count();
                if covered >= ccfg.agents {
                    break;
                }
                match ctrl_rx.recv_timeout(Duration::from_secs(1)) {
                    Ok(msg) => handle_ctrl(
                        msg,
                        start_epoch as u64,
                        num_hosts,
                        ccfg.max_hosts,
                        &mut conns,
                        &mut ranges,
                        &mut stats,
                    ),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(other("collector control channel closed"));
                    }
                }
            }
            stats.agents_admitted = ranges.iter().filter(|r| !r.evicted).count() as u64;
            stats.agents_live = stats.agents_admitted;

            // The collector runs the fleet's epoch loop with an empty
            // host range: evidence admission happened on the agents, so
            // it dispatches nothing and only draws the identical epoch
            // stream for ground truth and the records scoring consults.
            let mut replay = HostFleet::new(&topo, run_cfg, 0..0, hub_tx.clone());
            let replay_tuning = StreamTuning {
                chunk_flows: 256,
                hub_capacity: usize::MAX,
            };
            let mut scratch = EpochScratch::new();
            let mut window_reports: BTreeMap<EvidenceKey, TraceReport> = BTreeMap::new();
            let mut inbox: Vec<AgentEvent> = Vec::new();
            let mut closed_this_run = 0usize;
            let mut prev = stats.clone();

            for w in start_epoch..ccfg.epochs {
                let Ok(pull) = replay.run_epoch(
                    &topo,
                    run_cfg,
                    &faults,
                    &mut epoch_rng(trial_seed, w),
                    &mut scratch,
                    &replay_tuning,
                    Some(RetainPolicy::EvidenceOnly),
                    w as u64 + 1,
                    || -> Result<(), Infallible> {
                        drain_hub(
                            &hub_rx,
                            &mut inbox,
                            &mut ledger,
                            &mut window_reports,
                            &mut stats,
                        );
                        Ok(())
                    },
                );

                // Window barrier: every non-evicted host range must barrier
                // window `w` (delivered == claimed, replays requested until
                // then). The wait is event-driven — the loop blocks on the
                // control channel and wakes only for orphan-grace deadlines.
                loop {
                    // Reap orphans whose reconnect grace expired.
                    let now = Instant::now();
                    for r in ranges.iter_mut() {
                        if r.evicted || r.done {
                            continue;
                        }
                        let Some(t) = r.orphaned_at else { continue };
                        if now.duration_since(t) >= ccfg.reconnect_grace {
                            r.evicted = true;
                            r.orphaned_at = None;
                            stats.hosts_evicted += u64::from(r.hosts.end - r.hosts.start);
                            eprintln!(
                                "collect: hosts {}..{} evicted: no reconnect within {:?}",
                                r.hosts.start, r.hosts.end, ccfg.reconnect_grace
                            );
                        }
                    }
                    if ranges.iter().all(|r| r.evicted) {
                        return Err(other(format!(
                            "all agent host ranges lost before window {w} completed"
                        )));
                    }
                    if ranges.iter().all(|r| r.evicted || r.done) {
                        break;
                    }
                    // Wake at the earliest orphan deadline, else housekeep
                    // coarsely; everything else arrives as a control message.
                    let mut wait = Duration::from_secs(5);
                    for r in ranges.iter() {
                        if r.evicted || r.done {
                            continue;
                        }
                        if let Some(t) = r.orphaned_at {
                            let left = (t + ccfg.reconnect_grace).saturating_duration_since(now);
                            wait = wait.min(left.max(Duration::from_millis(10)));
                        }
                    }
                    match ctrl_rx.recv_timeout(wait) {
                        Ok(msg) => {
                            handle_ctrl(
                                msg,
                                w as u64,
                                num_hosts,
                                ccfg.max_hosts,
                                &mut conns,
                                &mut ranges,
                                &mut stats,
                            );
                            drain_hub(
                                &hub_rx,
                                &mut inbox,
                                &mut ledger,
                                &mut window_reports,
                                &mut stats,
                            );
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            return Err(other("collector control channel closed"));
                        }
                    }
                }
                // Everything forwarded before the barrier is on the hub already
                // (readers forward, then signal); one final sweep gets it all.
                drain_hub(
                    &hub_rx,
                    &mut inbox,
                    &mut ledger,
                    &mut window_reports,
                    &mut stats,
                );

                // Close and score the window with the exact batch machinery.
                let window = ledger.close_window();
                let reports: Vec<TraceReport> =
                    std::mem::take(&mut window_reports).into_values().collect();
                let run = assemble_epoch(pull.outcome, reports, window, run_cfg);
                let er = evaluate_epoch(&run);

                // Loss accounting surfaces at every window close.
                stats.windows += 1;
                stats.delivered = hub_rx.delivered();
                stats.shed = hub_rx.shed();
                {
                    let t = tracker.lock().expect("seq tracker lock");
                    stats.seq_gaps = t.gaps;
                    stats.seq_resets = t.resets;
                }
                stats.rate_limited = rate_limited.load(Ordering::Relaxed);
                stats.foreign = foreign.load(Ordering::Relaxed);
                stats.malformed = malformed.load(Ordering::Relaxed);
                stats.agents_live = ranges
                    .iter()
                    .filter(|r| r.conn.is_some_and(|c| conns[c].alive))
                    .count() as u64;
                let mut coverage: Vec<(u32, u32)> = ranges
                    .iter()
                    .filter(|r| r.done)
                    .map(|r| (r.hosts.start, r.hosts.end))
                    .collect();
                coverage.sort_unstable();
                eprintln!(
                    "collect: window {w}: {} evidence, delivered {}, shed {}, gaps {}, \
             resets {}, rate-limited {}, reconnects {}, quarantined {}, \
             evicted {}, malformed {}, agents {}/{}",
                    run.evidence.len(),
                    stats.delivered,
                    stats.shed,
                    stats.seq_gaps,
                    stats.seq_resets,
                    stats.rate_limited,
                    stats.reconnects,
                    stats.quarantined_frames,
                    stats.hosts_evicted,
                    stats.malformed,
                    stats.agents_live,
                    stats.agents_admitted,
                );
                if let Some(state) = &metrics_state {
                    let mut m = state.lock().expect("metrics lock");
                    m.totals = stats.clone();
                    m.windows.push(WindowMetrics {
                        window: w as u64,
                        evidence: stats.evidence - prev.evidence,
                        delivered: stats.delivered - prev.delivered,
                        shed: stats.shed - prev.shed,
                        seq_gaps: stats.seq_gaps - prev.seq_gaps,
                        rate_limited: stats.rate_limited - prev.rate_limited,
                        reconnects: stats.reconnects - prev.reconnects,
                        quarantined_frames: stats.quarantined_frames - prev.quarantined_frames,
                        hosts_evicted: stats.hosts_evicted - prev.hosts_evicted,
                        coverage,
                        detected: er.detected.iter().map(|l| l.0).collect(),
                        heat: ledger
                            .health()
                            .heat_map()
                            .into_iter()
                            .take(8)
                            .map(|(l, s)| (l.0, s))
                            .collect(),
                    });
                    if m.windows.len() > METRICS_RING {
                        let excess = m.windows.len() - METRICS_RING;
                        m.windows.drain(..excess);
                    }
                }
                prev = stats.clone();
                epoch_reports.push(er);

                if let Some(path) = &ccfg.snapshot_path {
                    let snap = CollectorSnapshot {
                        seed: config.seed,
                        epochs_done: w + 1,
                        ledger: ledger.snapshot(),
                        epochs: epoch_reports.clone(),
                    };
                    write_snapshot(path, &snap)?;
                }

                closed_this_run += 1;
                if w + 1 < ccfg.epochs {
                    if let Some(k) = ccfg.exit_after {
                        if closed_this_run >= k {
                            // Paused: deliberately NO acks — the agents' ack
                            // timeouts push them to reconnect, and they find
                            // the successor on the same address.
                            eprintln!(
                                "collect: pausing after {closed_this_run} window(s) \
                         (snapshot covers epochs 0..{})",
                                w + 1
                            );
                            return Ok(CollectorOutcome::Paused(stats));
                        }
                    }
                }
                // Advance: ack the barriered live connections into window w+1
                // (the final ack, `ResumeAt{epochs}`, is how resilient agents
                // learn the run is over), clear the per-window dedup sets, and
                // start the grace clock on ranges that must reconnect first.
                let next = (w + 1) as u64;
                for r in ranges.iter_mut() {
                    if r.evicted {
                        continue;
                    }
                    r.done = false;
                    r.dedup.lock().expect("dedup lock").clear();
                    match r.conn {
                        Some(c) if conns[c].alive => nudge(&mut conns[c], next, true),
                        _ => {
                            r.conn = None;
                            if r.orphaned_at.is_none() {
                                r.orphaned_at = Some(Instant::now());
                            }
                        }
                    }
                }
            }

            // Final assembly: identical fold to the in-process trial loop.
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let mut acc = TrialAccumulator::new(ccfg.epochs);
            for er in epoch_reports {
                acc.absorb(er);
            }
            let trial = acc.finish_at(run_cfg, 0, wall_ms);
            let mut report = ExperimentReport::empty(config);
            report.merge_trial(trial);
            Ok(CollectorOutcome::Completed(Box::new(report), stats))
        })();

        // Teardown: wake everything the scope spawned so the implicit
        // join at scope exit cannot hang. Readers notice the stop flag
        // within one read tick; the accept thread needs one last
        // connection to fall out of `accept`.
        stop.store(true, Ordering::Relaxed);
        let _ = Endpoint::parse(&listener.local_addr()).connect();
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::stream_trial;
    use std::io::Cursor;
    use vigil_agents::ByzantineSpec;
    use vigil_fabric::faults::{FaultPlan, RateRange};
    use vigil_fabric::traffic::{ConnCount, TrafficSpec};
    use vigil_topology::{ClosParams, HostId};
    use vigil_wire::chaos::ChaosPlan;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            name: "distributed-test".into(),
            params: ClosParams::tiny(),
            faults: FaultPlan {
                failure_rate: RateRange::fixed(0.05),
                ..FaultPlan::paper_default(2)
            },
            run: RunConfig {
                traffic: TrafficSpec {
                    conns_per_host: ConnCount::Fixed(30),
                    ..TrafficSpec::paper_default()
                },
                ..RunConfig::default()
            },
            epochs: 3,
            trials: 1,
            seed: 51,
        }
    }

    fn expected_report(cfg: &ExperimentConfig) -> String {
        let (trial, _) = stream_trial(cfg, 0, &StreamTuning::default());
        let mut report = ExperimentReport::empty(cfg);
        report.merge_trial(trial);
        serde_json::to_string_pretty(&report).unwrap()
    }

    fn spawn_agents(
        cfg: &ExperimentConfig,
        addr: &str,
        ranges: &[Range<u32>],
        start_epoch: usize,
        epochs: usize,
    ) -> Vec<std::thread::JoinHandle<AgentStats>> {
        ranges
            .iter()
            .map(|hosts| {
                let cfg = cfg.clone();
                let addr = addr.to_string();
                let spec = AgentSpec {
                    hosts: hosts.clone(),
                    start_epoch,
                    epochs,
                    chunk_flows: 128,
                };
                std::thread::spawn(move || {
                    let sink = Endpoint::parse(&addr).connect().expect("connect");
                    run_agent(&cfg, &spec, sink).expect("agent run")
                })
            })
            .collect()
    }

    fn num_hosts(cfg: &ExperimentConfig) -> u32 {
        ClosTopology::new(cfg.params, 0).unwrap().num_hosts() as u32
    }

    #[test]
    fn loopback_agents_match_in_process_stream() {
        // Honest, then byzantine × SLB gate: two host ranges interleaving
        // on the collector are an arrival order independent of the
        // in-process session's, over the same agent loop.
        let gate = vigil_fabric::slb::SlbModel::query_failures(0.4);
        let variants = [
            (ByzantineSpec::default(), None),
            (ByzantineSpec::flooders(0.25, 0.5), None),
            (ByzantineSpec::liars(0.25), Some(gate)),
            (ByzantineSpec::flippers(0.25), Some(gate)),
        ];
        for (byzantine, slb) in variants {
            let mut cfg = tiny_config();
            cfg.run.byzantine = byzantine;
            cfg.run.slb = slb.unwrap_or_default();
            let what = format!("{} / gate {}", byzantine.label(), slb.is_some());
            let hosts = num_hosts(&cfg);
            let listener = Endpoint::parse("127.0.0.1:0").bind().unwrap();
            let addr = listener.local_addr();
            let split = hosts / 2;
            let handles = spawn_agents(&cfg, &addr, &[0..split, split..hosts], 0, cfg.epochs);
            let ccfg = CollectorConfig {
                agents: 2,
                epochs: cfg.epochs,
                ..CollectorConfig::default()
            };
            let outcome = run_collector(&cfg, &listener, &ccfg).unwrap();
            for h in handles {
                let stats = h.join().unwrap();
                assert_eq!(stats.epochs, cfg.epochs);
                assert_eq!(
                    stats.flushes, cfg.epochs as u64,
                    "plain agent pushes the wire exactly once per epoch"
                );
            }
            let CollectorOutcome::Completed(report, stats) = outcome else {
                panic!("{what}: expected a completed run");
            };
            assert_eq!(stats.shed, 0, "{what}: loopback must not shed");
            assert_eq!(stats.seq_gaps, 0, "{what}: loopback must not gap");
            assert!(stats.evidence > 0, "{what}: fleet produced evidence");
            assert_eq!(
                serde_json::to_string_pretty(&*report).unwrap(),
                expected_report(&cfg),
                "{what}: distributed run must be byte-identical to the in-process stream"
            );
        }
    }

    #[test]
    fn failover_restores_to_identical_tally() {
        let cfg = tiny_config();
        let hosts = num_hosts(&cfg);
        let split = hosts / 2;
        let dir = std::env::temp_dir().join(format!("vigil-failover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("collector.snapshot.json");
        let _ = std::fs::remove_file(&snap);

        // Phase 1: the fleet covers epochs 0..2; the collector is
        // "killed" (exits cleanly) after closing two windows.
        let listener = Endpoint::parse("127.0.0.1:0").bind().unwrap();
        let addr = listener.local_addr();
        let handles = spawn_agents(&cfg, &addr, &[0..split, split..hosts], 0, 2);
        let ccfg = CollectorConfig {
            agents: 2,
            epochs: cfg.epochs,
            snapshot_path: Some(snap.clone()),
            exit_after: Some(2),
            ..CollectorConfig::default()
        };
        let outcome = run_collector(&cfg, &listener, &ccfg).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert!(matches!(outcome, CollectorOutcome::Paused(_)));
        assert!(snap.exists(), "snapshot written at the window boundary");

        // Phase 2: a fresh collector restores the snapshot; a restarted
        // fleet covers the remaining epoch.
        let listener = Endpoint::parse("127.0.0.1:0").bind().unwrap();
        let addr = listener.local_addr();
        let handles = spawn_agents(&cfg, &addr, &[0..split, split..hosts], 2, 1);
        let ccfg = CollectorConfig {
            agents: 2,
            epochs: cfg.epochs,
            snapshot_path: Some(snap.clone()),
            resume: true,
            ..CollectorConfig::default()
        };
        let outcome = run_collector(&cfg, &listener, &ccfg).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let CollectorOutcome::Completed(report, _) = outcome else {
            panic!("resumed run must complete");
        };
        assert_eq!(
            serde_json::to_string_pretty(&*report).unwrap(),
            expected_report(&cfg),
            "kill + restore must reproduce the uninterrupted tally"
        );
        let _ = std::fs::remove_file(&snap);
    }

    /// The tentpole acceptance, in-process: a chaos plan that corrupts,
    /// truncates, duplicates, and resets the wire must still converge —
    /// reconnecting agents replay unacked windows, the dedup ledger
    /// keeps the tally exactly-once, and the final report is
    /// byte-identical to the chaos-free in-process stream.
    #[test]
    fn chaos_fleet_converges_to_identical_tally() {
        let cfg = tiny_config();
        let hosts = num_hosts(&cfg);
        let split = hosts / 2;
        let listener = Endpoint::parse("127.0.0.1:0").bind().unwrap();
        let addr = listener.local_addr();
        // reset_every must exceed one epoch's frame volume (~80 per
        // agent here) or no gap between scheduled resets fits a full
        // epoch and the replay loop cannot converge.
        let chaos = ChaosSchedule::constant(
            ChaosPlan::parse("seed=11,corrupt=0.03,truncate=0.01,dup=0.02,reset_every=150")
                .unwrap(),
        );
        let rcfg = ResilienceConfig {
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
            ack_timeout: Duration::from_secs(5),
            read_tick: Duration::from_millis(25),
            ..ResilienceConfig::default()
        };
        let handles: Vec<_> = [0..split, split..hosts]
            .into_iter()
            .map(|range| {
                let cfg = cfg.clone();
                let addr = addr.clone();
                let chaos = chaos.clone();
                let rcfg = rcfg.clone();
                std::thread::spawn(move || {
                    let spec = AgentSpec {
                        hosts: range,
                        start_epoch: 0,
                        epochs: cfg.epochs,
                        chunk_flows: 128,
                    };
                    run_agent_resilient(
                        &cfg,
                        &spec,
                        &Endpoint::parse(&addr),
                        &rcfg,
                        Some(&chaos),
                        None,
                    )
                    .expect("resilient agent must outlive the chaos")
                })
            })
            .collect();
        let ccfg = CollectorConfig {
            agents: 2,
            epochs: cfg.epochs,
            idle_timeout: Duration::from_secs(5),
            reconnect_grace: Duration::from_secs(30),
            ..CollectorConfig::default()
        };
        let outcome = run_collector(&cfg, &listener, &ccfg).unwrap();
        let mut agent_reconnects = 0;
        for h in handles {
            let stats = h.join().unwrap();
            assert_eq!(stats.epochs, cfg.epochs, "every epoch settled");
            agent_reconnects += stats.reconnects;
        }
        let CollectorOutcome::Completed(report, stats) = outcome else {
            panic!("chaos run must complete");
        };
        assert!(
            agent_reconnects > 0,
            "the reset schedule must force at least one reconnect"
        );
        assert!(
            stats.quarantined_frames > 0,
            "corruption must surface as quarantined frames"
        );
        assert_eq!(stats.shed, 0, "loopback must not shed");
        assert_eq!(stats.hosts_evicted, 0, "no range may be evicted");
        assert_eq!(
            serde_json::to_string_pretty(&*report).unwrap(),
            expected_report(&cfg),
            "chaos + replays must converge to the chaos-free tally"
        );
    }

    /// Passes bytes through, splicing `frame` in right after the first
    /// `after` bytes (an agent's Hello).
    struct Splice<W> {
        inner: W,
        after: usize,
        frame: Option<Vec<u8>>,
    }

    impl<W: Write> Write for Splice<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let Some(frame) = &self.frame else {
                return self.inner.write(buf);
            };
            let n = buf.len().min(self.after);
            self.inner.write_all(&buf[..n])?;
            self.after -= n;
            if self.after == 0 {
                self.inner.write_all(frame)?;
                self.frame = None;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// One checksummed, well-formed evidence frame naming a link past the
    /// fabric — and more links than any route has — among an honest
    /// fleet's frames: the collector refuses and counts it, and the
    /// report is the honest one.
    #[test]
    fn malformed_evidence_is_refused_not_fatal() {
        let cfg = tiny_config();
        let hosts = num_hosts(&cfg);
        let split = hosts / 2;
        let num_links = ClosTopology::new(cfg.params, 0).unwrap().num_links() as u32;
        let mut rogue = Vec::new();
        vigil_wire::emit_frame(
            &WireFrame::Event(AgentEvent::Evidence {
                seq: 0,
                report: TraceReport {
                    host: HostId(0),
                    tuple: vigil_packet::FiveTuple::tcp(
                        "10.0.0.1".parse().unwrap(),
                        9,
                        "10.0.0.2".parse().unwrap(),
                        80,
                    ),
                    retransmissions: 3,
                    links: (0..7)
                        .map(|i| vigil_topology::LinkId(num_links + i))
                        .collect(),
                    complete: true,
                },
            }),
            &mut rogue,
        );
        let mut hello = Vec::new();
        vigil_wire::emit_frame(
            &WireFrame::Hello {
                version: WIRE_VERSION,
                flags: 0,
                host_lo: 0,
                host_hi: split,
            },
            &mut hello,
        );

        let listener = Endpoint::parse("127.0.0.1:0").bind().unwrap();
        let addr = listener.local_addr();
        let handles: Vec<_> = [(0..split, Some(rogue)), (split..hosts, None)]
            .into_iter()
            .map(|(hosts, frame)| {
                let (cfg, addr, after) = (cfg.clone(), addr.clone(), hello.len());
                std::thread::spawn(move || {
                    let spec = AgentSpec {
                        hosts,
                        start_epoch: 0,
                        epochs: cfg.epochs,
                        chunk_flows: 128,
                    };
                    let sink = Endpoint::parse(&addr).connect().expect("connect");
                    let sink = Splice {
                        inner: sink,
                        after,
                        frame,
                    };
                    run_agent(&cfg, &spec, sink).expect("agent run")
                })
            })
            .collect();
        let ccfg = CollectorConfig {
            agents: 2,
            epochs: cfg.epochs,
            ..CollectorConfig::default()
        };
        let outcome = run_collector(&cfg, &listener, &ccfg).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let CollectorOutcome::Completed(report, stats) = outcome else {
            panic!("expected a completed run");
        };
        assert_eq!(stats.malformed, 1, "the rogue frame is counted once");
        assert_eq!((stats.foreign, stats.seq_gaps), (0, 0));
        assert_eq!(
            serde_json::to_string_pretty(&*report).unwrap(),
            expected_report(&cfg),
            "a refused frame leaves the honest tally untouched"
        );
    }

    fn event_stream(host: u32, seqs: &[u64]) -> Box<dyn Read + Send> {
        let mut out = Vec::new();
        for &seq in seqs {
            vigil_wire::emit_frame(
                &WireFrame::Event(AgentEvent::Drain {
                    host: HostId(host),
                    seq,
                }),
                &mut out,
            );
        }
        Box::new(Cursor::new(out))
    }

    /// A `ReaderShared` wired to fresh counters for reader-loop units.
    fn test_shared(
        hub: EventSender,
        tracker: Arc<Mutex<SeqTracker>>,
        ctrl: mpsc::Sender<Ctrl>,
        rate_cap: u64,
        rate_limited: Arc<AtomicU64>,
        quarantine_budget: u64,
    ) -> ReaderShared {
        ReaderShared {
            hub,
            tracker,
            ctrl,
            rate_cap,
            rate_limited,
            foreign: Arc::new(AtomicU64::new(0)),
            malformed: Arc::new(AtomicU64::new(0)),
            num_links: 64,
            idle_timeout: Duration::from_secs(5),
            quarantine_budget,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    fn test_task(stream: Box<dyn Read + Send>, conn: usize, shared: ReaderShared) -> ReaderTask {
        let (_resume_tx, resume_rx) = mpsc::channel();
        std::mem::forget(_resume_tx); // keep the park channel open
        ReaderTask {
            conn,
            frames: FrameReader::new(stream),
            hosts: 0..8,
            shared,
            resume: resume_rx,
            dedup: Arc::new(Mutex::new(HashSet::new())),
            revoked: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn collector_counts_sequence_gap_after_reconnect() {
        let tracker = Arc::new(Mutex::new(SeqTracker::default()));
        let (hub_tx, hub_rx) = event_channel();
        let (ctrl_tx, ctrl_rx) = mpsc::channel();
        let run_conn = |conn: usize, stream: Box<dyn Read + Send>| {
            let shared = test_shared(
                hub_tx.clone(),
                Arc::clone(&tracker),
                ctrl_tx.clone(),
                u64::MAX,
                Arc::new(AtomicU64::new(0)),
                u64::MAX,
            );
            reader_loop(test_task(stream, conn, shared));
            assert!(matches!(
                ctrl_rx.recv().unwrap(),
                Ctrl::Closed { error: None, .. }
            ));
        };

        // Connection 0: host 3 emits seqs 0..=2, then the link dies.
        run_conn(0, event_stream(3, &[0, 1, 2]));
        {
            let t = tracker.lock().unwrap();
            assert_eq!((t.gaps, t.resets), (0, 0));
        }
        // The agent reconnects mid-life: its first frame is seq 5, so
        // seqs 3 and 4 were lost in flight — a gap, surfaced as such.
        run_conn(1, event_stream(3, &[5, 6]));
        {
            let t = tracker.lock().unwrap();
            assert_eq!((t.gaps, t.resets), (2, 0));
        }
        // The agent *restarts*: sequence numbers run backwards to 0 —
        // a reset, not another giant gap.
        run_conn(2, event_stream(3, &[0, 1]));
        {
            let t = tracker.lock().unwrap();
            assert_eq!((t.gaps, t.resets), (2, 1));
        }
        let mut all = Vec::new();
        hub_rx.drain_into(&mut all);
        assert_eq!(all.len(), 7, "every in-range event was forwarded");
    }

    #[test]
    fn rate_cap_drops_and_counts_excess() {
        let tracker = Arc::new(Mutex::new(SeqTracker::default()));
        let (hub_tx, hub_rx) = event_channel();
        let (ctrl_tx, _ctrl_rx) = mpsc::channel();
        let rate_limited = Arc::new(AtomicU64::new(0));
        let shared = test_shared(
            hub_tx,
            tracker,
            ctrl_tx,
            3,
            Arc::clone(&rate_limited),
            u64::MAX,
        );
        reader_loop(test_task(event_stream(1, &[0, 1, 2, 3, 4]), 0, shared));
        assert_eq!(rate_limited.load(Ordering::Relaxed), 2);
        let mut all = Vec::new();
        hub_rx.drain_into(&mut all);
        assert_eq!(all.len(), 3, "cap admits exactly rate_cap events");
    }

    #[test]
    fn replayed_duplicates_are_deduplicated_not_forwarded() {
        let tracker = Arc::new(Mutex::new(SeqTracker::default()));
        let (hub_tx, hub_rx) = event_channel();
        let (ctrl_tx, _ctrl_rx) = mpsc::channel();
        let shared = test_shared(
            hub_tx,
            tracker,
            ctrl_tx,
            u64::MAX,
            Arc::new(AtomicU64::new(0)),
            u64::MAX,
        );
        // A lossy-wire replay re-sends the whole epoch: seqs 0..=2 twice
        // plus a fresh 3. Exactly-once means four hub events.
        reader_loop(test_task(
            event_stream(1, &[0, 1, 2, 0, 1, 2, 3]),
            0,
            shared,
        ));
        let mut all = Vec::new();
        hub_rx.drain_into(&mut all);
        assert_eq!(all.len(), 4, "duplicates must not reach the tally");
    }

    #[test]
    fn poisoned_stream_blows_the_quarantine_budget() {
        let tracker = Arc::new(Mutex::new(SeqTracker::default()));
        let (hub_tx, _hub_rx) = event_channel();
        let (ctrl_tx, ctrl_rx) = mpsc::channel();
        // Three clean frames, then a long run of corrupt ones: each
        // resync event counts against the budget of 2.
        let mut bytes = Vec::new();
        for seq in 0..3u64 {
            vigil_wire::emit_frame(
                &WireFrame::Event(AgentEvent::Drain {
                    host: HostId(1),
                    seq,
                }),
                &mut bytes,
            );
        }
        let clean_len = bytes.len();
        for seq in 3..40u64 {
            let start = bytes.len();
            vigil_wire::emit_frame(
                &WireFrame::Event(AgentEvent::Drain {
                    host: HostId(1),
                    seq,
                }),
                &mut bytes,
            );
            bytes[start + 9] ^= 0x5a; // corrupt the checksum region
        }
        let _ = clean_len;
        let shared = test_shared(
            hub_tx,
            tracker,
            ctrl_tx,
            u64::MAX,
            Arc::new(AtomicU64::new(0)),
            2,
        );
        reader_loop(test_task(Box::new(Cursor::new(bytes)), 0, shared));
        match ctrl_rx.recv().unwrap() {
            Ctrl::Closed {
                poisoned,
                quarantined,
                error,
                ..
            } => {
                assert!(poisoned, "budget overrun must mark the conn poisoned");
                assert!(quarantined > 2, "quarantine count travels with Closed");
                assert!(error.unwrap().contains("quarantine budget"));
            }
            _ => panic!("expected Closed"),
        }
    }

    #[test]
    fn admission_rejects_bad_hellos() {
        let claim = |lo, hi, evicted| Claim {
            hosts: lo..hi,
            evicted,
        };
        let admit = |v, lo, hi, cap, claims: &[Claim]| admit_range(v, lo, hi, 8, cap, claims);
        assert!(matches!(
            admit(WIRE_VERSION, 0, 4, None, &[]),
            Ok(AdmitAction::New(r)) if r == (0..4)
        ));
        assert!(admit(WIRE_VERSION + 1, 0, 4, None, &[]).is_err());
        assert!(admit(WIRE_VERSION, 4, 4, None, &[]).is_err());
        assert!(admit(WIRE_VERSION, 0, 9, None, &[]).is_err());
        assert!(admit(WIRE_VERSION, 2, 6, None, &[claim(0, 4, false)]).is_err());
        assert!(admit(WIRE_VERSION, 4, 8, Some(6), &[claim(0, 4, false)]).is_err());
        assert!(matches!(
            admit(WIRE_VERSION, 4, 6, Some(6), &[claim(0, 4, false)]),
            Ok(AdmitAction::New(r)) if r == (4..6)
        ));
        // An exact re-claim is a reconnect; the cap does not apply.
        assert!(matches!(
            admit(WIRE_VERSION, 0, 4, Some(4), &[claim(0, 4, false)]),
            Ok(AdmitAction::Reattach(0))
        ));
        // Evicted ranges stay evicted.
        assert!(admit(WIRE_VERSION, 0, 4, None, &[claim(0, 4, true)]).is_err());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let cfg = tiny_config();
        let mut ledger = fresh_ledger(4, &cfg.run);
        ledger.absorb(
            (
                HostId(0),
                vigil_packet::FiveTuple::tcp(
                    "10.0.0.1".parse().unwrap(),
                    9,
                    "10.0.0.2".parse().unwrap(),
                    80,
                ),
            ),
            FlowEvidence {
                links: vec![vigil_topology::LinkId(1)],
                retransmissions: 2,
                complete: true,
            },
        );
        let _ = ledger.close_window();
        let snap = CollectorSnapshot {
            seed: cfg.seed,
            epochs_done: 1,
            ledger: ledger.snapshot(),
            epochs: Vec::new(),
        };
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let back: CollectorSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.seed, snap.seed);
        assert_eq!(back.epochs_done, 1);
        assert_eq!(back.ledger, snap.ledger);
    }

    /// Pins the metrics endpoint's field names — both the JSON keys and
    /// the plain-text counter lines — so dashboards don't silently break.
    #[test]
    fn metrics_renders_pin_their_field_names() {
        let mut totals = CollectorStats::default();
        totals.windows = 2;
        totals.reconnects = 3;
        totals.quarantined_frames = 5;
        totals.hosts_evicted = 7;
        totals.malformed = 9;
        let state = MetricsState {
            totals,
            windows: vec![WindowMetrics {
                window: 1,
                evidence: 10,
                delivered: 11,
                shed: 0,
                seq_gaps: 0,
                rate_limited: 0,
                reconnects: 3,
                quarantined_frames: 5,
                hosts_evicted: 7,
                coverage: vec![(0, 8), (8, 16)],
                detected: vec![4],
                heat: vec![(4, 0.9)],
            }],
        };

        let json = serde_json::to_string_pretty(&state).unwrap();
        for key in [
            "\"reconnects\"",
            "\"quarantined_frames\"",
            "\"hosts_evicted\"",
            "\"coverage\"",
            "\"seq_gaps\"",
            "\"rate_limited\"",
            "\"delivered\"",
            "\"malformed\"",
        ] {
            assert!(json.contains(key), "metrics JSON lost field {key}: {json}");
        }

        let text = render_metrics_text(&state);
        for line in [
            "vigil_reconnects 3",
            "vigil_quarantined_frames 5",
            "vigil_hosts_evicted 7",
            "vigil_malformed 9",
            "vigil_window_coverage{range=\"0..8\"} 1",
            "vigil_window_coverage{range=\"8..16\"} 1",
            "vigil_link_heat{link=\"4\"} 0.9",
        ] {
            assert!(
                text.contains(line),
                "metrics text lost line {line:?}:\n{text}"
            );
        }
    }
}
