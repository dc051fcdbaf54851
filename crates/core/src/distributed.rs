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
//!        reader thread per connection: decode, forward, park
//!                                   │  one bounded channel
//!                                   ▼
//!   vigil-sim collect: window loop ── CollectorCore ── VoteLedger
//!                 │                                        │
//!            snapshot.json                          window close →
//!          (failover/restart)                    EpochRun → EpochReport
//! ```
//!
//! * [`run_agent`] simulates a slice of the fabric's hosts (the same
//!   deterministic epoch streams every runner draws) and writes the
//!   typed [`AgentEvent`] protocol over a socket, one
//!   [`WireFrame::EpochDone`] barrier per window.
//! * [`run_collector`] is a thin shell around a sans-I/O state machine,
//!   `CollectorCore`, which holds every protocol decision: admission
//!   (version check, host-range non-overlap, optional host cap,
//!   reconnect), per-host sequence accounting, the exactly-once dedup,
//!   the rate cap and quarantine budget, the window barrier with its ack
//!   or replay request, and reconnect-grace eviction. The shell is an
//!   accept thread; reader threads that only decode and forward each
//!   frame in order over one bounded channel, parking after a Hello or
//!   an `EpochDone` until the core lets them read on; and the window
//!   loop, which steps the core, writes the acks it asks for, absorbs
//!   what it forwards into the ledger, closes the window at the
//!   barrier, and scores it with the exact batch machinery.
//!
//! Backpressure: a full channel blocks the readers, so a slow collector
//! slows the agents through TCP instead of dropping their votes — the
//! collector sheds nothing, and the per-connection rate cap is the flood
//! control. A parked reader is what keeps epoch `w+1` out of window `w`.
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
use collector_core::{CollectorCore, Input, Output};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use vigil_agents::{event_channel, AgentEvent, EventCollector, TraceReport};
use vigil_analysis::{FlowEvidence, LedgerSnapshot, VoteLedger};
use vigil_fabric::faults::LinkFaults;
use vigil_fabric::flowsim::EpochScratch;
use vigil_topology::ClosTopology;
use vigil_wire::chaos::{ChaosSchedule, ChaosWriter};
use vigil_wire::{FrameReader, FrameWriter, WireFrame, HELLO_RESILIENT, WIRE_VERSION};

mod collector_core;
#[cfg(test)]
mod model;

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
// Collector shell: reader threads decode, one thread decides.
// ---------------------------------------------------------------------

/// Depth of the one channel from the reader threads to the window loop.
/// A full channel blocks the readers, so backpressure reaches the agents
/// through TCP and nothing is shed; the per-connection rate cap is the
/// flood control. A `collector-ingest` window (~3 650 frames) fits.
const INBOUND_DEPTH: usize = 4096;

/// What the window loop keeps per connection: the write half for
/// `ResumeAt` (dropped on the first failed write — the reader notices
/// the dead socket on its own) and the handle that unparks the reader.
struct ConnIo {
    writer: Option<FrameWriter<Box<dyn Write + Send>>>,
    park: SyncSender<()>,
}

/// Reader → window loop: one input, in its connection's order. The
/// first one brings the connection's [`ConnIo`] along.
struct Inbound(Input, Option<Box<ConnIo>>);

/// One connection's reader: decode leniently and forward every frame in
/// order, parking after a Hello or an `EpochDone` until the core unparks
/// it — the TCP backpressure that keeps epoch `w+1` out of window `w`.
/// The only timer is the read deadline: `idle_timeout` of silence ends
/// the connection. The reader exits when the connection ends, when the
/// core drops it (the park handle disconnects), or at teardown.
fn read_conn(
    conn: usize,
    duplex: Duplex,
    tx: SyncSender<Inbound>,
    idle_timeout: Duration,
    stop: &AtomicBool,
) {
    let mut frames = FrameReader::new(duplex.reader);
    let (park, unparked) = mpsc::sync_channel(1);
    let writer = Some(FrameWriter::new(duplex.writer));
    let mut first = Some(Box::new(ConnIo { writer, park }));
    let mut last = Instant::now();
    let error = loop {
        let dropped = first.is_none() && unparked.try_recv() == Err(TryRecvError::Disconnected);
        if dropped || stop.load(Ordering::Relaxed) {
            return;
        }
        let read = frames.next_frame_lenient();
        let quarantined = frames.quarantined_frames();
        let frame = match read {
            Ok(Some(frame)) => frame,
            Ok(None) => break None,
            Err(e) if is_tick(&e) && last.elapsed() < idle_timeout => continue,
            Err(e) if is_tick(&e) => {
                break Some(format!("idle timeout ({idle_timeout:?} of silence)"))
            }
            Err(e) => break Some(e.to_string()),
        };
        let parks = matches!(frame, WireFrame::Hello { .. } | WireFrame::EpochDone { .. });
        let input = match first {
            Some(_) => Input::Open { conn, frame },
            None => Input::Frame {
                conn,
                frame,
                quarantined,
            },
        };
        if tx.send(Inbound(input, first.take())).is_err() {
            return;
        }
        if parks && unparked.recv().is_err() {
            return;
        }
        last = Instant::now();
    };
    if first.is_some() {
        let why = error.as_deref().unwrap_or("closed");
        return eprintln!("collect: connection ended before its Hello: {why}");
    }
    let quarantined = frames.quarantined_frames();
    let input = Input::Closed {
        conn,
        error,
        quarantined,
    };
    let _ = tx.send(Inbound(input, None));
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
    /// Not read by the collector, which sheds nothing: its readers block
    /// on a full channel and let TCP slow the agents. Kept only because
    /// the benchmark's collector twin sizes its own hub from the default.
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
    /// Events tallied in a window.
    pub events: u64,
    /// Evidence events among them (= ledger absorptions).
    pub evidence: u64,
    /// Events forwarded to the tally: in range, well-formed, first of
    /// their `(host, seq)` this window, and under the rate cap.
    pub delivered: u64,
    /// Events shed by collector backpressure — 0 by construction: a full
    /// input channel blocks the readers (and, through TCP, the agents)
    /// instead of dropping votes.
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
    /// Events delivered to the tally this window.
    pub delivered: u64,
    /// Events shed this window (always 0; see [`CollectorStats::shed`]).
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

/// How long the metrics endpoint waits on one client's request or
/// response. It serves one connection at a time, so a client that
/// connects and says nothing must not hold up the next scrape.
const METRICS_IO_TIMEOUT: Duration = Duration::from_secs(1);

/// Serves a fresh [`MetricsState`] over HTTP/1.0 until the process
/// exits: JSON by default, the plain-text counter rendering when the
/// request path mentions `text`. Returns the state to publish into.
fn spawn_metrics_server(listener: TcpListener) -> Arc<Mutex<MetricsState>> {
    let state = Arc::new(Mutex::new(MetricsState::default()));
    let served = Arc::clone(&state);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let timeout = Some(METRICS_IO_TIMEOUT);
            if (stream.set_read_timeout(timeout))
                .and_then(|()| stream.set_write_timeout(timeout))
                .is_err()
            {
                continue;
            }
            let mut buf = [0u8; 512];
            let n = stream.read(&mut buf).unwrap_or(0);
            let req = String::from_utf8_lossy(&buf[..n]);
            let want_text = req.lines().next().is_some_and(|l| l.contains("text"));
            let snap = served
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
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
    state
}

fn write_snapshot(path: &PathBuf, snap: &CollectorSnapshot) -> io::Result<()> {
    let text = serde_json::to_string_pretty(snap).map_err(other)?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// The window loop's half of the shell: the core, the channel it reads,
/// every admitted connection's I/O, and the open window's tally.
struct Shell {
    core: CollectorCore,
    rx: Receiver<Inbound>,
    conns: HashMap<usize, Box<ConnIo>>,
    /// The core's output buffer, reused so `step` allocates nothing.
    out: Vec<Output>,
    ledger: VoteLedger<EvidenceKey>,
    /// The open window's canonical report map (keyed like the ledger, so
    /// duplicates supersede identically).
    reports: BTreeMap<EvidenceKey, TraceReport>,
    /// The core reported the open window complete; inputs wait in the
    /// channel until the ack.
    complete: bool,
}

impl Shell {
    /// Steps the core on one input and carries out what it asks.
    fn feed(&mut self, Inbound(input, io): Inbound) -> io::Result<()> {
        if let (Input::Open { conn, .. }, Some(io)) = (&input, io) {
            self.conns.insert(*conn, io);
        }
        self.core.step(input, &mut self.out);
        self.apply()
    }

    /// Carries out the core's outputs, in order.
    fn apply(&mut self) -> io::Result<()> {
        for output in self.out.drain(..) {
            match output {
                Output::Unpark { conn, resume } => {
                    let Some(io) = self.conns.get_mut(&conn) else {
                        continue;
                    };
                    if let (Some(epoch), Some(w)) = (resume, io.writer.as_mut()) {
                        let ack = WireFrame::ResumeAt { epoch };
                        if w.write_frame(&ack).and_then(|()| w.flush()).is_err() {
                            io.writer = None;
                        }
                    }
                    // The core unparks each park once, so the one slot is
                    // free; `try_send` keeps the loop off the reader's pace.
                    let _ = io.park.try_send(());
                }
                Output::Drop(conn) => {
                    self.conns.remove(&conn);
                }
                Output::Absorb(AgentEvent::Evidence { report, .. }) => {
                    let key = (report.host, report.tuple);
                    let evidence = FlowEvidence {
                        links: report.links.clone(),
                        retransmissions: report.retransmissions,
                        complete: report.complete,
                    };
                    self.ledger.absorb(key, evidence);
                    self.reports.insert(key, report);
                }
                Output::Absorb(_) => {}
                Output::WindowComplete => self.complete = true,
                Output::Abort(why) => return Err(other(why)),
                Output::Log(line) => eprintln!("collect: {line}"),
            }
        }
        Ok(())
    }

    /// Feeds the core until it reports the open window complete. Without
    /// `block` it stops once the channel is empty (between the replay's
    /// chunks); with it, an empty channel is waited on until input
    /// arrives or the core's next deadline, when it gets a tick.
    fn pump(&mut self, block: bool) -> io::Result<()> {
        while !self.complete {
            let inbound = match self.rx.try_recv() {
                Ok(inbound) => inbound,
                Err(_) if !block => break,
                Err(_) => {
                    let deadline = self.core.deadline();
                    let now = Instant::now();
                    let wait = deadline.map_or(Duration::from_secs(5), |d| d - now);
                    match self.rx.recv_timeout(wait) {
                        Ok(inbound) => inbound,
                        Err(RecvTimeoutError::Timeout) => {
                            self.core.step(Input::Tick(Instant::now()), &mut self.out);
                            self.apply()?;
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(other("collector input channel closed"));
                        }
                    }
                }
            };
            self.feed(inbound)?;
        }
        Ok(())
    }

    /// Acks the closed window into the next one.
    fn ack(&mut self) -> io::Result<()> {
        self.core.ack(&mut self.out);
        self.complete = false;
        self.apply()
    }
}

/// Loads a predecessor's snapshot when resuming, refusing one from
/// another seed or one that already covers the whole run.
fn restore(
    config: &ExperimentConfig,
    ccfg: &CollectorConfig,
) -> io::Result<Option<CollectorSnapshot>> {
    if !ccfg.resume {
        return Ok(None);
    }
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
    Ok(Some(snap))
}

/// Runs the collector daemon over an already-bound `listener`: admits
/// `ccfg.agents` connections, then closes one window per epoch —
/// simulate locally for ground truth, absorb the fleet's evidence,
/// barrier on every connection's [`WireFrame::EpochDone`], close the
/// ledger window, score, snapshot, ack. See the module docs for the
/// shell/core split and the determinism and failover contracts.
pub fn run_collector(
    config: &ExperimentConfig,
    listener: &Listener,
    ccfg: &CollectorConfig,
) -> io::Result<CollectorOutcome> {
    let started = Instant::now();
    if ccfg.agents == 0 || ccfg.epochs == 0 {
        return Err(invalid("collector needs agents >= 1 and epochs >= 1"));
    }
    // Resume: load the predecessor's snapshot before touching sockets.
    let snap = restore(config, ccfg)?;
    let mut rng = config.trial_rng(0);
    let topo = ClosTopology::new(config.params, rng.gen()).map_err(invalid)?;
    let faults = config.faults.build(&topo, &mut rng);
    let num_hosts = u32::try_from(topo.num_hosts()).map_err(invalid)?;
    let (ring, alpha) = (LEDGER_RING_WINDOWS, LEDGER_HEALTH_ALPHA);
    let (ledger, start, scored) = match snap {
        Some(s) => {
            let ledger =
                VoteLedger::restore(topo.num_links(), config.run.alg1, ring, alpha, s.ledger);
            (ledger, s.epochs_done, s.epochs)
        }
        None => (fresh_ledger(topo.num_links(), &config.run), 0, Vec::new()),
    };
    // Metrics endpoint, up before the start barrier so operators can
    // watch admission.
    let metrics = match &ccfg.metrics {
        Some(addr) => {
            let l = TcpListener::bind(addr)?;
            if let Some(file) = &ccfg.metrics_addr_file {
                std::fs::write(file, l.local_addr()?.to_string())?;
            }
            Some(spawn_metrics_server(l))
        }
        None => None,
    };
    let (tx, rx) = mpsc::sync_channel(INBOUND_DEPTH);
    let now = Instant::now();
    let mut shell = Shell {
        core: CollectorCore::new(ccfg, num_hosts, topo.num_links(), start as u64, now),
        rx,
        conns: HashMap::new(),
        out: Vec::new(),
        ledger,
        reports: BTreeMap::new(),
        complete: false,
    };
    let stop = AtomicBool::new(false);
    let idle_timeout = ccfg.idle_timeout;
    let read_tick = (idle_timeout / 8).clamp(Duration::from_millis(50), Duration::from_secs(1));

    std::thread::scope(|scope| {
        let stop = &stop;
        scope.spawn(move || {
            for conn in 0usize.. {
                let duplex = loop {
                    match listener.accept_duplex(read_tick) {
                        _ if stop.load(Ordering::Relaxed) => return,
                        Ok(duplex) => break duplex,
                        Err(e) => {
                            eprintln!("collect: accept failed: {e}");
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    }
                };
                let tx = tx.clone();
                scope.spawn(move || read_conn(conn, duplex, tx, idle_timeout, stop));
            }
        });
        let windows = Windows {
            config,
            ccfg,
            topo: &topo,
            faults: &faults,
            metrics: metrics.as_deref(),
        };
        let result = windows.serve(&mut shell, start, scored, started);
        // Teardown, so the scope's implicit join cannot hang: dropping the
        // shell drops the channel and every park handle (parked and
        // sending readers exit), readers notice the stop flag within one
        // read tick, and the accept thread needs one last connection to
        // fall out of `accept`.
        drop(shell);
        stop.store(true, Ordering::Relaxed);
        let _ = Endpoint::parse(&listener.local_addr()).connect();
        result
    })
}

/// What the window loop reads but never changes.
struct Windows<'a> {
    config: &'a ExperimentConfig,
    ccfg: &'a CollectorConfig,
    topo: &'a ClosTopology,
    faults: &'a LinkFaults,
    metrics: Option<&'a Mutex<MetricsState>>,
}

impl Windows<'_> {
    /// The window loop from window `start` on (`scored` holds the reports
    /// of the windows before it): replay the epoch for ground truth while
    /// feeding the core, wait out the barrier, then close, score, log,
    /// publish, snapshot and ack — or pause unacked when `exit_after`
    /// trips.
    fn serve(
        &self,
        shell: &mut Shell,
        start: usize,
        mut scored: Vec<EpochReport>,
        started: Instant,
    ) -> io::Result<CollectorOutcome> {
        let (config, ccfg, run_cfg) = (self.config, self.ccfg, &self.config.run);
        // The collector runs the fleet's epoch loop with an empty host
        // range: evidence admission happened on the agents, so it
        // dispatches nothing and only draws the identical epoch stream for
        // ground truth and the records scoring consults.
        let mut replay = HostFleet::new(self.topo, run_cfg, 0..0, event_channel().0);
        let tuning = StreamTuning {
            chunk_flows: 256,
            hub_capacity: usize::MAX,
        };
        let mut scratch = EpochScratch::new();
        let trial_seed = config.trial_seed(0);
        let mut prev = shell.core.stats().clone();
        for w in start..ccfg.epochs {
            let pull = replay.run_epoch(
                self.topo,
                run_cfg,
                self.faults,
                &mut epoch_rng(trial_seed, w),
                &mut scratch,
                &tuning,
                Some(RetainPolicy::EvidenceOnly),
                w as u64 + 1,
                || shell.pump(false),
            )?;
            shell.pump(true)?;

            // Close and score the window with the exact batch machinery.
            let window = shell.ledger.close_window();
            let reports = std::mem::take(&mut shell.reports).into_values().collect();
            let run = assemble_epoch(pull.outcome, reports, window, run_cfg);
            let er = evaluate_epoch(&run);
            let stats = shell.core.stats().clone();
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
            if let Some(state) = self.metrics {
                let heat = shell.ledger.health().heat_map().into_iter().take(8);
                let window = WindowMetrics {
                    window: w as u64,
                    evidence: stats.evidence - prev.evidence,
                    delivered: stats.delivered - prev.delivered,
                    shed: stats.shed - prev.shed,
                    seq_gaps: stats.seq_gaps - prev.seq_gaps,
                    rate_limited: stats.rate_limited - prev.rate_limited,
                    reconnects: stats.reconnects - prev.reconnects,
                    quarantined_frames: stats.quarantined_frames - prev.quarantined_frames,
                    hosts_evicted: stats.hosts_evicted - prev.hosts_evicted,
                    coverage: shell.core.coverage(),
                    detected: er.detected.iter().map(|l| l.0).collect(),
                    heat: heat.map(|(l, s)| (l.0, s)).collect(),
                };
                let mut m = state.lock().unwrap_or_else(PoisonError::into_inner);
                m.totals = stats.clone();
                m.windows.push(window);
                let excess = m.windows.len().saturating_sub(METRICS_RING);
                m.windows.drain(..excess);
            }
            scored.push(er);
            if let Some(path) = &ccfg.snapshot_path {
                let snap = CollectorSnapshot {
                    seed: config.seed,
                    epochs_done: w + 1,
                    ledger: shell.ledger.snapshot(),
                    epochs: scored.clone(),
                };
                write_snapshot(path, &snap)?;
            }
            let closed_this_run = w + 1 - start;
            if w + 1 < ccfg.epochs && ccfg.exit_after.is_some_and(|k| closed_this_run >= k) {
                // Paused: deliberately NO acks — the agents' ack timeouts
                // push them to reconnect, and they find the successor on
                // the same address.
                let last = w + 1;
                eprintln!(
                    "collect: pausing after {closed_this_run} window(s) \
                     (snapshot covers epochs 0..{last})"
                );
                return Ok(CollectorOutcome::Paused(stats));
            }
            prev = stats;
            shell.ack()?;
        }

        // Final assembly: identical fold to the in-process trial loop.
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut acc = TrialAccumulator::new(ccfg.epochs);
        for er in scored {
            acc.absorb(er);
        }
        let mut report = ExperimentReport::empty(config);
        report.merge_trial(acc.finish_at(run_cfg, 0, wall_ms));
        Ok(CollectorOutcome::Completed(Box::new(report), prev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::stream_trial;
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

    /// A core over an 8-host, 64-link fabric, opening at window 0.
    fn test_core(ccfg: &CollectorConfig) -> CollectorCore {
        CollectorCore::new(ccfg, 8, 64, 0, Instant::now())
    }

    fn hello_frame(version: u16, flags: u8, hosts: Range<u32>) -> WireFrame {
        WireFrame::Hello {
            version,
            flags,
            host_lo: hosts.start,
            host_hi: hosts.end,
        }
    }

    /// Connection `conn` says Hello for hosts 0..8.
    fn hello(conn: usize, flags: u8) -> Input {
        let frame = hello_frame(WIRE_VERSION, flags, 0..8);
        Input::Open { conn, frame }
    }

    fn frame(conn: usize, frame: WireFrame) -> Input {
        Input::Frame {
            conn,
            frame,
            quarantined: 0,
        }
    }

    fn drain(host: u32, seq: u64) -> WireFrame {
        WireFrame::Event(AgentEvent::Drain {
            host: HostId(host),
            seq,
        })
    }

    fn barrier(epoch: u64, events: u64) -> WireFrame {
        WireFrame::EpochDone { epoch, events }
    }

    fn closed(conn: usize) -> Input {
        Input::Closed {
            conn,
            error: None,
            quarantined: 0,
        }
    }

    /// Steps `core` through `inputs`; returns everything it asked for.
    fn run(core: &mut CollectorCore, inputs: impl IntoIterator<Item = Input>) -> Vec<Output> {
        let mut out = Vec::new();
        for input in inputs {
            core.step(input, &mut out);
        }
        out
    }

    /// The `(host, seq)` of every absorbed event, in order.
    fn absorbed(out: &[Output]) -> Vec<(u32, u64)> {
        (out.iter())
            .filter_map(|o| match o {
                Output::Absorb(e) => Some((e.host().0, e.seq())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn collector_counts_sequence_gap_after_reconnect() {
        let mut core = test_core(&CollectorConfig::default());
        let seqs = |conn: usize, seqs: &[u64]| -> Vec<Input> {
            seqs.iter().map(|&s| frame(conn, drain(3, s))).collect()
        };
        // Connection 0: host 3 emits seqs 0..=2 and barriers window 0;
        // after the ack the link dies.
        let mut out = run(&mut core, [hello(0, 0)]);
        out.extend(run(&mut core, seqs(0, &[0, 1, 2])));
        out.extend(run(&mut core, [frame(0, barrier(0, 3))]));
        assert_eq!(out.last(), Some(&Output::WindowComplete));
        core.ack(&mut out);
        out.extend(run(&mut core, [closed(0)]));
        assert_eq!((core.stats().seq_gaps, core.stats().seq_resets), (0, 0));
        // The agent reconnects mid-life: its first frame is seq 5, so
        // seqs 3 and 4 were lost in flight — a gap, surfaced as such.
        out.extend(run(&mut core, [hello(1, 0)]));
        out.extend(run(&mut core, seqs(1, &[5, 6])));
        out.extend(run(&mut core, [closed(1)]));
        assert_eq!((core.stats().seq_gaps, core.stats().seq_resets), (2, 0));
        // The agent *restarts*: sequence numbers run backwards to 0 — a
        // reset, not another giant gap.
        out.extend(run(&mut core, [hello(2, 0)]));
        out.extend(run(&mut core, seqs(2, &[0, 1])));
        assert_eq!((core.stats().seq_gaps, core.stats().seq_resets), (2, 1));
        assert_eq!(
            absorbed(&out).len(),
            7,
            "every in-range event was forwarded"
        );
    }

    #[test]
    fn rate_cap_drops_and_counts_excess() {
        let ccfg = CollectorConfig {
            max_events_per_window: 3,
            ..CollectorConfig::default()
        };
        let mut core = test_core(&ccfg);
        let mut out = run(&mut core, [hello(0, 0)]);
        out.extend(run(&mut core, (0..5).map(|s| frame(0, drain(1, s)))));
        assert_eq!(core.stats().rate_limited, 2);
        assert_eq!(
            absorbed(&out).len(),
            3,
            "cap admits exactly rate_cap events"
        );
    }

    #[test]
    fn replayed_duplicates_are_deduplicated_not_forwarded() {
        let mut core = test_core(&CollectorConfig::default());
        // A lossy-wire replay re-sends the whole epoch: seqs 0..=2 twice
        // plus a fresh 3. Exactly-once means four tallied events.
        let mut out = run(&mut core, [hello(0, 0)]);
        let seqs = [0, 1, 2, 0, 1, 2, 3];
        out.extend(run(&mut core, seqs.map(|s| frame(0, drain(1, s)))));
        assert_eq!(absorbed(&out), [(1, 0), (1, 1), (1, 2), (1, 3)]);
    }

    #[test]
    fn poisoned_stream_blows_the_quarantine_budget() {
        let ccfg = CollectorConfig {
            quarantine_budget: 2,
            ..CollectorConfig::default()
        };
        // Three clean frames, then the reader skipped three corrupt runs
        // before its next good one: the budget of 2 is blown.
        let mut core = test_core(&ccfg);
        let mut out = run(&mut core, [hello(0, 0)]);
        out.extend(run(&mut core, (0..3).map(|s| frame(0, drain(1, s)))));
        let late = Input::Frame {
            conn: 0,
            frame: drain(1, 3),
            quarantined: 3,
        };
        out.extend(run(&mut core, [late]));
        assert!(
            out.contains(&Output::Drop(0)),
            "the poisoned connection goes"
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::Log(l) if l.contains("quarantine budget"))));
        assert_eq!(
            absorbed(&out).len(),
            3,
            "the frame that blew it is not tallied"
        );
        let stats = core.stats();
        assert_eq!((stats.quarantined_frames, stats.hosts_evicted), (3, 8));
        assert!(core.evicted(&(0..8)), "the range is evicted, not orphaned");
        // The count also travels with a close: a reader whose stream was
        // all garbage reports it there.
        let mut core = test_core(&ccfg);
        let close = Input::Closed {
            conn: 0,
            error: None,
            quarantined: 9,
        };
        run(&mut core, [hello(0, 0), close]);
        assert!(core.evicted(&(0..8)));
    }

    /// The double-tally rule, pinned without a socket: a barrier the wire
    /// duplicated is reported once, while a replay's barrier — which
    /// always follows its replayed events — is reported again.
    #[test]
    fn adjacent_duplicate_barrier_is_reported_once_but_a_replays_is_not() {
        let mut core = test_core(&CollectorConfig::default());
        let r = HELLO_RESILIENT;
        let resume = |epoch| Output::Unpark {
            conn: 0,
            resume: Some(epoch),
        };
        let unpark = || Output::Unpark {
            conn: 0,
            resume: None,
        };
        let mut out = run(&mut core, [hello(0, r), frame(0, drain(1, 0))]);
        out.extend(run(
            &mut core,
            [frame(0, drain(1, 1)), frame(0, barrier(0, 3))],
        ));
        // Two of three delivered: admission, then one replay request.
        assert_eq!(out.iter().filter(|o| **o == resume(0)).count(), 2);
        let dup = run(&mut core, [frame(0, barrier(0, 3))]);
        assert_eq!(dup, [unpark()], "a duplicate only unparks");
        let replay = (0..3).map(|s| frame(0, drain(1, s)));
        let out = run(&mut core, replay.chain([frame(0, barrier(0, 3))]));
        assert_eq!(absorbed(&out), [(1, 2)], "the replay fills the hole once");
        assert_eq!(out.last(), Some(&Output::WindowComplete));
        let mut out = Vec::new();
        core.ack(&mut out);
        assert_eq!(out, [resume(1)], "the ack");
        // Read after the ack, the duplicate must not draw a replay
        // request for the window that just opened.
        let dup = run(&mut core, [frame(0, barrier(0, 3))]);
        assert_eq!(dup, [unpark()]);
    }

    #[test]
    fn a_replaced_connections_late_frames_and_close_change_nothing() {
        let mut core = test_core(&CollectorConfig::default());
        let r = HELLO_RESILIENT;
        let out = run(&mut core, [hello(0, r), frame(0, drain(1, 0)), hello(1, r)]);
        assert!(
            out.contains(&Output::Drop(0)),
            "the reconnect replaces conn 0"
        );
        let before = format!("{core:?}");
        let late = [frame(0, drain(1, 1)), frame(0, barrier(0, 2)), closed(0)];
        assert!(run(&mut core, late).is_empty());
        assert_eq!(format!("{core:?}"), before, "no state moved");
    }

    /// One hostile sequence number used to panic a debug reader on
    /// `seq + 1` and leave the window barrier waiting forever; in release
    /// it left `seq_gaps` near `u64::MAX` for good.
    #[test]
    fn hostile_sequence_numbers_leave_the_accounting_and_tally_intact() {
        let honest = [drain(0, 0), drain(1, 0), drain(0, 1)];
        let tally = |hostile: &[(u32, u64)]| {
            let mut core = test_core(&CollectorConfig::default());
            let mut out = run(&mut core, [hello(0, 0)]);
            out.extend(run(
                &mut core,
                hostile.iter().map(|&(h, s)| frame(0, drain(h, s))),
            ));
            out.extend(run(&mut core, honest.clone().map(|f| frame(0, f))));
            out.extend(run(&mut core, [frame(0, barrier(0, 3))]));
            assert_eq!(out.last(), Some(&Output::WindowComplete));
            let tallied = absorbed(&out);
            let honest_tally: Vec<_> = (tallied.iter())
                .filter(|e| !hostile.contains(e))
                .copied()
                .collect();
            (honest_tally, core.stats().clone())
        };
        let (reference, _) = tally(&[]);
        for hostile in [vec![(0, u64::MAX)], vec![(5, u64::MAX - 1), (5, 0), (5, 1)]] {
            let (honest_tally, stats) = tally(&hostile);
            assert_eq!(
                honest_tally, reference,
                "{hostile:?} moved the honest tally"
            );
            assert_eq!(stats.seq_gaps, 0, "{hostile:?} is not loss");
            assert!(stats.seq_resets <= 2, "{hostile:?}: {stats:?}");
        }
    }

    /// The endpoint serves one connection at a time; a client that
    /// connects and never sends its request must not starve the next.
    #[test]
    fn a_silent_client_does_not_block_the_metrics_endpoint() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _state = spawn_metrics_server(listener);
        let _silent = TcpStream::connect(addr).unwrap();
        let mut scrape = TcpStream::connect(addr).unwrap();
        scrape
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        scrape.write_all(b"GET /text HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        scrape.read_to_string(&mut body).expect("scrape answered");
        assert!(body.contains("vigil_windows_closed 0"), "{body}");
    }

    #[test]
    fn admission_rejects_bad_hellos() {
        let capped = CollectorConfig {
            max_hosts: Some(6),
            ..CollectorConfig::default()
        };
        let mut core = test_core(&capped);
        let mut conn = 0;
        // Offers `frame` as a new connection's first; true when admitted.
        let mut admits = |core: &mut CollectorCore, frame: WireFrame| {
            conn += 1;
            !run(core, [Input::Open { conn, frame }]).contains(&Output::Drop(conn))
        };
        let v = WIRE_VERSION;
        assert!(!admits(&mut core, hello_frame(v + 1, 0, 0..4)), "version");
        assert!(!admits(&mut core, hello_frame(v, 0, 4..4)), "empty range");
        assert!(
            !admits(&mut core, hello_frame(v, 0, 0..9)),
            "past the fabric"
        );
        assert!(!admits(&mut core, drain(0, 0)), "first frame not a Hello");
        assert!(admits(&mut core, hello_frame(v, 0, 0..4)));
        assert!(
            !admits(&mut core, hello_frame(v, 0, 2..6)),
            "partial overlap"
        );
        assert!(
            !admits(&mut core, hello_frame(v, 0, 4..8)),
            "over the host cap"
        );
        assert!(
            admits(&mut core, hello_frame(v, 0, 4..6)),
            "disjoint, under the cap"
        );
        // An exact re-claim is a reconnect; the cap does not apply.
        assert!(admits(&mut core, hello_frame(v, 0, 0..4)));
        assert_eq!(core.stats().reconnects, 1);
        // Evicted ranges stay evicted.
        let poisoned = Input::Closed {
            conn: 9,
            error: None,
            quarantined: capped.quarantine_budget + 1,
        };
        run(&mut core, [poisoned]);
        assert!(core.evicted(&(0..4)));
        assert!(!admits(&mut core, hello_frame(v, 0, 0..4)), "evicted");
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
