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
//! * The agent side is a sans-I/O state machine, `AgentCore`, under two
//!   thin shells. The core holds every agent decision: when to connect
//!   and after what backoff, when to give up, which epoch to emit on each
//!   `ResumeAt` and whether to replay it from the settled-epoch anchor
//!   or roll forward, the ack timeout and its heartbeats, and the
//!   attempts a chaos partition refuses. `AgentWorld` decides nothing: it
//!   simulates a slice of the fabric's hosts (the same deterministic
//!   epoch streams every runner draws) and writes the typed
//!   [`AgentEvent`] protocol, each batch's events as frames straight from
//!   the fleet's buffer (no staging queue), one [`WireFrame::EpochDone`]
//!   barrier per window. [`run_agent`] is the shell that cannot read: it
//!   answers its own Hello and barriers. [`run_agent_resilient`] is the
//!   shell that connects, sleeps the backoff, writes and reads.
//! * [`run_collector`] is a thin shell around a sans-I/O state machine,
//!   `CollectorCore`, which holds every protocol decision: admission
//!   (version check, host-range non-overlap, optional host cap,
//!   reconnect), per-host sequence accounting, the exactly-once dedup,
//!   the rate cap and quarantine budget, the window barrier with its ack
//!   or replay request, and reconnect-grace eviction. The shell is an
//!   accept thread; reader threads that only decode and forward each
//!   frame in order over one bounded channel, parking after a Hello or
//!   an `EpochDone` until the core lets them read on; and the window
//!   loop, which runs each window on a stream session over an empty host
//!   range, through the in-process session's own window function: between
//!   the epoch's chunks and through the barrier it steps the core, writes
//!   the acks it asks for and absorbs what the core forwards into the
//!   session's intake, then closes and scores the window as any session
//!   does.
//!
//! Backpressure: a full channel blocks the readers, so a slow collector
//! slows the agents through TCP instead of dropping their votes — the
//! collector sheds nothing, and the per-connection rate cap is the flood
//! control. A parked reader is what keeps epoch `w+1` out of window `w`.
//!
//! Determinism contract: a loopback run (N agent processes feeding one
//! collector) produces a final report **byte-identical** to
//! `vigil-sim stream --json --trials 1` on the same preset. Both sides
//! draw trial 0's [`Trial`] (topology, faults, per-epoch RNG streams);
//! evidence admission (pacer, trace cache, SLB gate, byzantine
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
//! An agent gives up after `max_reconnects` failed connects in a row, or
//! on an epoch sent 16 times without an ack (one that never fits between
//! two resets).
//!
//! Both cores are checked without sockets or clocks: a model suite runs
//! them through every small schedule of deliveries and faults, and a
//! seeded fleet simulation runs the real agents and the real window
//! close over in-memory pipes on one thread.

use crate::evaluate::{evaluate_epoch, EpochReport};
use crate::experiment::{ExperimentConfig, ExperimentReport, Trial, TrialAccumulator};
use crate::run::{fresh_ledger, RunConfig, LEDGER_HEALTH_ALPHA, LEDGER_RING_WINDOWS};
use crate::stream::{HostFleet, Intake, StreamSession};
use agent_core::{AgentCore, Start};
use collector_core::{CollectorCore, Input, Output};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use vigil_agents::AgentEvent;
use vigil_analysis::{LedgerSnapshot, VoteLedger};
use vigil_fabric::flowsim::EpochScratch;
use vigil_topology::ClosTopology;
use vigil_wire::chaos::{ChaosSchedule, ChaosWriter};
use vigil_wire::{FrameReader, FrameWriter, WireFrame, HELLO_RESILIENT, WIRE_VERSION};

mod agent_core;
mod collector_core;
#[cfg(test)]
mod model;
#[cfg(test)]
mod sim;

fn invalid<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
}

fn other<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::other(e.to_string())
}

// ---------------------------------------------------------------------
// Transport: one address syntax for TCP and Unix-domain sockets.
// ---------------------------------------------------------------------

/// Splits a TCP or Unix stream into a [`Duplex`] whose read half ticks
/// every `read_tick`.
macro_rules! duplex {
    ($stream:expr, $read_tick:expr) => {{
        let stream = $stream;
        stream.set_read_timeout(Some($read_tick))?;
        let reader = Box::new(stream.try_clone()?);
        Duplex {
            reader,
            writer: Box::new(stream),
        }
    }};
}

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
        Ok(match self {
            Endpoint::Tcp(addr) => duplex!(TcpStream::connect(addr)?, read_tick),
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                duplex!(std::os::unix::net::UnixStream::connect(path)?, read_tick)
            }
        })
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
        Ok(match self {
            Listener::Tcp(l) => duplex!(l.accept()?.0, read_tick),
            #[cfg(unix)]
            Listener::Unix(l) => duplex!(l.accept()?.0, read_tick),
        })
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

/// Writes the fleet's buffered events to the wire as frames, in emission
/// order, draining the buffer.
fn write_events<W: Write>(
    writer: &mut FrameWriter<W>,
    events: &mut Vec<AgentEvent>,
    stats: &mut AgentStats,
) -> io::Result<()> {
    for event in events.drain(..) {
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
/// [`HostFleet`] (whose buffered events go straight to the wire after
/// every batch: an agent never sheds its own evidence), and the record of
/// the settled-epoch anchor that replays rewind to. It emits what the
/// `AgentCore` asks for and decides nothing.
struct AgentWorld {
    trial: Trial,
    fleet: HostFleet,
    scratch: EpochScratch,
    run_cfg: RunConfig,
    chunk_flows: usize,
    /// The epoch whose barrier frame also carries the shutdown drains.
    last_epoch: usize,
    /// Per-host sequence counters at the anchor's start — rewinding to
    /// them makes a replay byte-identical.
    anchor: Vec<u64>,
}

impl AgentWorld {
    fn build(config: &ExperimentConfig, spec: &AgentSpec) -> io::Result<Self> {
        let trial = config.trial(0).map_err(invalid)?;
        let num_hosts = u32::try_from(trial.topo.num_hosts()).map_err(invalid)?;
        if spec.hosts.start >= spec.hosts.end || spec.hosts.end > num_hosts {
            return Err(invalid(format!(
                "host range {}..{} invalid for a {num_hosts}-host topology",
                spec.hosts.start, spec.hosts.end
            )));
        }
        if spec.chunk_flows == 0 || spec.epochs == 0 {
            return Err(invalid("agent needs chunk_flows >= 1 and epochs >= 1"));
        }
        let fleet = HostFleet::new(&trial.topo, &config.run, spec.hosts.clone());
        Ok(Self {
            trial,
            fleet,
            scratch: EpochScratch::new(),
            run_cfg: config.run.clone(),
            chunk_flows: spec.chunk_flows,
            last_epoch: spec.start_epoch + spec.epochs - 1,
            anchor: vec![0; spec.hosts.len()],
        })
    }

    /// Brings the fleet to the start of `epoch` as the core asked, then
    /// records that state as the anchor unless it already is one.
    /// Determinism makes the epochs simulated unsent evolve exactly the
    /// per-host state the sent ones did.
    fn position(&mut self, epoch: usize, start: Start) -> io::Result<()> {
        let from = match start {
            Start::Here => epoch,
            Start::Anchor => {
                self.rewind();
                return Ok(());
            }
            Start::RollForward { from } => {
                self.rewind();
                from
            }
            Start::Rebuild { from } => {
                self.anchor.fill(0);
                self.rewind();
                from
            }
        };
        let mut unsent = FrameWriter::new(io::sink());
        for e in from..epoch {
            self.emit(e, &mut unsent, &mut AgentStats::default())?;
        }
        for (seq, agent) in self.anchor.iter_mut().zip(&self.fleet.agents) {
            *seq = agent.events_emitted();
        }
        Ok(())
    }

    /// Restores the anchor's start state: sequence counters rewound,
    /// pacers reset.
    fn rewind(&mut self) {
        for (agent, seq) in self.fleet.agents.iter_mut().zip(&self.anchor) {
            agent.rewind(*seq);
            agent.next_epoch();
        }
    }

    /// Simulates one epoch of this process's hosts, writes its events and
    /// then its barrier, which counts them — deterministic per epoch, so a
    /// byte-identical replay re-emits exactly as many — and flushes.
    fn emit<W: Write>(
        &mut self,
        epoch: usize,
        writer: &mut FrameWriter<W>,
        stats: &mut AgentStats,
    ) -> io::Result<()> {
        let before = stats.events_sent;
        let Self {
            trial,
            fleet,
            scratch,
            run_cfg,
            chunk_flows,
            last_epoch,
            ..
        } = self;
        let mut write = |events: &mut Vec<AgentEvent>| write_events(writer, events, stats);
        fleet.run_epoch(
            &trial.topo,
            run_cfg,
            &trial.faults(epoch),
            &mut trial.epoch_rng(epoch),
            scratch,
            *chunk_flows,
            false, // the agent never scores, so it keeps no rows
            epoch as u64 + 1,
            &mut write,
        )?;
        if epoch == *last_epoch {
            // Shutdown drains ride inside the final window (before its
            // barrier) so the agent never writes after the collector may
            // have torn the run down.
            fleet.drain(&mut write)?;
        }
        let events = stats.events_sent - before;
        writer.write_frame(&WireFrame::EpochDone {
            epoch: epoch as u64,
            events,
        })?;
        writer.flush()?;
        stats.flushes += 1;
        Ok(())
    }
}

/// Runs one plain (fire-and-forget) agent process: simulates
/// `spec.hosts`' share of trial 0's epochs and streams the
/// [`AgentEvent`] protocol over `sink`, ending each epoch with a
/// [`WireFrame::EpochDone`] barrier and one flush. The emitted evidence
/// is exactly what the in-process stream driver's agents for those hosts
/// emit — same pacer admissions, same SLB gate salt,
/// same byzantine emissions, same per-host sequence numbers — because
/// both run the same agent loop.
///
/// This is the resilient agent's core under a shell that cannot read:
/// it answers its own Hello with `ResumeAt(start_epoch)` and each
/// barrier with the next epoch, so the collector's acks accumulate
/// unread, and it dies on the first write failure.
/// [`run_agent_resilient`] is the self-healing variant.
pub fn run_agent<W: Write>(
    config: &ExperimentConfig,
    spec: &AgentSpec,
    sink: W,
) -> io::Result<AgentStats> {
    // One connection and no retries: the first failed write is fatal.
    let rcfg = ResilienceConfig {
        max_reconnects: 0,
        ..ResilienceConfig::default()
    };
    let mut sink = Some(sink);
    let connect = |_| match sink.take() {
        Some(sink) => Ok((None::<FrameReader<io::Empty>>, sink)),
        None => Err(other("a plain agent has one connection")),
    };
    // Fire-and-forget: no resilient bit, so the collector never writes
    // back (a write into this socket after the agent exits would RST away
    // its still-buffered frames).
    drive(config, spec, &rcfg, None, 0, connect)
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
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            max_reconnects: 1_000,
            ack_timeout: Duration::from_secs(15),
            read_tick: Duration::from_millis(500),
        }
    }
}

/// One connection of an agent shell: the read half for the collector's
/// answers — `None` for a shell that cannot read, which answers itself —
/// and the write half under the chaos injector.
struct Link<R, W: Write> {
    reader: Option<FrameReader<R>>,
    writer: FrameWriter<ChaosWriter<BufWriter<W>>>,
}

impl<R: Read, W: Write> Link<R, W> {
    /// The connection ended with `error`: what the core hears.
    fn lost(mut self, error: io::Error, last_err: &mut Option<io::Error>) -> agent_core::Input {
        *last_err = Some(error);
        let chaos = self.writer.get_mut();
        agent_core::Input::Lost {
            reset: chaos.take_reset_ordinal(),
            frames: chaos.index(),
        }
    }

    /// Writes `frame`, if any, then awaits the collector's answer:
    /// `ResumeAt`, a read tick, or the end. A shell that cannot read
    /// answers itself with `ResumeAt(own)`, and leaves its Hello to the
    /// first epoch's flush: it flushes once per epoch.
    fn send(
        mut self,
        frame: Option<&WireFrame>,
        own: u64,
        last_err: &mut Option<io::Error>,
    ) -> (Option<Self>, agent_core::Input) {
        let reads = self.reader.is_some();
        let sent = frame.map_or(Ok(()), |f| {
            let written = self.writer.write_frame(f);
            written.and_then(|()| if reads { self.writer.flush() } else { Ok(()) })
        });
        if let Err(e) = sent {
            return (None, self.lost(e, last_err));
        }
        let Some(reader) = self.reader.as_mut() else {
            return (Some(self), agent_core::Input::ResumeAt(own));
        };
        let e = loop {
            match reader.next_frame() {
                Ok(Some(WireFrame::ResumeAt { epoch })) => {
                    return (Some(self), agent_core::Input::ResumeAt(epoch))
                }
                Ok(Some(_)) => {} // stray frame; the ack is all we want
                Err(e) if is_tick(&e) => {
                    return (Some(self), agent_core::Input::Tick(Instant::now()))
                }
                Ok(None) => {
                    break io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "collector closed while an ack was pending",
                    )
                }
                Err(e) => break e,
            }
        };
        (None, self.lost(e, last_err))
    }
}

/// Runs one self-healing agent: like [`run_agent`], but over a
/// reconnectable [`Endpoint`], surviving connection resets, collector
/// restarts, and (optionally) a seeded [`ChaosSchedule`] injecting
/// faults into its own writes. The agent replays exactly the epochs the
/// collector has not settled (see the module docs for the ack protocol).
///
/// Returns when the collector acknowledges every epoch of `spec`, or
/// errs after `max_reconnects` consecutive failed attempts, or when one
/// epoch has gone out 16 times in a row without an ack (the error names
/// the epoch).
pub fn run_agent_resilient(
    config: &ExperimentConfig,
    spec: &AgentSpec,
    endpoint: &Endpoint,
    rcfg: &ResilienceConfig,
    chaos: Option<&ChaosSchedule>,
) -> io::Result<AgentStats> {
    let connect = |after| {
        std::thread::sleep(after);
        let duplex = endpoint.connect_duplex(rcfg.read_tick)?;
        Ok((Some(FrameReader::new(duplex.reader)), duplex.writer))
    };
    drive(config, spec, rcfg, chaos, HELLO_RESILIENT, connect)
}

/// The agent shell both drivers share. Every decision is the
/// `AgentCore`'s: this opens connections with `connect` (which first
/// waits out the backoff it is given), says Hello with `flags`, has the
/// world emit, writes, and reads, until the core is done or gives up.
fn drive<R: Read, W: Write>(
    config: &ExperimentConfig,
    spec: &AgentSpec,
    rcfg: &ResilienceConfig,
    chaos: Option<&ChaosSchedule>,
    flags: u8,
    mut connect: impl FnMut(Duration) -> io::Result<(Option<FrameReader<R>>, W)>,
) -> io::Result<AgentStats> {
    use agent_core::{Input, Output};
    let mut world = AgentWorld::build(config, spec)?;
    let mut core = AgentCore::new(spec, rcfg, chaos.cloned());
    let key = u64::from(spec.hosts.start);
    let (mut fresh, mut link, mut last_err) = (None, None::<Link<R, W>>, None);
    let mut next = Some(core.start());
    loop {
        let (kept, input) = match (next.take(), link.take()) {
            (Some(Output::Connect { after }), _) => match connect(after) {
                Ok(halves) => {
                    fresh = Some(halves);
                    (None, Input::Connected)
                }
                Err(e) => {
                    last_err = Some(e);
                    (None, Input::ConnectFailed)
                }
            },
            (Some(Output::Hello { frames }), _) => {
                let Some((reader, writer)) = fresh.take() else {
                    return Err(other("Hello without a connection"));
                };
                let chaos = ChaosWriter::new(BufWriter::new(writer), None, key, frames);
                let writer = FrameWriter::new(chaos);
                let hello = WireFrame::Hello {
                    version: WIRE_VERSION,
                    flags,
                    host_lo: spec.hosts.start,
                    host_hi: spec.hosts.end,
                };
                let own = spec.start_epoch as u64;
                Link { reader, writer }.send(Some(&hello), own, &mut last_err)
            }
            (Some(Output::Emit { epoch, start, plan }), Some(mut link)) => {
                world.position(epoch, start)?;
                link.writer.get_mut().set_plan(plan);
                match world.emit(epoch, &mut link.writer, &mut core.stats) {
                    Ok(()) => link.send(None, epoch as u64 + 1, &mut last_err),
                    Err(e) => (None, link.lost(e, &mut last_err)),
                }
            }
            // Only a shell that reads ticks, so only it heartbeats.
            (Some(Output::Heartbeat), Some(link)) => {
                link.send(Some(&WireFrame::Heartbeat), 0, &mut last_err)
            }
            (Some(Output::Hangup), Some(link)) => {
                let timeout = io::ErrorKind::TimedOut;
                let e = io::Error::new(timeout, "no ResumeAt within the ack timeout");
                (None, link.lost(e, &mut last_err))
            }
            (Some(Output::Done), _) => return Ok(core.stats),
            (Some(Output::GiveUp { attempts }), _) => {
                return Err(last_err.unwrap_or_else(|| {
                    other(format!("gave up after {attempts} reconnect attempts"))
                }))
            }
            (Some(Output::Unsettled { epoch }), _) => {
                let last = last_err.map_or(String::new(), |e| format!(" ({e})"));
                let n = agent_core::MAX_EPOCH_SENDS;
                let why = format!("gave up on epoch {epoch}: sent {n} times, never acked{last}");
                return Err(other(why));
            }
            // Nothing to do: keep waiting for the answer.
            (None, Some(link)) => link.send(None, 0, &mut last_err),
            (output, None) => return Err(other(format!("{output:?} without a connection"))),
        };
        link = kept;
        next = core.step(input);
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

fn write_snapshot(path: &PathBuf, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// The collector's tally: a [`StreamSession`] over an empty host range
/// (evidence admission happened on the agents, so its fleet only draws
/// each epoch again for the ground truth and the rows scoring consults),
/// whose intake the core's forwarded events go into, and the scored
/// windows. A window closes exactly as in process, in the same function.
struct Tally {
    session: StreamSession,
    scratch: EpochScratch,
    scored: Vec<EpochReport>,
}

impl Tally {
    /// A fresh tally, or a predecessor's restored from its snapshot,
    /// with the first window it serves. A snapshot that does not fit
    /// this run's fabric or ledger shape, or whose scored reports or
    /// ledger stand at another window than its `epochs_done`, is an
    /// `InvalidInput` error naming the field.
    fn open(
        config: &ExperimentConfig,
        topo: &ClosTopology,
        snap: Option<CollectorSnapshot>,
    ) -> io::Result<(Self, usize)> {
        let (num_links, ring, alpha) = (topo.num_links(), LEDGER_RING_WINDOWS, LEDGER_HEALTH_ALPHA);
        let (ledger, start, scored) = match snap {
            Some(s) => {
                let ledger = VoteLedger::restore(num_links, config.run.alg1, ring, alpha, s.ledger)
                    .map_err(|e| invalid(format!("snapshot does not fit this run: {e}")))?;
                let done = s.epochs_done;
                let covers = [
                    ("epochs", s.epochs.len()),
                    ("ledger.epoch", ledger.epoch() as usize),
                ];
                if let Some((field, n)) = covers.into_iter().find(|&(_, n)| n != done) {
                    let why = format!("`{field}` covers {n} window(s), `epochs_done` {done}");
                    return Err(invalid(format!("snapshot contradicts itself: {why}")));
                }
                (ledger, done, s.epochs)
            }
            None => (fresh_ledger(num_links, &config.run), 0, Vec::new()),
        };
        let tally = Self {
            session: StreamSession::collector(topo, &config.run, ledger),
            scratch: EpochScratch::new(),
            scored,
        };
        Ok((tally, start))
    }
}

/// The window loop's half of the shell: the core, the channel it reads
/// and every admitted connection's I/O. What the core forwards goes into
/// the intake each call is handed.
struct Shell {
    core: CollectorCore,
    rx: Receiver<Inbound>,
    conns: HashMap<usize, Box<ConnIo>>,
    /// The core's output buffer, reused so `step` allocates nothing.
    out: Vec<Output>,
    /// The core reported the open window complete; inputs wait in the
    /// channel until the ack.
    complete: bool,
}

impl Shell {
    /// Steps the core on one input and carries out what it asks.
    fn feed(&mut self, Inbound(input, io): Inbound, intake: &mut Intake) -> io::Result<()> {
        if let (Input::Open { conn, .. }, Some(io)) = (&input, io) {
            self.conns.insert(*conn, io);
        }
        self.core.step(input, &mut self.out);
        self.apply(intake)
    }

    /// Carries out the core's outputs, in order.
    fn apply(&mut self, intake: &mut Intake) -> io::Result<()> {
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
                Output::Absorb(event) => intake.absorb(event),
                Output::WindowComplete => self.complete = true,
                Output::Abort(why) => return Err(other(why)),
                Output::Log(line) => eprintln!("collect: {line}"),
            }
        }
        Ok(())
    }

    /// Acks the closed window into the next one.
    fn ack(&mut self, intake: &mut Intake) -> io::Result<()> {
        self.core.ack(&mut self.out);
        self.complete = false;
        self.apply(intake)
    }

    /// Feeds the core, and `intake` what it forwards, until the core
    /// reports the open window complete. Without `block` it stops once
    /// the channel is empty (between the tally's chunks); with it, an
    /// empty channel is waited on until input arrives or the core's next
    /// deadline, when it gets a tick.
    fn pump(&mut self, intake: &mut Intake, block: bool) -> io::Result<()> {
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
                            self.apply(intake)?;
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(other("collector input channel closed"));
                        }
                    }
                }
            };
            self.feed(inbound, intake)?;
        }
        Ok(())
    }
}

/// Loads a predecessor's snapshot when resuming.
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
    parse_snapshot(config, ccfg, &std::fs::read_to_string(path)?).map(Some)
}

/// Parses a snapshot's bytes, refusing one from another seed or one that
/// already covers the whole run.
fn parse_snapshot(
    config: &ExperimentConfig,
    ccfg: &CollectorConfig,
    text: &str,
) -> io::Result<CollectorSnapshot> {
    let snap: CollectorSnapshot =
        serde_json::from_str(text).map_err(|e| other(format!("invalid snapshot: {e}")))?;
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
    Ok(snap)
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
    let trial = config.trial(0).map_err(invalid)?;
    let topo = &trial.topo;
    let num_hosts = u32::try_from(topo.num_hosts()).map_err(invalid)?;
    let (mut tally, start) = Tally::open(config, topo, snap)?;
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
            trial: &trial,
            metrics: metrics.as_deref(),
        };
        let result = windows.serve(&mut shell, &mut tally, start, started);
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
    trial: &'a Trial,
    metrics: Option<&'a Mutex<MetricsState>>,
}

impl Windows<'_> {
    /// One window, `w`: the tally's session runs it while `pump` feeds
    /// the core, and the intake what it forwards, between the epoch's
    /// chunks and through the barrier (see
    /// [`StreamSession::run_window_with`]); then the window is scored into
    /// the tally, and the snapshot that covers it rendered when `snapshot`
    /// asks. Returns the evidence scored and that snapshot. The threaded
    /// window loop and the fleet simulation both close windows here.
    fn close(
        &self,
        tally: &mut Tally,
        w: usize,
        pump: impl FnMut(&mut Intake, bool) -> io::Result<()>,
        snapshot: bool,
    ) -> io::Result<(usize, Option<String>)> {
        let trial = self.trial;
        let run = tally.session.run_window_with(
            &trial.topo,
            &self.config.run,
            &trial.faults(w),
            &mut trial.epoch_rng(w),
            &mut tally.scratch,
            pump,
        )?;
        tally.scored.push(evaluate_epoch(&run));
        let snapshot = if snapshot {
            let snap = CollectorSnapshot {
                seed: self.config.seed,
                epochs_done: w + 1,
                ledger: tally.session.ledger().snapshot(),
                epochs: tally.scored.clone(),
            };
            Some(serde_json::to_string_pretty(&snap).map_err(other)?)
        } else {
            None
        };
        Ok((run.evidence.len(), snapshot))
    }

    /// The final report: the same fold as the in-process trial loop.
    fn report(&self, scored: Vec<EpochReport>, wall_ms: f64) -> ExperimentReport {
        let mut acc = TrialAccumulator::new(self.ccfg.epochs);
        for er in scored {
            acc.absorb(er);
        }
        let mut report = ExperimentReport::empty(self.config);
        report.merge_trial(acc.finish(&self.config.run, 0, wall_ms));
        report
    }

    /// The window loop from window `start` on: close each window, then
    /// log, publish, snapshot and ack — or pause unacked when
    /// `exit_after` trips.
    fn serve(
        &self,
        shell: &mut Shell,
        tally: &mut Tally,
        start: usize,
        started: Instant,
    ) -> io::Result<CollectorOutcome> {
        let ccfg = self.ccfg;
        let mut prev = shell.core.stats().clone();
        for w in start..ccfg.epochs {
            let path = ccfg.snapshot_path.as_ref();
            let pump = |intake: &mut Intake, block| shell.pump(intake, block);
            let (evidence, snapshot) = self.close(tally, w, pump, path.is_some())?;
            let stats = shell.core.stats().clone();
            eprintln!(
                "collect: window {w}: {} evidence, delivered {}, shed {}, gaps {}, \
                 resets {}, rate-limited {}, reconnects {}, quarantined {}, \
                 evicted {}, malformed {}, agents {}/{}",
                evidence,
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
                self.publish(state, shell, tally, w, &prev, &stats);
            }
            if let (Some(path), Some(text)) = (path, &snapshot) {
                write_snapshot(path, text)?;
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
            shell.ack(&mut tally.session.intake)?;
        }
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let report = self.report(std::mem::take(&mut tally.scored), wall_ms);
        Ok(CollectorOutcome::Completed(Box::new(report), prev))
    }

    /// Publishes window `w` to the metrics endpoint.
    fn publish(
        &self,
        state: &Mutex<MetricsState>,
        shell: &Shell,
        tally: &Tally,
        w: usize,
        prev: &CollectorStats,
        stats: &CollectorStats,
    ) {
        let heat = tally
            .session
            .ledger()
            .health()
            .heat_map()
            .into_iter()
            .take(8);
        let detected = tally.scored.last().map(|er| &er.detected);
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
            detected: detected.into_iter().flatten().map(|l| l.0).collect(),
            heat: heat.map(|(l, s)| (l.0, s)).collect(),
        };
        let mut m = state.lock().unwrap_or_else(PoisonError::into_inner);
        m.totals = stats.clone();
        m.windows.push(window);
        let excess = m.windows.len().saturating_sub(METRICS_RING);
        m.windows.drain(..excess);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{stream_trial, StreamTuning};
    use vigil_agents::TraceReport;
    use vigil_analysis::FlowEvidence;
    use vigil_fabric::faults::{FaultPlan, RateRange};
    use vigil_fabric::traffic::{ConnCount, TrafficSpec};
    use vigil_topology::{ClosParams, HostId};

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

    /// Resilient agents outlive a collector that pauses after two windows
    /// and a successor that resumes from its snapshot on the same socket.
    /// The successor answers their Hello with `ResumeAt(2)`, which settles
    /// epoch 1 too: each agent must count all three epochs as settled.
    #[cfg(unix)]
    #[test]
    fn resilient_agents_count_every_epoch_across_a_failover() {
        let cfg = tiny_config();
        let hosts = num_hosts(&cfg);
        let dir = std::env::temp_dir().join(format!("vigil-settle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (sock, snap) = (dir.join("collector.sock"), dir.join("snapshot.json"));
        let endpoint = Endpoint::Unix(sock.clone());
        let rcfg = ResilienceConfig {
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
            ack_timeout: Duration::from_secs(5),
            read_tick: Duration::from_millis(25),
            ..ResilienceConfig::default()
        };
        let listener = endpoint.bind().unwrap();
        let agents: Vec<_> = [0..hosts / 2, hosts / 2..hosts]
            .into_iter()
            .map(|hosts| {
                let (cfg, endpoint, rcfg) = (cfg.clone(), endpoint.clone(), rcfg.clone());
                std::thread::spawn(move || {
                    let spec = AgentSpec {
                        hosts,
                        start_epoch: 0,
                        epochs: cfg.epochs,
                        chunk_flows: 128,
                    };
                    run_agent_resilient(&cfg, &spec, &endpoint, &rcfg, None)
                })
            })
            .collect();
        let ccfg = CollectorConfig {
            agents: 2,
            epochs: cfg.epochs,
            snapshot_path: Some(snap.clone()),
            exit_after: Some(2),
            ..CollectorConfig::default()
        };
        let paused = run_collector(&cfg, &listener, &ccfg).unwrap();
        assert!(matches!(paused, CollectorOutcome::Paused(_)));
        drop(listener);
        let listener = endpoint.bind().unwrap();
        let resume = CollectorConfig {
            resume: true,
            exit_after: None,
            ..ccfg
        };
        let CollectorOutcome::Completed(report, _) =
            run_collector(&cfg, &listener, &resume).unwrap()
        else {
            panic!("the successor completes the run");
        };
        for agent in agents {
            let stats = agent.join().unwrap().expect("agent outlives the failover");
            assert_eq!(
                stats.epochs, cfg.epochs,
                "every epoch was settled: {stats:?}"
            );
        }
        assert_eq!(
            serde_json::to_string_pretty(&*report).unwrap(),
            expected_report(&cfg)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The daemon's non-test code returns errors instead of panicking:
    /// no `unwrap` or `expect` in the collector, the agent, their cores,
    /// or the wire codec they parse untrusted bytes with.
    #[test]
    fn daemon_sources_hold_no_unwrap_or_expect() {
        let sources = [
            ("distributed.rs", include_str!("distributed.rs")),
            (
                "collector_core.rs",
                include_str!("distributed/collector_core.rs"),
            ),
            ("agent_core.rs", include_str!("distributed/agent_core.rs")),
            ("wire/src/lib.rs", include_str!("../../wire/src/lib.rs")),
        ];
        for (name, text) in sources {
            let code = text.split("#[cfg(test)]\nmod tests").next().unwrap_or(text);
            for (n, line) in code.lines().enumerate() {
                let banned = [".unwrap()", ".expect("].iter().any(|b| line.contains(b));
                assert!(!banned, "{name}:{}: {}", n + 1, line.trim());
            }
        }
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

    /// A plain agent restarted with `--start-epoch` mid-window sends the
    /// same `(host, tuple)` evidence again under another sequence number.
    /// The core forwards both copies; the window closes with one report,
    /// the last one, parallel to the ledger's one evidence row.
    #[test]
    fn a_key_sent_twice_in_one_window_closes_with_its_last_report() {
        let mut core = test_core(&CollectorConfig::default());
        let report = |retransmissions| TraceReport {
            host: HostId(3),
            tuple: vigil_packet::FiveTuple::tcp(
                "10.0.0.3".parse().unwrap(),
                9,
                "10.0.0.9".parse().unwrap(),
                80,
            ),
            retransmissions,
            links: vec![vigil_topology::LinkId(5), vigil_topology::LinkId(9)],
            complete: true,
        };
        let evidence = |seq, retransmissions| {
            let report = report(retransmissions);
            WireFrame::Event(AgentEvent::Evidence { seq, report })
        };
        let out = run(
            &mut core,
            [
                hello(0, 0),
                frame(0, evidence(1, 2)),
                closed(0),
                hello(1, 0),
                frame(1, evidence(4, 7)),
                frame(1, barrier(0, 1)),
            ],
        );
        assert_eq!(absorbed(&out), [(3, 1), (3, 4)]);
        assert_eq!(out.last(), Some(&Output::WindowComplete));

        let run_cfg = RunConfig::default();
        let mut intake = Intake::new(fresh_ledger(64, &run_cfg));
        for output in out {
            if let Output::Absorb(event) = output {
                intake.absorb(event);
            }
        }
        let ground_truth = vigil_fabric::flowsim::GroundTruth {
            drops_per_link: vec![0; 64],
            failed_links: Default::default(),
        };
        let outcome = vigil_fabric::flowsim::EpochOutcome {
            flows: Vec::new(),
            ground_truth,
        };
        let closed = intake.close(outcome, &run_cfg);
        assert_eq!(closed.reports, [report(7)]);
        assert_eq!(closed.evidence.len(), 1);
        assert_eq!(closed.evidence[0].retransmissions, 7);
        assert_eq!(closed.evidence[0].links, report(7).links);
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

    /// `--resume` with a snapshot from a larger fabric under the same
    /// seed (written by `collect single-failure`, read by `collect
    /// test-cluster`) is refused before any agent is admitted, with an
    /// `InvalidInput` error naming the mismatch.
    #[test]
    fn resume_refuses_a_snapshot_from_another_fabric() {
        let preset = |name| crate::scenarios::preset(name).expect("preset");
        let (large, mut small) = (preset("single-failure"), preset("test-cluster"));
        small.seed = large.seed;
        let links = |cfg: &ExperimentConfig| {
            ClosTopology::new(cfg.params, 0)
                .expect("preset fabric")
                .num_links()
        };
        assert!(links(&large) > links(&small));
        let snap = CollectorSnapshot {
            seed: large.seed,
            epochs_done: 1,
            ledger: fresh_ledger(links(&large), &large.run).snapshot(),
            epochs: Vec::new(),
        };
        let path = std::env::temp_dir().join(format!(
            "vigil-foreign-snapshot-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, serde_json::to_string(&snap).unwrap()).unwrap();
        let listener = Listener::Tcp(TcpListener::bind("127.0.0.1:0").unwrap());
        let ccfg = CollectorConfig {
            agents: 1,
            epochs: 3,
            snapshot_path: Some(path.clone()),
            resume: true,
            ..CollectorConfig::default()
        };
        let err = run_collector(&small, &listener, &ccfg).expect_err("foreign snapshot");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        assert!(
            msg.contains("does not fit") && msg.contains("links"),
            "{msg}"
        );
    }

    /// A resumed snapshot of this fabric that contradicts itself — two
    /// windows done but one scored report, or a ledger standing at
    /// another window — is refused as it is read back (the step
    /// `run_collector` takes before admitting any agent), with an
    /// `InvalidInput` error naming the field.
    #[test]
    fn resume_refuses_a_snapshot_that_contradicts_itself() {
        let cfg = tiny_config();
        let (trial, _) = stream_trial(&cfg, 0, &StreamTuning::default());
        let topo = ClosTopology::new(cfg.params, 0).unwrap();
        let ledger_at = |epoch: u64| {
            let mut snap = fresh_ledger(topo.num_links(), &cfg.run).snapshot();
            snap.epoch = epoch;
            snap
        };
        let short = CollectorSnapshot {
            seed: cfg.seed,
            epochs_done: 2,
            ledger: ledger_at(2),
            epochs: trial.epochs[..1].to_vec(),
        };
        let behind = CollectorSnapshot {
            ledger: ledger_at(1),
            epochs: trial.epochs[..2].to_vec(),
            ..short.clone()
        };
        let ccfg = CollectorConfig {
            epochs: cfg.epochs,
            ..CollectorConfig::default()
        };
        for (snap, field) in [(short, "`epochs`"), (behind, "`ledger.epoch`")] {
            let text = serde_json::to_string(&snap).unwrap();
            let snap = parse_snapshot(&cfg, &ccfg, &text).expect("same seed, epochs left");
            let Err(err) = Tally::open(&cfg, &topo, Some(snap)) else {
                panic!("a snapshot whose {field} contradicts `epochs_done` resumed");
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{field}");
            let msg = err.to_string();
            assert!(
                msg.contains(field) && msg.contains("`epochs_done` 2"),
                "{msg}"
            );
        }
    }

    /// Pins the metrics endpoint's field names — both the JSON keys and
    /// the plain-text counter lines — so dashboards don't silently break.
    #[test]
    fn metrics_renders_pin_their_field_names() {
        let totals = CollectorStats {
            windows: 2,
            reconnects: 3,
            quarantined_frames: 5,
            hosts_evicted: 7,
            malformed: 9,
            ..CollectorStats::default()
        };
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
