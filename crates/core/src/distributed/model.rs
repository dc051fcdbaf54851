//! Model-based checks of both protocol cores: [`AgentCore`]s drive
//! [`CollectorCore`] through random and exhaustive schedules of
//! deliveries and faults — no sockets, no threads, no sleeps — and every
//! window is checked against what the agents actually sent.
//!
//! Each agent is the real agent core over a model world: on its `Emit`
//! it writes epoch `e`'s events and barrier, which are a pure function
//! of `(host, e)`, so a replay is byte-identical by construction. The
//! harness plays both shells: it connects (or refuses the attempt) when
//! an agent core asks, hands every `ResumeAt` straight to the agent
//! core, reports lost connections to both sides, and plays the
//! collector's readers — one per connection, parking after a Hello or a
//! barrier until the collector core unparks it — and its window loop,
//! which closes and acks a window the moment the core reports it
//! complete. The checks:
//!
//! - a window absorbs only events of its own epoch — nothing of epoch
//!   `w+1` reaches window `w` — and each `(host, seq)` at most once;
//! - at close it has absorbed every event of its epoch from every range
//!   that was not evicted;
//! - a core, fresh or restarted, answers a Hello with `ResumeAt` at the
//!   first unclosed window;
//! - once the faults stop, fair delivery completes the run.

use super::agent_core::{self, AgentCore};
use super::collector_core::{CollectorCore, Input, Output};
use super::{AgentSpec, CollectorConfig, ResilienceConfig};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::time::{Duration, Instant};
use vigil_agents::AgentEvent;
use vigil_topology::HostId;
use vigil_wire::{WireFrame, HELLO_RESILIENT, WIRE_VERSION};

const GRACE: Duration = Duration::from_secs(30);
const ACK_TIMEOUT: Duration = Duration::from_secs(15);

/// The size of one modelled run.
#[derive(Debug, Clone, Copy)]
struct Scope {
    agents: u32,
    hosts_per_agent: u32,
    epochs: u64,
}

/// Events `host` emits in `epoch`: 0, 1 or 2, so some epochs are empty
/// and some can lose one event of two.
fn events(host: u32, epoch: u64) -> u64 {
    (u64::from(host) + 2 * epoch) % 3
}

/// The sequence number of `host`'s first event in `epoch`.
fn first_seq(host: u32, epoch: u64) -> u64 {
    (0..epoch).map(|e| events(host, e)).sum()
}

impl Scope {
    fn hosts(&self, agent: usize) -> Range<u32> {
        let lo = agent as u32 * self.hosts_per_agent;
        lo..lo + self.hosts_per_agent
    }

    fn epoch_of(&self, host: u32, seq: u64) -> Option<u64> {
        (0..self.epochs).find(|&e| (first_seq(host, e)..first_seq(host, e + 1)).contains(&seq))
    }

    /// The frame `sent` stands for on agent `agent`'s wire.
    fn frame(&self, agent: usize, sent: Sent) -> WireFrame {
        let hosts = self.hosts(agent);
        match sent {
            Sent::Hello => WireFrame::Hello {
                version: WIRE_VERSION,
                flags: HELLO_RESILIENT,
                host_lo: hosts.start,
                host_hi: hosts.end,
            },
            Sent::Epoch(epoch, k) => self.epoch_frames(agent, epoch).swap_remove(k),
        }
    }

    /// What agent `agent` writes for `epoch`: its events, then the barrier.
    fn epoch_frames(&self, agent: usize, epoch: u64) -> Vec<WireFrame> {
        let mut frames: Vec<WireFrame> = (self.hosts(agent))
            .flat_map(|h| (0..events(h, epoch)).map(move |k| (h, first_seq(h, epoch) + k)))
            .map(|(h, seq)| {
                WireFrame::Event(AgentEvent::Drain {
                    host: HostId(h),
                    seq,
                })
            })
            .collect();
        let events = frames.len() as u64;
        frames.push(WireFrame::EpochDone { epoch, events });
        frames
    }

    /// Agent `agent`'s core: every epoch of the run, and few enough
    /// reconnects that an agent refused for good gives up soon.
    fn agent_core(&self, agent: usize) -> AgentCore {
        let spec = AgentSpec {
            hosts: self.hosts(agent),
            start_epoch: 0,
            epochs: self.epochs as usize,
            chunk_flows: 1,
        };
        let rcfg = ResilienceConfig {
            max_reconnects: 4,
            ack_timeout: ACK_TIMEOUT,
            ..ResilienceConfig::default()
        };
        AgentCore::new(&spec, &rcfg, None)
    }
}

/// One frame on a model wire, by name: the Hello, or frame `k` of an
/// epoch's [`Scope::epoch_frames`].
#[derive(Debug, Clone, Copy, Hash)]
enum Sent {
    Hello,
    Epoch(u64, usize),
}

/// One schedule step.
#[derive(Debug, Clone, Copy)]
enum Act {
    /// Agent `i` connects, or its reader reads one frame.
    Deliver(usize),
    /// The reader quarantines the next frame as corrupt.
    Drop(usize),
    /// The wire duplicates the next frame.
    Dup(usize),
    /// The connection dies; its reader reports the close at once.
    Reset(usize),
    /// The connection dies unnoticed; its reader reports the close only
    /// after the agent's reconnect replaced it.
    Reattach(usize),
    /// Agent `i`'s next connect attempt is refused (a partition).
    Refuse(usize),
    /// The collector restarts from its last closed window.
    Restart,
    /// Reconnect grace runs out for every range without a connection.
    Tick,
}

impl Act {
    fn is_fault(self) -> bool {
        !matches!(self, Act::Deliver(_))
    }
}

#[derive(Debug, Clone, Hash)]
struct Conn {
    id: usize,
    /// Frames written and not yet read by the collector.
    wire: VecDeque<Sent>,
    /// The reader forwarded the Hello.
    greeted: bool,
    parked: bool,
    quarantined: u64,
}

#[derive(Debug, Clone)]
struct Agent {
    core: AgentCore,
    conn: Option<Conn>,
    /// The core asked to connect.
    connecting: bool,
    /// A connection that died unnoticed; closed after the reattach.
    lingering: Option<usize>,
    /// The core gave up; a supervisor restarts the agent once time has
    /// to move the run on, or with the collector.
    gave_up: bool,
}

impl Agent {
    /// A fresh agent process for `scope`'s `i`th range, about to connect.
    fn new(scope: &Scope, i: usize) -> Self {
        let mut core = scope.agent_core(i);
        let connecting = matches!(core.start(), agent_core::Output::Connect { .. });
        Agent {
            core,
            conn: None,
            connecting,
            lingering: None,
            gave_up: false,
        }
    }

    fn hash_state(&self, h: &mut impl Hasher) {
        self.core.hash_state(h);
        (&self.conn, self.connecting, self.lingering, self.gave_up).hash(h);
    }
}

#[derive(Debug, Clone)]
struct World {
    scope: Scope,
    ccfg: CollectorConfig,
    core: CollectorCore,
    now: Instant,
    next_conn: usize,
    agents: Vec<Agent>,
    /// Windows closed so far (the snapshot a restart resumes from).
    closed: u64,
    /// What the open window absorbed.
    open: BTreeSet<(u32, u64)>,
    over: bool,
}

impl World {
    fn new(scope: Scope, now: Instant) -> Self {
        let ccfg = CollectorConfig {
            agents: scope.agents as usize,
            epochs: scope.epochs as usize,
            reconnect_grace: GRACE,
            ..CollectorConfig::default()
        };
        let agents = (0..scope.agents as usize).map(|i| Agent::new(&scope, i));
        World {
            core: Self::collector(&ccfg, &scope, 0, now),
            scope,
            ccfg,
            now,
            next_conn: 0,
            agents: agents.collect(),
            closed: 0,
            open: BTreeSet::new(),
            over: false,
        }
    }

    fn collector(
        ccfg: &CollectorConfig,
        scope: &Scope,
        window: u64,
        now: Instant,
    ) -> CollectorCore {
        CollectorCore::new(ccfg, scope.agents * scope.hosts_per_agent, 64, window, now)
    }

    /// Applies `act`; false when it does not apply here.
    fn apply(&mut self, act: Act) -> Result<bool, String> {
        if self.over {
            return Ok(false);
        }
        let readable = |c: &Conn| c.greeted && !c.parked && !c.wire.is_empty();
        match act {
            Act::Deliver(i) => self.deliver(i),
            Act::Drop(i) => match self.agents[i].conn.as_mut().filter(|c| readable(c)) {
                Some(c) => {
                    c.wire.pop_front();
                    c.quarantined += 1;
                    Ok(true)
                }
                None => Ok(false),
            },
            Act::Dup(i) => match self.agents[i].conn.as_mut().filter(|c| c.greeted) {
                Some(c) => match c.wire.front().cloned() {
                    Some(f) => {
                        c.wire.push_front(f);
                        Ok(true)
                    }
                    None => Ok(false),
                },
                None => Ok(false),
            },
            Act::Reset(i) => match self.agents[i].conn.take() {
                Some(c) => {
                    if c.greeted {
                        let quarantined = c.quarantined;
                        let error = Some("reset".into());
                        self.step(Input::Closed {
                            conn: c.id,
                            error,
                            quarantined,
                        })?;
                    }
                    self.lose(i)?;
                    Ok(true)
                }
                None => Ok(false),
            },
            Act::Reattach(i) => match self.agents[i].conn.take() {
                Some(c) if c.greeted && self.agents[i].lingering.is_none() => {
                    self.agents[i].lingering = Some(c.id);
                    self.lose(i)?;
                    Ok(true)
                }
                c => {
                    self.agents[i].conn = c;
                    Ok(false)
                }
            },
            Act::Refuse(i) if self.agents[i].connecting => {
                self.agents[i].connecting = false;
                self.agent_step(i, agent_core::Input::ConnectFailed)
            }
            Act::Refuse(_) => Ok(false),
            Act::Restart => {
                self.core = Self::collector(&self.ccfg, &self.scope, self.closed, self.now);
                self.open.clear();
                for i in 0..self.agents.len() {
                    self.agents[i].lingering = None;
                    if self.agents[i].gave_up {
                        self.agents[i] = Agent::new(&self.scope, i);
                    } else if self.agents[i].conn.take().is_some() {
                        self.lose(i)?;
                    }
                }
                Ok(true)
            }
            Act::Tick => {
                // One tick starts the grace of every orphan, the next one
                // a grace later ends it.
                let mut out = Vec::new();
                self.core.step(Input::Tick(self.now), &mut out);
                self.now += GRACE;
                self.core.step(Input::Tick(self.now), &mut out);
                let moved = !out.is_empty();
                self.carry_out(out, None)?;
                Ok(moved)
            }
        }
    }

    /// Agent `i` connects, or its reader reads and forwards a frame.
    fn deliver(&mut self, i: usize) -> Result<bool, String> {
        let agent = &mut self.agents[i];
        if agent.connecting {
            agent.connecting = false;
            self.agent_step(i, agent_core::Input::Connected)?;
            return Ok(true);
        }
        let Some(c) = agent.conn.as_mut() else {
            return Ok(false);
        };
        if c.parked {
            return Ok(false);
        }
        let Some(sent) = c.wire.pop_front() else {
            return Ok(false);
        };
        let frame = self.scope.frame(i, sent);
        c.parked = matches!(frame, WireFrame::Hello { .. } | WireFrame::EpochDone { .. });
        let (conn, quarantined) = (c.id, c.quarantined);
        if c.greeted {
            self.step(Input::Frame {
                conn,
                frame,
                quarantined,
            })?;
            return Ok(true);
        }
        c.greeted = true;
        self.step(Input::Open { conn, frame })?;
        if let Some(old) = self.agents[i].lingering.take() {
            let error = Some("reset".into());
            self.step(Input::Closed {
                conn: old,
                error,
                quarantined: 0,
            })?;
        }
        Ok(true)
    }

    /// Agent `i`'s connection is gone: its core hears of it.
    fn lose(&mut self, i: usize) -> Result<(), String> {
        let lost = agent_core::Input::Lost {
            reset: None,
            frames: 0,
        };
        self.agent_step(i, lost).map(drop)
    }

    /// Steps agent `i`'s core and plays its shell; false when the core
    /// had nothing to do.
    fn agent_step(&mut self, i: usize, input: agent_core::Input) -> Result<bool, String> {
        let agent = &mut self.agents[i];
        let output = agent.core.step(input);
        let moved = output.is_some();
        match output {
            Some(agent_core::Output::Connect { .. }) => agent.connecting = true,
            Some(agent_core::Output::Hello { .. }) => {
                agent.conn = Some(Conn {
                    id: self.next_conn,
                    wire: VecDeque::from([Sent::Hello]),
                    greeted: false,
                    parked: false,
                    quarantined: 0,
                });
                self.next_conn += 1;
            }
            Some(agent_core::Output::Emit { epoch, .. }) => {
                let Some(c) = agent.conn.as_mut() else {
                    return Err(format!("agent {i} emitted {epoch} without a connection"));
                };
                let frames = self.scope.epoch_frames(i, epoch as u64).len();
                let epoch = epoch as u64;
                c.wire.extend((0..frames).map(|k| Sent::Epoch(epoch, k)));
            }
            Some(agent_core::Output::Hangup) => {
                if let Some(c) = agent.conn.take() {
                    let quarantined = c.quarantined;
                    let error = Some("ack timeout".into());
                    self.step(Input::Closed {
                        conn: c.id,
                        error,
                        quarantined,
                    })?;
                }
                self.lose(i)?;
            }
            Some(agent_core::Output::GiveUp { .. } | agent_core::Output::Unsettled { .. }) => {
                agent.gave_up = true
            }
            // Heartbeats only keep a real reader's idle timeout at bay.
            Some(agent_core::Output::Heartbeat | agent_core::Output::Done) | None => {}
        }
        Ok(moved)
    }

    fn step(&mut self, input: Input) -> Result<(), String> {
        let hello = match input {
            Input::Open { conn, .. } => Some(conn),
            _ => None,
        };
        let mut out = Vec::new();
        self.core.step(input, &mut out);
        self.carry_out(out, hello)
    }

    fn agent_of(&self, conn: usize) -> Option<usize> {
        (self.agents.iter()).position(|a| a.conn.as_ref().is_some_and(|c| c.id == conn))
    }

    /// Plays the collector's shell for `out`; `hello` is the connection
    /// whose Hello produced it, if any.
    fn carry_out(&mut self, out: Vec<Output>, hello: Option<usize>) -> Result<(), String> {
        for output in out {
            match output {
                Output::Unpark { conn, resume } => {
                    if hello == Some(conn) && resume != Some(self.closed) {
                        return Err(format!(
                            "Hello answered with {resume:?}; first unclosed window is {}",
                            self.closed
                        ));
                    }
                    let Some(i) = self.agent_of(conn) else {
                        continue;
                    };
                    let Some(c) = self.agents[i].conn.as_mut() else {
                        continue;
                    };
                    // The reader writes the ResumeAt, and the agent core
                    // answers it.
                    c.parked = false;
                    if let Some(epoch) = resume {
                        self.agent_step(i, agent_core::Input::ResumeAt(epoch))?;
                    }
                }
                Output::Drop(conn) => {
                    if let Some(i) = self.agent_of(conn) {
                        self.agents[i].conn = None;
                        self.lose(i)?;
                    }
                }
                Output::Absorb(event) => self.absorb(event.host().0, event.seq())?,
                Output::WindowComplete => self.close()?,
                Output::Abort(why) => {
                    let n = self.agents.len();
                    if !(0..n).all(|i| self.core.evicted(&self.scope.hosts(i))) {
                        return Err(format!("aborted with a range still live: {why}"));
                    }
                    self.over = true;
                }
                Output::Log(_) => {}
            }
        }
        Ok(())
    }

    fn absorb(&mut self, host: u32, seq: u64) -> Result<(), String> {
        let w = self.closed;
        match self.scope.epoch_of(host, seq) {
            Some(e) if e == w => {}
            e => {
                return Err(format!(
                    "window {w} absorbed ({host}, {seq}) of epoch {e:?}"
                ))
            }
        }
        if !self.open.insert((host, seq)) {
            return Err(format!("window {w} absorbed ({host}, {seq}) twice"));
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), String> {
        let w = self.closed;
        for i in 0..self.agents.len() {
            let hosts = self.scope.hosts(i);
            if self.core.evicted(&hosts) {
                continue;
            }
            for h in hosts {
                for seq in first_seq(h, w)..first_seq(h, w + 1) {
                    if !self.open.contains(&(h, seq)) {
                        return Err(format!("window {w} closed without ({h}, {seq})"));
                    }
                }
            }
        }
        self.open.clear();
        self.closed += 1;
        self.over = self.closed == self.scope.epochs;
        let mut out = Vec::new();
        self.core.ack(&mut out);
        self.carry_out(out, None)
    }

    /// Identifies the state for the explorer: everything that decides
    /// what happens next, plus the faults still allowed. (Connection ids
    /// and counters are left out: they only label.)
    fn state_key(&self, faults: u32) -> u64 {
        let mut h = DefaultHasher::new();
        self.core.hash_state(&mut h);
        for agent in &self.agents {
            agent.hash_state(&mut h);
        }
        (faults, self.now, self.closed, self.over, &self.open).hash(&mut h);
        h.finish()
    }

    /// What time does once nothing can be delivered: every waiting
    /// agent's ack timeout fires (it hangs up and reconnects), agents
    /// that gave up are restarted, else reconnect grace runs out. False
    /// when even that moves nothing — a stall.
    fn time_out(&mut self) -> Result<bool, String> {
        let mut moved = false;
        for i in 0..self.agents.len() {
            let (now, late) = (self.now, self.now + ACK_TIMEOUT);
            self.agent_step(i, agent_core::Input::Tick(now))?;
            moved |= self.agent_step(i, agent_core::Input::Tick(late))?;
        }
        // A supervisor restarts an agent that gave up on a range the
        // collector still waits for.
        for i in 0..self.agents.len() {
            if self.agents[i].gave_up && !self.core.evicted(&self.scope.hosts(i)) {
                self.agents[i] = Agent::new(&self.scope, i);
                moved = true;
            }
        }
        if moved {
            return Ok(true);
        }
        self.apply(Act::Tick)
    }

    /// Fair delivery with no faults until the run is over.
    fn finish(&mut self) -> Result<(), String> {
        while !self.over {
            let mut moved = false;
            for i in 0..self.agents.len() {
                moved |= self.apply(Act::Deliver(i))?;
            }
            if !moved && !self.time_out()? {
                return Err(format!("stalled at window {}: {self:#?}", self.closed));
            }
        }
        Ok(())
    }
}

/// Counts the schedules from `world` with at most `faults` more faults
/// (a schedule ends with the run), checking every step on the way. A
/// state reached again is not expanded again: its count is remembered.
fn explore(
    world: &World,
    faults: u32,
    trail: &mut Vec<Act>,
    seen: &mut HashMap<u64, u64>,
) -> Result<u64, String> {
    if world.over {
        return Ok(1);
    }
    let key = world.state_key(faults);
    if let Some(&count) = seen.get(&key) {
        return Ok(count);
    }
    let n = world.agents.len();
    let mut acts: Vec<Act> = (0..n).map(Act::Deliver).collect();
    if faults > 0 {
        for i in 0..n {
            acts.extend([
                Act::Drop(i),
                Act::Dup(i),
                Act::Reset(i),
                Act::Reattach(i),
                Act::Refuse(i),
            ]);
        }
        acts.extend([Act::Restart, Act::Tick]);
    }
    let mut count = 0;
    for act in acts {
        let mut next = world.clone();
        trail.push(act);
        let applied = next
            .apply(act)
            .map_err(|e| format!("{e}\nschedule: {trail:?}"))?;
        if applied {
            count += explore(&next, faults - u32::from(act.is_fault()), trail, seen)?;
        }
        trail.pop();
    }
    if count == 0 {
        // Nothing can be delivered: time has to move the run on.
        let mut next = world.clone();
        if !next.time_out()? {
            return Err(format!("stalled; schedule: {trail:?}"));
        }
        count = explore(&next, faults, trail, seen)?;
    }
    seen.insert(key, count);
    Ok(count)
}

/// Every schedule of two one-host agents over three epochs with at most
/// two faults: every interleaving of the two connections' frames, with
/// any two of drop, duplicate, reset, unnoticed reset, refused
/// reconnect, collector restart and grace tick at any points.
#[test]
fn every_small_schedule_keeps_every_window_exact() {
    let scope = Scope {
        agents: 2,
        hosts_per_agent: 1,
        epochs: 3,
    };
    let world = World::new(scope, Instant::now());
    let mut seen = HashMap::new();
    let count = explore(&world, 2, &mut Vec::new(), &mut seen).unwrap_or_else(|e| panic!("{e}"));
    // Pinned: a change to what the protocol can reach moves it.
    assert_eq!(
        (count, seen.len()),
        (1_039_737_429, 54_952),
        "schedules, states"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random schedules over up to three agents, two hosts each and four
    /// epochs, with faults at any rate the draw gives, then fair delivery.
    #[test]
    fn random_schedules_keep_every_window_exact(
        agents in 1u32..4,
        hosts_per_agent in 1u32..3,
        epochs in 1u64..5,
        schedule in proptest::collection::vec((0u8..17, 0u8..3), 0..80),
    ) {
        let scope = Scope { agents, hosts_per_agent, epochs };
        let mut world = World::new(scope, Instant::now());
        for (kind, who) in schedule {
            let i = usize::from(who) % agents as usize;
            let act = match kind {
                0..=8 => Act::Deliver(i),
                9 => Act::Drop(i),
                10 => Act::Dup(i),
                11 => Act::Reset(i),
                12 => Act::Reattach(i),
                13 => Act::Refuse(i),
                14 => Act::Restart,
                _ => Act::Tick,
            };
            world.apply(act).map_err(TestCaseError::Fail)?;
        }
        world.finish().map_err(TestCaseError::Fail)?;
    }
}
