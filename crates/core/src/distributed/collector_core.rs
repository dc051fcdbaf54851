//! The collector's protocol as a single-threaded state machine that does
//! no I/O: no socket, no clock read, no channel, no log write. The shell
//! in [`super::run_collector`] feeds it [`Input`]s in arrival order and
//! carries out the [`Output`]s it appends to a caller-owned buffer.
//!
//! Every protocol decision lives here: admission, the foreign/malformed
//! refusal, per-host sequence accounting, the per-range `(host, seq)`
//! dedup set, the per-connection rate cap and quarantine budget, the
//! adjacent duplicate-`EpochDone` rule, the window barrier with its ack
//! or replay request, and reconnect-grace eviction. Time enters only as
//! [`Input::Tick`].

use super::{CollectorConfig, CollectorStats};
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::time::Instant;
use vigil_agents::AgentEvent;
use vigil_topology::MAX_ROUTE_LINKS;
use vigil_wire::{WireFrame, HELLO_RESILIENT, WIRE_VERSION};

/// A forward sequence jump larger than this is not loss any window could
/// have caused: it counts as a reset, like a sequence running backwards,
/// so one hostile number cannot inflate the gap counter.
const MAX_SEQ_JUMP: u64 = 1 << 32;

/// What the shell feeds the core; `conn` is the shell's connection id.
pub(crate) enum Input {
    /// A connection's first frame (it must be a Hello).
    Open { conn: usize, frame: WireFrame },
    /// Any later frame, with the reader's cumulative quarantine count.
    Frame {
        conn: usize,
        frame: WireFrame,
        quarantined: u64,
    },
    /// The connection ended (`error: None` is a clean end of stream).
    Closed {
        conn: usize,
        error: Option<String>,
        quarantined: u64,
    },
    /// The wall clock now. The core's clock is its last tick.
    Tick(Instant),
}

/// What the core asks the shell to do, in order.
#[derive(Debug, PartialEq)]
pub(crate) enum Output {
    /// Write `ResumeAt { epoch }` to the connection when `resume` says so
    /// — the first epoch to (re)send: an ack past the barriered epoch, or
    /// a replay request — then let its parked reader read on.
    Unpark { conn: usize, resume: Option<u64> },
    /// Forget the connection, so its reader exits.
    Drop(usize),
    /// Tally this event in the open window.
    Absorb(AgentEvent),
    /// Every live range barriered the open window: close it, then
    /// [`CollectorCore::ack`].
    WindowComplete,
    /// Every admitted range was evicted; the run cannot complete.
    Abort(String),
    /// A line for the operator's log.
    Log(String),
}

/// One admitted host range. Ranges are permanent (they survive
/// reconnects); connections come and go.
#[derive(Debug, Clone, Default)]
struct RangeState {
    hosts: Range<u32>,
    conn: Option<usize>,
    /// Barriered the open window (the ack waits for window close).
    done: bool,
    /// Poisoned or out of grace: excluded from barriers for good.
    evicted: bool,
    /// When a tick first found the range without a connection: the
    /// origin of its reconnect grace.
    orphaned_at: Option<Instant>,
    reconnects: u64,
    /// The open window's distinct `(host, seq)` pairs, across the
    /// range's connections; cleared only by the ack.
    dedup: HashSet<(u32, u64)>,
}

/// One live connection.
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(Hash))]
struct ConnState {
    range: usize,
    /// Said [`HELLO_RESILIENT`]: reads acks and replays lost windows.
    /// Nothing is written to any other connection (see the flag's docs
    /// for the TCP-reset hazard).
    resilient: bool,
    /// Events forwarded this window (the rate cap's count).
    window_events: u64,
    /// Corrupt frames this window (the quarantine budget's count).
    window_quarantined: u64,
    /// The reader's cumulative quarantine count, as last folded in.
    quarantined: u64,
    /// The previous frame, when it was an `EpochDone { epoch, events }`.
    last_barrier: Option<(u64, u64)>,
}

/// The collector's protocol state (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CollectorCore {
    cfg: CollectorConfig,
    num_hosts: u32,
    num_links: usize,
    /// The open window.
    window: u64,
    /// The last tick.
    now: Instant,
    /// `cfg.agents` ranges were admitted (the start barrier).
    started: bool,
    /// [`Output::WindowComplete`] went out; the ack has not.
    complete: bool,
    ranges: Vec<RangeState>,
    conns: BTreeMap<usize, ConnState>,
    /// Next expected sequence number per host, across connections, so an
    /// agent restart (a new connection re-claiming the same hosts) reads
    /// as a reset rather than a giant backwards gap.
    seq_next: BTreeMap<u32, u64>,
    stats: CollectorStats,
}

impl CollectorCore {
    /// A core for a fabric of `num_hosts` hosts and `num_links` links,
    /// opening at `window` (a resumed run's first unclosed window).
    pub(crate) fn new(
        cfg: &CollectorConfig,
        num_hosts: u32,
        num_links: usize,
        window: u64,
        now: Instant,
    ) -> Self {
        let stats = CollectorStats {
            windows: window,
            ..CollectorStats::default()
        };
        Self {
            cfg: cfg.clone(),
            num_hosts,
            num_links,
            window,
            now,
            started: false,
            complete: false,
            ranges: Vec::new(),
            conns: BTreeMap::new(),
            seq_next: BTreeMap::new(),
            stats,
        }
    }

    pub(crate) fn stats(&self) -> &CollectorStats {
        &self.stats
    }

    /// Host ranges `(start, end)` that barriered the open window, sorted.
    pub(crate) fn coverage(&self) -> Vec<(u32, u32)> {
        let done = self.ranges.iter().filter(|r| r.done);
        let mut covered: Vec<_> = done.map(|r| (r.hosts.start, r.hosts.end)).collect();
        covered.sort_unstable();
        covered
    }

    /// When the core next needs a tick: the earliest end of a running
    /// reconnect grace, or at once for a range whose grace has yet to
    /// start.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        let grace = self.cfg.reconnect_grace;
        let waiting = (self.ranges.iter()).filter(|r| r.conn.is_none() && !r.evicted && !r.done);
        let due = waiting
            .map(|r| r.orphaned_at.map_or(self.now, |t| t + grace))
            .min();
        due.filter(|_| self.started)
    }

    /// True when the range claiming exactly `hosts` was evicted.
    #[cfg(test)]
    pub(crate) fn evicted(&self, hosts: &Range<u32>) -> bool {
        self.ranges.iter().any(|r| r.hosts == *hosts && r.evicted)
    }

    /// What the core holds that could grow with the run: dedup entries
    /// across ranges, ranges, and connections.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> (usize, usize, usize) {
        let dedup = self.ranges.iter().map(|r| r.dedup.len()).sum();
        (dedup, self.ranges.len(), self.conns.len())
    }

    /// Hashes everything that decides the core's future outputs (the
    /// counters do not), so a model checker can tell a state it has
    /// already explored.
    #[cfg(test)]
    pub(crate) fn hash_state(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        (self.window, self.started, self.complete, self.now).hash(h);
        for r in &self.ranges {
            (&r.hosts, r.conn, r.done, r.evicted, r.orphaned_at).hash(h);
            let mut dedup: Vec<_> = r.dedup.iter().collect();
            dedup.sort_unstable();
            dedup.hash(h);
        }
        (&self.conns, &self.seq_next).hash(h);
    }

    /// Takes one input; appends what the shell must do to `out`.
    pub(crate) fn step(&mut self, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Open { conn, frame } => self.open(conn, frame, out),
            Input::Frame {
                conn,
                frame,
                quarantined,
            } => {
                if self.quarantine(conn, quarantined, out) {
                    self.frame(conn, frame, out);
                }
            }
            Input::Closed {
                conn,
                error,
                quarantined,
            } => {
                if self.quarantine(conn, quarantined, out) {
                    self.lose(conn, error, out);
                }
            }
            Input::Tick(now) => self.tick(now, out),
        }
        self.settle(out);
    }

    /// Settles the completed window: acks every live range into the next
    /// one (the ack past the last window tells resilient agents the run
    /// is over) and clears the dedup sets and the per-connection window
    /// counts.
    pub(crate) fn ack(&mut self, out: &mut Vec<Output>) {
        self.window += 1;
        self.complete = false;
        for r in self.ranges.iter_mut().filter(|r| !r.evicted) {
            r.done = false;
            r.dedup.clear();
            let live = r.conn.and_then(|id| Some((id, self.conns.get_mut(&id)?)));
            let Some((conn, c)) = live else { continue };
            (c.window_events, c.window_quarantined) = (0, 0);
            let resume = c.resilient.then_some(self.window);
            out.push(Output::Unpark { conn, resume });
        }
        self.settle(out);
    }

    /// Admits a Hello, or reattaches it to the range it re-claims, and
    /// tells the agent which window to (re)start with. The replacement
    /// of a known range must barrier the open window again: any ack the
    /// old connection earned died with it.
    fn open(&mut self, conn: usize, frame: WireFrame, out: &mut Vec<Output>) {
        let refuse = |why: String, out: &mut Vec<Output>| {
            out.push(Output::Log(format!("connection rejected: {why}")));
            out.push(Output::Drop(conn));
        };
        let WireFrame::Hello {
            version,
            flags,
            host_lo: lo,
            host_hi: hi,
        } = frame
        else {
            return refuse("first frame was not a Hello".into(), out);
        };
        let range = match self.admit(version, lo, hi) {
            Err(why) => return refuse(why, out),
            Ok(Some(i)) => {
                if let Some(old) = self.ranges[i].conn {
                    self.drop_conn(old, out);
                }
                let r = &mut self.ranges[i];
                (r.done, r.reconnects) = (false, r.reconnects + 1);
                self.stats.reconnects += 1;
                let n = r.reconnects;
                out.push(Output::Log(format!("hosts {lo}..{hi} reconnected (#{n})")));
                i
            }
            Ok(None) => {
                out.push(Output::Log(format!("admitted hosts {lo}..{hi}")));
                let hosts = lo..hi;
                self.ranges.push(RangeState {
                    hosts,
                    ..RangeState::default()
                });
                self.ranges.len() - 1
            }
        };
        let r = &mut self.ranges[range];
        (r.conn, r.orphaned_at) = (Some(conn), None);
        let resilient = flags & HELLO_RESILIENT != 0;
        let c = ConnState {
            range,
            resilient,
            ..ConnState::default()
        };
        self.conns.insert(conn, c);
        let resume = resilient.then_some(self.window);
        out.push(Output::Unpark { conn, resume });
    }

    /// The admission rules: `Some(range)` for an exact re-claim of a known
    /// range — a reconnect, taken even while the old connection looks
    /// live (a parked reader cannot notice its socket died), unless the
    /// range was evicted — and `None` for a new disjoint in-bounds range.
    /// Partial overlaps are refused.
    fn admit(&self, version: u16, lo: u32, hi: u32) -> Result<Option<usize>, String> {
        let (n, claims) = (self.num_hosts, self.ranges.iter());
        if version != WIRE_VERSION {
            return Err(format!("protocol version {version}, not {WIRE_VERSION}"));
        }
        if lo >= hi || hi > n {
            return Err(format!("host range {lo}..{hi} is empty or past host {n}"));
        }
        if let Some(i) = self.ranges.iter().position(|r| r.hosts == (lo..hi)) {
            let evicted = Err(format!("host range {lo}..{hi} was evicted"));
            return if self.ranges[i].evicted {
                evicted
            } else {
                Ok(Some(i))
            };
        }
        if let Some(r) = claims
            .clone()
            .find(|r| lo < r.hosts.end && r.hosts.start < hi)
        {
            let (a, b) = (r.hosts.start, r.hosts.end);
            return Err(format!("host range {lo}..{hi} overlaps claimed {a}..{b}"));
        }
        let span: u32 = claims.map(|r| r.hosts.end - r.hosts.start).sum();
        match self.cfg.max_hosts {
            Some(cap) if span + (hi - lo) > cap => Err(format!(
                "host cap exceeded: {span} already claimed, {} requested, cap {cap}",
                hi - lo
            )),
            _ => Ok(None),
        }
    }

    /// Folds a connection's quarantine count in; a blown per-window
    /// budget evicts its range as poisoned. False when the connection is
    /// unknown (replaced, refused or dropped: its inputs change nothing)
    /// or was just evicted.
    fn quarantine(&mut self, conn: usize, quarantined: u64, out: &mut Vec<Output>) -> bool {
        let Some(c) = self.conns.get_mut(&conn) else {
            return false;
        };
        let fresh = quarantined.saturating_sub(c.quarantined);
        c.quarantined = c.quarantined.max(quarantined);
        c.window_quarantined = c.window_quarantined.saturating_add(fresh);
        self.stats.quarantined_frames = self.stats.quarantined_frames.saturating_add(fresh);
        if c.window_quarantined <= self.cfg.quarantine_budget {
            return true;
        }
        let why = format!(
            "quarantine budget blown: {} corrupt frames in one window",
            c.window_quarantined
        );
        if let Some(range) = self.drop_conn(conn, out) {
            self.evict(range, &why, out);
        }
        false
    }

    fn frame(&mut self, conn: usize, frame: WireFrame, out: &mut Vec<Output>) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        let barrier = match frame {
            WireFrame::EpochDone { epoch, events } => Some((epoch, events)),
            _ => None,
        };
        let last = std::mem::replace(&mut c.last_barrier, barrier);
        match frame {
            WireFrame::Event(event) => self.event(conn, event, out),
            // A wire-level duplicate of the barrier just reported. Taken
            // again it would land after the window settled and the dedup
            // set was cleared, look like a zero-delivery epoch, draw a
            // spurious replay request, and re-tally the epoch into the
            // next window. Duplicates are always adjacent (that is how
            // TCP and the chaos injector make them), and a replay's
            // barrier always follows its replayed events, so suppressing
            // an identical immediate successor is exact.
            WireFrame::EpochDone { .. } if barrier == last => {
                out.push(Output::Unpark { conn, resume: None });
            }
            WireFrame::EpochDone { epoch, events } => self.barrier(conn, epoch, events, out),
            WireFrame::Hello { .. } => {
                self.lose(conn, Some("unexpected mid-stream Hello".into()), out);
            }
            WireFrame::Heartbeat | WireFrame::ResumeAt { .. } => {}
        }
    }

    /// Refusal (foreign host, untallyable evidence), sequence accounting,
    /// dedup, rate cap — in that order, so wire loss, replays and the cap
    /// stay separate counters.
    fn event(&mut self, conn: usize, event: AgentEvent, out: &mut Vec<Output>) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        let r = &mut self.ranges[c.range];
        let (host, seq) = (event.host().0, event.seq());
        if !r.hosts.contains(&host) {
            self.stats.foreign += 1;
            return;
        }
        // Evidence the ledger cannot tally (a link outside the fabric, or
        // more links than any route has) is refused before it can shadow
        // an honest (host, seq).
        if let AgentEvent::Evidence { report, .. } = &event {
            let links = &report.links;
            if links.len() > MAX_ROUTE_LINKS || links.iter().any(|l| l.index() >= self.num_links) {
                self.stats.malformed += 1;
                return;
            }
        }
        // Sequence accounting sees every arrival, replays included (a
        // replay shows up as one spurious reset — diagnostic noise, never
        // tally impact).
        note_seq(&mut self.seq_next, &mut self.stats, host, seq);
        if !r.dedup.insert((host, seq)) {
            return; // replayed duplicate: already tallied
        }
        if c.window_events >= self.cfg.max_events_per_window {
            self.stats.rate_limited += 1;
            return;
        }
        c.window_events += 1;
        self.stats.delivered += 1;
        self.stats.events += 1;
        self.stats.evidence += u64::from(matches!(event, AgentEvent::Evidence { .. }));
        out.push(Output::Absorb(event));
    }

    /// A connection barriered `epoch`, claiming `events` frames. A
    /// resilient agent behind the open window, or short of its claim, is
    /// asked to replay from the open window. Otherwise the range is done
    /// and its reader stays parked until the ack; a fire-and-forget
    /// stream has no replay, so it barriers on its claim and sequence
    /// accounting surfaces any loss.
    fn barrier(&mut self, conn: usize, epoch: u64, events: u64, out: &mut Vec<Output>) {
        let Some(c) = self.conns.get(&conn) else {
            return;
        };
        let r = &mut self.ranges[c.range];
        let (lo, hi, w) = (r.hosts.start, r.hosts.end, self.window);
        let delivered = r.dedup.len() as u64;
        if c.resilient && (epoch < w || epoch == w && delivered < events) {
            if epoch == w {
                out.push(Output::Log(format!(
                    "hosts {lo}..{hi} window {w} incomplete ({delivered}/{events} delivered); \
                     requesting replay"
                )));
            }
            let resume = Some(w);
            return out.push(Output::Unpark { conn, resume });
        }
        if epoch != w {
            out.push(Output::Log(format!(
                "warning: hosts {lo}..{hi} barriered epoch {epoch} at window {w} \
                 (schedule mismatch)"
            )));
        }
        r.done = true;
    }

    /// The connection is gone; its range waits out the reconnect grace.
    fn lose(&mut self, conn: usize, error: Option<String>, out: &mut Vec<Output>) {
        let Some(range) = self.drop_conn(conn, out) else {
            return;
        };
        let (lo, hi) = (self.ranges[range].hosts.start, self.ranges[range].hosts.end);
        out.push(Output::Log(match error {
            Some(e) => format!("warning: hosts {lo}..{hi} lost: {e}"),
            None => format!("hosts {lo}..{hi} disconnected"),
        }));
    }

    /// Forgets a live connection; returns its range.
    fn drop_conn(&mut self, conn: usize, out: &mut Vec<Output>) -> Option<usize> {
        let c = self.conns.remove(&conn)?;
        self.ranges[c.range].conn = None;
        out.push(Output::Drop(conn));
        Some(c.range)
    }

    fn evict(&mut self, range: usize, why: &str, out: &mut Vec<Output>) {
        let r = &mut self.ranges[range];
        (r.evicted, r.done, r.orphaned_at) = (true, false, None);
        self.stats.hosts_evicted += u64::from(r.hosts.end - r.hosts.start);
        let (lo, hi) = (r.hosts.start, r.hosts.end);
        out.push(Output::Log(format!("hosts {lo}..{hi} evicted: {why}")));
    }

    /// Starts the reconnect grace of every range found without a
    /// connection and evicts those whose grace ran out before they
    /// barriered. Grace runs from the start barrier on, so a range can
    /// always reattach while the fleet is still assembling.
    fn tick(&mut self, now: Instant, out: &mut Vec<Output>) {
        self.now = now;
        let grace = self.cfg.reconnect_grace;
        for i in 0..self.ranges.len() {
            let r = &mut self.ranges[i];
            if !self.started || r.conn.is_some() || r.evicted {
                continue;
            }
            let since = *r.orphaned_at.get_or_insert(now);
            if !r.done && now.duration_since(since) >= grace {
                self.evict(i, &format!("no reconnect within {grace:?}"), out);
            }
        }
    }

    /// The start barrier, then the window barrier: complete once every
    /// range that is not evicted is done.
    fn settle(&mut self, out: &mut Vec<Output>) {
        let live = self.ranges.iter().filter(|r| !r.evicted).count();
        if !self.started && live >= self.cfg.agents {
            self.started = true;
            self.stats.agents_admitted = live as u64;
        }
        if !self.started || self.complete {
            return;
        }
        if live == 0 {
            let w = self.window;
            let why = format!("all agent host ranges lost before window {w} completed");
            return out.push(Output::Abort(why));
        }
        if self.ranges.iter().all(|r| r.evicted || r.done) {
            self.complete = true;
            self.stats.windows += 1;
            self.stats.agents_live = self.ranges.iter().filter(|r| r.conn.is_some()).count() as u64;
            out.push(Output::WindowComplete);
        }
    }
}

/// Notes `seq` from `host`. Wire values are untrusted, so nothing here
/// can overflow: a first sighting expects 0 (a nonzero start means the
/// prefix never arrived), a sequence running backwards is a restarted
/// agent, and a leap past [`MAX_SEQ_JUMP`] is not loss.
fn note_seq(next: &mut BTreeMap<u32, u64>, stats: &mut CollectorStats, host: u32, seq: u64) {
    let expected = next.insert(host, seq.saturating_add(1)).unwrap_or(0);
    match seq.checked_sub(expected) {
        Some(lost) if lost <= MAX_SEQ_JUMP => stats.seq_gaps = stats.seq_gaps.saturating_add(lost),
        _ => stats.seq_resets += 1,
    }
}
