//! The agent's protocol as a single-threaded state machine that does no
//! I/O: no socket, clock read, sleep, thread or log write. The shells in
//! [`super::run_agent`] and [`super::run_agent_resilient`] feed it
//! [`Input`]s and carry out the one [`Output`] each step returns.
//!
//! Every decision of the agent side lives here: when to (re)connect and
//! after what backoff (capped exponential with seeded jitter, a fresh
//! ladder after a connection that settled epochs), when to give up, which
//! epoch to emit on each `ResumeAt` and how the world reaches its start,
//! the settled-epoch anchor, the ack timeout and its heartbeats, the
//! attempts a chaos partition refuses, and the chaos frame index that
//! spans connections. Time enters only as [`Input::Tick`].

use super::{AgentSpec, AgentStats, ResilienceConfig};
use std::time::{Duration, Instant};
use vigil_wire::chaos::{ChaosPlan, ChaosSchedule};

/// What the shell feeds the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Input {
    Connected,
    ConnectFailed,
    /// The collector said `ResumeAt { epoch }`.
    ResumeAt(u64),
    /// The connection ended: the peer closed it, a read or write failed,
    /// or the shell hung up as asked. `reset` is the ordinal of the chaos
    /// reset that ended it, if the writer injected one; `frames` is the
    /// chaos frame index its writer reached.
    Lost {
        reset: Option<u64>,
        frames: u64,
    },
    /// The wall clock now, while an answer is awaited.
    Tick(Instant),
}

/// What the core asks the shell to do.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Output {
    /// Wait `after`, then connect.
    Connect { after: Duration },
    /// Say Hello through a chaos writer with no plan whose frame index
    /// starts at `frames`, then await `ResumeAt`.
    Hello { frames: u64 },
    /// Bring the world to the start of `epoch` as `start` says, write the
    /// epoch and its barrier under `plan`, flush, and await `ResumeAt`.
    Emit {
        epoch: usize,
        start: Start,
        plan: Option<ChaosPlan>,
    },
    /// Write a heartbeat (the collector reaps silent connections), then
    /// keep awaiting `ResumeAt`.
    Heartbeat,
    /// No answer within the ack timeout: close the connection and report
    /// it [`Input::Lost`].
    Hangup,
    /// The collector settled every epoch.
    Done,
    /// `attempts` consecutive reconnect attempts failed.
    GiveUp { attempts: u64 },
}

/// How the world reaches the start of the epoch to emit. Every form but
/// `Anchor` records the reached state as the new anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Start {
    /// It stands there: the epoch before was just acked.
    Here,
    /// A replay: restore the anchor, which is this epoch's start.
    Anchor,
    /// The collector settled epochs the world has not finished: restore
    /// the anchor at epoch `from`, then simulate `from..epoch` unsent.
    RollForward { from: usize },
    /// The collector is behind the anchor (it restarted from an older
    /// snapshot): fresh agents at the first epoch `from`, then simulate
    /// `from..epoch` unsent.
    Rebuild { from: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    Connecting,
    /// Awaiting `ResumeAt`; the ack timeout runs from the first tick that
    /// found the core waiting.
    Waiting {
        since: Option<Instant>,
    },
    /// Done or given up.
    Over,
}

/// The agent's protocol state (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct AgentCore {
    rcfg: ResilienceConfig,
    chaos: Option<ChaosSchedule>,
    /// The chaos stream key: the first host id.
    key: u64,
    /// The spec's epochs are `first..end`.
    first: usize,
    end: usize,
    /// The first epoch not known to be settled; the world keeps a record
    /// of its start state.
    anchor: usize,
    /// The epoch whose start the world stands at, when that is known.
    world: Option<usize>,
    phase: Phase,
    /// Consecutive failed attempts: the backoff ladder's rung.
    failures: u64,
    /// This connection settled an epoch: its loss starts a fresh ladder.
    healthy: bool,
    frames: u64,
    /// The shells add what they write: wire volume and flushes.
    pub(super) stats: AgentStats,
}

impl AgentCore {
    pub(crate) fn new(
        spec: &AgentSpec,
        rcfg: &ResilienceConfig,
        chaos: Option<ChaosSchedule>,
    ) -> Self {
        let first = spec.start_epoch;
        Self {
            rcfg: rcfg.clone(),
            chaos,
            key: u64::from(spec.hosts.start),
            first,
            end: first + spec.epochs,
            anchor: first,
            world: Some(first),
            phase: Phase::Connecting,
            failures: 0,
            healthy: false,
            frames: 0,
            stats: AgentStats::default(),
        }
    }

    /// The first output: connect at once.
    pub(crate) fn start(&mut self) -> Output {
        self.phase = Phase::Connecting;
        let after = Duration::ZERO;
        Output::Connect { after }
    }

    /// Hashes everything that decides the core's future outputs, so a
    /// model checker can tell a state it has already explored.
    #[cfg(test)]
    pub(crate) fn hash_state(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        let (anchor, world, phase) = (self.anchor, self.world, self.phase);
        (
            anchor,
            world,
            phase,
            self.failures,
            self.healthy,
            self.frames,
        )
            .hash(h);
    }

    /// Takes one input; returns what the shell must do next, if anything.
    pub(crate) fn step(&mut self, input: Input) -> Option<Output> {
        match (input, self.phase) {
            (Input::Connected, Phase::Connecting) => {
                (self.phase, self.healthy) = (Phase::Waiting { since: None }, false);
                Some(Output::Hello {
                    frames: self.frames,
                })
            }
            (Input::ConnectFailed, Phase::Connecting) => Some(self.retry(0)),
            (Input::ResumeAt(epoch), Phase::Waiting { .. }) => Some(self.resume(epoch)),
            (Input::Tick(now), Phase::Waiting { since }) => {
                let since = since.unwrap_or(now);
                if now.saturating_duration_since(since) >= self.rcfg.ack_timeout {
                    return Some(Output::Hangup);
                }
                self.phase = Phase::Waiting { since: Some(since) };
                Some(Output::Heartbeat)
            }
            (Input::Lost { reset, frames }, Phase::Waiting { .. }) => {
                (self.frames, self.world) = (frames, None);
                if self.healthy {
                    self.failures = 0;
                }
                // An injected reset may escalate into a partition that
                // refuses the next attempts before the wire heals.
                let plan = self.chaos.as_ref().map(|s| s.plan_for(self.anchor as u64));
                let blocked = match (plan, reset) {
                    (Some(plan), Some(ordinal)) => plan.blocked_attempts(self.key, ordinal),
                    _ => 0,
                };
                Some(self.retry(blocked))
            }
            // Anything else is stale: it arrived after what moved the
            // core on.
            _ => None,
        }
    }

    /// One failed attempt, plus `refused` more that a partition turns
    /// away without touching the network: climb the ladder for each, and
    /// give up past `max_reconnects`.
    fn retry(&mut self, refused: u32) -> Output {
        let mut after = Duration::ZERO;
        for _ in 0..=refused {
            self.failures += 1;
            self.stats.reconnects += 1;
            if self.failures > self.rcfg.max_reconnects {
                self.phase = Phase::Over;
                let attempts = self.failures - 1;
                return Output::GiveUp { attempts };
            }
            after += backoff_delay(&self.rcfg, self.failures - 1);
        }
        self.phase = Phase::Connecting;
        Output::Connect { after }
    }

    /// The collector names the first epoch it has not settled: the epochs
    /// before it are settled, and it goes out next — replayed from the
    /// anchor when the anchor is what it asks for.
    fn resume(&mut self, epoch: u64) -> Output {
        let target = usize::try_from(epoch).unwrap_or(usize::MAX).max(self.first);
        if target >= self.end {
            self.settle(self.end);
            self.phase = Phase::Over;
            return Output::Done;
        }
        let start = if target == self.anchor {
            Start::Anchor
        } else if target < self.anchor {
            Start::Rebuild { from: self.first }
        } else if self.world == Some(target) {
            Start::Here
        } else {
            Start::RollForward { from: self.anchor }
        };
        self.healthy |= target > self.anchor;
        self.settle(target);
        (self.world, self.phase) = (Some(target + 1), Phase::Waiting { since: None });
        let plan = self.chaos.as_ref().map(|s| s.plan_for(target as u64));
        Output::Emit {
            epoch: target,
            start,
            plan,
        }
    }

    /// Moves the anchor to `epoch`: the epochs before it are settled.
    fn settle(&mut self, epoch: usize) {
        self.anchor = epoch;
        self.stats.epochs = epoch - self.first;
    }
}

/// Splitmix64 — backoff jitter and nothing else (chaos decisions live in
/// `vigil_wire::chaos`).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Capped exponential backoff with seeded jitter in [½, 1]× the step.
pub(crate) fn backoff_delay(rcfg: &ResilienceConfig, attempt: u64) -> Duration {
    let step = rcfg
        .backoff_base
        .saturating_mul(1u32 << attempt.min(16) as u32)
        .min(rcfg.backoff_cap);
    let jitter = (splitmix(rcfg.jitter_seed ^ attempt) >> 11) as f64 / (1u64 << 53) as f64;
    step.mul_f64(0.5 + 0.5 * jitter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vigil_wire::chaos::ChaosPlan;

    fn rcfg() -> ResilienceConfig {
        ResilienceConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(60),
            max_reconnects: 5,
            ack_timeout: Duration::from_secs(1),
            ..ResilienceConfig::default()
        }
    }

    /// A core for epochs `first..first + epochs`, already connected and
    /// answered with `ResumeAt(first)`.
    fn core(first: usize, epochs: usize, chaos: Option<ChaosSchedule>) -> AgentCore {
        let spec = AgentSpec {
            hosts: 0..4,
            start_epoch: first,
            epochs,
            chunk_flows: 1,
        };
        let mut core = AgentCore::new(&spec, &rcfg(), chaos);
        core.start();
        assert_eq!(
            core.step(Input::Connected),
            Some(Output::Hello { frames: 0 })
        );
        core
    }

    fn emit(epoch: usize, start: Start) -> Option<Output> {
        Some(Output::Emit {
            epoch,
            start,
            plan: None,
        })
    }

    fn lost() -> Input {
        Input::Lost {
            reset: None,
            frames: 0,
        }
    }

    fn connect(after: Duration) -> Option<Output> {
        Some(Output::Connect { after })
    }

    #[test]
    fn replays_the_anchor_and_advances_on_acks() {
        let mut core = core(0, 3, None);
        assert_eq!(core.step(Input::ResumeAt(0)), emit(0, Start::Anchor));
        // A replay request: the same epoch, from the anchor again.
        assert_eq!(core.step(Input::ResumeAt(0)), emit(0, Start::Anchor));
        // The ack: the world already stands at epoch 1.
        assert_eq!(core.step(Input::ResumeAt(1)), emit(1, Start::Here));
        assert_eq!(core.stats.epochs, 1);
        assert_eq!(core.step(Input::ResumeAt(2)), emit(2, Start::Here));
        assert_eq!(core.step(Input::ResumeAt(3)), Some(Output::Done));
        assert_eq!(core.stats.epochs, 3);
        assert_eq!(core.step(Input::ResumeAt(3)), None, "done is final");
    }

    /// A collector that resumed from its snapshot answers the Hello past
    /// the anchor: the epochs it settled count, and the world rolls
    /// forward from the anchor instead of re-simulating the whole run.
    #[test]
    fn a_resume_point_ahead_counts_what_it_settles_and_rolls_forward() {
        let mut core = core(0, 3, None);
        assert_eq!(core.step(Input::ResumeAt(0)), emit(0, Start::Anchor));
        assert_eq!(core.step(Input::ResumeAt(1)), emit(1, Start::Here));
        // The ack of epoch 1 never comes: the collector paused.
        assert_eq!(core.step(lost()), connect(backoff_delay(&rcfg(), 0)));
        assert_eq!(
            core.step(Input::Connected),
            Some(Output::Hello { frames: 0 })
        );
        let roll = Start::RollForward { from: 1 };
        assert_eq!(core.step(Input::ResumeAt(2)), emit(2, roll));
        assert_eq!(core.stats.epochs, 2, "epoch 1 is settled");
        assert_eq!(core.step(Input::ResumeAt(3)), Some(Output::Done));
        assert_eq!(core.stats.epochs, 3);
    }

    #[test]
    fn a_collector_behind_the_anchor_rebuilds_from_the_first_epoch() {
        let mut core = core(2, 4, None);
        assert_eq!(core.step(Input::ResumeAt(0)), emit(2, Start::Anchor));
        assert_eq!(
            core.step(Input::ResumeAt(4)),
            emit(4, Start::RollForward { from: 2 })
        );
        core.step(lost());
        core.step(Input::Connected);
        assert_eq!(
            core.step(Input::ResumeAt(3)),
            emit(3, Start::Rebuild { from: 2 })
        );
        assert_eq!(core.stats.epochs, 1);
    }

    #[test]
    fn a_healthy_session_starts_a_fresh_backoff_ladder() {
        let r = rcfg();
        let mut core = core(0, 3, None);
        core.step(lost());
        core.step(Input::ConnectFailed);
        assert_eq!(
            core.step(Input::ConnectFailed),
            connect(backoff_delay(&r, 2)),
            "consecutive failures climb the ladder"
        );
        core.step(Input::Connected);
        core.step(Input::ResumeAt(0));
        // A session without an ack keeps climbing.
        assert_eq!(core.step(lost()), connect(backoff_delay(&r, 3)));
        core.step(Input::Connected);
        core.step(Input::ResumeAt(0));
        core.step(Input::ResumeAt(1));
        assert_eq!(
            core.step(lost()),
            connect(backoff_delay(&r, 0)),
            "the session settled epoch 0: back to the first rung"
        );
    }

    #[test]
    fn gives_up_past_max_reconnects() {
        let mut core = core(0, 1, None);
        let mut out = core.step(lost());
        for _ in 1..5 {
            assert!(matches!(out, Some(Output::Connect { .. })));
            out = core.step(Input::ConnectFailed);
        }
        assert!(matches!(out, Some(Output::Connect { .. })));
        assert_eq!(
            core.step(Input::ConnectFailed),
            Some(Output::GiveUp { attempts: 5 })
        );
        assert_eq!(core.stats.reconnects, 6);
        assert_eq!(core.step(Input::Connected), None, "giving up is final");
    }

    #[test]
    fn the_ack_timeout_heartbeats_then_hangs_up() {
        let mut core = core(0, 1, None);
        let t0 = Instant::now();
        let tick = |ms| Input::Tick(t0 + Duration::from_millis(ms));
        assert_eq!(core.step(tick(5_000)), Some(Output::Heartbeat));
        assert_eq!(core.step(tick(5_500)), Some(Output::Heartbeat));
        assert_eq!(core.step(tick(6_000)), Some(Output::Hangup));
        let frames = 7;
        let out = core.step(Input::Lost {
            reset: None,
            frames,
        });
        assert!(matches!(out, Some(Output::Connect { .. })));
        assert_eq!(core.step(Input::Connected), Some(Output::Hello { frames }));
        // The clock restarts with the new wait.
        assert_eq!(core.step(tick(9_000)), Some(Output::Heartbeat));
    }

    /// A chaos reset that escalates into a partition refuses the next
    /// attempts inside the core: one `Connect` whose delay sums the
    /// ladder over every refused rung.
    #[test]
    fn a_partition_refuses_attempts_without_touching_the_network() {
        let plan = ChaosPlan {
            partition: 1.0,
            partition_attempts: 2,
            ..ChaosPlan::quiet(3)
        };
        let mut core = core(0, 2, Some(ChaosSchedule::constant(plan)));
        let r = rcfg();
        let ladder: Duration = (0..3).map(|k| backoff_delay(&r, k)).sum();
        let reset = Some(0);
        assert_eq!(core.step(Input::Lost { reset, frames: 9 }), connect(ladder));
        assert_eq!(core.stats.reconnects, 3);
        assert_eq!(
            core.step(Input::Connected),
            Some(Output::Hello { frames: 9 })
        );
        let emitted = core.step(Input::ResumeAt(0));
        assert!(
            matches!(emitted, Some(Output::Emit { plan: Some(p), .. }) if p == plan),
            "{emitted:?}"
        );
    }
}
