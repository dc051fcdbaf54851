//! Deterministic fault injection for the agent↔collector wire.
//!
//! A [`ChaosPlan`] decides every fault as a **pure function of `(seed,
//! key, index, axis)`** — no wall clock, no OS randomness — so the same
//! plan injects byte-for-byte identical faults whether the transport is
//! an in-process pipe, a loopback TCP socket, or a Unix socket, and a
//! failing soak run replays exactly from its seed. The axes mirror what
//! a production datacenter wire does to a long-lived monitoring
//! connection (PAPER.md §6): bit corruption, truncated sends,
//! duplicated sends, stalls, connection resets, and timed partitions
//! where reconnect attempts themselves are refused.
//!
//! [`ChaosWriter`] applies a plan to a frame sink. It sits directly
//! *under* [`FrameWriter`](crate::FrameWriter), whose contract is one
//! `write_all` per frame, so each `write` call the injector sees is
//! exactly one frame — faults are per-frame, indexed by a monotone
//! frame counter that the caller carries across reconnects (a replayed
//! frame draws a *fresh* index; otherwise a deterministic fault would
//! re-kill every replay forever).
//!
//! Resets are deliberately **not** a per-frame coin: with `F` frames per
//! epoch, a per-frame reset probability `p` survives a full epoch pass
//! with probability `(1-p)^F`, which for realistic `F` never completes —
//! a livelock, not chaos. Instead resets are *scheduled positions* on
//! the frame-index line: one reset inside each block of `reset_every`
//! frames, jittered within the first quarter of the block, so any two
//! resets are at least `3·reset_every/4` frames apart and progress
//! between them is guaranteed.

use std::io::{self, Write};

/// Splitmix64-style mixer: the single source of chaos randomness.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const AXIS_CORRUPT: u64 = 1;
const AXIS_TRUNCATE: u64 = 2;
const AXIS_DUPLICATE: u64 = 3;
const AXIS_DELAY: u64 = 4;
const AXIS_RESET: u64 = 5;
const AXIS_PARTITION: u64 = 6;
const AXIS_BYTE: u64 = 7;

/// A seeded, fully deterministic fault-injection plan.
///
/// All probabilities are per-frame coins except resets (scheduled
/// positions, see the module docs) and partitions (per-reconnect-storm
/// coins). The zero plan ([`ChaosPlan::quiet`]) injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Probability a frame has one byte XOR-corrupted.
    pub corrupt: f64,
    /// Probability a frame is truncated (a strict prefix is written).
    pub truncate: f64,
    /// Probability a frame is written twice back-to-back.
    pub duplicate: f64,
    /// Probability a frame is delayed by [`delay_ms`](Self::delay_ms).
    pub delay: f64,
    /// Stall applied when the delay coin lands.
    pub delay_ms: u64,
    /// One injected connection reset per `reset_every` frames
    /// (0 disables resets).
    pub reset_every: u64,
    /// Probability a reset escalates into a partition: the next
    /// [`partition_attempts`](Self::partition_attempts) reconnect
    /// attempts are refused before the wire heals.
    pub partition: f64,
    /// Refused reconnect attempts per partition.
    pub partition_attempts: u32,
}

impl ChaosPlan {
    /// The plan that injects nothing (all axes off).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            corrupt: 0.0,
            truncate: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_ms: 0,
            reset_every: 0,
            partition: 0.0,
            partition_attempts: 0,
        }
    }

    /// True when no axis can fire.
    pub fn is_quiet(&self) -> bool {
        self.corrupt <= 0.0
            && self.truncate <= 0.0
            && self.duplicate <= 0.0
            && self.delay <= 0.0
            && self.reset_every == 0
    }

    /// A fair coin at probability `p` for `(key, index, axis)`.
    fn coin(&self, key: u64, index: u64, axis: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let h = mix(self.seed ^ mix(key ^ mix(index ^ axis.wrapping_mul(0x9e37))));
        // 53 uniform bits → [0,1)
        ((h >> 11) as f64) / ((1u64 << 53) as f64) < p
    }

    fn draw(&self, key: u64, index: u64, axis: u64) -> u64 {
        mix(self.seed ^ mix(key ^ mix(index ^ axis.wrapping_mul(0x9e37))))
    }

    /// True when frame `index` on stream `key` is a scheduled reset
    /// position: one per block of `reset_every`, jittered within the
    /// first quarter of the block.
    fn reset_at(&self, key: u64, index: u64) -> bool {
        if self.reset_every == 0 {
            return false;
        }
        let block = index / self.reset_every;
        let jitter_span = (self.reset_every / 4).max(1);
        let offset = self.draw(key, block, AXIS_RESET) % jitter_span;
        index == block * self.reset_every + offset
    }

    /// The ordinal of the reset block containing `index` (used to key
    /// partition decisions to "the n-th injected reset").
    fn reset_ordinal(&self, index: u64) -> u64 {
        if self.reset_every == 0 {
            0
        } else {
            index / self.reset_every
        }
    }

    /// The fault (if any) to apply to frame `index` of stream `key`,
    /// whose serialized form is `len` bytes.
    pub fn frame_fault(&self, key: u64, index: u64, len: usize) -> FrameFault {
        if self.reset_at(key, index) {
            return FrameFault::Reset {
                ordinal: self.reset_ordinal(index),
            };
        }
        if self.coin(key, index, AXIS_CORRUPT, self.corrupt) && len > 0 {
            let byte = (self.draw(key, index, AXIS_BYTE) as usize) % len;
            let mask = ((self.draw(key, index, AXIS_CORRUPT) >> 16) as u8) | 1;
            return FrameFault::Corrupt { byte, mask };
        }
        if self.coin(key, index, AXIS_TRUNCATE, self.truncate) && len > 1 {
            let keep = 1 + (self.draw(key, index, AXIS_TRUNCATE) as usize) % (len - 1);
            return FrameFault::Truncate { keep };
        }
        if self.coin(key, index, AXIS_DUPLICATE, self.duplicate) {
            return FrameFault::Duplicate;
        }
        if self.coin(key, index, AXIS_DELAY, self.delay) {
            return FrameFault::Delay { ms: self.delay_ms };
        }
        FrameFault::None
    }

    /// How many reconnect attempts a partition refuses after the reset
    /// with the given ordinal on stream `key` (0 = no partition).
    pub fn blocked_attempts(&self, key: u64, reset_ordinal: u64) -> u32 {
        if self.coin(key, reset_ordinal, AXIS_PARTITION, self.partition) {
            self.partition_attempts
        } else {
            0
        }
    }

    /// Parses a comma-separated chaos spec, e.g.
    /// `seed=7,corrupt=0.02,truncate=0.01,dup=0.02,delay=0.01:5,reset_every=900,partition=0.5:3`.
    /// Every field is optional; omitted axes stay off.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = ChaosPlan::quiet(0);
        for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec `{part}` is not key=value"))?;
            let (k, v) = (k.trim(), v.trim());
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("chaos {k}: `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos {k}: probability {p} outside [0,1]"));
                }
                Ok(p)
            };
            match k {
                "seed" => {
                    plan.seed = v
                        .parse()
                        .map_err(|_| format!("chaos seed: `{v}` is not an integer"))?;
                }
                "corrupt" => plan.corrupt = prob(v)?,
                "truncate" => plan.truncate = prob(v)?,
                "dup" | "duplicate" => plan.duplicate = prob(v)?,
                "delay" => {
                    let (p, ms) = v
                        .split_once(':')
                        .ok_or_else(|| format!("chaos delay: `{v}` must be PROB:MS"))?;
                    plan.delay = prob(p)?;
                    plan.delay_ms = ms
                        .parse()
                        .map_err(|_| format!("chaos delay: `{ms}` is not a millisecond count"))?;
                }
                "reset_every" => {
                    plan.reset_every = v
                        .parse()
                        .map_err(|_| format!("chaos reset_every: `{v}` is not an integer"))?;
                }
                "partition" => {
                    let (p, n) = v
                        .split_once(':')
                        .ok_or_else(|| format!("chaos partition: `{v}` must be PROB:ATTEMPTS"))?;
                    plan.partition = prob(p)?;
                    plan.partition_attempts = n
                        .parse()
                        .map_err(|_| format!("chaos partition: `{n}` is not an attempt count"))?;
                }
                other => return Err(format!("unknown chaos axis `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// The fault a [`ChaosPlan`] chose for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Write the frame untouched.
    None,
    /// XOR `mask` (never zero) into the byte at `byte`.
    Corrupt {
        /// Offset of the corrupted byte within the frame.
        byte: usize,
        /// Non-zero XOR mask.
        mask: u8,
    },
    /// Write only the first `keep` bytes (a strict, non-empty prefix).
    Truncate {
        /// Bytes to keep.
        keep: usize,
    },
    /// Write the frame twice back-to-back.
    Duplicate,
    /// Sleep `ms` milliseconds, then write normally.
    Delay {
        /// Stall length.
        ms: u64,
    },
    /// Fail the write with `ConnectionReset` before any byte goes out.
    Reset {
        /// Ordinal of this scheduled reset (keys partition decisions).
        ordinal: u64,
    },
}

/// A chaos-escalation schedule: which plan applies from which epoch.
///
/// Phases are `(from_epoch, plan)` pairs; the plan with the largest
/// `from_epoch ≤ epoch` wins. Soak runs use this to start quiet and
/// escalate over time.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    phases: Vec<(u64, ChaosPlan)>,
}

impl ChaosSchedule {
    /// A single plan for every epoch.
    pub fn constant(plan: ChaosPlan) -> Self {
        Self {
            phases: vec![(0, plan)],
        }
    }

    /// Builds a schedule from `(from_epoch, plan)` phases. Phases are
    /// sorted by epoch; the earliest phase should start at 0 (epochs
    /// before the first phase fall back to a quiet plan).
    pub fn new(mut phases: Vec<(u64, ChaosPlan)>) -> Self {
        phases.sort_by_key(|(e, _)| *e);
        Self { phases }
    }

    /// The plan governing `epoch`.
    pub fn plan_for(&self, epoch: u64) -> ChaosPlan {
        let mut current = ChaosPlan::quiet(0);
        for (from, plan) in &self.phases {
            if *from <= epoch {
                current = *plan;
            } else {
                break;
            }
        }
        current
    }
}

/// A fault-injecting sink that treats **each `write` call as one
/// frame** — put it directly under a [`FrameWriter`](crate::FrameWriter)
/// (whose `write_frame` issues exactly one `write_all` per frame).
///
/// A reconnecting agent starts its replacement writer at the old one's
/// [`index`](Self::index), so the index line continues: replayed frames
/// draw fresh faults, and the scheduled-reset guarantee (at most one
/// reset per `reset_every` frames) spans reconnects.
#[derive(Debug)]
pub struct ChaosWriter<W> {
    inner: W,
    plan: Option<ChaosPlan>,
    key: u64,
    index: u64,
    /// Set when an injected reset fires: the ordinal to feed
    /// [`ChaosPlan::blocked_attempts`] for partition simulation.
    last_reset_ordinal: Option<u64>,
    /// Reused by the corrupt fault so flipping one byte never allocates
    /// per frame — the same scratch discipline as `FrameWriter`.
    scratch: Vec<u8>,
}

impl<W: Write> ChaosWriter<W> {
    /// Wraps `inner`; `key` identifies the stream (agents use their
    /// first host id) and `index` is where the frame counter starts.
    pub fn new(inner: W, plan: Option<ChaosPlan>, key: u64, index: u64) -> Self {
        Self {
            inner,
            plan,
            key,
            index,
            last_reset_ordinal: None,
            scratch: Vec::new(),
        }
    }

    /// Swaps the active plan (per-epoch escalation); `None` passes
    /// everything through untouched.
    pub fn set_plan(&mut self, plan: Option<ChaosPlan>) {
        self.plan = plan;
    }

    /// The frame counter: frames written under a plan so far, including
    /// those of the writers this one continues.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The ordinal of the most recent injected reset, consumed by the
    /// reconnect path to decide partition length.
    pub fn take_reset_ordinal(&mut self) -> Option<u64> {
        self.last_reset_ordinal.take()
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(plan) = self.plan else {
            self.inner.write_all(buf)?;
            return Ok(buf.len());
        };
        let index = self.index;
        self.index += 1;
        match plan.frame_fault(self.key, index, buf.len()) {
            FrameFault::None => self.inner.write_all(buf)?,
            FrameFault::Corrupt { byte, mask } => {
                self.scratch.clear();
                self.scratch.extend_from_slice(buf);
                let at = byte % self.scratch.len().max(1);
                self.scratch[at] ^= mask;
                self.inner.write_all(&self.scratch)?;
            }
            FrameFault::Truncate { keep } => {
                self.inner.write_all(&buf[..keep.min(buf.len())])?;
            }
            FrameFault::Duplicate => {
                self.inner.write_all(buf)?;
                self.inner.write_all(buf)?;
            }
            FrameFault::Delay { ms } => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.write_all(buf)?;
            }
            FrameFault::Reset { ordinal } => {
                self.last_reset_ordinal = Some(ordinal);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos: injected connection reset",
                ));
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan() -> ChaosPlan {
        ChaosPlan {
            seed: 42,
            corrupt: 0.1,
            truncate: 0.05,
            duplicate: 0.1,
            delay: 0.0,
            delay_ms: 0,
            reset_every: 64,
            partition: 0.5,
            partition_attempts: 3,
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = busy_plan();
        for index in 0..512 {
            assert_eq!(
                plan.frame_fault(9, index, 40),
                plan.frame_fault(9, index, 40),
                "same (seed,key,index) must fault identically"
            );
        }
        // Different keys diverge somewhere.
        let diverges = (0..512).any(|i| plan.frame_fault(1, i, 40) != plan.frame_fault(2, i, 40));
        assert!(diverges, "keys must decorrelate streams");
    }

    #[test]
    fn resets_are_spaced_not_per_frame_coins() {
        let plan = busy_plan();
        let mut resets = Vec::new();
        for index in 0..(plan.reset_every * 16) {
            if let FrameFault::Reset { .. } = plan.frame_fault(5, index, 40) {
                resets.push(index);
            }
        }
        assert_eq!(
            resets.len() as u64,
            16,
            "exactly one reset per block of reset_every frames"
        );
        for pair in resets.windows(2) {
            assert!(
                pair[1] - pair[0] >= plan.reset_every * 3 / 4,
                "resets {pair:?} closer than the guaranteed gap"
            );
        }
    }

    #[test]
    fn quiet_plan_never_faults() {
        let plan = ChaosPlan::quiet(7);
        assert!(plan.is_quiet());
        for index in 0..4096 {
            assert_eq!(plan.frame_fault(0, index, 64), FrameFault::None);
        }
    }

    #[test]
    fn corrupt_fault_stays_in_bounds_and_flips() {
        let plan = ChaosPlan {
            corrupt: 1.0,
            ..ChaosPlan::quiet(3)
        };
        for index in 0..256 {
            match plan.frame_fault(1, index, 13) {
                FrameFault::Corrupt { byte, mask } => {
                    assert!(byte < 13);
                    assert_ne!(mask, 0, "a zero mask would be a no-op corruption");
                }
                other => panic!("expected corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn spec_parses_every_axis() {
        let plan = ChaosPlan::parse(
            "seed=7,corrupt=0.02,truncate=0.01,dup=0.02,delay=0.01:5,reset_every=900,partition=0.5:3",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.corrupt, 0.02);
        assert_eq!(plan.truncate, 0.01);
        assert_eq!(plan.duplicate, 0.02);
        assert_eq!(plan.delay, 0.01);
        assert_eq!(plan.delay_ms, 5);
        assert_eq!(plan.reset_every, 900);
        assert_eq!(plan.partition, 0.5);
        assert_eq!(plan.partition_attempts, 3);

        assert!(
            ChaosPlan::parse("corrupt=2.0").is_err(),
            "prob > 1 rejected"
        );
        assert!(
            ChaosPlan::parse("warp=0.1").is_err(),
            "unknown axis rejected"
        );
        assert!(ChaosPlan::parse("delay=0.1").is_err(), "delay needs :MS");
        assert!(ChaosPlan::parse("").unwrap().is_quiet());
    }

    #[test]
    fn schedule_escalates_by_epoch() {
        let quiet = ChaosPlan::quiet(1);
        let rough = ChaosPlan {
            corrupt: 0.1,
            ..ChaosPlan::quiet(1)
        };
        let sched = ChaosSchedule::new(vec![(4, rough), (0, quiet)]);
        assert!(sched.plan_for(0).is_quiet());
        assert!(sched.plan_for(3).is_quiet());
        assert_eq!(sched.plan_for(4).corrupt, 0.1);
        assert_eq!(sched.plan_for(100).corrupt, 0.1);
    }

    #[test]
    fn writer_shares_index_across_instances() {
        // A second writer started at the first one's index (a reconnect)
        // must continue the fault line, not restart it.
        let plan = ChaosPlan {
            reset_every: 8,
            ..ChaosPlan::quiet(11)
        };
        let mut hits = 0;
        let mut sink = Vec::new();
        let mut index = 0;
        for _ in 0..2 {
            let mut w = ChaosWriter::new(&mut sink, Some(plan), 1, index);
            for _ in 0..12 {
                if w.write(b"frame").is_err() {
                    hits += 1;
                }
            }
            index = w.index();
        }
        assert_eq!(index, 24);
        assert_eq!(hits, 3, "24 frames over reset_every=8 → 3 scheduled resets");
    }
}
