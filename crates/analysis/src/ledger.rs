//! The incremental vote ledger: the analysis agent's state in streaming
//! service mode.
//!
//! The batch pipeline hands the analysis agent a whole epoch of evidence
//! at once. A deployed 007 sees evidence trickle in as retransmissions
//! happen and tallies "at regular intervals of 30s" (§5.1). The
//! [`VoteLedger`] is that always-on accumulator:
//!
//! * [`VoteLedger::absorb`] stores one flow's [`FlowEvidence`] in the
//!   window's key-ordered evidence store the moment it arrives;
//!   re-absorbing a key supersedes the earlier evidence.
//! * [`VoteLedger::close_window`] tallies the window and runs the full
//!   two-pass analysis (conservative detection → noise classification →
//!   Algorithm 1 on the failure class) over its evidence **without ever
//!   touching flow records** — the epoch's flows are long gone; only
//!   their evidence (a few links + a count per traced flow) was retained.
//! * Closed windows feed a bounded ring of [`WindowSummary`]s and a
//!   cross-window [`LinkHealth`] EWMA — the operator's heat map — so the
//!   ledger's memory is constant in epochs: `O(window evidence + K
//!   summaries + num_links)`.
//!
//! **Order.** Votes are exact integer units ([`crate::voting`]), so a
//! close gives the same tallies and the same verdict in any absorb
//! order. The window still stores its evidence in a `BTreeMap` keyed by
//! the caller's `K` (the pipeline uses `(HostId, FiveTuple)`), for two
//! reasons that have nothing to do with vote values: re-absorbing a key
//! supersedes its earlier evidence, and key order pairs the closed
//! window's evidence with the scorer's `reports`, which the batch
//! pipeline sorts the same way.

use crate::algorithm1::{detect, Algorithm1Config, Algorithm1Output, ThresholdBase};
use crate::evidence::FlowEvidence;
use crate::history::LinkHealth;
use crate::noise::{classify_flows, DropClass};
use crate::robustness::RobustnessCounters;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use vigil_topology::LinkId;

/// What the ledger keeps of a closed window — the constant-size residue
/// of an epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowSummary {
    /// The window's index (0-based, counted by the ledger).
    pub epoch: u64,
    /// Evidence items (traced flows) the window absorbed.
    pub evidence: usize,
    /// Total vote mass cast in the window.
    pub total_votes: f64,
    /// Algorithm 1's detections, in pick order.
    pub detections: Vec<crate::algorithm1::Detection>,
    /// Flows classified as noise.
    pub noise_flows: usize,
}

/// The full analysis of one closed window — everything the batch
/// pipeline's per-epoch analysis produces, in key order.
#[derive(Debug, Clone)]
pub struct WindowAnalysis {
    /// The window's index.
    pub epoch: u64,
    /// The window's evidence, key-ascending.
    pub evidence: Vec<FlowEvidence>,
    /// The conservative first pass (fixed threshold bar) that licenses
    /// the noise filter.
    pub conservative: Algorithm1Output,
    /// Per-evidence classification (parallel to `evidence`).
    pub classes: Vec<DropClass>,
    /// Algorithm 1 on the failure-class evidence — the window's verdict.
    pub detection: Algorithm1Output,
    /// Pick order with the threshold disabled (first 20) — the Figure 12
    /// counterfactual.
    pub unbounded_picks: Vec<LinkId>,
}

/// The streaming analysis agent's accumulator. `K` is the evidence key
/// (one piece of evidence per key); the pipeline uses
/// `(HostId, FiveTuple)`.
#[derive(Debug, Clone)]
pub struct VoteLedger<K: Ord> {
    num_links: usize,
    config: Algorithm1Config,
    epoch: u64,
    window: BTreeMap<K, FlowEvidence>,
    ring: VecDeque<WindowSummary>,
    ring_capacity: usize,
    health: LinkHealth,
    robustness: RobustnessCounters,
}

impl<K: Ord> VoteLedger<K> {
    /// A ledger over `num_links` links running `config`'s Algorithm 1 at
    /// every window close. `ring_capacity` bounds the retained window
    /// summaries; `alpha` is the cross-window [`LinkHealth`] EWMA factor.
    ///
    /// # Panics
    ///
    /// Panics when `ring_capacity` is 0 or `alpha` is outside `(0, 1]`.
    pub fn new(
        num_links: usize,
        config: Algorithm1Config,
        ring_capacity: usize,
        alpha: f64,
    ) -> Self {
        assert!(ring_capacity > 0, "ring must hold at least one window");
        Self {
            num_links,
            config,
            epoch: 0,
            window: BTreeMap::new(),
            ring: VecDeque::with_capacity(ring_capacity + 1),
            ring_capacity,
            health: LinkHealth::new(num_links, alpha),
            robustness: RobustnessCounters::default(),
        }
    }

    /// Absorbs one flow's evidence into the open window at `key`.
    /// Re-absorbing a key supersedes the earlier evidence, so
    /// at-least-once delivery cannot double-count a flow.
    pub fn absorb(&mut self, key: K, evidence: FlowEvidence) {
        self.robustness.absorbed += 1;
        if self.window.insert(key, evidence).is_some() {
            self.robustness.superseded += 1;
        }
    }

    /// Evidence items resident in the open window.
    pub fn resident(&self) -> usize {
        self.window.len()
    }

    /// The open window's index.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cross-window link-health EWMA (the operator heat map).
    pub fn health(&self) -> &LinkHealth {
        &self.health
    }

    /// Cumulative absorb/discard accounting (never reset by a close):
    /// votes absorbed vs discarded-by-exclusion, the byzantine-axis
    /// observability counters.
    pub fn robustness(&self) -> RobustnessCounters {
        self.robustness
    }

    /// The open window's evidence volume grouped by `group_of(key)` —
    /// usually the host half of the pipeline's `(HostId, FiveTuple)`
    /// key. Keys arrive in ascending order, so the result is
    /// sorted by group.
    pub fn volumes_by<H: Ord + Copy>(&self, group_of: impl Fn(&K) -> H) -> Vec<(H, u64)> {
        let mut volumes: BTreeMap<H, u64> = BTreeMap::new();
        for key in self.window.keys() {
            *volumes.entry(group_of(key)).or_insert(0) += 1;
        }
        volumes.into_iter().collect()
    }

    /// The retained window summaries, oldest first (at most the ring
    /// capacity).
    pub fn windows(&self) -> impl Iterator<Item = &WindowSummary> {
        self.ring.iter()
    }

    /// Closes the open window: runs the batch pipeline's exact two-pass
    /// analysis over the window's evidence in key order, feeds the
    /// detection into [`LinkHealth`] and the summary ring, and opens the
    /// next window. No flow record is consulted — evidence is all the
    /// analysis ever needed.
    pub fn close_window(&mut self) -> WindowAnalysis {
        // The evidence leaves the window by value (no re-clone); the
        // BTreeMap yields it key-ascending — the order the batch
        // pipeline sorts its reports into.
        let evidence: Vec<FlowEvidence> = std::mem::take(&mut self.window).into_values().collect();

        // The §6 ordering, exactly as the batch pipeline runs it: a
        // conservative first pass (fixed threshold bar over all evidence)
        // licenses the noise filter; the final pass — Algorithm 1 with
        // its shrinking bar — runs on the failure-class evidence only.
        let conservative = detect(
            &evidence,
            self.num_links,
            &Algorithm1Config {
                threshold_base: ThresholdBase::Initial,
                ..self.config
            },
        );
        let classes = classify_flows(&evidence, &conservative.detected_links(), self.num_links);
        let failure_evidence: Vec<FlowEvidence> = evidence
            .iter()
            .zip(&classes)
            .filter(|(_, c)| **c == DropClass::Failure)
            .map(|(e, _)| e.clone())
            .collect();
        let detection = detect(&failure_evidence, self.num_links, &self.config);
        let unbounded_picks = detect(
            &failure_evidence,
            self.num_links,
            &Algorithm1Config {
                threshold_frac: 0.0,
                max_detections: 20,
                ..self.config
            },
        )
        .detected_links();

        self.health.absorb(&detection);
        self.ring.push_back(WindowSummary {
            epoch: self.epoch,
            evidence: evidence.len(),
            total_votes: detection.raw_tally.total(),
            detections: detection.detections.clone(),
            noise_flows: classes.iter().filter(|c| **c == DropClass::Noise).count(),
        });
        while self.ring.len() > self.ring_capacity {
            self.ring.pop_front();
        }

        let closed = self.epoch;
        self.epoch += 1;

        WindowAnalysis {
            epoch: closed,
            evidence,
            conservative,
            classes,
            detection,
            unbounded_picks,
        }
    }

    /// The ledger's persistent cross-window state: epoch index, summary
    /// ring, health EWMA, robustness counters. Taken **at a window
    /// boundary** (right after [`close_window`](Self::close_window), when
    /// the open window is empty) it is the ledger's *complete* state — a
    /// collector that [`restore`](Self::restore)s it and replays
    /// subsequent windows closes them bit-identically to one that never
    /// went down. Open-window evidence is deliberately not captured:
    /// mid-window evidence is in flight by definition, and the failover
    /// contract is per-window.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            epoch: self.epoch,
            ring: self.ring.iter().cloned().collect(),
            health: self.health.clone(),
            robustness: self.robustness,
        }
    }

    /// Rebuilds a ledger from a [`snapshot`](Self::snapshot), resuming at
    /// the snapshot's epoch with an empty open window. The sizing
    /// parameters are [`VoteLedger::new`]'s and must match the original
    /// ledger's (they are configuration, not state, so the snapshot does
    /// not carry them).
    ///
    /// # Errors
    ///
    /// Refuses a snapshot that does not fit these parameters: a ring
    /// longer than `ring_capacity`, link-health state sized for another
    /// link count, or a health EWMA taken at another `alpha`.
    ///
    /// # Panics
    ///
    /// Panics when `ring_capacity` is 0 or `alpha` is outside `(0, 1]`.
    pub fn restore(
        num_links: usize,
        config: Algorithm1Config,
        ring_capacity: usize,
        alpha: f64,
        snapshot: LedgerSnapshot,
    ) -> Result<Self, String> {
        let mut ledger = Self::new(num_links, config, ring_capacity, alpha);
        if snapshot.ring.len() > ring_capacity {
            return Err(format!(
                "snapshot ring ({} windows) exceeds ring capacity {ring_capacity}",
                snapshot.ring.len()
            ));
        }
        snapshot.health.check_shape(num_links, alpha)?;
        ledger.epoch = snapshot.epoch;
        ledger.ring = snapshot.ring.into();
        ledger.health = snapshot.health;
        ledger.robustness = snapshot.robustness;
        Ok(ledger)
    }
}

/// A [`VoteLedger`]'s serializable cross-window state — what
/// [`VoteLedger::snapshot`] captures at a window boundary and
/// [`VoteLedger::restore`] resumes from. The collector daemon persists
/// one of these per window close so a restart loses at most the open
/// window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerSnapshot {
    /// The next window's index (windows closed so far).
    pub epoch: u64,
    /// Retained window summaries, oldest first.
    pub ring: Vec<WindowSummary>,
    /// The cross-window link-health EWMA.
    pub health: LinkHealth,
    /// Cumulative absorb/discard accounting.
    pub robustness: RobustnessCounters,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voting::VoteWeight;

    type Key = (u32, u32);

    fn ev(links: &[u32], retx: u32) -> FlowEvidence {
        FlowEvidence::new(links.iter().map(|l| LinkId(*l)).collect(), retx)
    }

    fn ledger() -> VoteLedger<Key> {
        VoteLedger::new(64, Algorithm1Config::default(), 4, 0.3)
    }

    #[test]
    fn close_window_matches_batch_analysis() {
        // Absorbing in *any* order must close to the same analysis as
        // the batch two-pass over key-sorted evidence.
        let items: Vec<(Key, FlowEvidence)> = vec![
            ((2, 9), ev(&[5, 20], 3)),
            ((0, 4), ev(&[5, 21], 2)),
            ((1, 1), ev(&[7, 8], 1)),
            ((0, 2), ev(&[5, 22], 4)),
        ];
        let mut forward = ledger();
        for (k, e) in items.iter() {
            forward.absorb(*k, e.clone());
        }
        let mut reverse = ledger();
        for (k, e) in items.iter().rev() {
            reverse.absorb(*k, e.clone());
        }
        let a = forward.close_window();
        let b = reverse.close_window();
        assert_eq!(a.evidence, b.evidence, "evidence comes out in key order");
        assert_eq!(a.detection.raw_tally, b.detection.raw_tally);
        assert_eq!(a.detection.detected_links(), b.detection.detected_links());
        assert_eq!(a.classes, b.classes);

        // And it equals the hand-run batch pipeline on sorted evidence.
        let mut sorted = items.clone();
        sorted.sort_by_key(|(k, _)| *k);
        let evidence: Vec<FlowEvidence> = sorted.iter().map(|(_, e)| e.clone()).collect();
        let conservative = detect(
            &evidence,
            64,
            &Algorithm1Config {
                threshold_base: ThresholdBase::Initial,
                ..Algorithm1Config::default()
            },
        );
        let classes = classify_flows(&evidence, &conservative.detected_links(), 64);
        assert_eq!(a.classes, classes);
        let failure: Vec<FlowEvidence> = evidence
            .iter()
            .zip(&classes)
            .filter(|(_, c)| **c == DropClass::Failure)
            .map(|(e, _)| e.clone())
            .collect();
        let batch = detect(&failure, 64, &Algorithm1Config::default());
        assert_eq!(a.detection.raw_tally, batch.raw_tally);
        assert_eq!(a.detection.detected_links(), batch.detected_links());
    }

    #[test]
    fn windows_roll_and_ring_is_bounded() {
        let mut l = ledger();
        for w in 0..6u64 {
            assert_eq!(l.epoch(), w);
            l.absorb((0, w as u32), ev(&[5, 20], 2));
            l.absorb((1, w as u32), ev(&[5, 21], 2));
            let win = l.close_window();
            assert_eq!(win.epoch, w);
            assert_eq!(win.evidence.len(), 2);
            assert_eq!(l.resident(), 0, "window cleared at close");
        }
        // Ring capacity 4: only the last 4 summaries survive.
        let epochs: Vec<u64> = l.windows().map(|w| w.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4, 5]);
        // Persistent detection heats the health EWMA and its streak.
        assert!(l.health().score(LinkId(5)) > 0.0);
        assert_eq!(l.health().current_streak(LinkId(5)), 6);
    }

    #[test]
    fn reabsorbing_a_key_supersedes_instead_of_double_counting() {
        let mut l = ledger();
        l.absorb((0, 0), ev(&[3, 4], 1));
        l.absorb((0, 0), ev(&[3, 4], 5));
        assert_eq!(l.resident(), 1);
        let win = l.close_window();
        assert_eq!(win.evidence.len(), 1);
        let mass = win.conservative.raw_tally.total();
        assert_eq!(mass, 1.0, "one flow's mass, not two");
        assert_eq!(win.evidence[0].retransmissions, 5, "newest evidence wins");
    }

    #[test]
    fn robustness_counters_and_volumes_track_the_window() {
        let mut l = ledger();
        l.absorb((0, 0), ev(&[1, 2], 1));
        l.absorb((0, 1), ev(&[1, 2], 1));
        l.absorb((0, 1), ev(&[1, 2], 3)); // supersedes
        l.absorb((7, 0), ev(&[3, 4], 2));
        let c = l.robustness();
        assert_eq!(c.absorbed, 4);
        assert_eq!(c.superseded, 1);
        assert_eq!(c.retracted, 0);
        assert_eq!(c.discarded(), 1);
        assert_eq!(l.volumes_by(|k| k.0), vec![(0, 2), (7, 1)]);
        // Counters are cumulative: a close resets the window, not them.
        l.close_window();
        assert_eq!(l.robustness(), c);
        assert!(l.volumes_by(|k| k.0).is_empty());
    }

    #[test]
    fn cast_weight_follows_config() {
        let mut l: VoteLedger<u32> = VoteLedger::new(
            8,
            Algorithm1Config {
                weight: VoteWeight::Unit,
                ..Algorithm1Config::default()
            },
            2,
            0.5,
        );
        l.absorb(0, ev(&[1, 2], 1));
        let win = l.close_window();
        assert_eq!(win.conservative.raw_tally.votes(LinkId(1)), 1.0);
    }

    #[test]
    #[should_panic(expected = "ring")]
    fn zero_ring_capacity_rejected() {
        let _: VoteLedger<u32> = VoteLedger::new(4, Algorithm1Config::default(), 0, 0.5);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Run two windows, snapshot at the boundary, keep running the
        // original; a restored ledger fed the same remaining windows must
        // close each one bit-identically (tallies, ring, health,
        // epoch index) — the collector failover contract.
        let feed = |l: &mut VoteLedger<Key>, w: u32| {
            l.absorb((0, w), ev(&[5, 20], 2 + w));
            l.absorb((1, w), ev(&[5, 21], 1));
            l.absorb((2, w), ev(&[7, 8 + w % 3], 1));
        };
        let mut original = ledger();
        for w in 0..2 {
            feed(&mut original, w);
            original.close_window();
        }
        let snap = original.snapshot();
        assert_eq!(snap.epoch, 2);

        let mut restored =
            VoteLedger::restore(64, Algorithm1Config::default(), 4, 0.3, snap).unwrap();
        assert_eq!(restored.epoch(), 2);
        for w in 2..5 {
            feed(&mut original, w);
            feed(&mut restored, w);
            let a = original.close_window();
            let b = restored.close_window();
            assert_eq!(a.evidence, b.evidence);
            assert_eq!(a.detection.raw_tally, b.detection.raw_tally);
            assert_eq!(a.detection.detected_links(), b.detection.detected_links());
            assert_eq!(a.unbounded_picks, b.unbounded_picks);
        }
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    /// A snapshot that does not fit the restoring ledger is refused with
    /// an error: a ring longer than the capacity, health sized for
    /// another fabric, or another EWMA factor.
    #[test]
    fn restore_refuses_a_snapshot_of_another_shape() {
        let mut l = VoteLedger::new(64, Algorithm1Config::default(), 9, 0.3);
        for w in 0..9 {
            l.absorb((0, w), ev(&[5, 20], 2));
            l.close_window();
        }
        let restore = |links, capacity, alpha, snap| {
            VoteLedger::<Key>::restore(links, Algorithm1Config::default(), capacity, alpha, snap)
        };
        let err = restore(64, 8, 0.3, l.snapshot()).unwrap_err();
        assert!(err.contains("9 windows"), "{err}");

        // A larger fabric's state would index past this ledger's tally at
        // the first window close; a smaller one's would mix heat maps.
        for links in [32, 128] {
            let err = restore(links, 9, 0.3, l.snapshot()).unwrap_err();
            assert!(err.contains(&links.to_string()), "{err}");
        }
        let err = restore(64, 9, 0.5, l.snapshot()).unwrap_err();
        assert!(err.contains("alpha"), "{err}");
        assert!(restore(64, 9, 0.3, l.snapshot()).is_ok());
    }

    #[test]
    fn snapshot_survives_json() {
        let mut l = ledger();
        l.absorb((0, 0), ev(&[5, 20], 2));
        l.absorb((1, 0), ev(&[5, 21], 3));
        l.close_window();
        let snap = l.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: LedgerSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
