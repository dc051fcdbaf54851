//! Algorithm 1: finding the most problematic links (§5.1).
//!
//! ```text
//! B ← ∅
//! while v(lmax) ≥ 0.01·Σ v(li):
//!     lmax ← argmax over L ∖ B of v(li)
//!     B ← B ∪ {lmax}
//!     for li ∈ L ∖ B sharing a path with lmax: adjust v(li)
//! return B
//! ```
//!
//! The adjustment "iteratively pick\[s\] the most voted link lmax and
//! estimate\[s\] the portion of votes obtained by all other links due to
//! failures on lmax … by (i) assuming all flows having retransmissions and
//! going through lmax had drops due to lmax". With the actual per-flow
//! paths in hand (007 discovered them), that estimate is exact: every
//! not-yet-explained flow whose path contains `lmax` is attributed to
//! `lmax` and its votes are retracted from every link it touched. The
//! paper reports the adjustment cuts false positives by ~5 %; the
//! figure catalogue's `ablation` entry (`vigil-sim figures --only
//! ablation`) measures ours.
//!
//! The 1 % threshold "provides a reasonable trade-off between precision
//! and recall. Higher values reduce false positives but increase false
//! negatives" — the threshold sweep is also in the `ablation` entry.

use crate::evidence::FlowEvidence;
use crate::voting::{to_votes, VoteTally, VoteWeight};
use serde::{Deserialize, Serialize};
use vigil_topology::{LinkId, LinkSet};

/// Which total the `threshold_frac` multiplies.
///
/// The default is [`ThresholdBase::Current`], the literal reading of
/// Algorithm 1's line 6 (`while v(lmax) ≥ 0.01·Σ v(li)` re-evaluated
/// each iteration): as detected links' flows are retracted, the bar
/// lowers and faint failures behind loud ones become detectable — which
/// is what keeps recall high with many unequal failures (Figure 12).
/// This is only safe because noise-class flows are withheld from the
/// vote pool *before* detection (`crate::noise`); without that filter
/// the shrinking bar would promote lone drops into false positives. The
/// fixed [`ThresholdBase::Initial`] bar is kept for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ThresholdBase {
    /// `Σ v(li)` re-evaluated each iteration (the paper's line 6).
    #[default]
    Current,
    /// The epoch's initial cast total (a fixed, stricter bar).
    Initial,
}

/// Algorithm 1 configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Algorithm1Config {
    /// Detection threshold as a fraction of total votes (paper: 0.01).
    pub threshold_frac: f64,
    /// Whether to run the vote adjustment (§5.1; ablation).
    pub adjust: bool,
    /// Vote weight scheme (ablation; paper: `1/h`).
    pub weight: VoteWeight,
    /// Threshold base (ablation).
    pub threshold_base: ThresholdBase,
    /// Safety cap on detections (a 007 deployment flags the top handful;
    /// `usize::MAX` disables).
    pub max_detections: usize,
    /// Minimum distinct (unexplained) voting flows a link needs to be
    /// detectable. The democratic quorum: one flow's lone drop is, by the
    /// paper's own definition of noise, indistinguishable from a failed
    /// link with a single victim — so a single voter must never mint a
    /// detection, no matter how small the epoch's vote total is. Default
    /// 2; set to 1 to reproduce the unguarded algorithm (ablation).
    pub min_voters: u32,
}

impl Default for Algorithm1Config {
    fn default() -> Self {
        Self {
            threshold_frac: 0.01,
            adjust: true,
            weight: VoteWeight::ReciprocalPathLength,
            threshold_base: ThresholdBase::default(),
            max_detections: usize::MAX,
            min_voters: 2,
        }
    }
}

/// One detected link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// The link.
    pub link: LinkId,
    /// Its vote count at the moment it was picked (after earlier
    /// adjustments).
    pub votes: f64,
}

/// Algorithm 1's output.
#[derive(Debug, Clone)]
pub struct Algorithm1Output {
    /// Detected links, in pick order (most problematic first).
    pub detections: Vec<Detection>,
    /// The tally after all adjustments (diagnostics / blame for residual
    /// flows).
    pub adjusted_tally: VoteTally,
    /// The raw, unadjusted tally (the ranking used for per-flow blame).
    pub raw_tally: VoteTally,
    /// Total vote mass cast into the tally (the democratic input).
    pub absorbed_votes: f64,
    /// Vote mass retracted by the adjustment pass — flows explained by a
    /// detected link whose votes were excluded from later picks. The
    /// absorbed/excluded split makes the tally's robustness observable:
    /// an adversary's spurious mass either stays in the residual (diluting
    /// thresholds) or is discarded here.
    pub excluded_votes: f64,
}

impl Algorithm1Output {
    /// The detected set as link ids.
    pub fn detected_links(&self) -> Vec<LinkId> {
        self.detections.iter().map(|d| d.link).collect()
    }
}

/// Runs Algorithm 1 over the epoch's evidence.
pub fn detect(
    evidence: &[FlowEvidence],
    num_links: usize,
    config: &Algorithm1Config,
) -> Algorithm1Output {
    let raw_tally = VoteTally::tally(evidence, num_links, config.weight);
    let mut tally = raw_tally.clone();
    let initial_total = tally.total_units();

    // Distinct-voter counts per link, maintained over unexplained flows.
    let mut voters = vec![0u32; num_links];
    for e in evidence {
        for l in &e.links {
            voters[l.index()] += 1;
        }
    }

    let mut explained = vec![false; evidence.len()];
    // Dense bitset over the link id space — the exclusion set B of the
    // paper's pseudocode, probed once per link per pick.
    let mut detected = LinkSet::new(num_links);
    let mut detections = Vec::new();

    while detections.len() < config.max_detections {
        let pick =
            tally.max_where(|l| !detected.contains(l) && voters[l.index()] >= config.min_voters);
        let Some((lmax, units)) = pick else {
            break;
        };
        let base = match config.threshold_base {
            ThresholdBase::Current => tally.total_units(),
            ThresholdBase::Initial => initial_total,
        };
        if (units as f64) < config.threshold_frac * base as f64 {
            break;
        }
        detections.push(Detection {
            link: lmax,
            votes: to_votes(units),
        });
        detected.insert(lmax);

        if config.adjust {
            for (i, ev) in evidence.iter().enumerate() {
                if !explained[i] && ev.links.contains(&lmax) {
                    explained[i] = true;
                    tally.retract(ev, config.weight);
                    for l in &ev.links {
                        voters[l.index()] -= 1;
                    }
                }
            }
        }
    }

    Algorithm1Output {
        detections,
        absorbed_votes: to_votes(initial_total),
        excluded_votes: to_votes(initial_total - tally.total_units()),
        adjusted_tally: tally,
        raw_tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(links: &[u32]) -> FlowEvidence {
        FlowEvidence::new(links.iter().map(|l| LinkId(*l)).collect(), 1)
    }

    fn cfg() -> Algorithm1Config {
        Algorithm1Config::default()
    }

    #[test]
    fn empty_evidence_detects_nothing() {
        let out = detect(&[], 10, &cfg());
        assert!(out.detections.is_empty());
    }

    #[test]
    fn single_failure_detected() {
        // 10 flows through link 5 (plus disjoint other links). The
        // pipeline hands Algorithm 1 *failure-class* evidence only (noise
        // flows are filtered upstream, §6 ordering).
        let evidence: Vec<FlowEvidence> = (0..10).map(|i| ev(&[5, 20 + i, 40 + i])).collect();
        let out = detect(&evidence, 80, &cfg());
        assert_eq!(out.detections[0].link, LinkId(5));
        // With adjustment, explaining link 5 retracts every flow; no
        // co-path link survives.
        assert_eq!(out.detections.len(), 1, "{:?}", out.detections);
    }

    #[test]
    fn quorum_blocks_lone_flows() {
        // A lone-drop flow alongside a real failure: with the default
        // voter quorum (min_voters = 2) the lone flow's links can never
        // be detected, however small the residual total gets.
        let mut evidence: Vec<FlowEvidence> = (0..10).map(|i| ev(&[5, 20 + i, 40 + i])).collect();
        evidence.push(ev(&[60, 61, 62]));
        let out = detect(&evidence, 80, &cfg());
        assert_eq!(out.detections[0].link, LinkId(5));
        assert_eq!(out.detections.len(), 1, "{:?}", out.detections);

        // Disabling the quorum (the ablation setting) reproduces the
        // unguarded algorithm, where the shrinking bar promotes the lone
        // flow's links into detections.
        let unguarded = detect(
            &evidence,
            80,
            &Algorithm1Config {
                min_voters: 1,
                ..cfg()
            },
        );
        assert!(
            unguarded.detections.len() > 1,
            "without the quorum, lone-drop votes survive: {:?}",
            unguarded.detections
        );
    }

    #[test]
    fn two_voters_meet_the_quorum() {
        // A faint failure witnessed by exactly two flows must still be
        // detectable (the quorum is 2, not more).
        let evidence = vec![ev(&[7, 20]), ev(&[7, 21])];
        let out = detect(&evidence, 30, &cfg());
        assert_eq!(out.detections.first().map(|d| d.link), Some(LinkId(7)));
    }

    #[test]
    fn adjustment_suppresses_co_path_links() {
        // All failed flows cross link 5; their other links share ids so
        // without adjustment those would accumulate comparable votes.
        let evidence: Vec<FlowEvidence> = (0..20).map(|i| ev(&[5, 20 + (i % 2)])).collect();
        let with = detect(&evidence, 30, &cfg());
        let without = detect(
            &evidence,
            30,
            &Algorithm1Config {
                adjust: false,
                ..cfg()
            },
        );
        assert_eq!(with.detections[0].link, LinkId(5));
        // With adjustment: links 20/21 retracted to 0, only link 5 stays.
        assert_eq!(with.detections.len(), 1, "{:?}", with.detections);
        // Without adjustment: 20 and 21 hold half the mass of link 5 and
        // cross the 1% threshold ⇒ false positives.
        assert!(
            without.detections.len() > 1,
            "no-adjust should over-detect: {:?}",
            without.detections
        );
    }

    #[test]
    fn threshold_gates_detection() {
        let evidence: Vec<FlowEvidence> = (0..100).map(|i| ev(&[i % 50, 50 + i % 50])).collect();
        // Uniform smear: no link clears a 10% bar.
        let out = detect(
            &evidence,
            100,
            &Algorithm1Config {
                threshold_frac: 0.10,
                ..cfg()
            },
        );
        assert!(out.detections.is_empty(), "{:?}", out.detections);
    }

    #[test]
    fn max_detections_caps() {
        let evidence: Vec<FlowEvidence> = (0..10)
            .flat_map(|i| std::iter::repeat_with(move || ev(&[i])).take(5))
            .collect();
        let out = detect(
            &evidence,
            10,
            &Algorithm1Config {
                max_detections: 3,
                ..cfg()
            },
        );
        assert_eq!(out.detections.len(), 3);
    }

    #[test]
    fn detections_ordered_by_pick_votes() {
        let mut evidence = Vec::new();
        for _ in 0..30 {
            evidence.push(ev(&[1, 10]));
        }
        for _ in 0..10 {
            evidence.push(ev(&[2, 11]));
        }
        let out = detect(&evidence, 20, &cfg());
        assert_eq!(out.detections[0].link, LinkId(1));
        assert_eq!(out.detections[0].votes, 15.0);
        assert!(out.detections.windows(2).all(|w| w[0].votes >= w[1].votes));
    }

    #[test]
    fn initial_threshold_base_is_stricter() {
        // One strong failure plus a weak one: with Initial base the weak
        // one must clear 1% of the *original* total.
        let mut evidence = Vec::new();
        for _ in 0..500 {
            evidence.push(ev(&[1, 10]));
        }
        for _ in 0..3 {
            evidence.push(ev(&[2, 11]));
        }
        let current = detect(
            &evidence,
            20,
            &Algorithm1Config {
                threshold_base: ThresholdBase::Current,
                ..cfg()
            },
        );
        let initial = detect(
            &evidence,
            20,
            &Algorithm1Config {
                threshold_base: ThresholdBase::Initial,
                ..cfg()
            },
        );
        assert!(current.detections.len() >= initial.detections.len());
        // 3/503 < 1% of 503 ⇒ initial base rejects link 2.
        assert!(!initial.detected_links().contains(&LinkId(2)));
        // After explaining link 1's 500 flows, 3 votes ≥ 1% of 3 ⇒
        // current base accepts it.
        assert!(current.detected_links().contains(&LinkId(2)));
    }

    #[test]
    fn raw_tally_preserved_for_blame() {
        let evidence = vec![ev(&[1, 2]), ev(&[1, 3])];
        let out = detect(&evidence, 5, &cfg());
        assert_eq!(out.raw_tally.votes(LinkId(1)), 1.0);
        // Detecting link 1 explains (retracts) both flows.
        assert_eq!(out.adjusted_tally, VoteTally::new(5));
    }

    #[test]
    fn absorbed_and_excluded_mass_account_for_the_adjustment() {
        // Two flows through link 1: detection explains both, so the whole
        // absorbed mass is excluded by the adjustment pass.
        let evidence = vec![ev(&[1, 2]), ev(&[1, 3])];
        let out = detect(&evidence, 5, &cfg());
        assert_eq!(out.absorbed_votes, 2.0);
        assert_eq!(out.excluded_votes, 2.0);
        // Without adjustment nothing is ever excluded.
        let no_adjust = detect(
            &evidence,
            5,
            &Algorithm1Config {
                adjust: false,
                ..cfg()
            },
        );
        assert_eq!(no_adjust.excluded_votes, 0.0);
        assert_eq!(no_adjust.absorbed_votes, 2.0);
    }
}
