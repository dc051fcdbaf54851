//! Cross-epoch link health: the operator's heat map.
//!
//! "This gives us a heat-map of our network which highlights the links
//! with the most impact to a given application/customer" (§2), and §9.2:
//! "The tally of votes on a given link provide a starting point for
//! deciding when such intervention is needed." A single epoch is 30
//! seconds; interventions (reboot, RMA, cable swap) are justified by
//! *persistent* patterns — "Any persistent pattern in such transient
//! failures is a cause for concern and is potentially actionable" (§1).
//!
//! [`LinkHealth`] folds per-epoch tallies into an exponentially weighted
//! score per link plus detection streaks, giving exactly that
//! prioritization signal: hot now (this epoch's votes), hot lately (the
//! EWMA), and chronically bad (consecutive-epoch detection streaks).

use crate::algorithm1::Algorithm1Output;
use serde::{Deserialize, Serialize};
use vigil_topology::LinkId;

/// Cross-epoch accumulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkHealth {
    /// EWMA smoothing factor per epoch (0 < α ≤ 1); higher = more
    /// reactive.
    alpha: f64,
    ewma: Vec<f64>,
    streak: Vec<u32>,
    longest_streak: Vec<u32>,
    epochs: u64,
}

impl LinkHealth {
    /// An accumulator over `num_links` links. `alpha` weighs the newest
    /// epoch (e.g. 0.3: ~3-epoch memory).
    pub fn new(num_links: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self {
            alpha,
            ewma: vec![0.0; num_links],
            streak: vec![0; num_links],
            longest_streak: vec![0; num_links],
            epochs: 0,
        }
    }

    /// Checks that this state tracks `num_links` links at `alpha` — what
    /// a restored snapshot must match before it replaces a fresh one.
    pub(crate) fn check_shape(&self, num_links: usize, alpha: f64) -> Result<(), String> {
        let sizes = [
            self.ewma.len(),
            self.streak.len(),
            self.longest_streak.len(),
        ];
        if sizes.iter().any(|&n| n != num_links) {
            return Err(format!(
                "snapshot link health tracks {sizes:?} links, this fabric has {num_links}"
            ));
        }
        if self.alpha != alpha {
            return Err(format!(
                "snapshot link-health alpha {} differs from the configured {alpha}",
                self.alpha
            ));
        }
        Ok(())
    }

    /// Folds one epoch's detection output in.
    pub fn absorb(&mut self, epoch: &Algorithm1Output) {
        self.epochs += 1;
        let detected: std::collections::HashSet<LinkId> =
            epoch.detections.iter().map(|d| d.link).collect();
        for i in 0..self.ewma.len() {
            let id = LinkId(i as u32);
            let votes = epoch.raw_tally.votes(id);
            self.ewma[i] = (1.0 - self.alpha) * self.ewma[i] + self.alpha * votes;
            if detected.contains(&id) {
                self.streak[i] += 1;
                self.longest_streak[i] = self.longest_streak[i].max(self.streak[i]);
            } else {
                self.streak[i] = 0;
            }
        }
    }

    /// Epochs absorbed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The smoothed vote score of a link.
    pub fn score(&self, link: LinkId) -> f64 {
        self.ewma[link.index()]
    }

    /// Consecutive epochs this link has been detected, as of the last
    /// absorbed epoch.
    pub fn current_streak(&self, link: LinkId) -> u32 {
        self.streak[link.index()]
    }

    /// The longest detection streak observed.
    pub fn longest_streak(&self, link: LinkId) -> u32 {
        self.longest_streak[link.index()]
    }

    /// The heat map: links ranked by smoothed score, descending, zero
    /// scores omitted (ties by id).
    pub fn heat_map(&self) -> Vec<(LinkId, f64)> {
        let mut v: Vec<(LinkId, f64)> = self
            .ewma
            .iter()
            .enumerate()
            .filter(|(_, s)| **s > 1e-12)
            .map(|(i, s)| (LinkId(i as u32), *s))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        v
    }

    /// Links whose detection streak has reached `min_epochs` — the
    /// "persistent pattern … potentially actionable" intervention list.
    pub fn actionable(&self, min_epochs: u32) -> Vec<LinkId> {
        assert!(min_epochs > 0);
        self.streak
            .iter()
            .enumerate()
            .filter(|(_, s)| **s >= min_epochs)
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::{detect, Algorithm1Config};
    use crate::evidence::FlowEvidence;

    fn epoch_with(links: &[u32]) -> Algorithm1Output {
        // Two voters per target link so the quorum admits them.
        let evidence: Vec<FlowEvidence> = links
            .iter()
            .flat_map(|l| {
                [
                    FlowEvidence::new(vec![LinkId(*l), LinkId(90 + *l)], 1),
                    FlowEvidence::new(vec![LinkId(*l), LinkId(80 + *l)], 1),
                ]
            })
            .collect();
        detect(&evidence, 100, &Algorithm1Config::default())
    }

    #[test]
    fn ewma_rises_and_decays() {
        let mut h = LinkHealth::new(100, 0.5);
        h.absorb(&epoch_with(&[5]));
        let after_one = h.score(LinkId(5));
        assert!(after_one > 0.0);
        h.absorb(&epoch_with(&[5]));
        assert!(h.score(LinkId(5)) > after_one, "persistent link heats up");
        h.absorb(&epoch_with(&[7]));
        h.absorb(&epoch_with(&[7]));
        assert!(
            h.score(LinkId(5)) < after_one + 1e-9,
            "quiet link cools down"
        );
    }

    #[test]
    fn streaks_track_consecutive_detections() {
        let mut h = LinkHealth::new(100, 0.3);
        h.absorb(&epoch_with(&[5]));
        h.absorb(&epoch_with(&[5]));
        h.absorb(&epoch_with(&[5]));
        assert_eq!(h.current_streak(LinkId(5)), 3);
        h.absorb(&epoch_with(&[7]));
        assert_eq!(h.current_streak(LinkId(5)), 0, "streak breaks");
        assert_eq!(h.longest_streak(LinkId(5)), 3, "history retained");
        assert_eq!(h.epochs(), 4);
    }

    #[test]
    fn actionable_threshold() {
        let mut h = LinkHealth::new(100, 0.3);
        for _ in 0..3 {
            h.absorb(&epoch_with(&[5, 9]));
        }
        h.absorb(&epoch_with(&[9]));
        assert_eq!(h.actionable(4), vec![LinkId(9)]);
        assert!(h.actionable(5).is_empty());
    }

    #[test]
    fn heat_map_ordering() {
        let mut h = LinkHealth::new(100, 0.5);
        h.absorb(&epoch_with(&[5]));
        h.absorb(&epoch_with(&[5, 9]));
        let map = h.heat_map();
        assert_eq!(map.first().map(|(l, _)| *l), Some(LinkId(5)));
        assert!(map.iter().any(|(l, _)| *l == LinkId(9)));
        assert!(map.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    #[should_panic(expected = "alpha must be")]
    fn invalid_alpha_rejected() {
        let _ = LinkHealth::new(4, 0.0);
    }
}
