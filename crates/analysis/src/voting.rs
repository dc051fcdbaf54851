//! Vote casting and tallying (§5.1).
//!
//! "If a flow sees a retransmission, 007 votes its links as bad. Each vote
//! has a value that is tallied at the end of every epoch, providing a
//! natural ranking of the links. We set the value of good votes to 0 …
//! Bad votes are assigned a value of 1/h, where h is the number of hops on
//! the path, since each link on the path is equally likely to be
//! responsible for the drop."
//!
//! [`VoteWeight`] carries the vote-weight ablation (the `ablation` entry
//! of `vigil_bench::FIGURES`): the paper's `1/h` against flat votes
//! (over-blames long paths) and `1/h²` (under-weights evidence from long
//! paths).
//!
//! **Exact units.** A tally counts integer units of 1/3600 of a vote: no
//! route has more than [`MAX_ROUTE_LINKS`] = 6 links, and 3600 is the lcm
//! of `h²` over `h ≤ 6`, so every weight's per-link vote is whole. Cast,
//! retract, argmax and threshold are integer arithmetic — independent of
//! evidence order, free of residue, exact on ties — and votes become
//! `f64` only where they are reported.

use crate::evidence::FlowEvidence;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use vigil_topology::{LinkId, MAX_ROUTE_LINKS};

/// Tally units per whole vote: the lcm of `h²` over `h ≤ MAX_ROUTE_LINKS`.
const UNITS_PER_VOTE: u64 = 3600;

/// A unit count as votes — the one place a vote becomes a float.
pub(crate) fn to_votes(units: u64) -> f64 {
    units as f64 / UNITS_PER_VOTE as f64
}

/// Vote value assigned to each link of a retransmitting flow's path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum VoteWeight {
    /// The paper's choice: `1/h`.
    #[default]
    ReciprocalPathLength,
    /// Ablation: every link gets a full vote.
    Unit,
    /// Ablation: `1/h²`.
    ReciprocalSquared,
}

impl VoteWeight {
    /// The per-link vote for a path of `h` links, in tally units.
    fn units(self, h: usize) -> u64 {
        let h = h.max(1) as u64; // an empty path casts on no link
        match self {
            VoteWeight::ReciprocalPathLength => UNITS_PER_VOTE / h,
            VoteWeight::Unit => UNITS_PER_VOTE,
            VoteWeight::ReciprocalSquared => UNITS_PER_VOTE / (h * h),
        }
    }
}

/// Dense per-link vote tally for one epoch, held in exact units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteTally {
    units: Vec<u64>,
    total: u64,
}

impl VoteTally {
    /// An empty tally over `num_links` links.
    pub fn new(num_links: usize) -> Self {
        Self {
            units: vec![0; num_links],
            total: 0,
        }
    }

    /// Tallies a whole epoch of evidence.
    pub fn tally(evidence: &[FlowEvidence], num_links: usize, weight: VoteWeight) -> Self {
        let mut t = Self::new(num_links);
        for e in evidence {
            t.cast(e, weight);
        }
        t
    }

    /// Casts one flow's votes.
    ///
    /// # Panics
    ///
    /// Panics when the evidence names more than [`MAX_ROUTE_LINKS`]
    /// links (no route is that long, and the unit scale relies on it) or
    /// a link outside the tally.
    pub fn cast(&mut self, evidence: &FlowEvidence, weight: VoteWeight) {
        let h = evidence.hop_count();
        assert!(
            h <= MAX_ROUTE_LINKS,
            "evidence names {h} links; no route has more than {MAX_ROUTE_LINKS}"
        );
        let w = weight.units(h);
        for l in &evidence.links {
            self.units[l.index()] += w;
        }
        self.total += w * h as u64;
    }

    /// Retracts one flow's votes (Algorithm 1's adjustment: the flow is
    /// now explained by a detected link, so its votes on *other* links
    /// were noise amplification). A link never drops below zero, so
    /// retracting evidence that was never cast cannot mint negative votes.
    pub fn retract(&mut self, evidence: &FlowEvidence, weight: VoteWeight) {
        let w = weight.units(evidence.hop_count());
        for l in &evidence.links {
            let v = &mut self.units[l.index()];
            let removed = w.min(*v);
            *v -= removed;
            self.total -= removed;
        }
    }

    /// A link's current vote count.
    pub fn votes(&self, link: LinkId) -> f64 {
        to_votes(self.units[link.index()])
    }

    /// Sum of votes over all links.
    pub fn total(&self) -> f64 {
        to_votes(self.total)
    }

    /// Sum of votes over all links, in tally units.
    pub(crate) fn total_units(&self) -> u64 {
        self.total
    }

    /// The most-voted link among those the predicate admits, with its
    /// votes in tally units; ties break to the lowest id. `None` when no
    /// admitted link has positive votes.
    pub(crate) fn max_where(&self, mut admit: impl FnMut(LinkId) -> bool) -> Option<(LinkId, u64)> {
        let mut best: Option<(LinkId, u64)> = None;
        for (i, &v) in self.units.iter().enumerate() {
            let id = LinkId(i as u32);
            if v > best.map_or(0, |(_, b)| b) && admit(id) {
                best = Some((id, v));
            }
        }
        best
    }

    /// The full ranking: `(link, votes)` sorted by votes descending, zero
    /// -vote links omitted, ties by id ascending. This is the paper's
    /// "heat-map of the network".
    pub fn ranking(&self) -> Vec<(LinkId, f64)> {
        let mut v: Vec<(LinkId, f64)> = self
            .units
            .iter()
            .enumerate()
            .filter(|(_, u)| **u > 0)
            .map(|(i, u)| (LinkId(i as u32), to_votes(*u)))
            .collect();
        v.sort_by_key(|&(l, _)| (Reverse(self.units[l.index()]), l));
        v
    }

    /// The most-voted link among `links` (per-flow blame support); ties to
    /// the lowest id; `None` if none of them holds votes.
    pub fn top_among(&self, links: &[LinkId]) -> Option<(LinkId, f64)> {
        links
            .iter()
            .map(|&l| (l, self.units[l.index()]))
            .filter(|&(_, u)| u > 0)
            .max_by_key(|&(l, u)| (u, Reverse(l)))
            .map(|(l, u)| (l, to_votes(u)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vigil_topology::LinkSet;

    fn ev(links: &[u32], retx: u32) -> FlowEvidence {
        FlowEvidence::new(links.iter().map(|l| LinkId(*l)).collect(), retx)
    }

    #[test]
    fn weights() {
        assert_eq!(VoteWeight::ReciprocalPathLength.units(4), 900);
        assert_eq!(VoteWeight::Unit.units(4), 3600);
        assert_eq!(VoteWeight::ReciprocalSquared.units(2), 900);
        // Every weight is a whole number of units on every route length.
        for h in 1..=MAX_ROUTE_LINKS as u64 {
            assert_eq!(UNITS_PER_VOTE % (h * h), 0, "h = {h}");
        }
    }

    #[test]
    fn one_flow_casts_unit_total() {
        // h links × 1/h each = exactly 1 vote of total mass per flow.
        let mut t = VoteTally::new(10);
        t.cast(&ev(&[1, 2, 3, 4], 1), VoteWeight::ReciprocalPathLength);
        assert_eq!(t.total(), 1.0);
        assert_eq!(t.votes(LinkId(1)), 0.25);
    }

    #[test]
    #[should_panic(expected = "no route has more than")]
    fn cast_refuses_evidence_longer_than_any_route() {
        let mut t = VoteTally::new(10);
        t.cast(&ev(&[0, 1, 2, 3, 4, 5, 6], 1), VoteWeight::Unit);
    }

    #[test]
    fn tally_accumulates() {
        let evidence = vec![ev(&[1, 2], 1), ev(&[2, 3], 1)];
        let t = VoteTally::tally(&evidence, 5, VoteWeight::ReciprocalPathLength);
        assert_eq!(t.votes(LinkId(2)), 1.0);
        assert_eq!(t.votes(LinkId(1)), 0.5);
        assert_eq!(t.total(), 2.0);
    }

    #[test]
    fn ranking_orders_and_breaks_ties() {
        let evidence = vec![ev(&[1, 2], 1), ev(&[2, 3], 1), ev(&[4, 5], 1)];
        let t = VoteTally::tally(&evidence, 8, VoteWeight::ReciprocalPathLength);
        let r = t.ranking();
        assert_eq!(r[0].0, LinkId(2));
        // 1, 3, 4, 5 all at 0.5: ties by id.
        assert_eq!(
            r[1..].iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![LinkId(1), LinkId(3), LinkId(4), LinkId(5)]
        );
    }

    #[test]
    fn retract_undoes_cast() {
        let mut t = VoteTally::new(6);
        let e1 = ev(&[1, 2, 3], 1);
        let e2 = ev(&[3, 4], 1);
        t.cast(&e1, VoteWeight::ReciprocalPathLength);
        t.cast(&e2, VoteWeight::ReciprocalPathLength);
        t.retract(&e1, VoteWeight::ReciprocalPathLength);
        assert_eq!(t.votes(LinkId(1)), 0.0);
        assert_eq!(t.votes(LinkId(3)), 0.5);
        assert_eq!(t.total(), 1.0);
        t.retract(&e2, VoteWeight::ReciprocalPathLength);
        assert_eq!(t, VoteTally::new(6));
    }

    #[test]
    fn retract_clamps_at_zero() {
        let mut t = VoteTally::new(3);
        let e = ev(&[1], 1);
        t.retract(&e, VoteWeight::Unit); // retract without cast
        assert_eq!(t.votes(LinkId(1)), 0.0);
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    fn max_excluding_skips() {
        let t = VoteTally::tally(
            &[ev(&[1, 2], 1), ev(&[2], 1)],
            4,
            VoteWeight::ReciprocalPathLength,
        );
        let mut ex = LinkSet::new(4);
        let max_excluding = |ex: &LinkSet| t.max_where(|l| !ex.contains(l));
        assert_eq!(max_excluding(&ex), Some((LinkId(2), 5400)));
        ex.insert(LinkId(2));
        assert_eq!(max_excluding(&ex), Some((LinkId(1), 1800)));
        ex.insert(LinkId(1));
        assert!(max_excluding(&ex).is_none());
    }

    #[test]
    fn top_among_restricted() {
        let t = VoteTally::tally(
            &[ev(&[1, 2], 1), ev(&[2, 3], 1)],
            5,
            VoteWeight::ReciprocalPathLength,
        );
        // 1 and 3 tie at exactly 0.5: the lowest id wins.
        assert_eq!(t.top_among(&[LinkId(3), LinkId(1)]), Some((LinkId(1), 0.5)));
        assert_eq!(t.top_among(&[LinkId(2), LinkId(3)]), Some((LinkId(2), 1.0)));
        assert!(t.top_among(&[LinkId(4)]).is_none());
    }

    proptest! {
        #[test]
        fn total_equals_sum_of_votes(paths in proptest::collection::vec(
            proptest::collection::vec(0u32..20, 1..6), 0..30)) {
            let evidence: Vec<FlowEvidence> = paths.iter()
                .map(|p| ev(p, 1)).collect();
            let t = VoteTally::tally(&evidence, 20, VoteWeight::ReciprocalPathLength);
            let sum: u64 = t.units.iter().sum();
            prop_assert_eq!(sum, t.total_units());
        }

        #[test]
        fn vote_mass_conservation(paths in proptest::collection::vec(
            proptest::collection::vec(0u32..20, 1..7), 1..30)) {
            // Each flow casts exactly 1.0 total mass under 1/h (duplicate
            // links in a path would double-count, so dedupe first).
            let evidence: Vec<FlowEvidence> = paths.iter().map(|p| {
                let mut q = p.clone();
                q.sort_unstable();
                q.dedup();
                ev(&q, 1)
            }).collect();
            let t = VoteTally::tally(&evidence, 20, VoteWeight::ReciprocalPathLength);
            prop_assert_eq!(t.total(), evidence.len() as f64);
        }
    }
}
