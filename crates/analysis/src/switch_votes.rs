//! Switch-level voting (the §5.1 extension).
//!
//! "007 can also be used to detect switch failures in a similar fashion
//! by applying votes to switches instead of links." A flow's vote of
//! `1/s` goes to each of the `s` distinct switches on its path; a switch
//! that drops packets on many of its interfaces (FCS errors after a power
//! event, a bad forwarding ASIC, the §7.1 repaved-cluster ToR) then
//! outranks any single link.
//!
//! The tally counts exact integer units: `h ≤ MAX_ROUTE_LINKS` links touch
//! at most 7 switches on a route and `2h = 12` in any link set (a liar's),
//! so a vote is 27 720 = lcm(1..=12) units and every `1/s` share is whole.
//! Evidence naming more links panics, as in [`crate::VoteTally::cast`].

use crate::evidence::FlowEvidence;
use std::cmp::Reverse;
use vigil_topology::{ClosTopology, Node, SwitchId, MAX_ROUTE_LINKS};

/// Tally units per whole switch vote: `lcm(1..=2·MAX_ROUTE_LINKS)`.
const UNITS_PER_VOTE: u64 = 27_720;

fn to_votes(units: u64) -> f64 {
    units as f64 / UNITS_PER_VOTE as f64
}

/// The distinct switches `evidence`'s links touch, in first-seen order.
fn switches_of(topo: &ClosTopology, evidence: &FlowEvidence) -> Vec<SwitchId> {
    assert!(
        evidence.hop_count() <= MAX_ROUTE_LINKS,
        "evidence names {} links; no route has more than {MAX_ROUTE_LINKS}",
        evidence.hop_count()
    );
    let mut switches = Vec::with_capacity(evidence.links.len() + 1);
    for l in &evidence.links {
        let link = topo.link(*l);
        for node in [link.from, link.to] {
            if let Node::Switch(s) = node {
                if !switches.contains(&s) {
                    switches.push(s);
                }
            }
        }
    }
    switches
}

/// Dense per-switch vote tally, held in exact units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchTally {
    units: Vec<u64>,
}

impl SwitchTally {
    /// Tallies evidence: each flow votes `1/s` on each distinct switch
    /// its links touch (link endpoints that are switches).
    pub fn tally(topo: &ClosTopology, evidence: &[FlowEvidence]) -> Self {
        let mut t = Self {
            units: vec![0; topo.num_switches()],
        };
        for e in evidence {
            t.cast(&switches_of(topo, e));
        }
        t
    }

    /// One flow's `1/s` share on each of its `s` switches.
    fn cast(&mut self, switches: &[SwitchId]) {
        for s in switches {
            self.units[s.0 as usize] += UNITS_PER_VOTE / switches.len() as u64;
        }
    }

    /// A switch's votes.
    pub fn votes(&self, switch: SwitchId) -> f64 {
        to_votes(self.units[switch.0 as usize])
    }

    /// Ranking, descending (ties by id), zero-vote switches omitted.
    pub fn ranking(&self) -> Vec<(SwitchId, f64)> {
        let mut v: Vec<(SwitchId, f64)> = self
            .units
            .iter()
            .enumerate()
            .filter(|(_, u)| **u > 0)
            .map(|(i, u)| (SwitchId(i as u32), to_votes(*u)))
            .collect();
        v.sort_by_key(|&(s, _)| (Reverse(self.units[s.0 as usize]), s));
        v
    }

    /// Sum of votes over all switches.
    pub fn total(&self) -> f64 {
        to_votes(self.units.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vigil_topology::{ClosParams, LinkId};

    fn topo() -> ClosTopology {
        ClosTopology::new(ClosParams::tiny(), 31).unwrap()
    }

    #[test]
    fn bad_switch_outranks_links() {
        let topo = topo();
        // Flows through multiple different links of the same T1 switch.
        let t1 = topo.t1(0, 0);
        let in_links: Vec<LinkId> = topo
            .links()
            .iter()
            .filter(|l| l.to == Node::Switch(t1))
            .map(|l| l.id)
            .collect();
        let out_links: Vec<LinkId> = topo
            .links()
            .iter()
            .filter(|l| l.from == Node::Switch(t1))
            .map(|l| l.id)
            .collect();
        let evidence: Vec<FlowEvidence> = in_links
            .iter()
            .zip(out_links.iter().cycle())
            .take(8)
            .map(|(a, b)| FlowEvidence::new(vec![*a, *b], 1))
            .collect();
        let tally = SwitchTally::tally(&topo, &evidence);
        assert_eq!(tally.ranking()[0].0, t1);
    }

    #[test]
    fn empty_evidence() {
        let topo = topo();
        let tally = SwitchTally::tally(&topo, &[]);
        assert!(tally.ranking().is_empty());
    }

    #[test]
    fn distinct_switch_normalization() {
        let topo = topo();
        // One flow: votes sum to 1 over its distinct switches.
        let host = vigil_topology::HostId(0);
        let tor = topo.host_tor(host);
        let up = topo
            .link_between(Node::Host(host), Node::Switch(tor))
            .unwrap();
        let evidence = vec![FlowEvidence::new(vec![up], 1)];
        let tally = SwitchTally::tally(&topo, &evidence);
        assert_eq!(tally.votes(tor), 1.0);
        assert_eq!(tally.total(), 1.0);
    }
}
