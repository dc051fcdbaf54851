//! The path discovery agent (paper §4).
//!
//! On a retransmission event the agent:
//!
//! 1. checks its **per-epoch cache** ("the agent triggers path discovery
//!    for a given connection no more than once every epoch");
//! 2. checks the **host traceroute budget** `Ct` from Theorem 1 so the
//!    fleet never pushes a switch past `Tmax` ICMP replies per second;
//! 3. discovers the path: in flow-mode as the flow's recorded path
//!    ([`DiscoveredPath::of_flow_path`]; the paper's §6 simulator votes on
//!    actual paths), or on the packet-level emulator via the
//!    [`ProbeTracer`], which sends the real 15-probe train and
//!    reconstructs the path from the ICMP replies — including **partial
//!    paths** when probes die at a blackhole.
//!
//! [`HostAgent::trace`](crate::HostAgent::trace) runs steps 1–3 in that
//! order. The §4.2/§9.1 SLB gate (a failed VIP→DIP query or a SNATed
//! flow skips discovery) is `vigil_fabric::slb::SlbModel`, applied by
//! the pipeline before the agent sees the event.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::collections::HashSet;
use vigil_fabric::netsim::NetSim;
use vigil_packet::FiveTuple;
use vigil_topology::bounds::theorem1_ct_bound;
use vigil_topology::{ClosTopology, HostId, LinkId, Node, Path};

/// A discovered path: the link sequence 007 will vote on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscoveredPath {
    /// Links identified, in path order (gaps skipped — see `complete`).
    pub links: Vec<LinkId>,
    /// True when every hop answered and the path reaches the destination
    /// host; false for partial traceroutes (which "directly pinpoint the
    /// faulty link", §4.2).
    pub complete: bool,
}

impl DiscoveredPath {
    /// The oracle discovery of a flow's recorded path — what a probe
    /// train on a stable fabric finds — taken from the record in hand
    /// (the streaming pipeline, where the chunk being simulated is the
    /// only place the record lives).
    pub fn of_flow_path(p: &Path) -> Self {
        Self {
            links: p.links.clone(),
            complete: path_is_complete(p),
        }
    }
}

/// The oracle's completeness rule: the path reaches a host and has at
/// least the two host links (src→ToR, ToR→dst).
fn path_is_complete(p: &Path) -> bool {
    matches!(p.nodes.last(), Some(Node::Host(_))) && p.hop_count() >= 2
}

/// A tuple → flow-record index over one epoch's flow table, built once
/// and shared by every consumer (the evaluator, the §7 experiment
/// binaries): a 4-byte index per flow instead of a cloned path.
#[derive(Debug, Clone, Default)]
pub struct FlowIndex {
    map: HashMap<FiveTuple, u32>,
}

impl FlowIndex {
    /// Builds the index over the epoch's flow records (later records win
    /// on duplicate tuples, matching `HashMap::collect` semantics).
    pub fn from_flows(flows: &[vigil_fabric::flowsim::FlowRecord]) -> Self {
        let mut map = HashMap::with_capacity(flows.len());
        for (i, f) in flows.iter().enumerate() {
            map.insert(f.tuple, i as u32);
        }
        Self { map }
    }

    /// The flow-record index of `tuple`, if the epoch saw it.
    pub fn get(&self, tuple: &FiveTuple) -> Option<usize> {
        self.map.get(tuple).map(|i| *i as usize)
    }

    /// Number of indexed flows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Probe-mode tracer: drives the packet-level emulator, parses the ICMP
/// replies, resolves responders through the alias map (§4.2 "Router
/// aliasing"), and reconstructs the link sequence.
#[derive(Debug)]
pub struct ProbeTracer<'a> {
    sim: &'a mut NetSim,
}

impl<'a> ProbeTracer<'a> {
    /// Wraps the emulator.
    pub fn new(sim: &'a mut NetSim) -> Self {
        Self { sim }
    }

    /// Sends `tuple`'s probe train from `src` and reconstructs the path,
    /// or `None` when no probe drew a reply.
    pub fn trace(&mut self, src: HostId, tuple: &FiveTuple) -> Option<DiscoveredPath> {
        let outcome = self.sim.send_probe_train(src, tuple);
        Self::reconstruct(self.sim.topo(), src, tuple, &outcome.replies)
    }

    /// Reconstructs the path from hop replies. Known points: the source
    /// host, each answering switch at its hop index, and — when the
    /// deepest answering switch is the destination's ToR — the final
    /// ToR→host link inferred from the known DIP (the probes' bad
    /// checksum means the destination itself never answers).
    fn reconstruct(
        topo: &ClosTopology,
        src: HostId,
        tuple: &FiveTuple,
        replies: &[vigil_packet::traceroute::ProbeReply],
    ) -> Option<DiscoveredPath> {
        if replies.is_empty() {
            return None;
        }
        let mut by_hop: HashMap<u8, vigil_topology::SwitchId> = HashMap::new();
        let mut deepest = 0u8;
        for r in replies {
            let switch = topo.alias().resolve(r.responder)?;
            by_hop.insert(r.hop, switch);
            deepest = deepest.max(r.hop);
        }

        let mut links = Vec::new();
        // Hop 0 is the source host; hop k ≥ 1 are switches.
        let mut prev: Option<Node> = Some(Node::Host(src));
        for hop in 1..=deepest {
            let cur = by_hop.get(&hop).map(|s| Node::Switch(*s));
            if let (Some(a), Some(b)) = (prev, cur) {
                if let Some(l) = topo.link_between(a, b) {
                    links.push(l);
                }
                // Adjacent in the reply stream but not in the topology ⇒
                // a hole (lost reply in between); skip the span.
            }
            prev = cur;
        }

        // Final-link inference: if the deepest responder is the
        // destination host's ToR, the last link is known from topology.
        let mut complete = false;
        if let (Some(dst), Some(Node::Switch(last))) = (topo.host_by_ip(tuple.dst_ip), prev) {
            if topo.host_tor(dst) == last {
                if let Some(l) = topo.link_between(Node::Switch(last), Node::Host(dst)) {
                    links.push(l);
                    complete = by_hop.len() == usize::from(deepest);
                }
            }
        }
        Some(DiscoveredPath { links, complete })
    }
}

/// Host-side traceroute pacing: the per-epoch budget from Theorem 1 plus
/// the once-per-flow-per-epoch cache.
#[derive(Debug, Clone)]
pub struct HostPacer {
    budget_per_epoch: u32,
    used: u32,
    traced_this_epoch: HashSet<FiveTuple>,
}

impl HostPacer {
    /// Derives the budget from Theorem 1: `⌊Ct⌋ × epoch_seconds`
    /// traceroutes per epoch at most (`Ct` itself is per second).
    pub fn from_theorem1(topo: &ClosTopology, tmax: f64, epoch_seconds: f64) -> Self {
        let ct = theorem1_ct_bound(topo.params(), tmax);
        let budget = (ct * epoch_seconds).floor().max(0.0) as u32;
        Self::with_budget(budget)
    }

    /// A pacer with an explicit per-epoch budget.
    pub fn with_budget(budget_per_epoch: u32) -> Self {
        Self {
            budget_per_epoch,
            used: 0,
            traced_this_epoch: HashSet::new(),
        }
    }

    /// The per-epoch budget.
    pub fn budget(&self) -> u32 {
        self.budget_per_epoch
    }

    /// Traceroutes spent this epoch.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Asks permission to trace `tuple`. Grants at most once per flow per
    /// epoch and never beyond the budget; a grant consumes budget.
    pub fn admit(&mut self, tuple: &FiveTuple) -> bool {
        if self.traced_this_epoch.contains(tuple) {
            return false;
        }
        if self.used >= self.budget_per_epoch {
            return false;
        }
        self.used += 1;
        self.traced_this_epoch.insert(*tuple);
        true
    }

    /// Starts a new epoch: budget refreshed, cache cleared.
    pub fn next_epoch(&mut self) {
        self.used = 0;
        self.traced_this_epoch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vigil_fabric::faults::LinkFaults;
    use vigil_fabric::netsim::{NetSim, NetSimConfig};
    use vigil_topology::{ClosParams, ClosTopology};

    fn topo() -> ClosTopology {
        ClosTopology::new(ClosParams::tiny(), 9).unwrap()
    }

    #[test]
    fn probe_tracer_matches_data_path_on_clean_fabric() {
        // The §8.2 validation: "each path recorded by 007 matches exactly
        // the path taken by that flow's packets".
        let topo = topo();
        let faults = LinkFaults::new(topo.num_links());
        let mut sim = NetSim::new(topo, faults, NetSimConfig::default(), 4);
        let src = HostId(0);
        let dst = HostId(sim.topo().num_hosts() as u32 - 1);
        let tuple = FiveTuple::tcp(
            sim.topo().host_ip(src),
            51_000,
            sim.topo().host_ip(dst),
            443,
        );
        let data_path = sim.data_path(&tuple, src, dst).unwrap();
        let mut tracer = ProbeTracer::new(&mut sim);
        let d = tracer.trace(src, &tuple).unwrap();
        assert_eq!(d.links, data_path.links);
        assert!(d.complete);
    }

    #[test]
    fn probe_tracer_partial_on_blackhole() {
        let topo = topo();
        let faults = LinkFaults::new(topo.num_links());
        let mut sim = NetSim::new(topo, faults, NetSimConfig::default(), 4);
        let src = HostId(0);
        let dst = HostId(sim.topo().num_hosts() as u32 - 1);
        let tuple = FiveTuple::tcp(
            sim.topo().host_ip(src),
            51_000,
            sim.topo().host_ip(dst),
            443,
        );
        let path = sim.data_path(&tuple, src, dst).unwrap();
        let bad = path.links[2]; // T1→T2
        sim.faults_mut().fail_link(bad, 1.0);
        let mut tracer = ProbeTracer::new(&mut sim);
        let d = tracer.trace(src, &tuple).unwrap();
        assert!(!d.complete);
        // Discovered prefix stops right before the blackhole: links 0..2.
        assert_eq!(d.links, path.links[..2].to_vec());
    }

    #[test]
    fn probe_tracer_none_when_all_replies_lost() {
        let topo = topo();
        let mut faults = LinkFaults::new(topo.num_links());
        let src = HostId(0);
        // Blackhole the host's uplink itself: no probe ever reaches a
        // switch.
        let up = topo
            .link_between(Node::Host(src), Node::Switch(topo.host_tor(src)))
            .unwrap();
        faults.fail_link(up, 1.0);
        let mut sim = NetSim::new(topo, faults, NetSimConfig::default(), 4);
        let dst = HostId(sim.topo().num_hosts() as u32 - 1);
        let tuple = FiveTuple::tcp(
            sim.topo().host_ip(src),
            51_000,
            sim.topo().host_ip(dst),
            443,
        );
        let mut tracer = ProbeTracer::new(&mut sim);
        assert!(tracer.trace(src, &tuple).is_none());
    }

    #[test]
    fn pacer_budget_and_cache() {
        let mut pacer = HostPacer::with_budget(2);
        let t1 = FiveTuple::tcp(
            "10.0.0.1".parse().unwrap(),
            1,
            "10.0.0.2".parse().unwrap(),
            2,
        );
        let t2 = FiveTuple::tcp(
            "10.0.0.1".parse().unwrap(),
            3,
            "10.0.0.2".parse().unwrap(),
            2,
        );
        let t3 = FiveTuple::tcp(
            "10.0.0.1".parse().unwrap(),
            4,
            "10.0.0.2".parse().unwrap(),
            2,
        );
        assert!(pacer.admit(&t1));
        assert!(!pacer.admit(&t1), "once per flow per epoch");
        assert!(pacer.admit(&t2));
        assert!(!pacer.admit(&t3), "budget exhausted");
        assert_eq!(pacer.used(), 2);
        pacer.next_epoch();
        assert!(pacer.admit(&t3), "budget refreshed");
        assert!(pacer.admit(&t1), "cache cleared");
    }

    #[test]
    fn pacer_from_theorem1() {
        let topo = topo();
        // tiny(): n0=4, n1=3, n2=4, npod=2, H=4.
        // level2 term = 4·(8−1)/(4·1) = 7 ≥ n1 = 3 ⇒ Ct = 100/16·3 = 18.75.
        let pacer = HostPacer::from_theorem1(&topo, 100.0, 30.0);
        assert_eq!(pacer.budget(), (18.75f64 * 30.0).floor() as u32);
    }
}
