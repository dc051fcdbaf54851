//! The TCP monitoring agent.
//!
//! "The TCP monitoring agent detects retransmissions at each end-host.
//! The Event Tracing For Windows (ETW) framework notifies the agent as
//! soon as an active flow suffers a retransmission." (§3)
//!
//! The fabric's flow records carry the per-flow retransmission counts the
//! kernel would have reported; [`is_eventful`] is the rule that turns one
//! into a [`RetransmissionEvent`]. Connection-establishment failures are
//! *not* events (§4.2: "Path discovery is not triggered for such
//! connections"), matching the ETW behaviour of only reporting on
//! established sockets.

use serde::{Deserialize, Serialize};
use vigil_packet::FiveTuple;
use vigil_topology::HostId;

/// One retransmission notification, as ETW would deliver it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetransmissionEvent {
    /// The host whose kernel reported the event (the flow's source).
    pub host: HostId,
    /// The connection (as the kernel sees it: post-SLB five-tuple).
    pub tuple: FiveTuple,
    /// Retransmissions this epoch (the first event triggers discovery;
    /// the count feeds the integer-program baseline).
    pub retransmissions: u32,
}

/// The §4.2 eventfulness rule: a flow raises a retransmission event
/// when it established (no discovery for failed establishments) and saw
/// at least one retransmission ("if a flow has no retransmission, no
/// traceroute is needed").
#[inline]
pub fn is_eventful(established: bool, retransmissions: u32) -> bool {
    established && retransmissions > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vigil_fabric::faults::LinkFaults;
    use vigil_fabric::flowsim::{simulate_epoch, EpochScratch, SimConfig};
    use vigil_fabric::traffic::{ConnCount, TrafficSpec};
    use vigil_topology::{ClosParams, ClosTopology, LinkKind};

    #[test]
    fn establishment_failures_emit_no_events() {
        // A flow that failed to establish must not be reported even if it
        // counted retransmissions (SYN retries).
        let topo = ClosTopology::new(ClosParams::tiny(), 3).unwrap();
        let mut faults = LinkFaults::new(topo.num_links());
        let bad = topo
            .links()
            .iter()
            .find(|l| l.kind == LinkKind::TorToT1)
            .unwrap()
            .id;
        faults.fail_link(bad, 1.0); // blackhole ⇒ establishment failures
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let traffic = TrafficSpec {
            conns_per_host: ConnCount::Fixed(20),
            ..TrafficSpec::paper_default()
        };
        let out = simulate_epoch(
            &topo,
            &faults,
            &traffic,
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );
        let failed = out.flows.iter().filter(|f| !f.established).count();
        assert!(failed > 0, "blackhole must break establishments");
        for f in out.flows.iter().filter(|f| !f.established) {
            assert!(f.retransmissions > 0, "SYN retries count");
            assert!(!is_eventful(f.established, f.retransmissions));
        }
    }
}
