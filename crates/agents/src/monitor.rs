//! The TCP monitoring agent.
//!
//! "The TCP monitoring agent detects retransmissions at each end-host.
//! The Event Tracing For Windows (ETW) framework notifies the agent as
//! soon as an active flow suffers a retransmission." (§3)
//!
//! The fabric's flow records carry the per-flow retransmission counts the
//! kernel would have reported; [`TcpMonitor`] turns them into the event
//! stream a host's path discovery agent reacts to. Connection-establishment
//! failures are *not* events (§4.2: "Path discovery is not triggered for
//! such connections"), matching the ETW behaviour of only reporting on
//! established sockets.

use serde::{Deserialize, Serialize};
use vigil_fabric::flowsim::FlowRecord;
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

/// The per-host monitoring agent.
///
/// Stateless in flow-mode (events derive from epoch records); kept as a
/// struct so deployments can carry per-host config later.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpMonitor;

impl TcpMonitor {
    /// Creates a monitor.
    pub fn new() -> Self {
        Self
    }

    /// The one eventfulness rule every extraction path shares: the flow
    /// established (§4.2 — no discovery for failed establishments) and
    /// saw at least one retransmission.
    fn is_eventful(f: &FlowRecord) -> bool {
        f.established && f.retransmissions > 0
    }

    /// Extracts this host's retransmission events from the epoch's flow
    /// records (the ETW feed). Establishment failures are filtered per
    /// §4.2; zero-retransmission flows produce no events ("We set the
    /// value of good votes to 0 (if a flow has no retransmission, no
    /// traceroute is needed)").
    pub fn events_for_host<'a>(
        &self,
        host: HostId,
        flows: &'a [FlowRecord],
    ) -> impl Iterator<Item = RetransmissionEvent> + 'a {
        flows.iter().filter_map(move |f| {
            (f.src == host && Self::is_eventful(f)).then_some(RetransmissionEvent {
                host,
                tuple: f.tuple,
                retransmissions: f.retransmissions,
            })
        })
    }

    /// All hosts' events (convenience for single-threaded pipelines).
    pub fn all_events<'a>(
        &self,
        flows: &'a [FlowRecord],
    ) -> impl Iterator<Item = RetransmissionEvent> + 'a {
        flows.iter().filter_map(|f| {
            Self::is_eventful(f).then_some(RetransmissionEvent {
                host: f.src,
                tuple: f.tuple,
                retransmissions: f.retransmissions,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vigil_fabric::faults::LinkFaults;
    use vigil_fabric::flowsim::{simulate_epoch, SimConfig};
    use vigil_fabric::traffic::{ConnCount, TrafficSpec};
    use vigil_topology::{ClosParams, ClosTopology, LinkKind};

    fn epoch_with_failure() -> (ClosTopology, vigil_fabric::flowsim::EpochOutcome) {
        let topo = ClosTopology::new(ClosParams::tiny(), 3).unwrap();
        let mut faults = LinkFaults::new(topo.num_links());
        let bad = topo
            .links()
            .iter()
            .find(|l| l.kind == LinkKind::TorToT1)
            .unwrap()
            .id;
        faults.fail_link(bad, 0.08);
        let traffic = TrafficSpec {
            conns_per_host: ConnCount::Fixed(20),
            ..TrafficSpec::paper_default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let out = simulate_epoch(&topo, &faults, &traffic, &SimConfig::default(), &mut rng);
        (topo, out)
    }

    #[test]
    fn events_match_flow_records() {
        let (_topo, out) = epoch_with_failure();
        let monitor = TcpMonitor::new();
        let events: Vec<_> = monitor.all_events(&out.flows).collect();
        let expected = out
            .flows
            .iter()
            .filter(|f| f.established && f.retransmissions > 0)
            .count();
        assert_eq!(events.len(), expected);
        assert!(!events.is_empty(), "failure must produce events");
        for e in &events {
            let f = out.flows.iter().find(|f| f.tuple == e.tuple).unwrap();
            assert_eq!(e.retransmissions, f.retransmissions);
            assert_eq!(e.host, f.src);
        }
    }

    #[test]
    fn per_host_filter() {
        let (topo, out) = epoch_with_failure();
        let monitor = TcpMonitor::new();
        let mut total = 0;
        for h in topo.hosts() {
            for e in monitor.events_for_host(h, &out.flows) {
                assert_eq!(e.host, h);
                total += 1;
            }
        }
        assert_eq!(total, monitor.all_events(&out.flows).count());
    }

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
        let out = simulate_epoch(&topo, &faults, &traffic, &SimConfig::default(), &mut rng);
        let failed = out.flows.iter().filter(|f| !f.established).count();
        assert!(failed > 0, "blackhole must break establishments");
        let monitor = TcpMonitor::new();
        for e in monitor.all_events(&out.flows) {
            let f = out.flows.iter().find(|f| f.tuple == e.tuple).unwrap();
            assert!(f.established);
        }
    }
}
