//! The per-host 007 agent: monitoring → pacing → path discovery →
//! reporting.

use crate::events::AgentEvent;
use crate::hub::EventSender;
use crate::monitor::RetransmissionEvent;
use crate::pathdisc::{DiscoveredPath, HostPacer};
use serde::{Deserialize, Serialize};
use vigil_packet::FiveTuple;
use vigil_topology::{HostId, LinkId};

/// What a host sends the centralized analysis agent for one traced flow.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Reporting host.
    pub host: HostId,
    /// The flow.
    pub tuple: FiveTuple,
    /// Retransmissions the monitor saw this epoch.
    pub retransmissions: u32,
    /// Links of the discovered path (complete or partial).
    pub links: Vec<LinkId>,
    /// Whether the discovered path was complete.
    pub complete: bool,
}

/// One host's agent for one epoch (batch mode) or its whole lifetime
/// (streaming mode, where [`HostAgent::epoch_tick`] rolls it forward).
#[derive(Debug)]
pub struct HostAgent {
    host: HostId,
    pacer: HostPacer,
    seq: u64,
}

impl HostAgent {
    /// An agent for `host` with the given pacer.
    pub fn new(host: HostId, pacer: HostPacer) -> Self {
        Self {
            host,
            pacer,
            seq: 0,
        }
    }

    /// The next per-host sequence number (consumed).
    fn bump_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Protocol events emitted so far (the next event's sequence number).
    pub fn events_emitted(&self) -> u64 {
        self.seq
    }

    /// Rewinds the sequence counter to `seq` — a distributed agent
    /// replaying an unacknowledged epoch restores the pre-epoch counter
    /// so the replayed events carry the same sequence numbers (the
    /// collector's dedup keys on them for exactly-once tallying).
    pub fn rewind(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// The host this agent runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Handles one retransmission event: admits it through the pacer
    /// (once per flow per epoch, within the Theorem 1 budget), then runs
    /// `discover` and reports the path it found. A refused event never
    /// runs `discover`, so it sends no probe.
    ///
    /// Returns `None` when the event is filtered (already traced this
    /// epoch, budget exhausted, or discovery found no links) — the cases
    /// §4/§9.1 accept as lost coverage in exchange for bounded overhead.
    pub fn trace(
        &mut self,
        event: &RetransmissionEvent,
        discover: impl FnOnce() -> Option<DiscoveredPath>,
    ) -> Option<TraceReport> {
        debug_assert_eq!(event.host, self.host, "event routed to wrong host agent");
        if !self.pacer.admit(&event.tuple) {
            return None;
        }
        let DiscoveredPath { links, complete } = discover()?;
        if links.is_empty() {
            return None;
        }
        Some(TraceReport {
            host: self.host,
            tuple: event.tuple,
            retransmissions: event.retransmissions,
            links,
            complete,
        })
    }

    /// Streaming mode: observes one retransmission and emits protocol
    /// events onto the hub — [`AgentEvent::FlowOpen`] for the observation
    /// itself, then [`AgentEvent::Evidence`] when the pacer admits the
    /// trace. Uses the shedding `try_send` ("monitoring must never hurt
    /// the application"); a shed is visible in the hub counters and as a
    /// per-host sequence gap. Returns `true` when evidence was emitted
    /// *and* delivered.
    pub fn on_retransmission(
        &mut self,
        event: &RetransmissionEvent,
        path: DiscoveredPath,
        hub: &EventSender,
    ) -> bool {
        let open_seq = self.bump_seq();
        hub.try_send(AgentEvent::FlowOpen {
            host: self.host,
            seq: open_seq,
            tuple: event.tuple,
        });
        match self.trace(event, || Some(path)) {
            Some(report) => {
                let seq = self.bump_seq();
                hub.try_send(AgentEvent::Evidence { seq, report })
            }
            None => false,
        }
    }

    /// Streaming mode: rolls into epoch `epoch` (budget refreshed, trace
    /// cache cleared — exactly [`next_epoch`](Self::next_epoch)) and
    /// announces it on the hub.
    pub fn epoch_tick(&mut self, epoch: u64, hub: &EventSender) {
        self.pacer.next_epoch();
        let seq = self.bump_seq();
        hub.try_send(AgentEvent::EpochTick {
            host: self.host,
            seq,
            epoch,
        });
    }

    /// Streaming mode: announces shutdown — the final event this host id
    /// will carry.
    pub fn drain(&mut self, hub: &EventSender) {
        let seq = self.bump_seq();
        hub.try_send(AgentEvent::Drain {
            host: self.host,
            seq,
        });
    }

    /// Rolls the agent into the next epoch.
    pub fn next_epoch(&mut self) {
        self.pacer.next_epoch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::is_eventful;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vigil_fabric::faults::LinkFaults;
    use vigil_fabric::flowsim::{simulate_epoch, EpochOutcome, EpochScratch, SimConfig};
    use vigil_fabric::traffic::{ConnCount, TrafficSpec};
    use vigil_topology::{ClosParams, ClosTopology, LinkKind};

    fn epoch() -> (ClosTopology, EpochOutcome) {
        let topo = ClosTopology::new(ClosParams::tiny(), 17).unwrap();
        let mut faults = LinkFaults::new(topo.num_links());
        let bad = topo
            .links()
            .iter()
            .find(|l| l.kind == LinkKind::T1ToTor)
            .unwrap()
            .id;
        faults.fail_link(bad, 0.1);
        let traffic = TrafficSpec {
            conns_per_host: ConnCount::Fixed(25),
            ..TrafficSpec::paper_default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let out = simulate_epoch(
            &topo,
            &faults,
            &traffic,
            &SimConfig::default(),
            &mut rng,
            &mut EpochScratch::new(),
        );
        (topo, out)
    }

    /// `host`'s retransmission events this epoch, in flow order, each
    /// with its flow's oracle path.
    fn events_of(host: HostId, out: &EpochOutcome) -> Vec<(RetransmissionEvent, DiscoveredPath)> {
        out.flows
            .iter()
            .filter(|f| f.src == host && is_eventful(f.established, f.retransmissions))
            .map(|f| {
                let event = RetransmissionEvent {
                    host,
                    tuple: f.tuple,
                    retransmissions: f.retransmissions,
                };
                (event, DiscoveredPath::of_flow_path(&f.path))
            })
            .collect()
    }

    #[test]
    fn reports_cover_all_admitted_events() {
        let (topo, out) = epoch();
        let mut total_reports = 0;
        for h in topo.hosts() {
            let mut agent = HostAgent::new(h, HostPacer::with_budget(1000));
            let events = events_of(h, &out);
            let reports: Vec<_> = events
                .iter()
                .filter_map(|(e, path)| agent.trace(e, || Some(path.clone())))
                .collect();
            assert_eq!(reports.len(), events.len(), "ample budget traces all");
            for r in &reports {
                assert_eq!(r.host, h);
                assert!(!r.links.is_empty());
                let f = out.flows.iter().find(|f| f.tuple == r.tuple).unwrap();
                assert_eq!(r.links, f.path.links);
            }
            total_reports += reports.len();
        }
        assert!(total_reports > 0);
    }

    #[test]
    fn budget_caps_reports() {
        let (topo, out) = epoch();
        // Find a host with ≥ 2 events.
        let busy = topo.hosts().find(|h| events_of(*h, &out).len() >= 2);
        let Some(h) = busy else {
            // Statistically improbable with a 10% failed link; treat as
            // test-environment failure.
            panic!("no host saw two retransmitting flows");
        };
        let mut agent = HostAgent::new(h, HostPacer::with_budget(1));
        let mut discovered = 0;
        let reports: Vec<_> = events_of(h, &out)
            .into_iter()
            .filter_map(|(e, path)| {
                agent.trace(&e, || {
                    discovered += 1;
                    Some(path)
                })
            })
            .collect();
        assert_eq!(reports.len(), 1, "budget of 1 admits exactly one trace");
        assert_eq!(discovered, 1, "a refused event runs no discovery");
    }

    #[test]
    fn streaming_protocol_emits_sequenced_events() {
        use crate::events::AgentEvent;
        use crate::hub::event_channel;
        let (topo, out) = epoch();
        let (tx, collector) = event_channel();
        let h = topo
            .hosts()
            .find(|h| !events_of(*h, &out).is_empty())
            .unwrap();
        let mut agent = HostAgent::new(h, HostPacer::with_budget(1000));
        let events = events_of(h, &out);
        for (e, discovered) in &events {
            assert!(agent.on_retransmission(e, discovered.clone(), &tx));
        }
        agent.epoch_tick(1, &tx);
        agent.drain(&tx);

        let mut protocol = Vec::new();
        collector.drain_into(&mut protocol);
        // FlowOpen + Evidence per event, then the tick and the drain.
        assert_eq!(protocol.len(), events.len() * 2 + 2);
        for (i, ev) in protocol.iter().enumerate() {
            assert_eq!(ev.host(), h);
            assert_eq!(ev.seq(), i as u64, "gap-free per-host sequence");
        }
        assert!(matches!(
            protocol[protocol.len() - 2],
            AgentEvent::EpochTick { epoch: 1, .. }
        ));
        assert!(matches!(protocol.last(), Some(AgentEvent::Drain { .. })));
        assert_eq!(collector.shed(), 0);
        assert_eq!(agent.events_emitted(), protocol.len() as u64);
    }

    #[test]
    fn duplicate_events_traced_once() {
        let (topo, out) = epoch();
        let h = topo
            .hosts()
            .find(|h| !events_of(*h, &out).is_empty())
            .unwrap();
        let (event, path) = events_of(h, &out).swap_remove(0);
        let mut agent = HostAgent::new(h, HostPacer::with_budget(10));
        assert!(agent.trace(&event, || Some(path.clone())).is_some());
        assert!(
            agent.trace(&event, || Some(path.clone())).is_none(),
            "same flow, same epoch: cached"
        );
        agent.next_epoch();
        assert!(
            agent.trace(&event, || Some(path.clone())).is_some(),
            "next epoch traces again"
        );
    }
}
