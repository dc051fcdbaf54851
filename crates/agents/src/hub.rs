//! A bounded crossbeam hub for [`AgentEvent`]s, kept only for the
//! benchmark's twin.
//!
//! No library driver uses it: fabric, agents and ledger run on one
//! thread, so host agents emit into an [`EventSink`] buffer their driver
//! drains (the arrow in the paper's Figure 2 is a function call). The
//! benchmark's twin (`benchmark/src/twin.rs`) still compiles against
//! [`event_channel_bounded`], [`EventSender::try_send`] and
//! [`EventCollector::{drain_into, shed}`](EventCollector), so they stay
//! until ROADMAP item 24 deletes the twin; then this module goes.
//!
//! A full hub sheds: [`EventSender::try_send`] drops the event and counts
//! it ("monitoring must never hurt the application"), and the per-host
//! sequence numbers in [`AgentEvent`] leave a visible gap.

use crate::events::{AgentEvent, EventSink};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sending half of the hub.
#[derive(Debug, Clone)]
pub struct EventSender {
    tx: Sender<AgentEvent>,
    shed: Arc<AtomicU64>,
}

impl EventSender {
    /// Non-blocking submit; sheds (and counts the shed) on a full hub or
    /// after the collector is gone. `false` when shed.
    pub fn try_send(&self, event: AgentEvent) -> bool {
        let sent = self.tx.try_send(event).is_ok();
        if !sent {
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
        sent
    }
}

impl EventSink for &EventSender {
    fn emit(&mut self, event: AgentEvent) {
        self.try_send(event);
    }
}

/// Receiving half of the hub.
#[derive(Debug)]
pub struct EventCollector {
    rx: Receiver<AgentEvent>,
    shed: Arc<AtomicU64>,
}

impl EventCollector {
    /// Drains every queued event into `out` (append; non-blocking).
    /// Returns the number drained.
    pub fn drain_into(&self, out: &mut Vec<AgentEvent>) -> usize {
        let before = out.len();
        while let Ok(e) = self.rx.try_recv() {
            out.push(e);
        }
        out.len() - before
    }

    /// Events shed so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// Creates a hub holding at most `capacity` undelivered events.
///
/// # Panics
///
/// Panics when `capacity` is 0 (rendezvous would deadlock the drain
/// pattern).
pub fn event_channel_bounded(capacity: usize) -> (EventSender, EventCollector) {
    assert!(capacity > 0, "hub capacity must be at least 1");
    let (tx, rx) = bounded(capacity);
    let shed = Arc::new(AtomicU64::new(0));
    (
        EventSender {
            tx,
            shed: Arc::clone(&shed),
        },
        EventCollector { rx, shed },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_agent::TraceReport;
    use vigil_packet::FiveTuple;
    use vigil_topology::{HostId, LinkId};

    fn report(host: u32, retx: u32) -> TraceReport {
        TraceReport {
            host: HostId(host),
            tuple: FiveTuple::tcp(
                "10.0.0.1".parse().unwrap(),
                40_000 + host as u16,
                "10.0.1.1".parse().unwrap(),
                443,
            ),
            retransmissions: retx,
            links: vec![LinkId(1), LinkId(2)],
            complete: true,
        }
    }

    fn evidence(host: u32, seq: u64) -> AgentEvent {
        AgentEvent::Evidence {
            seq,
            report: report(host, 1),
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn bounded_hub_rejects_zero_capacity() {
        let _ = event_channel_bounded(0);
    }

    #[test]
    fn send_after_collector_drop_counts_as_shed() {
        let (tx, collector) = event_channel_bounded(4);
        drop(collector);
        assert!(!tx.try_send(evidence(1, 0)));
        assert!(!tx.try_send(evidence(2, 0)));
        // A fresh hub starts at zero.
        let (tx2, collector2) = event_channel_bounded(4);
        assert!(tx2.try_send(evidence(3, 0)));
        assert_eq!(collector2.shed(), 0);
    }

    #[test]
    fn event_hub_carries_the_typed_protocol() {
        let (tx, collector) = event_channel_bounded(8);
        assert!(tx.try_send(AgentEvent::FlowOpen {
            host: HostId(1),
            seq: 0,
            tuple: report(1, 1).tuple,
        }));
        assert!(tx.try_send(AgentEvent::Evidence {
            seq: 1,
            report: report(1, 2),
        }));
        assert!(tx.try_send(AgentEvent::EpochTick {
            host: HostId(1),
            seq: 2,
            epoch: 0,
        }));
        assert!(tx.try_send(AgentEvent::Drain {
            host: HostId(1),
            seq: 3,
        }));
        let mut events = Vec::new();
        assert_eq!(collector.drain_into(&mut events), 4);
        assert_eq!(collector.shed(), 0);
        // Per-host sequence numbers arrive gap-free and monotonic.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.host(), HostId(1));
            assert_eq!(e.seq(), i as u64);
        }
    }

    /// The `&EventSender` sink: a host agent emitting onto a full hub
    /// sheds, and the shed leaves a gap in its per-host sequence.
    #[test]
    fn event_hub_sheds_visibly_when_full() {
        use crate::host_agent::HostAgent;
        use crate::monitor::RetransmissionEvent;
        use crate::pathdisc::{DiscoveredPath, HostPacer};
        let (tx, collector) = event_channel_bounded(1);
        let mut agent = HostAgent::new(HostId(0), HostPacer::with_budget(10));
        let event = RetransmissionEvent {
            host: HostId(0),
            tuple: report(0, 1).tuple,
            retransmissions: 1,
        };
        let path = DiscoveredPath {
            links: vec![LinkId(1), LinkId(2)],
            complete: true,
        };
        // FlowOpen (seq 0) fills the hub; the Evidence (seq 1) is shed.
        agent.on_retransmission(&event, path, &tx);
        assert_eq!(collector.shed(), 1, "full hub sheds");
        let mut events = Vec::new();
        collector.drain_into(&mut events);
        // The surviving stream has a detectable sequence gap after the
        // next successful send.
        agent.epoch_tick(1, &tx);
        collector.drain_into(&mut events);
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], AgentEvent::FlowOpen { seq: 0, .. }));
        assert!(matches!(events[1], AgentEvent::EpochTick { seq: 2, .. }));
        assert_eq!(agent.events_emitted(), 3, "gap marks the shed event");
    }
}
