//! Event fan-in: per-host agents → centralized analysis agent.
//!
//! The paper's Figure 2 shows every host's 007 process feeding a central
//! analysis agent ("At regular intervals of 30s the votes are tallied by a
//! centralized analysis agent"). This module is that arrow: a crossbeam
//! MPMC channel pair carrying the typed [`AgentEvent`] protocol, so host
//! agents can run on their own threads and the collector drains
//! everything that arrived.
//!
//! [`event_channel`] is unbounded — fine for an agent's private staging
//! queue. A deployment wants [`event_channel_bounded`]: a slow (or
//! wedged) analysis agent then exerts backpressure instead of growing
//! the queue without limit, and hosts that refuse to block can
//! [`EventSender::try_send`] and shed events — "monitoring must never
//! hurt the application".

use crate::events::AgentEvent;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared delivery accounting for one hub: how many submissions made it
/// onto the queue and how many were shed (full bounded queue, or
/// collector gone). Shedding is a *deliberate* pressure valve —
/// "monitoring must never hurt the application" — but a silent one is an
/// operational hazard: votes quietly vanish and accuracy degrades with
/// no signal. The counters make every shed observable at the collector.
#[derive(Debug, Default)]
struct HubCounters {
    delivered: AtomicU64,
    shed: AtomicU64,
}

/// Sending half of the typed [`AgentEvent`] hub given to the host agents
/// (clone freely; one per host thread).
#[derive(Debug, Clone)]
pub struct EventSender {
    tx: Sender<AgentEvent>,
    counters: Arc<HubCounters>,
}

impl EventSender {
    /// Blocking submit (backpressure on a full bounded hub). `false` when
    /// the collector is gone (shutdown) — hosts just drop events then,
    /// matching the "monitoring must never hurt the application" stance.
    pub fn send(&self, event: AgentEvent) -> bool {
        if self.tx.send(event).is_ok() {
            self.counters.delivered.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Non-blocking submit for hosts that must never stall; sheds (and
    /// counts the shed) on a full bounded hub or after collector
    /// shutdown. Losing one event costs a vote, not correctness (the flow
    /// will retransmit again next epoch), and the per-host sequence
    /// numbers in [`AgentEvent`] are what let the collector *see* the
    /// resulting gap.
    pub fn try_send(&self, event: AgentEvent) -> bool {
        match self.tx.try_send(event) {
            Ok(()) => {
                self.counters.delivered.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }
}

/// Receiving half of the typed event hub, owned by the analysis agent
/// (the stream driver in our pipeline).
#[derive(Debug)]
pub struct EventCollector {
    rx: Receiver<AgentEvent>,
    counters: Arc<HubCounters>,
}

impl EventCollector {
    /// Drains every queued event into `out` (append; non-blocking).
    /// Returns the number drained. The caller owns the buffer so the
    /// steady-state drain loop allocates nothing.
    pub fn drain_into(&self, out: &mut Vec<AgentEvent>) -> usize {
        let before = out.len();
        while let Ok(e) = self.rx.try_recv() {
            out.push(e);
        }
        out.len() - before
    }

    /// Events accepted onto the hub so far.
    pub fn delivered(&self) -> u64 {
        self.counters.delivered.load(Ordering::Relaxed)
    }

    /// Events shed so far (bounded queue full on `try_send`, or sender
    /// outliving the collector). Nonzero sheds mean votes were lost — the
    /// stream driver logs this count every window.
    pub fn shed(&self) -> u64 {
        self.counters.shed.load(Ordering::Relaxed)
    }
}

/// Creates an unbounded typed event hub.
pub fn event_channel() -> (EventSender, EventCollector) {
    let (tx, rx) = unbounded();
    let counters = Arc::new(HubCounters::default());
    (
        EventSender {
            tx,
            counters: Arc::clone(&counters),
        },
        EventCollector { rx, counters },
    )
}

/// Creates a typed event hub holding at most `capacity` undelivered
/// events — the stream driver's bounded queue depth.
///
/// # Panics
///
/// Panics when `capacity` is 0 (rendezvous would deadlock the drain
/// pattern).
pub fn event_channel_bounded(capacity: usize) -> (EventSender, EventCollector) {
    assert!(capacity > 0, "hub capacity must be at least 1");
    let (tx, rx) = bounded(capacity);
    let counters = Arc::new(HubCounters::default());
    (
        EventSender {
            tx,
            counters: Arc::clone(&counters),
        },
        EventCollector { rx, counters },
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
    fn fan_in_from_threads() {
        let (tx, collector) = event_channel();
        let mut handles = Vec::new();
        for h in 0..8u32 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for seq in 0..5 {
                    assert!(tx.send(evidence(h, seq)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut events = Vec::new();
        assert_eq!(collector.drain_into(&mut events), 40);
        // Every host contributed 5, and the drain is non-blocking.
        for h in 0..8u32 {
            assert_eq!(events.iter().filter(|e| e.host() == HostId(h)).count(), 5);
        }
        assert_eq!(collector.drain_into(&mut events), 0);
    }

    #[test]
    fn bounded_hub_send_applies_backpressure() {
        let (tx, collector) = event_channel_bounded(1);
        assert!(tx.send(evidence(1, 0)));
        let producer = std::thread::spawn(move || {
            // Queue is full: this blocks until the collector drains,
            // then succeeds — backpressure, not loss.
            assert!(tx.send(evidence(2, 0)));
        });
        let mut events = Vec::new();
        while events.len() < 2 {
            collector.drain_into(&mut events);
            std::thread::yield_now();
        }
        producer.join().unwrap();
        assert_eq!(events[1].host(), HostId(2));
        assert_eq!((collector.delivered(), collector.shed()), (2, 0));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn bounded_hub_rejects_zero_capacity() {
        let _ = event_channel_bounded(0);
    }

    #[test]
    fn send_after_collector_drop_counts_as_shed() {
        let (tx, collector) = event_channel();
        drop(collector);
        assert!(!tx.send(evidence(1, 0)));
        assert!(!tx.try_send(evidence(2, 0)));
        // A fresh hub starts at zero.
        let (tx2, collector2) = event_channel();
        assert!(tx2.send(evidence(3, 0)));
        assert_eq!((collector2.delivered(), collector2.shed()), (1, 0));
    }

    #[test]
    fn event_hub_carries_the_typed_protocol() {
        use crate::events::AgentEvent;
        let (tx, collector) = event_channel_bounded(8);
        assert!(tx.send(AgentEvent::FlowOpen {
            host: HostId(1),
            seq: 0,
            tuple: report(1, 1).tuple,
        }));
        assert!(tx.send(AgentEvent::Evidence {
            seq: 1,
            report: report(1, 2),
        }));
        assert!(tx.send(AgentEvent::EpochTick {
            host: HostId(1),
            seq: 2,
            epoch: 0,
        }));
        assert!(tx.send(AgentEvent::Drain {
            host: HostId(1),
            seq: 3,
        }));
        let mut events = Vec::new();
        assert_eq!(collector.drain_into(&mut events), 4);
        assert_eq!(collector.delivered(), 4);
        assert_eq!(collector.shed(), 0);
        // Per-host sequence numbers arrive gap-free and monotonic.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.host(), HostId(1));
            assert_eq!(e.seq(), i as u64);
        }
    }

    #[test]
    fn event_hub_sheds_visibly_when_full() {
        use crate::events::AgentEvent;
        let (tx, collector) = event_channel_bounded(1);
        let open = |seq| AgentEvent::FlowOpen {
            host: HostId(0),
            seq,
            tuple: report(0, 1).tuple,
        };
        assert!(tx.try_send(open(0)));
        assert!(!tx.try_send(open(1)), "full hub sheds");
        assert_eq!(collector.shed(), 1);
        let mut events = Vec::new();
        collector.drain_into(&mut events);
        // The surviving stream has a detectable sequence gap after the
        // next successful send.
        assert!(tx.try_send(open(2)));
        collector.drain_into(&mut events);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq(), 0);
        assert_eq!(events[1].seq(), 2, "gap marks the shed event");
    }
}
