//! The typed agent-event protocol: what a host's 007 process puts on the
//! wire to the centralized analysis agent.
//!
//! The batch pipeline moves epoch-sized `Vec<TraceReport>`s; the
//! streaming service mode moves *events* — small, typed, emitted the
//! moment the host observes them. Four kinds cover the deployment's
//! lifecycle (paper §3/§5.1):
//!
//! * [`AgentEvent::FlowOpen`] — the monitoring agent saw a flow enter the
//!   retransmitting state (the ETW notification, §3). Lets the collector
//!   track live flow counts without ever holding flow records.
//! * [`AgentEvent::Evidence`] — the path discovery agent traced the flow
//!   and submits its [`TraceReport`] (one vote's worth of evidence).
//! * [`AgentEvent::EpochTick`] — the host rolled into epoch `epoch`
//!   (budget refreshed, per-epoch trace cache cleared).
//! * [`AgentEvent::Drain`] — the host agent is shutting down; no further
//!   events will carry its host id.
//!
//! Every event carries a **per-host sequence number**, assigned by the
//! emitting agent in emission order. An agent emits into an
//! [`EventSink`]: the `Vec` its driver drains never loses an event, and
//! only the benchmark twin's hub ([`crate::hub::EventSender::try_send`])
//! sheds. Sequence gaps are how a receiver *knows* it lost something
//! rather than silently under-counting votes.

use crate::host_agent::TraceReport;
use serde::{Deserialize, Serialize};
use vigil_packet::FiveTuple;
use vigil_topology::HostId;

/// One event from a host's 007 process to the analysis agent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AgentEvent {
    /// A flow entered the retransmitting state on `host`.
    FlowOpen {
        /// Emitting host.
        host: HostId,
        /// Per-host sequence number.
        seq: u64,
        /// The flow (post-SLB five-tuple).
        tuple: FiveTuple,
    },
    /// A traced flow's evidence (the host is `report.host`).
    Evidence {
        /// Per-host sequence number.
        seq: u64,
        /// The trace report — one flow's vote.
        report: TraceReport,
    },
    /// The host rolled into a new epoch.
    EpochTick {
        /// Emitting host.
        host: HostId,
        /// Per-host sequence number.
        seq: u64,
        /// The epoch now starting (0-based).
        epoch: u64,
    },
    /// The host agent is shutting down.
    Drain {
        /// Emitting host.
        host: HostId,
        /// Per-host sequence number.
        seq: u64,
    },
}

impl AgentEvent {
    /// The emitting host.
    pub fn host(&self) -> HostId {
        match self {
            AgentEvent::FlowOpen { host, .. }
            | AgentEvent::EpochTick { host, .. }
            | AgentEvent::Drain { host, .. } => *host,
            AgentEvent::Evidence { report, .. } => report.host,
        }
    }

    /// The per-host sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            AgentEvent::FlowOpen { seq, .. }
            | AgentEvent::Evidence { seq, .. }
            | AgentEvent::EpochTick { seq, .. }
            | AgentEvent::Drain { seq, .. } => *seq,
        }
    }
}

/// Where a [`crate::HostAgent`] puts the events it emits.
pub trait EventSink {
    /// Takes one event (or sheds it).
    fn emit(&mut self, event: AgentEvent);
}

/// The drivers' sink: a buffer they drain after every batch, in emission
/// order. It never sheds.
impl EventSink for &mut Vec<AgentEvent> {
    fn emit(&mut self, event: AgentEvent) {
        self.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vigil_topology::LinkId;

    fn tuple() -> FiveTuple {
        FiveTuple::tcp(
            "10.0.0.1".parse().unwrap(),
            40_001,
            "10.0.1.1".parse().unwrap(),
            443,
        )
    }

    #[test]
    fn host_and_seq_accessors_cover_every_kind() {
        let report = TraceReport {
            host: HostId(3),
            tuple: tuple(),
            retransmissions: 2,
            links: vec![LinkId(1)],
            complete: true,
        };
        let events = [
            AgentEvent::FlowOpen {
                host: HostId(3),
                seq: 0,
                tuple: tuple(),
            },
            AgentEvent::Evidence { seq: 1, report },
            AgentEvent::EpochTick {
                host: HostId(3),
                seq: 2,
                epoch: 9,
            },
            AgentEvent::Drain {
                host: HostId(3),
                seq: 3,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.host(), HostId(3));
            assert_eq!(e.seq(), i as u64);
        }
    }

    #[test]
    fn events_serialize_round_trip() {
        let e = AgentEvent::EpochTick {
            host: HostId(7),
            seq: 42,
            epoch: 5,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: AgentEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
