//! The end-host agents of 007 (paper §3–§4).
//!
//! "007 consists of three agents responsible for TCP monitoring, path
//! discovery, and analysis." The first two live on every host and are
//! implemented here; the analysis agent is centralized and lives in
//! `vigil-analysis`.
//!
//! * [`monitor`] — the TCP monitoring agent: an ETW-like event stream of
//!   retransmission notifications per flow. (On Windows the paper uses
//!   Event Tracing for Windows; "similar functionality exists in Linux."
//!   Our fabric generates the same events.)
//! * [`pathdisc`] — the path discovery agent: on a retransmission, check
//!   the per-epoch cache, respect the Theorem 1 traceroute budget, query
//!   the SLB for the VIP→DIP mapping, then discover the path — via the
//!   ground-truth oracle (flow-mode, as the paper's §6 simulator did) or
//!   via real probe trains on the packet-level emulator.
//! * [`host_agent`] — glue: turns one host's retransmission events into
//!   the per-flow [`TraceReport`]s the analysis agent consumes — batch
//!   (epoch-sized report vectors) or streaming (incremental
//!   [`AgentEvent`]s with per-host sequence numbers).
//! * [`events`] — the typed agent-event protocol of the streaming
//!   service mode: flow-open / evidence / epoch-tick / drain.
//! * [`hub`] — crossbeam-channel fan-in from the per-host agents to the
//!   centralized analysis agent (the arrow in the paper's Figure 2),
//!   with shed/delivered accounting on every hub.
//! * [`adversary`] — byzantine host behaviors (liar, mute, flooder,
//!   flipper): a deterministic, seed-derived fraction of hosts whose
//!   monitoring agents misreport, for the robustness axis of the
//!   scenario matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod events;
pub mod host_agent;
pub mod hub;
pub mod monitor;
pub mod pathdisc;
pub mod slb_gate;

pub use adversary::{AdversaryModel, ByzantineBehavior, ByzantineSpec};
pub use events::AgentEvent;
pub use host_agent::{HostAgent, TraceReport};
pub use hub::{event_channel, event_channel_bounded, EventCollector, EventSender};
pub use monitor::{RetransmissionEvent, TcpMonitor};
pub use pathdisc::{DiscoveredPath, FlowIndex, HostPacer, OracleTracer, ProbeTracer, Tracer};
pub use slb_gate::{GateSkip, GateStats, SlbGate};
