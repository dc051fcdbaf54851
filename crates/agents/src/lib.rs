//! The end-host agents of 007 (paper §3–§4).
//!
//! "007 consists of three agents responsible for TCP monitoring, path
//! discovery, and analysis." The first two live on every host and are
//! implemented here; the analysis agent is centralized and lives in
//! `vigil-analysis`.
//!
//! * [`monitor`] — the TCP monitoring agent: the retransmission event
//!   and the §4.2 rule deciding which flows raise one. (On Windows the
//!   paper uses Event Tracing for Windows; "similar functionality exists
//!   in Linux." Our fabric generates the same events.)
//! * [`pathdisc`] — the path discovery agent: the per-epoch cache and
//!   Theorem 1 traceroute budget ([`HostPacer`]), then the path — the
//!   flow's recorded path (flow-mode, as the paper's §6 simulator did) or
//!   real probe trains on the packet-level emulator ([`ProbeTracer`]).
//! * [`host_agent`] — glue: [`HostAgent::trace`] admits one host's
//!   retransmission event through the pacer, then discovers its path and
//!   builds the [`TraceReport`] the analysis agent consumes; streaming
//!   mode emits it as incremental [`AgentEvent`]s with per-host sequence
//!   numbers.
//! * [`events`] — the typed agent-event protocol of the streaming
//!   service mode (flow-open / evidence / epoch-tick / drain) and the
//!   [`EventSink`] agents emit into: a `Vec` their driver drains.
//! * [`hub`] — a bounded, shedding crossbeam channel, kept only because
//!   the benchmark's twin (`benchmark/src/twin.rs`) compiles against it.
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

pub use adversary::{AdversaryModel, ByzantineBehavior, ByzantineSpec};
pub use events::{AgentEvent, EventSink};
pub use host_agent::{HostAgent, TraceReport};
pub use hub::{event_channel_bounded, EventCollector, EventSender};
pub use monitor::{is_eventful, RetransmissionEvent};
pub use pathdisc::{DiscoveredPath, FlowIndex, HostPacer, ProbeTracer};
