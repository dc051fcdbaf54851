//! Emulated datacenter fabric for the `vigil` reproduction of 007
//! (NSDI 2018).
//!
//! The paper evaluates 007 in three environments: a MATLAB **flow-level
//! simulator** (§6, all figures), a **test cluster** with induced drops
//! (§7), and a **production datacenter** (§8). This crate provides the
//! substrate for all three as two back-ends over one topology:
//!
//! * [`flowsim`] — a Monte-Carlo flow-level simulator re-implementing the
//!   paper's §6 methodology: per-epoch traffic generation, ECMP routing,
//!   per-packet Bernoulli drops on links, retransmission accounting, and a
//!   ground-truth oracle (the role EverFlow plays in §8.2).
//! * [`netsim`] — a packet-level discrete-event emulator for the
//!   engineering-path experiments: real probe bytes from `vigil-packet`
//!   forwarded hop by hop, TTL decrements, ICMP Time Exceeded generation
//!   behind per-switch token buckets (`Tmax`, Theorem 1 / Table 1),
//!   link-latency timing, BGP-style link withdrawal and ECMP reseeds.
//!
//! Shared pieces: [`faults`] (drop-rate tables and failure injection),
//! [`traffic`] (the paper's workload generators, including the skewed and
//! hot-ToR variants of §6.5), [`slb`] (the §4.2 software-load-balancer
//! gate as a per-flow skip model), and [`control_plane`] (ICMP token
//! buckets).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod control_plane;
pub mod dynamics;
pub mod faults;
pub mod flowsim;
pub mod netsim;
pub mod slb;
pub mod traffic;

pub use compose::{CompiledFaults, CompositeFaultPlan, FaultKind};
pub use dynamics::{Episode, FaultTimeline};
pub use faults::{FaultPlan, LinkFaults};
pub use flowsim::{
    simulate_epoch, EpochOutcome, EpochScratch, EpochStream, FlowBatch, FlowId, FlowRecord,
    GroundTruth, RouteCacheStats, SimConfig,
};
pub use netsim::{NetSim, NetSimConfig, TracerouteOutcome};
pub use slb::SlbModel;
pub use traffic::{ConnCount, DestSpec, FlowSpec, PacketCount, TrafficSpec};
