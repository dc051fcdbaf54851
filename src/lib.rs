//! Workspace root crate for the `vigil` reproduction of
//! *007: Democratically Finding the Cause of Packet Drops* (NSDI 2018).
//!
//! This crate exists to host the repository-level `examples/` and `tests/`
//! directories; the implementation lives in the `crates/` workspace
//! members. It re-exports the public crates so examples and integration
//! tests can write `vigil_repro::vigil::…` or depend on the members
//! directly.

pub mod cli;

pub use vigil;
pub use vigil_agents;
pub use vigil_analysis;
pub use vigil_fabric;
pub use vigil_optim;
pub use vigil_packet;
pub use vigil_stats;
pub use vigil_topology;
