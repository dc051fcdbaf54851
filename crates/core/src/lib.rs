//! # vigil — a Rust reproduction of 007 (NSDI 2018)
//!
//! *007: Democratically Finding the Cause of Packet Drops* (Arzani et al.)
//! localizes the link responsible for every TCP retransmission in a
//! datacenter, from the end host alone: trace the path of each flow that
//! retransmits, give every link on it a vote of `1/h`, tally per
//! 30-second epoch, and read the ranking.
//!
//! This crate is the public face of the reproduction: it wires the
//! substrate crates into the paper's full pipeline and exposes the
//! experiment harness the bench binaries use to regenerate every figure
//! and table.
//!
//! ```
//! use vigil::prelude::*;
//!
//! // A small Clos fabric with one injected failure.
//! let config = ExperimentConfig {
//!     name: "quickstart".into(),
//!     params: ClosParams::tiny(),
//!     faults: FaultPlan::paper_default(1),
//!     epochs: 2,
//!     trials: 2,
//!     seed: 7,
//!     ..ExperimentConfig::default()
//! };
//! let report = run_experiment(&config);
//! // With one hot failure and ample traffic, 007 should locate it.
//! assert!(report.vigil.pooled.accuracy.value().unwrap_or(0.0) > 0.5);
//! ```
//!
//! Layering (bottom-up): `vigil-packet` (wire formats) → `vigil-topology`
//! (Clos + ECMP + bounds) → `vigil-fabric` (flow simulator, packet
//! emulator, SLB, faults, traffic) → `vigil-agents` (monitoring + path
//! discovery) / `vigil-analysis` (voting, Algorithm 1) / `vigil-optim`
//! (the NP-hard baselines) → this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod evaluate;
pub mod experiment;
pub mod matrix;
mod pool;
pub mod run;
pub mod scenarios;
pub mod stream;
pub mod sweep;

pub use distributed::{
    run_agent, run_agent_resilient, run_collector, AgentSpec, AgentStats, CollectorConfig,
    CollectorOutcome, CollectorSnapshot, CollectorStats, Endpoint, Listener, ResilienceConfig,
};
pub use evaluate::{EpochReport, MethodMetrics};
pub use experiment::{
    run_experiment, ExperimentConfig, ExperimentReport, ExperimentTiming, MethodReport,
    TrialAccumulator, TrialReport,
};
pub use matrix::{CaseOutcome, Envelope, MatrixReport, MatrixRunner, ScenarioCase};
pub use run::{run_epoch, run_epoch_with, Baselines, EpochRun, PacerBudget, RunConfig};
pub use stream::{
    stream_experiment, stream_trial, RetainPolicy, StreamSession, StreamStats, StreamTuning,
};
pub use sweep::{epoch_rng, task_rng, task_seed, SweepEngine, SweepSpec};

/// Convenient glob-import for examples and benches.
pub mod prelude {
    pub use crate::distributed::{
        run_agent, run_agent_resilient, run_collector, AgentSpec, CollectorConfig,
        CollectorOutcome, Endpoint, ResilienceConfig,
    };
    pub use crate::evaluate::{EpochReport, MethodMetrics};
    pub use crate::experiment::{run_experiment, ExperimentConfig, ExperimentReport, MethodReport};
    pub use crate::matrix::{Envelope, MatrixReport, MatrixRunner, ScenarioCase};
    pub use crate::run::{run_epoch, run_epoch_with, Baselines, EpochRun, PacerBudget, RunConfig};
    pub use crate::scenarios;
    pub use crate::stream::{
        stream_experiment, stream_trial, RetainPolicy, StreamSession, StreamStats, StreamTuning,
    };
    pub use crate::sweep::{SweepEngine, SweepSpec};
    pub use vigil_analysis::{Algorithm1Config, ThresholdBase, VoteWeight};
    pub use vigil_fabric::compose::{CompositeFaultPlan, FaultKind};
    pub use vigil_fabric::faults::{FaultLocation, FaultPlan, RateRange};
    pub use vigil_fabric::slb::SlbModel;
    pub use vigil_fabric::traffic::{ConnCount, DestSpec, PacketCount, TrafficSpec};
    pub use vigil_fabric::SimConfig;
    pub use vigil_topology::{ClosParams, ClosTopology, LinkId, LinkKind};
}
