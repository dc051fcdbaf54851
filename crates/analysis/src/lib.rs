//! The 007 analysis agent (paper §5).
//!
//! The voting scheme in one sentence: every flow that suffered a
//! retransmission casts a vote of `1/h` on each of the `h` links of its
//! discovered path; tallying the votes per 30-second epoch ranks links by
//! how likely they are to be dropping packets, the top-voted link on a
//! flow's path is that flow's most probable drop cause, and Algorithm 1
//! extracts the set of failed links by iteratively taking the most-voted
//! link and discounting the votes it explains.
//!
//! * [`evidence`] — the input record (one per traced flow).
//! * [`voting`] — vote casting and tallies ([`VoteTally`]), with the
//!   weight-scheme ablation (`1/h` vs `1` vs `1/h²`).
//! * [`algorithm1`] — the paper's Algorithm 1 with the 1 % threshold and
//!   the ECMP-based vote adjustment (§5.1, −5 % false positives).
//! * [`blame`] — per-flow most-likely-cause assignment from the ranking.
//! * [`ledger`] — the incremental [`VoteLedger`] of the streaming service
//!   mode: absorb evidence as it arrives, close 30-second windows
//!   without re-scanning flows, feed the [`LinkHealth`] ring.
//! * [`noise`] — the noise / failure-drop classification of §6.
//! * [`robustness`] — absorb/discard counters: the observability for the
//!   byzantine-voter axis.
//! * [`switch_votes`] — the switch-level voting extension (§5.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod blame;
pub mod evidence;
pub mod history;
pub mod ledger;
pub mod noise;
pub mod robustness;
pub mod switch_votes;
pub mod voting;

pub use algorithm1::{detect, Algorithm1Config, Algorithm1Output, Detection, ThresholdBase};
pub use blame::blame_flow;
pub use evidence::FlowEvidence;
pub use history::LinkHealth;
pub use ledger::{LedgerSnapshot, VoteLedger, WindowAnalysis, WindowSummary};
pub use noise::{classify_flows, DropClass};
pub use robustness::RobustnessCounters;
pub use switch_votes::SwitchTally;
pub use voting::{VoteTally, VoteWeight};
