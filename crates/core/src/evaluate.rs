//! Scoring an epoch against the simulator's ground truth.
//!
//! The paper's metrics (§6):
//!
//! * **Accuracy** — over *failure-drop* connections, the fraction whose
//!   blamed link equals the ground-truth link ("for each such flow, the
//!   link with the most drops"). Following the paper's evaluation setup,
//!   the noise/failure split is a ground-truth filter: "a noisy drop is
//!   defined as one where the corresponding link only dropped a single
//!   packet", and those connections are excluded from the accuracy
//!   denominator (which is why 007 "never marked a connection into the
//!   noisy category incorrectly" — the category is defined by the
//!   oracle).
//! * **Precision / recall** — Algorithm 1's detected set against the
//!   injected failure set.
//! * **Noise-classifier soundness** — separately, our *agent-side*
//!   classifier (`vigil-analysis::noise`, which cannot see ground truth)
//!   is audited: every flow it marks noise must be ground-truth noise.
//! * **Vote gap** (Figure 13) — votes on the bad link minus the maximum
//!   votes on any good link.

use crate::run::EpochRun;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use vigil_analysis::{blame_flow, DropClass};
use vigil_stats::{BinaryConfusion, RatioMetric};
use vigil_topology::LinkId;

/// Accuracy + detection confusion for one method on one epoch.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MethodMetrics {
    /// Per-flow blame accuracy (failure-class flows with ground truth).
    pub accuracy: RatioMetric,
    /// Algorithm-level detected-set confusion.
    pub confusion: BinaryConfusion,
}

/// Everything measured on one epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochReport {
    /// 007 (voting + Algorithm 1).
    pub vigil: MethodMetrics,
    /// The integer program (4), when run.
    pub integer: Option<MethodMetrics>,
    /// The binary program (3), when run.
    pub binary: Option<MethodMetrics>,
    /// Flows 007 classified as noise.
    pub noise_marked: u64,
    /// Of those, how many were *not* ground-truth noise (the paper claims
    /// zero).
    pub noise_marked_incorrectly: u64,
    /// Flows with ≥ 1 retransmission this epoch.
    pub retx_flows: usize,
    /// Flows traced and reported.
    pub traced_flows: usize,
    /// Links detected by Algorithm 1.
    pub detected: Vec<LinkId>,
    /// The head of the raw vote ranking (top 20), for rank-position
    /// analyses (§7.3).
    pub ranking_head: Vec<LinkId>,
    /// Algorithm 1's pick order with the threshold disabled (top 20) —
    /// the Figure 12 "top-k selected" counterfactual.
    pub unbounded_picks: Vec<LinkId>,
    /// The injected-failure ground truth for this epoch.
    pub truth_failed: Vec<LinkId>,
    /// Vote gap (single-injected-failure epochs only): votes on the bad
    /// link − max votes on any other link.
    pub vote_gap: Option<f64>,
}

/// Scores one epoch run.
pub fn evaluate_epoch(run: &EpochRun) -> EpochReport {
    // The injected-failure set is already a `BTreeSet` on the ground
    // truth — borrow it instead of rebuilding an identical copy.
    let truth_failed = &run.outcome.ground_truth.failed_links;
    // Shared per-epoch index, built once by the runner.
    let flow_index = run.flow_index();

    let mut vigil = MethodMetrics::default();
    let mut integer = run.integer.as_ref().map(|_| MethodMetrics::default());
    let mut binary = run.binary.as_ref().map(|_| MethodMetrics::default());
    let mut noise_marked = 0u64;
    let mut noise_marked_incorrectly = 0u64;

    for (i, evidence) in run.evidence.iter().enumerate() {
        let report = &run.reports[i];
        let Some(flow_idx) = flow_index.get(&report.tuple) else {
            continue;
        };
        let flow = &run.outcome.flows[flow_idx];
        let Some(truth_link) = flow.dominant_drop_link() else {
            continue; // retransmissions without recorded drops cannot be scored
        };

        // Audit the agent-side classifier against ground truth.
        if run.classes[i] == DropClass::Noise {
            noise_marked += 1;
            if !run.outcome.ground_truth.is_noise_link(truth_link) {
                noise_marked_incorrectly += 1;
            }
        }

        // The paper's evaluation filter: ground-truth noise drops are
        // excluded from the accuracy denominator.
        if run.outcome.ground_truth.is_noise_link(truth_link) {
            continue;
        }

        // 007's per-flow blame: top-voted link on the flow's path.
        if let Some(blamed) = blame_flow(&run.detection.raw_tally, evidence) {
            vigil.accuracy.record(blamed == truth_link);
        }
        // Baselines blame on the same flow set.
        let path_ids: Vec<u32> = evidence.links.iter().map(|l| l.0).collect();
        if let (Some(m), Some(sol)) = (integer.as_mut(), run.integer.as_ref()) {
            if let Some(blamed) = sol.blame(&path_ids) {
                m.accuracy.record(LinkId(blamed) == truth_link);
            } else {
                m.accuracy.record(false);
            }
        }
        if let (Some(m), Some(sol)) = (binary.as_mut(), run.binary.as_ref()) {
            if let Some(blamed) = sol.blame(&path_ids) {
                m.accuracy.record(LinkId(blamed) == truth_link);
            } else {
                m.accuracy.record(false);
            }
        }
    }

    // Detection confusions.
    let detected: BTreeSet<LinkId> = run.detection.detected_links().into_iter().collect();
    vigil.confusion = BinaryConfusion::from_sets(&detected, truth_failed);
    if let (Some(m), Some(sol)) = (integer.as_mut(), run.integer.as_ref()) {
        let set: BTreeSet<LinkId> = sol.counts.keys().map(|l| LinkId(*l)).collect();
        m.confusion = BinaryConfusion::from_sets(&set, truth_failed);
    }
    if let (Some(m), Some(sol)) = (binary.as_mut(), run.binary.as_ref()) {
        let set: BTreeSet<LinkId> = sol.links.iter().map(|l| LinkId(*l)).collect();
        m.confusion = BinaryConfusion::from_sets(&set, truth_failed);
    }

    // Figure 13's gap, defined for single-failure epochs.
    let vote_gap = if truth_failed.len() == 1 {
        let bad = *truth_failed.iter().next().expect("len = 1");
        let bad_votes = run.detection.raw_tally.votes(bad);
        let max_good = run
            .detection
            .raw_tally
            .ranking()
            .into_iter()
            .filter(|(l, _)| *l != bad)
            .map(|(_, v)| v)
            .next()
            .unwrap_or(0.0);
        Some(bad_votes - max_good)
    } else {
        None
    };

    EpochReport {
        vigil,
        integer,
        binary,
        noise_marked,
        noise_marked_incorrectly,
        retx_flows: run
            .outcome
            .flows
            .iter()
            .filter(|f| f.retransmissions > 0)
            .count(),
        traced_flows: run.reports.len(),
        detected: detected.into_iter().collect(),
        ranking_head: run
            .detection
            .raw_tally
            .ranking()
            .into_iter()
            .take(20)
            .map(|(l, _)| l)
            .collect(),
        unbounded_picks: run.unbounded_picks.clone(),
        truth_failed: truth_failed.iter().copied().collect(),
        vote_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_epoch, RunConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vigil_fabric::faults::{FaultPlan, RateRange};
    use vigil_fabric::traffic::{ConnCount, TrafficSpec};
    use vigil_fabric::EpochScratch;
    use vigil_topology::{ClosParams, ClosTopology};

    fn run_one(failures: u32, rate: f64, seed: u64) -> EpochReport {
        let topo = ClosTopology::new(ClosParams::tiny(), seed).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let faults = FaultPlan {
            failure_rate: RateRange::fixed(rate),
            ..FaultPlan::paper_default(failures)
        }
        .build(&topo, &mut rng);
        let cfg = RunConfig {
            traffic: TrafficSpec {
                conns_per_host: ConnCount::Fixed(30),
                ..TrafficSpec::paper_default()
            },
            ..RunConfig::default()
        };
        let run = run_epoch(&topo, &faults, &cfg, &mut rng, &mut EpochScratch::new());
        evaluate_epoch(&run)
    }

    #[test]
    fn single_hot_failure_is_found_accurately() {
        let rep = run_one(1, 0.05, 23);
        assert!(rep.vigil.accuracy.total > 0, "some flows must be scored");
        let acc = rep.vigil.accuracy.value().unwrap();
        assert!(acc > 0.8, "accuracy {acc} too low for a hot single failure");
        assert_eq!(rep.vigil.confusion.recall(), Some(1.0));
        assert!(rep.vote_gap.unwrap() > 0.0, "bad link must lead the vote");
    }

    #[test]
    fn integer_baseline_scored() {
        let rep = run_one(1, 0.05, 29);
        let int = rep.integer.expect("integer baseline default-enabled");
        assert!(int.accuracy.total > 0);
        assert!(int.confusion.recall().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn noise_soundness_holds() {
        // Moderate noise + one failure: no flow may be noise-marked
        // incorrectly (the paper's invariant).
        for seed in [31, 37, 41] {
            let rep = run_one(1, 0.03, seed);
            assert_eq!(
                rep.noise_marked_incorrectly, 0,
                "seed {seed}: noise classifier mis-marked {} flows",
                rep.noise_marked_incorrectly
            );
        }
    }

    #[test]
    fn multi_failure_vote_gap_undefined() {
        let rep = run_one(3, 0.05, 43);
        assert!(rep.vote_gap.is_none());
    }
}
