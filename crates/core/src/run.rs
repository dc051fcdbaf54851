//! One epoch, end to end, in flow mode.
//!
//! The pipeline follows the paper's Figure 2: the fabric simulates the
//! epoch's TCP traffic; each host's monitoring agent reports
//! retransmissions; the path discovery agent (paced by Theorem 1 and the
//! per-epoch cache) discovers paths; the centralized analysis agent
//! tallies votes, runs Algorithm 1, classifies noise, and blames a link
//! for every failure-class flow. Optionally the two NP-hard baselines of
//! §5.3 run on exactly the same evidence.

use crate::stream::{RetainPolicy, StreamSession, StreamTuning};
use rand::Rng;
use serde::{Deserialize, Serialize};
use vigil_agents::{ByzantineSpec, FlowIndex, HostPacer, TraceReport};
use vigil_analysis::ledger::WindowAnalysis;
use vigil_analysis::{Algorithm1Config, Algorithm1Output, DropClass, FlowEvidence, VoteLedger};
use vigil_fabric::faults::LinkFaults;
use vigil_fabric::flowsim::{EpochOutcome, EpochScratch, SimConfig};
use vigil_fabric::slb::SlbModel;
use vigil_fabric::traffic::TrafficSpec;
use vigil_optim::{
    binary_program, integer_program, BinarySolution, CoverInstance, FlowRow, IntegerSolution,
    SearchLimits,
};
use vigil_topology::ClosTopology;

/// How each host's traceroute budget is set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PacerBudget {
    /// Derive from Theorem 1 (`Ct × epoch_seconds` traces per epoch).
    Theorem1 {
        /// Switch-side ICMP cap (replies/second).
        tmax: f64,
        /// Epoch length in seconds (paper: 30).
        epoch_seconds: f64,
    },
    /// A fixed per-epoch budget.
    Fixed(u32),
    /// No budget (upper-bound analyses).
    Unlimited,
}

impl Default for PacerBudget {
    fn default() -> Self {
        PacerBudget::Theorem1 {
            tmax: vigil_fabric::control_plane::PAPER_TMAX,
            epoch_seconds: 30.0,
        }
    }
}

impl PacerBudget {
    pub(crate) fn pacer(&self, topo: &ClosTopology) -> HostPacer {
        match *self {
            PacerBudget::Theorem1 {
                tmax,
                epoch_seconds,
            } => HostPacer::from_theorem1(topo, tmax, epoch_seconds),
            PacerBudget::Fixed(n) => HostPacer::with_budget(n),
            PacerBudget::Unlimited => HostPacer::with_budget(u32::MAX),
        }
    }
}

/// Which §5.3 baselines to run alongside 007.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Baselines {
    /// The integer program (4) (ranking-capable).
    pub integer: bool,
    /// The binary program (3) (set cover only).
    pub binary: bool,
    /// Node budget for the exact searches.
    pub max_nodes: u64,
}

impl Default for Baselines {
    fn default() -> Self {
        Self {
            integer: true,
            binary: false,
            max_nodes: 200_000,
        }
    }
}

/// Full configuration of one epoch run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunConfig {
    /// Traffic model.
    pub traffic: TrafficSpec,
    /// Packet-drop simulation knobs.
    pub sim: SimConfig,
    /// Algorithm 1 configuration.
    pub alg1: Algorithm1Config,
    /// Traceroute pacing.
    pub pacer: PacerBudget,
    /// Baselines to evaluate.
    pub baselines: Baselines,
    /// SLB-gate fault model (§4.2): flows whose VIP→DIP query fails (or
    /// that are SNATed) go untraced. Disabled by default.
    #[serde(default)]
    pub slb: SlbModel,
    /// Byzantine-voter axis: a deterministic, seed-derived fraction of
    /// hosts whose monitoring agents lie, stay mute, or flood spurious
    /// evidence. Disabled by default (`fraction = 0` — a true no-op on
    /// the RNG draw order).
    #[serde(default)]
    pub byzantine: ByzantineSpec,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            traffic: TrafficSpec::paper_default(),
            sim: SimConfig::default(),
            alg1: Algorithm1Config::default(),
            pacer: PacerBudget::default(),
            baselines: Baselines::default(),
            slb: SlbModel::default(),
            byzantine: ByzantineSpec::default(),
        }
    }
}

/// Everything produced by one epoch.
#[derive(Debug)]
pub struct EpochRun {
    /// Evidence rows plus ground truth: the flow records scoring consults
    /// (every retransmitting flow, and any flow an agent reported) and the
    /// epoch's true drops. The full table comes from
    /// `vigil_fabric::flowsim::simulate_*`.
    pub outcome: EpochOutcome,
    /// Shared tuple → flow-record index over `outcome.flows`, built once
    /// per epoch and reused by the tracer, the evaluator, and the
    /// experiment binaries (no consumer rebuilds its own map).
    pub flow_index: FlowIndex,
    /// Host agents' trace reports (post pacing/caching).
    pub reports: Vec<TraceReport>,
    /// The same reports as analysis evidence (parallel to `reports`).
    pub evidence: Vec<FlowEvidence>,
    /// Algorithm 1's output.
    pub detection: Algorithm1Output,
    /// Algorithm 1's pick order with the threshold disabled (first 20
    /// picks) — the paper's "if the top k links had been selected"
    /// counterfactual (Figure 12).
    pub unbounded_picks: Vec<vigil_topology::LinkId>,
    /// Per-evidence noise/failure classification (parallel to
    /// `evidence`).
    pub classes: Vec<DropClass>,
    /// The integer program's solution, when enabled.
    pub integer: Option<IntegerSolution>,
    /// The binary program's solution, when enabled.
    pub binary: Option<BinarySolution>,
}

impl EpochRun {
    /// The shared tuple → flow-record index (built once during the run).
    pub fn flow_index(&self) -> &FlowIndex {
        &self.flow_index
    }
}

/// Runs one epoch end to end. The caller owns the simulator scratch: a
/// caller running many epochs passes one [`EpochScratch`] through all of
/// them so the per-flow hot path (routing, path storage, drop sampling)
/// reuses its buffers; reuse never changes a byte of the output.
///
/// This is a one-window [`StreamSession`]: the fabric is pulled in
/// chunks, the ledger absorbs the evidence host agents emit and closes
/// the window, and [`EpochRun::outcome`] keeps only the rows
/// scoring consults. Code that walks every flow of the epoch simulates
/// it with `vigil_fabric::flowsim::simulate_epoch` instead.
pub fn run_epoch<R: Rng + ?Sized>(
    topo: &ClosTopology,
    faults: &LinkFaults,
    config: &RunConfig,
    rng: &mut R,
    scratch: &mut EpochScratch,
) -> EpochRun {
    StreamSession::new(
        topo,
        config,
        StreamTuning::default(),
        RetainPolicy::EvidenceOnly,
    )
    .run_window(topo, config, faults, rng, scratch)
}

/// The ledger ring depth the epoch runners use (how many closed-window
/// summaries a long-running session retains).
pub(crate) const LEDGER_RING_WINDOWS: usize = 8;
/// The cross-window [`vigil_analysis::LinkHealth`] EWMA factor (~3-epoch
/// memory).
pub(crate) const LEDGER_HEALTH_ALPHA: f64 = 0.3;

/// A fresh analysis ledger shaped for `config` — [`run_epoch`]
/// closes one window on a throwaway ledger; a long-lived session keeps
/// one alive across windows so the ring and health EWMA accumulate.
pub(crate) fn fresh_ledger(
    num_links: usize,
    config: &RunConfig,
) -> VoteLedger<crate::stream::EvidenceKey> {
    VoteLedger::new(
        num_links,
        config.alg1,
        LEDGER_RING_WINDOWS,
        LEDGER_HEALTH_ALPHA,
    )
}

/// Assembles an [`EpochRun`] from a closed analysis window plus the raw
/// reports: canonical order with one report per key, the §5.3 baselines
/// and the final record. `stream::Intake::close` is its one caller.
pub(crate) fn assemble_epoch(
    outcome: EpochOutcome,
    mut reports: Vec<TraceReport>,
    window: WindowAnalysis,
    config: &RunConfig,
) -> EpochRun {
    // Canonical order: host-agent arrival order (chunk, connection, or
    // iteration) is an artifact, not information; sorting by the same
    // key that orders the ledger's evidence makes `reports` parallel to
    // `window.evidence` and every runner bit-identical.
    reports.sort_by_key(|r| (r.host, r.tuple));
    // A key absorbed twice keeps its last report, as the ledger keeps its
    // last evidence (the sort is stable, so the last copy is last).
    reports.dedup_by(|later, kept| {
        let same = (later.host, later.tuple) == (kept.host, kept.tuple);
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
    debug_assert_eq!(reports.len(), window.evidence.len());

    let limits = SearchLimits {
        max_nodes: config.baselines.max_nodes,
    };
    let (integer, binary) = if config.baselines.integer || config.baselines.binary {
        let rows: Vec<FlowRow> = reports
            .iter()
            .map(|r| FlowRow {
                links: r.links.iter().map(|l| l.0).collect(),
                demand: r.retransmissions,
            })
            .collect();
        let instance = CoverInstance::new(&rows);
        (
            config
                .baselines
                .integer
                .then(|| integer_program(&instance, &limits)),
            config
                .baselines
                .binary
                .then(|| binary_program(&instance, &limits)),
        )
    } else {
        (None, None)
    };

    EpochRun {
        flow_index: FlowIndex::from_flows(&outcome.flows),
        outcome,
        reports,
        evidence: window.evidence,
        detection: window.detection,
        unbounded_picks: window.unbounded_picks,
        classes: window.classes,
        integer,
        binary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vigil_agents::is_eventful;
    use vigil_fabric::faults::FaultPlan;
    use vigil_fabric::faults::RateRange;
    use vigil_topology::ClosParams;

    fn setup(failures: u32, seed: u64) -> (ClosTopology, LinkFaults, ChaCha8Rng) {
        let topo = ClosTopology::new(ClosParams::tiny(), seed).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let faults = FaultPlan {
            failure_rate: RateRange::fixed(0.05),
            ..FaultPlan::paper_default(failures)
        }
        .build(&topo, &mut rng);
        (topo, faults, rng)
    }

    fn config() -> RunConfig {
        RunConfig {
            traffic: TrafficSpec {
                conns_per_host: vigil_fabric::traffic::ConnCount::Fixed(30),
                ..TrafficSpec::paper_default()
            },
            ..RunConfig::default()
        }
    }

    #[test]
    fn pipeline_detects_single_failure() {
        let (topo, faults, mut rng) = setup(1, 11);
        let run = run_epoch(
            &topo,
            &faults,
            &config(),
            &mut rng,
            &mut EpochScratch::new(),
        );
        let bad = *faults.failed_set().iter().next().unwrap();
        assert!(
            run.detection.detected_links().contains(&bad),
            "injected link {:?} not in detections {:?}",
            bad,
            run.detection.detections
        );
        assert!(!run.reports.is_empty());
        assert_eq!(run.reports.len(), run.evidence.len());
        assert_eq!(run.evidence.len(), run.classes.len());
    }

    #[test]
    fn baselines_run_on_same_evidence() {
        let (topo, faults, mut rng) = setup(1, 13);
        let mut cfg = config();
        cfg.baselines.binary = true;
        let run = run_epoch(&topo, &faults, &cfg, &mut rng, &mut EpochScratch::new());
        let integer = run.integer.as_ref().expect("integer baseline enabled");
        let binary = run.binary.as_ref().expect("binary baseline enabled");
        let bad = faults.failed_set().iter().next().unwrap().0;
        assert!(integer.counts.contains_key(&bad));
        assert!(binary.links.contains(&bad));
    }

    #[test]
    fn slb_gate_suppresses_traces() {
        let (topo, faults, _) = setup(2, 23);
        let mut cfg = config();
        cfg.slb = SlbModel::query_failures(0.5);
        let mut rng1 = ChaCha8Rng::seed_from_u64(23);
        let mut rng2 = ChaCha8Rng::seed_from_u64(23);
        let gated = run_epoch(&topo, &faults, &cfg, &mut rng1, &mut EpochScratch::new());
        let ungated = run_epoch(
            &topo,
            &faults,
            &config(),
            &mut rng2,
            &mut EpochScratch::new(),
        );
        assert!(
            gated.reports.len() < ungated.reports.len(),
            "a 50% query-failure rate must suppress traces ({} vs {})",
            gated.reports.len(),
            ungated.reports.len()
        );

        // A skipped flow spends no traceroute budget: with one trace per
        // host, a host whose first eventful flow is SNATed still reports
        // its next eligible flow. SNAT membership ignores the salt.
        let snat = SlbModel {
            query_failure_rate: 0.0,
            snat_frac: 0.5,
        };
        cfg.slb = snat;
        cfg.pacer = PacerBudget::Fixed(1);
        let run = run_epoch(
            &topo,
            &faults,
            &cfg,
            &mut ChaCha8Rng::seed_from_u64(23),
            &mut EpochScratch::new(),
        );
        let full = vigil_fabric::flowsim::simulate_epoch(
            &topo,
            &faults,
            &cfg.traffic,
            &cfg.sim,
            &mut ChaCha8Rng::seed_from_u64(23),
            &mut EpochScratch::new(),
        );
        let mut checked = 0;
        for host in topo.hosts() {
            let mut eventful = full
                .flows
                .iter()
                .filter(|f| f.src == host && is_eventful(f.established, f.retransmissions));
            if !eventful.next().is_some_and(|f| snat.skips(&f.tuple, 0)) {
                continue;
            }
            let Some(next) = eventful.find(|f| !snat.skips(&f.tuple, 0)) else {
                continue;
            };
            let reported: Vec<_> = run.reports.iter().filter(|r| r.host == host).collect();
            assert_eq!(reported.len(), 1, "host {host:?}");
            assert_eq!(reported[0].tuple, next.tuple, "host {host:?}");
            checked += 1;
        }
        assert!(checked > 0, "no host's first eventful flow was SNATed");
    }

    #[test]
    fn every_byzantine_behavior_changes_the_evidence() {
        let (topo, faults, _) = setup(2, 29);
        let mut honest_rng = ChaCha8Rng::seed_from_u64(31);
        let honest = run_epoch(
            &topo,
            &faults,
            &config(),
            &mut honest_rng,
            &mut EpochScratch::new(),
        );
        for spec in [
            ByzantineSpec::liars(0.33),
            ByzantineSpec::mutes(0.33),
            ByzantineSpec::flooders(0.33, 0.5),
            ByzantineSpec::flippers(0.33),
        ] {
            let mut cfg = config();
            cfg.byzantine = spec;
            let mut rng = ChaCha8Rng::seed_from_u64(31);
            let run = run_epoch(&topo, &faults, &cfg, &mut rng, &mut EpochScratch::new());
            assert_ne!(
                run.reports,
                honest.reports,
                "{}: a third of the hosts compromised must change the evidence",
                spec.label()
            );
            // The adversary hashes, it never draws: same RNG position.
            assert_eq!(rng.gen::<u64>(), honest_rng.clone().gen::<u64>());
        }
    }

    #[test]
    fn disabled_byzantine_spec_is_a_true_noop() {
        // fraction = 0 must not perturb a single byte relative to a
        // config that never mentions the axis (the goldens' guarantee).
        let (topo, faults, _) = setup(1, 43);
        let mut cfg = config();
        cfg.byzantine = ByzantineSpec {
            fraction: 0.0,
            ..ByzantineSpec::liars(0.0)
        };
        let mut rng1 = ChaCha8Rng::seed_from_u64(47);
        let mut rng2 = ChaCha8Rng::seed_from_u64(47);
        let plain = run_epoch(
            &topo,
            &faults,
            &config(),
            &mut rng1,
            &mut EpochScratch::new(),
        );
        let specced = run_epoch(&topo, &faults, &cfg, &mut rng2, &mut EpochScratch::new());
        assert_eq!(plain.reports, specced.reports);
        assert_eq!(rng1.gen::<u64>(), rng2.gen::<u64>());
    }

    #[test]
    fn clean_fabric_reports_nothing() {
        let topo = ClosTopology::new(ClosParams::tiny(), 19).unwrap();
        let faults = LinkFaults::new(topo.num_links());
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let run = run_epoch(
            &topo,
            &faults,
            &config(),
            &mut rng,
            &mut EpochScratch::new(),
        );
        assert!(run.reports.is_empty());
        assert!(run.detection.detections.is_empty());
    }
}
