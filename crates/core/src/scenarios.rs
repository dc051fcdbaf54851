//! Ready-made experiment configurations for every evaluation point in the
//! paper (§6–§8), the `vigil-sim` presets, and the scenario matrix's
//! standard grid. The figure catalogue (`vigil_bench::FIGURES`, one entry
//! per paper figure or table) sweeps these builders over each figure's
//! variable.

use crate::experiment::ExperimentConfig;
use crate::matrix::{Envelope, ScenarioCase};
use crate::run::{Baselines, RunConfig};
use vigil_agents::ByzantineSpec;
use vigil_analysis::Algorithm1Config;
use vigil_fabric::compose::GRAY_RATE;
use vigil_fabric::faults::{FaultLocation, FaultPlan, RateRange};
use vigil_fabric::slb::SlbModel;
use vigil_fabric::traffic::{ConnCount, DestSpec, PacketCount, TrafficSpec};
use vigil_fabric::{CompositeFaultPlan, FaultKind};
use vigil_topology::{ClosParams, LinkKind};

/// The §6 baseline run configuration: 60 connections per host per epoch,
/// up to 100 packets per flow, uniform destinations, integer baseline on.
pub fn paper_run_config() -> RunConfig {
    RunConfig {
        traffic: TrafficSpec {
            conns_per_host: ConnCount::Fixed(60),
            packets_per_flow: PacketCount::Uniform(50, 100),
            dest: DestSpec::Uniform,
            dst_port: 443,
        },
        ..RunConfig::default()
    }
}

fn base(name: &str, failures: u32) -> ExperimentConfig {
    ExperimentConfig {
        name: name.into(),
        params: ClosParams::paper_sim(),
        faults: FaultPlan::paper_default(failures),
        run: paper_run_config(),
        epochs: 1,
        trials: 5,
        seed: 0x0007,
    }
}

/// Figure 3 / Figure 4: the Theorem-2-holds regime — `failures` failed
/// links dropping at 0.05–1 %.
pub fn fig03_optimal_case(failures: u32) -> ExperimentConfig {
    let mut cfg = base(&format!("fig3/4 optimal-case k={failures}"), failures);
    cfg.faults.failure_rate = RateRange { lo: 5e-4, hi: 1e-2 };
    cfg
}

/// Figure 4 additionally compares the binary program: same scenario with
/// both baselines enabled.
pub fn fig04_detection(failures: u32) -> ExperimentConfig {
    let mut cfg = fig03_optimal_case(failures);
    cfg.name = format!("fig4 detection k={failures}");
    cfg.run.baselines = Baselines {
        binary: true,
        ..Baselines::default()
    };
    cfg
}

/// Figure 5a: single failure at a fixed drop rate (sweep 0–1 %).
pub fn fig05_single(rate: f64) -> ExperimentConfig {
    let mut cfg = base(&format!("fig5a single rate={rate}"), 1);
    cfg.faults.failure_rate = RateRange::fixed(rate);
    cfg
}

/// Figure 5b: `failures` links with drop rates across the full 0.01–1 %
/// spread.
pub fn fig05_multi(failures: u32) -> ExperimentConfig {
    base(&format!("fig5b multi k={failures}"), failures)
}

/// Figure 6: noise sweep — good links drop at up to `noise` (single or
/// 5 failures).
pub fn fig06_noise(noise: f64, failures: u32) -> ExperimentConfig {
    let mut cfg = base(&format!("fig6 noise={noise} k={failures}"), failures);
    cfg.faults.noise = RateRange {
        lo: 0.0,
        hi: noise.max(f64::MIN_POSITIVE),
    };
    cfg.faults.failure_rate = RateRange { lo: 5e-4, hi: 1e-2 };
    cfg
}

/// Figure 7: connections per host per epoch uniform in (10, 60).
pub fn fig07_connections(failures: u32, single_rate: Option<f64>) -> ExperimentConfig {
    let mut cfg = base(&format!("fig7 conns k={failures}"), failures);
    cfg.run.traffic.conns_per_host = ConnCount::Uniform(10, 60);
    if let Some(rate) = single_rate {
        cfg.faults.failure_rate = RateRange::fixed(rate);
    }
    cfg
}

/// Figure 8: skewed traffic — 80 % of flows to 25 % of ToRs.
pub fn fig08_skew(failures: u32, single_rate: Option<f64>) -> ExperimentConfig {
    let mut cfg = base(&format!("fig8 skew k={failures}"), failures);
    cfg.run.traffic.dest = DestSpec::SkewedTors {
        frac_hot_tors: 0.25,
        frac_hot_flows: 0.8,
    };
    if let Some(rate) = single_rate {
        cfg.faults.failure_rate = RateRange::fixed(rate);
    }
    cfg
}

/// Figure 9: hot-ToR sink taking `skew` of all flows, k failures.
pub fn fig09_hot_tor(skew: f64, failures: u32) -> ExperimentConfig {
    let mut cfg = base(&format!("fig9 hot-tor skew={skew} k={failures}"), failures);
    cfg.run.traffic.dest = DestSpec::HotTor { frac: skew };
    cfg.faults.failure_rate = RateRange { lo: 5e-4, hi: 1e-2 };
    cfg
}

/// Figure 10: Algorithm 1 on a single failure at a fixed rate, all three
/// methods.
pub fn fig10_detection_single(rate: f64) -> ExperimentConfig {
    let mut cfg = fig05_single(rate);
    cfg.name = format!("fig10 rate={rate}");
    cfg.run.baselines = Baselines {
        binary: true,
        ..Baselines::default()
    };
    cfg
}

/// Figure 11: single failure restricted to one location class.
pub fn fig11_location(kind: LinkKind, rate: f64) -> ExperimentConfig {
    let mut cfg = base(&format!("fig11 {kind:?} rate={rate}"), 1);
    cfg.faults.failure_rate = RateRange::fixed(rate);
    cfg.faults.location = FaultLocation::Kind(kind);
    cfg
}

/// Figure 12: heavily skewed failure severities — one link at 10–100 %,
/// the rest at 0.01–0.1 %.
pub fn fig12_skewed_rates(failures: u32) -> ExperimentConfig {
    let mut cfg = base(&format!("fig12 skewed-rates k={failures}"), failures);
    cfg.faults.failure_rate = RateRange { lo: 1e-4, hi: 1e-3 };
    cfg.faults.first_failure_rate = Some(RateRange { lo: 0.1, hi: 1.0 });
    cfg
}

/// §6.7: network-size sweep — same shape, `pods` pods.
pub fn sec6_7_network_size(pods: u16, failures: u32) -> ExperimentConfig {
    let mut cfg = base(&format!("sec6.7 pods={pods} k={failures}"), failures);
    cfg.params = ClosParams::paper_sim_with_pods(pods);
    cfg.faults.failure_rate = RateRange { lo: 5e-4, hi: 1e-2 };
    if pods == 1 {
        // Single-pod traffic never touches level-2 links; injecting there
        // would create undetectable (traffic-free) failures.
        cfg.faults.location = FaultLocation::Level1;
    }
    cfg
}

/// §7 test cluster (10 ToRs, 80 switch links): single induced failure on
/// a T1→ToR link at `rate` — the Figure 13 vote-gap experiment.
pub fn fig13_cluster(rate: f64) -> ExperimentConfig {
    ExperimentConfig {
        name: format!("fig13 cluster rate={rate}"),
        params: ClosParams::test_cluster(),
        faults: FaultPlan {
            noise: RateRange::PAPER_NOISE,
            failures: 1,
            failure_rate: RateRange::fixed(rate),
            location: FaultLocation::Kind(LinkKind::T1ToTor),
            first_failure_rate: None,
        },
        run: RunConfig {
            traffic: TrafficSpec {
                // 50 controlled hosts replaying 6 h of recorded storage
                // traffic (§7): heavy, long-running connection load.
                conns_per_host: ConnCount::Fixed(80),
                packets_per_flow: PacketCount::Uniform(50, 100),
                dest: DestSpec::Uniform,
                dst_port: 443,
            },
            ..RunConfig::default()
        },
        epochs: 3,
        trials: 5,
        seed: 0x0713,
    }
}

/// §7.2: two simultaneous cluster failures at 0.2 % and 0.05 %.
pub fn sec7_2_two_failures() -> ExperimentConfig {
    let mut cfg = fig13_cluster(5e-4);
    cfg.name = "sec7.2 two failures 0.2%/0.05%".into();
    cfg.faults.failures = 2;
    cfg.faults.first_failure_rate = Some(RateRange::fixed(2e-3));
    cfg.faults.location = FaultLocation::AnySwitchLink;
    cfg
}

/// §7.3: two cluster failures at 0.2 % and 0.1 % (rank-position study).
pub fn sec7_3_two_failures() -> ExperimentConfig {
    let mut cfg = sec7_2_two_failures();
    cfg.name = "sec7.3 two failures 0.2%/0.1%".into();
    cfg.faults.failure_rate = RateRange::fixed(1e-3);
    cfg
}

/// The §5.1 ablation base: fig4-style workload for vote-weight /
/// threshold / adjustment sweeps.
pub fn ablation_base(failures: u32, alg1: Algorithm1Config) -> ExperimentConfig {
    let mut cfg = fig03_optimal_case(failures);
    cfg.name = format!("ablation k={failures}");
    cfg.run.alg1 = alg1;
    cfg
}

/// `failures` failed links in the Figure 3 regime with `fraction` of the
/// hosts lying about their paths (the adversarial preset).
pub fn byzantine_liars(failures: u32, fraction: f64) -> ExperimentConfig {
    let mut cfg = fig03_optimal_case(failures);
    cfg.name = format!("byzantine-liar k={failures} f={fraction}");
    cfg.run.byzantine = ByzantineSpec::liars(fraction);
    cfg
}

/// A named, ready-to-run configuration: what `vigil-sim list` shows and
/// `vigil-sim run <name>` runs.
pub struct Preset {
    /// The name on the command line.
    pub name: &'static str,
    /// One line for `vigil-sim list`.
    pub what: &'static str,
    /// Builds the configuration.
    pub config: fn() -> ExperimentConfig,
}

/// The presets, in `vigil-sim list` order.
pub const PRESETS: &[Preset] = &[
    Preset {
        name: "single-failure",
        what: "one fabric link failing at 0.05–1% (fig. 3 point)",
        config: || fig03_optimal_case(1),
    },
    Preset {
        name: "multi-failure",
        what: "six simultaneous failures (fig. 5b point)",
        config: || fig05_multi(6),
    },
    Preset {
        name: "skewed-traffic",
        what: "80% of flows into 25% of racks (fig. 8)",
        config: || fig08_skew(1, Some(1e-3)),
    },
    Preset {
        name: "hot-tor",
        what: "one ToR sinks half the traffic, 5 failures (fig. 9)",
        config: || fig09_hot_tor(0.5, 5),
    },
    Preset {
        name: "skewed-rates",
        what: "one scorching link among mild ones (fig. 12)",
        config: || fig12_skewed_rates(6),
    },
    Preset {
        name: "test-cluster",
        what: "the paper's 10-ToR test cluster, 0.1% failure (fig. 13)",
        config: || fig13_cluster(1e-3),
    },
    Preset {
        name: "byzantine-liar",
        what: "two failures with 20% of hosts lying about paths",
        config: || byzantine_liars(2, 0.2),
    },
];

/// The configuration of the preset called `name`.
pub fn preset(name: &str) -> Option<ExperimentConfig> {
    PRESETS
        .iter()
        .find(|p| p.name == name)
        .map(|p| (p.config)())
}

// --- the scenario matrix (crate::matrix) ---------------------------------

/// The matrix's baseline fabric: a 2-pod Clos small enough that the full
/// grid conforms in CI, large enough for real ECMP diversity (60 hosts,
/// 296 directional links).
fn matrix_params() -> ClosParams {
    ClosParams {
        npod: 2,
        n0: 6,
        n1: 4,
        n2: 5,
        hosts_per_tor: 5,
    }
}

/// The matrix's baseline traffic: 40 uniform connections per host, the
/// paper's 50–100 packets per flow.
fn matrix_traffic() -> TrafficSpec {
    TrafficSpec {
        conns_per_host: ConnCount::Fixed(40),
        ..TrafficSpec::paper_default()
    }
}

/// The pooled evidence horizon at which Theorem 3's mis-ranking bound is
/// informative for floor derivation. A single smoke epoch sits below the
/// bound's useful range (ε clamps at 1 for every case); the conformance
/// verdict pools trials × epochs × seeds, so the floors are derived at a
/// pooled `N` where the bound bites and ratios between traffic regimes
/// are meaningful.
const FLOOR_HORIZON_N: u64 = 100_000;

/// Envelope floors snap down to this grid so they stay compatible with
/// the conformance scales' metric quantization (recall moves in steps of
/// `1/(k·trials·epochs)` — 0.25 at the 2×1 smoke scale).
const FLOOR_GRID: f64 = 0.05;

/// The Theorem 2/3 instance the out-of-regime floors derive from: the
/// matrix baseline fabric and traffic with the failure axis at
/// `PAPER_FAILURE`'s mid-range drop rate (the floor 1e-4 is below the
/// bound's informative range at any realistic horizon).
fn floor_theorem2() -> vigil_topology::bounds::Theorem2 {
    let packets = matrix_traffic().packets_per_flow.bounds();
    vigil_topology::bounds::Theorem2 {
        params: matrix_params(),
        k: 2,
        p_bad: 1e-3,
        p_good: RateRange::PAPER_NOISE.hi,
        c_lower: packets.0,
        c_upper: packets.1,
    }
}

fn quantize_down(v: f64) -> f64 {
    // Multiply out through integer percent so grid points serialize
    // clean (0.3, not 0.30000000000000004).
    ((v / FLOOR_GRID).floor() * FLOOR_GRID * 100.0).round() / 100.0
}

/// Theorem 3's mis-ranking probability at a fraction of the baseline
/// evidence budget: `ε(N/denominator)` at the pooled floor horizon.
fn epsilon_at_fraction(denominator: u64) -> f64 {
    floor_theorem2()
        .epsilon(FLOOR_HORIZON_N / denominator)
        .expect("floor derivation stays in the theorem's regime")
}

/// Out-of-regime recall floor at `1/denominator` of the baseline
/// evidence budget, derived from [`vigil_topology::bounds::Theorem2::
/// epsilon`]: each failed link is independently mis-ranked (and so
/// possibly missed) with probability ≤ ε, so expected recall degrades
/// from the in-regime floor by the factor `1 − ε`, snapped down to the
/// envelope grid.
fn out_of_regime_recall_floor(in_regime: f64, denominator: u64) -> f64 {
    quantize_down(in_regime * (1.0 - epsilon_at_fraction(denominator)))
}

/// Out-of-regime accuracy floor: blame accuracy is anchored at the
/// democratic majority (0.5 — below it the per-flow vote is noise, the
/// tally has lost the link), and the in-regime headroom above that
/// anchor shrinks by the same `1 − ε` factor.
fn out_of_regime_accuracy_floor(in_regime: f64, denominator: u64) -> f64 {
    quantize_down(0.5 + (in_regime - 0.5) * (1.0 - epsilon_at_fraction(denominator)))
}

/// Out-of-regime recall floor for the *sparse-connections* traffic case,
/// derived (not hand-calibrated) from Theorem 3's bound: the sparse case
/// draws 10–30 connections per host — down to a quarter of the matrix
/// baseline `N` (60 hosts × 40 connections) — and
/// `out_of_regime_recall_floor` at `N/4` yields the floor. The
/// derivation is executable in `sparse_floors_follow_theorem2_epsilon`.
fn sparse_conns_min_recall() -> f64 {
    out_of_regime_recall_floor(IN_REGIME_MIN_RECALL, 4)
}

/// Out-of-regime floors for the two *skew-starved* traffic cases
/// (`skewed-tors/drop-k2` and `combo/wide+skewed-tors`), which used to
/// be hand-calibrated constants.
///
/// Here [`vigil_topology::bounds::Theorem2`] is silent rather than weak:
/// its vote-probability gap assumes uniformly spread traffic, and the
/// §6.5 skew (80 % of flows into 25 % of the ToRs) starves the remaining
/// links of flows entirely — a failure on a starved link can receive
/// almost no votes in a short run, which is the paper's own graceful-
/// degradation story. The floors therefore derive from `epsilon` at the
/// starved links' effective budget — roughly a *fifth* of baseline per
/// link — via `out_of_regime_accuracy_floor` (majority-anchored) and
/// `out_of_regime_recall_floor`.
fn starved_traffic_min_accuracy() -> f64 {
    out_of_regime_accuracy_floor(IN_REGIME_MIN_ACCURACY, 5)
}

/// See [`starved_traffic_min_accuracy`].
fn starved_traffic_min_recall() -> f64 {
    out_of_regime_recall_floor(IN_REGIME_MIN_RECALL, 5)
}

/// The in-regime floors the out-of-regime derivations degrade from —
/// [`Envelope::from_bounds`]'s tight-regime values, asserted equal in
/// `sparse_floors_follow_theorem2_epsilon`.
const IN_REGIME_MIN_ACCURACY: f64 = 0.75;
/// See [`IN_REGIME_MIN_ACCURACY`].
const IN_REGIME_MIN_RECALL: f64 = 0.5;

/// A labelled axis value: the label reports show and the value it
/// stands for, kept together so neither can change without the other.
type Axis<T> = (&'static str, T);

/// Builds one matrix case — the one constructor every row of
/// [`standard_matrix`] and every [`byzantine_case`] goes through. The
/// envelope is Theorem 2's for `k` static failures dropping at ≥
/// `p_bad_floor` on the case's *own* fabric, packet bounds and noise
/// ceiling (its in-regime decision depends on path diversity, so a
/// topology variant must not inherit the baseline's), then passed
/// through `envelope`: `|e| e` keeps it, a struct update
/// (`|e| Envelope { min_recall: Some(0.25), ..e }`) adjusts it, and
/// `|_| literal` replaces it. NP-hard baselines are off: the matrix
/// asserts 007's envelope, not the optimizations'.
fn row(
    name: &str,
    (topology, params): Axis<ClosParams>,
    (traffic, spec): Axis<TrafficSpec>,
    faults: CompositeFaultPlan,
    slb: SlbModel,
    (k, p_bad_floor): (u32, f64),
    envelope: impl FnOnce(Envelope) -> Envelope,
) -> ScenarioCase {
    let derived = Envelope::from_bounds(
        &params,
        k,
        p_bad_floor,
        faults.noise.hi,
        spec.packets_per_flow.bounds(),
    );
    ScenarioCase {
        name: name.into(),
        topology,
        traffic,
        params,
        faults,
        run: RunConfig {
            traffic: spec,
            slb,
            baselines: Baselines {
                integer: false,
                binary: false,
                ..Baselines::default()
            },
            ..RunConfig::default()
        },
        envelope: envelope(derived),
        honest_envelope: None,
    }
}

/// One byzantine-axis case on `topology`: the baseline two-failure drop
/// story under uniform traffic with `spec`'s fraction of hosts
/// compromised. The case asserts `tolerance` (what must still hold under
/// attack; `None` asserts the honest twin's envelope) and carries its
/// honest twin's Theorem-2 envelope in `honest_envelope`, from which
/// [`crate::matrix::MatrixRunner`] measures the behavior's breaking
/// point. The spec's salt mixes in the case name (FNV-1a, like the case
/// seed) so no two cases share a compromised set.
pub fn byzantine_case(
    name: &str,
    topology: (&'static str, ClosParams),
    spec: ByzantineSpec,
    tolerance: Option<Envelope>,
) -> ScenarioCase {
    let drops = FaultKind::RandomDrop {
        failures: 2,
        rate: RateRange::PAPER_FAILURE,
    };
    let faults = CompositeFaultPlan::new(vec![drops]);
    let uniform = ("uniform", matrix_traffic());
    let mut c = row(
        name,
        topology,
        uniform,
        faults,
        SlbModel::default(),
        (2, 1e-4),
        |e| e,
    );
    // The breaking-point comparison uses the honest twin's localization
    // floors but *not* its noise-mark soundness cap: "incorrectly marked
    // noise" is judged against ground truth the adversary corrupts by
    // construction (a liar's flow really dropped, but the evidence the
    // classifier saw pointed elsewhere), so that bound measures the
    // attack, not the tally's ranking quality. Fraction 1.0 caps at the
    // traced-flow count — never binding.
    let honest = Envelope {
        max_incorrect_noise_frac: 1.0,
        ..c.envelope
    };
    c.honest_envelope = Some(honest);
    c.envelope = tolerance.unwrap_or(honest);
    // `seed(x)` is FNV-1a(name) ^ x: a pure name-derived salt mix.
    c.run.byzantine = ByzantineSpec {
        salt: c.seed(spec.salt),
        ..spec
    };
    c
}

/// The standard scenario grid: ≥ 24 named cases spanning the fault axis
/// (random drops, blackholes, gray failures, severity skew, flaps,
/// maintenance, SLB-gate outages, multi-failure combos), the topology
/// axis (pods, oversubscription, degraded spine), and the traffic axis
/// (connection count, rack skew, hot ToR, noise floor) — one row per
/// case, in report order.
pub fn standard_matrix() -> Vec<ScenarioCase> {
    use FaultKind::{Blackhole, DegradedSpine, Flap, GrayDrop, Maintenance, NearBlackhole};
    let drop = |failures| FaultKind::RandomDrop {
        failures,
        rate: RateRange::PAPER_FAILURE,
    };
    let plan = CompositeFaultPlan::new;
    let no_slb = SlbModel::default();

    let base = ("baseline-2pod", matrix_params());
    let wide = (
        "wide-3pod",
        ClosParams {
            npod: 3,
            ..matrix_params()
        },
    );
    let oversub = ("oversub-2to1", matrix_params().with_oversubscription(2));
    // The spine loss itself is the `DegradedSpine` fault ingredient.
    let degraded = ("degraded-spine", matrix_params());

    let uniform = || ("uniform", matrix_traffic());
    let sparse = || {
        let conns_per_host = ConnCount::Uniform(10, 30);
        (
            "sparse",
            TrafficSpec {
                conns_per_host,
                ..matrix_traffic()
            },
        )
    };
    let skewed_tors = || {
        let dest = DestSpec::SkewedTors {
            frac_hot_tors: 0.25,
            frac_hot_flows: 0.8,
        };
        (
            "skewed-tors",
            TrafficSpec {
                dest,
                ..matrix_traffic()
            },
        )
    };
    let hot_tor = |label, frac| {
        let dest = DestSpec::HotTor { frac };
        (
            label,
            TrafficSpec {
                dest,
                ..matrix_traffic()
            },
        )
    };
    // The raised floor is the fault plan's noise; the traffic is uniform.
    let noisy_floor = || ("noisy-floor", matrix_traffic());
    let noisy = |kinds| CompositeFaultPlan {
        noise: RateRange { lo: 0.0, hi: 1e-5 },
        ..plan(kinds)
    };

    let derived = |e: Envelope| e;
    // Silent blackholes: no SYN survives, no connection establishes, path
    // discovery never fires (§4.2) — 007 is provably blind, and the
    // envelope asserts exactly that (no blame, no mismarks).
    let blind = Envelope {
        min_accuracy: None,
        min_recall: None,
        min_precision: None,
        max_blamed_per_epoch: 0.5,
        max_incorrect_noise_frac: 0.0,
    };
    // Skew starves some links of traffic: Theorem 2's uniform-traffic
    // assumption breaks, so the floors relax (the paper's §6.5 story) — a
    // failure on a starved link can be near-invisible in a short run. One
    // derivation (`starved_traffic_min_accuracy`) for both skewed rows.
    let starved = Envelope {
        min_accuracy: Some(starved_traffic_min_accuracy()),
        min_recall: Some(starved_traffic_min_recall()),
        min_precision: None,
        max_blamed_per_epoch: 3.5,
        max_incorrect_noise_frac: 0.0,
    };
    // Graceful degradation only: some accuracy, a bounded blame list.
    let sane = |max_blamed_per_epoch, max_incorrect_noise_frac| Envelope {
        min_accuracy: Some(0.5),
        min_recall: Some(0.4),
        min_precision: None,
        max_blamed_per_epoch,
        max_incorrect_noise_frac,
    };

    #[rustfmt::skip]
    let mut cases = vec![
        // --- fault axis on the baseline topology/traffic ------------------
        row("drop/k1", base, uniform(), plan(vec![drop(1)]), no_slb, (1, 1e-4), derived),
        row("drop/k4", base, uniform(), plan(vec![drop(4)]), no_slb, (4, 1e-4), derived),
        row("drop/k1-severe", base, uniform(),
            plan(vec![FaultKind::RandomDrop { failures: 1, rate: RateRange { lo: 5e-3, hi: 1e-2 } }]),
            no_slb, (1, 5e-3), derived),
        row("blackhole/k1-silent", base, uniform(), plan(vec![Blackhole { failures: 1 }]), no_slb, (1, 1.0), |_| blind),
        row("blackhole/k2-silent", base, uniform(), plan(vec![Blackhole { failures: 2 }]), no_slb, (2, 1.0), |_| blind),
        // Near-blackholes (90 % loss) are the worst failure 007 still sees:
        // a SYN survives one attempt in ~3, then the flow hemorrhages.
        row("near-blackhole/k1", base, uniform(), plan(vec![NearBlackhole { failures: 1 }]), no_slb, (1, 0.9), derived),
        row("near-blackhole/k2", base, uniform(), plan(vec![NearBlackhole { failures: 2 }]), no_slb, (2, 0.9), derived),
        // Gray failures straddle the noise boundary by construction: links can
        // legitimately drop 0–1 packets in an epoch (undetectable that epoch),
        // and the agent-side noise classifier may misfire near the boundary —
        // the envelope asserts graceful degradation, not the paper's optimum.
        // A *lone* gray link can be completely silent in a short run, so the
        // k=1 case asserts only the negative space: no blame storm, noise
        // classifier near-sound. With three gray links some signal must surface.
        row("gray/k1", base, uniform(), plan(vec![GrayDrop { failures: 1 }]), no_slb, (1, GRAY_RATE.lo),
            |_| Envelope { min_accuracy: None, min_recall: None, ..sane(2.0, 0.04) }),
        row("gray/k3", base, uniform(), plan(vec![GrayDrop { failures: 3 }]), no_slb, (3, GRAY_RATE.lo),
            |_| Envelope { min_recall: Some(0.3), ..sane(4.0, 0.04) }),
        // The scorching member must be found; the 0.01–0.1 % members can sit
        // below an epoch's radar (Figure 12's point).
        row("skewed-severity/k4", base, uniform(), plan(vec![FaultKind::SkewedSeverity { failures: 4 }]), no_slb, (4, 1e-4),
            |e| Envelope { min_recall: Some(0.25), ..e }),
        // 30 % time-weighted loss lands far above the static floor.
        row("flap/k1", base, uniform(), plan(vec![Flap { links: 1, down_secs: 3.0, up_secs: 7.0 }]), no_slb, (1, 0.1), derived),
        row("flap/k2-fast", base, uniform(), plan(vec![Flap { links: 2, down_secs: 1.0, up_secs: 4.0 }]), no_slb, (2, 0.05), derived),
        // Epoch 0 bursts, later epochs reroute: blame must stay bounded, but
        // the pooled floors are those of a part-time failure.
        row("maintenance/k1", base, uniform(),
            plan(vec![Maintenance { links: 1, burst_secs: 3.0, burst_rate: 0.5 }]), no_slb, (1, 0.05), |_| sane(2.0, 0.0)),
        row("combo/drop+near-blackhole", base, uniform(), plan(vec![drop(2), NearBlackhole { failures: 1 }]), no_slb, (3, 1e-4), derived),
        // The flap member is loud; the gray member may whisper.
        row("combo/gray+flap", base, uniform(),
            plan(vec![GrayDrop { failures: 1 }, Flap { links: 1, down_secs: 3.0, up_secs: 7.0 }]), no_slb, (2, GRAY_RATE.lo),
            |e| Envelope { min_recall: Some(0.5), max_incorrect_noise_frac: 0.02, ..e }),
        // The gray member may stay under the radar some epochs.
        row("combo/drop+near-blackhole+gray", base, uniform(),
            plan(vec![drop(1), NearBlackhole { failures: 1 }, GrayDrop { failures: 1 }]), no_slb, (3, 1e-4),
            |e| Envelope { min_recall: Some(0.5), max_incorrect_noise_frac: 0.02, ..e }),

        // --- SLB-gate axis --------------------------------------------------
        // Untraced flows thin the evidence, not the truth: recall may sag
        // and the thinner conservative pass can misfire a noise mark, but
        // blame on traced flows must hold.
        row("slb/q25", base, uniform(), plan(vec![drop(2)]), SlbModel::query_failures(0.25), (2, 1e-4),
            |e| Envelope { min_recall: Some(0.4), max_incorrect_noise_frac: 0.03, ..e }),
        row("slb/q50", base, uniform(), plan(vec![drop(2)]), SlbModel::query_failures(0.5), (2, 1e-4),
            |e| Envelope { min_recall: Some(0.4), max_incorrect_noise_frac: 0.03, ..e }),
        row("slb/snat20", base, uniform(), plan(vec![drop(2)]), SlbModel { query_failure_rate: 0.0, snat_frac: 0.2 }, (2, 1e-4),
            |e| Envelope { min_recall: Some(0.4), max_incorrect_noise_frac: 0.03, ..e }),

        // --- topology axis --------------------------------------------------
        row("wide-3pod/drop-k2", wide, uniform(), plan(vec![drop(2)]), no_slb, (2, 1e-4), derived),
        row("wide-3pod/gray-k2", wide, uniform(), plan(vec![GrayDrop { failures: 2 }]), no_slb, (2, GRAY_RATE.lo),
            |_| Envelope { min_recall: Some(0.2), ..sane(3.0, 0.04) }),
        row("oversub/drop-k2", oversub, uniform(), plan(vec![drop(2)]), no_slb, (2, 1e-4), derived),
        // Degradation concentrates traffic on survivor links; the crowded
        // conservative pass can graze the noise boundary.
        row("degraded/drop-k2", degraded, uniform(), plan(vec![DegradedSpine { frac: 0.25 }, drop(2)]), no_slb, (2, 1e-4),
            |e| Envelope { max_incorrect_noise_frac: 0.02, ..e }),
        row("degraded/near-blackhole-k1", degraded, uniform(),
            plan(vec![DegradedSpine { frac: 0.25 }, NearBlackhole { failures: 1 }]), no_slb, (1, 0.9), derived),

        // --- traffic axis ---------------------------------------------------
        // Down to a quarter of the baseline connection count: Theorem 3's N
        // shrinks and ε grows (see sparse_conns_min_recall's derivation).
        row("sparse-conns/drop-k2", base, sparse(), plan(vec![drop(2)]), no_slb, (2, 1e-4),
            |e| Envelope { min_recall: Some(sparse_conns_min_recall()), ..e }),
        // Crowding the hot rack also grazes the noise boundary occasionally.
        row("skewed-tors/drop-k2", base, skewed_tors(), plan(vec![drop(2)]), no_slb, (2, 1e-4),
            |_| Envelope { max_incorrect_noise_frac: 0.02, ..starved }),
        row("hot-tor-30/drop-k2", base, hot_tor("hot-tor-30", 0.3), plan(vec![drop(2)]), no_slb, (2, 1e-4),
            |e| Envelope { min_recall: Some(0.5), ..e }),
        // Past the paper's 50 % skew knee: assert graceful degradation only.
        row("hot-tor-60/drop-k4", base, hot_tor("hot-tor-60", 0.6), plan(vec![drop(4)]), no_slb, (4, 1e-4), |_| sane(5.5, 0.02)),
        row("noisy-floor/drop-k2", base, noisy_floor(), noisy(vec![drop(2)]), no_slb, (2, 1e-4), derived),

        // --- cross-axis combos ----------------------------------------------
        row("combo/oversub+hot-tor", oversub, hot_tor("hot-tor-50", 0.5), plan(vec![drop(2)]), no_slb, (2, 1e-4),
            |_| sane(3.5, 0.02)),
        // Same skew-starvation caveat as the standalone skewed-tors case.
        row("combo/wide+skewed-tors", wide, skewed_tors(), plan(vec![drop(2)]), no_slb, (2, 1e-4), |_| starved),
        row("combo/degraded+slb", degraded, uniform(), plan(vec![DegradedSpine { frac: 0.25 }, drop(2)]),
            SlbModel::query_failures(0.25), (2, 1e-4),
            |e| Envelope { min_recall: Some(0.4), max_incorrect_noise_frac: 0.02, ..e }),
    ];

    // --- byzantine-voter axis ---------------------------------------------
    // Fraction sweep × behavior on the baseline two-failure story,
    // appended after every honest case so the honest prefix of the grid
    // (and its serialized report) is undisturbed. Each case asserts a
    // fraction-calibrated *tolerance* envelope (measured at the 3×2
    // default and 2×1 smoke scales, floors set with margin); the honest
    // twin's envelope rides along so the runner reports each behavior's
    // breaking point (the smallest fraction outside the honest envelope).
    //
    // The measured story the floors encode: the democratic tally absorbs
    // *liars* up to the BFT-flavored one-third boundary (accuracy decays
    // roughly like 1 − fraction; precision collapses past 33 %), *mutes*
    // never corrupt it (they only thin evidence — recall sags, accuracy
    // holds through 50 %), while *flooders* and *flippers* poison
    // precision early (spurious votes pile onto the compromised hosts'
    // own access links) yet leave blame accuracy on real victims high.
    let byz =
        |acc: Option<f64>, prec: Option<f64>, rec: Option<f64>, blamed: f64, noise: f64| Envelope {
            min_accuracy: acc,
            min_recall: rec,
            min_precision: prec,
            max_blamed_per_epoch: blamed,
            max_incorrect_noise_frac: noise,
        };
    #[rustfmt::skip]
    let byzantine_grid = [
        ("byzantine/liar-05",  ByzantineSpec::liars(0.05),         byz(Some(0.85), Some(0.60), Some(0.75),  3.5, 0.04)),
        ("byzantine/liar-10",  ByzantineSpec::liars(0.10),         byz(Some(0.80), Some(0.50), Some(0.75),  4.0, 0.12)),
        ("byzantine/liar-20",  ByzantineSpec::liars(0.20),         byz(Some(0.80), Some(0.40), Some(0.45),  3.5, 0.25)),
        ("byzantine/liar-33",  ByzantineSpec::liars(0.33),         byz(Some(0.60), Some(0.35), Some(0.60),  5.5, 0.20)),
        ("byzantine/liar-50",  ByzantineSpec::liars(0.50),         byz(Some(0.35), Some(0.15), Some(0.50),  9.0, 0.22)),
        ("byzantine/mute-20",  ByzantineSpec::mutes(0.20),         byz(Some(0.90), Some(0.75), Some(0.50),  3.5, 0.02)),
        ("byzantine/mute-50",  ByzantineSpec::mutes(0.50),         byz(Some(0.85), Some(0.70), Some(0.45),  3.5, 0.02)),
        ("byzantine/flood-20", ByzantineSpec::flooders(0.20, 0.1), byz(Some(0.80), Some(0.05), Some(0.45), 14.0, 0.02)),
        ("byzantine/flood-50", ByzantineSpec::flooders(0.50, 0.1), byz(Some(0.80), None,       Some(0.60), 40.0, 0.02)),
        ("byzantine/flip-10",  ByzantineSpec::flippers(0.10),      byz(Some(0.80), Some(0.20), Some(0.75), 10.0, 0.02)),
        ("byzantine/flip-33",  ByzantineSpec::flippers(0.33),      byz(Some(0.30), Some(0.08), Some(0.75), 22.0, 0.02)),
    ];
    for (name, spec, tolerance) in byzantine_grid {
        cases.push(byzantine_case(name, base, spec, Some(tolerance)));
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_valid_configs() {
        let configs = vec![
            fig03_optimal_case(2),
            fig04_detection(6),
            fig05_single(1e-3),
            fig05_multi(10),
            fig06_noise(1e-5, 5),
            fig07_connections(1, Some(1e-3)),
            fig08_skew(1, None),
            fig09_hot_tor(0.5, 10),
            fig10_detection_single(5e-3),
            fig11_location(LinkKind::TorToT1, 1e-3),
            fig12_skewed_rates(6),
            sec6_7_network_size(3, 1),
            fig13_cluster(1e-2),
            sec7_2_two_failures(),
            sec7_3_two_failures(),
        ];
        for cfg in configs {
            cfg.params.validate().unwrap_or_else(|e| {
                panic!("{}: invalid params: {e}", cfg.name);
            });
            assert!(cfg.trials > 0 && cfg.epochs > 0, "{}", cfg.name);
        }
    }

    #[test]
    fn sparse_floors_follow_theorem2_epsilon() {
        // The floors' derivation, executable end to end: Theorem 3's
        // mis-ranking bound ε(N) at the sparse/starved evidence budgets
        // must be materially worse than at the matrix baseline — that
        // widening is *what* lowers these floors below the in-regime
        // values — and the published floor functions must equal the
        // formulas applied to those ε values.
        let t2_mid = floor_theorem2();
        let eps_base = t2_mid.epsilon(FLOOR_HORIZON_N).expect("baseline in regime");
        let eps_sparse = epsilon_at_fraction(4);
        let eps_starved = epsilon_at_fraction(5);
        assert!(eps_base < 0.1, "pooled baseline must be informative");
        assert!(
            eps_sparse > eps_base * 10.0,
            "quartering N must widen ε materially (base {eps_base:.3e}, \
             sparse {eps_sparse:.3e})"
        );
        assert!(
            eps_starved >= eps_sparse,
            "the starved budget cannot beat the sparse one"
        );

        // The derivation anchors equal Envelope::from_bounds's in-regime
        // floors (if those move, the derivation must move with them).
        let drops = CompositeFaultPlan::new(vec![FaultKind::RandomDrop {
            failures: 2,
            rate: RateRange::PAPER_FAILURE,
        }]);
        let base = ("baseline-2pod", matrix_params());
        let uniform = ("uniform", matrix_traffic());
        let slb = SlbModel::default();
        let in_regime = row("anchor", base, uniform, drops, slb, (2, 1e-4), |e| e).envelope;
        assert_eq!(in_regime.min_recall, Some(IN_REGIME_MIN_RECALL));
        assert_eq!(in_regime.min_accuracy, Some(IN_REGIME_MIN_ACCURACY));

        // The floor functions ARE the formulas — no hand constant left.
        let grid = |v: f64| ((v / FLOOR_GRID).floor() * FLOOR_GRID * 100.0).round() / 100.0;
        assert_eq!(
            sparse_conns_min_recall(),
            grid(IN_REGIME_MIN_RECALL * (1.0 - eps_sparse))
        );
        assert_eq!(
            starved_traffic_min_recall(),
            grid(IN_REGIME_MIN_RECALL * (1.0 - eps_starved))
        );
        assert_eq!(
            starved_traffic_min_accuracy(),
            grid(0.5 + (IN_REGIME_MIN_ACCURACY - 0.5) * (1.0 - eps_starved))
        );

        // Ordering and sanity of the derived values: below the in-regime
        // floors, starved at or under sparse, accuracy still a majority.
        assert!(sparse_conns_min_recall() < IN_REGIME_MIN_RECALL);
        assert!(starved_traffic_min_recall() <= sparse_conns_min_recall());
        assert!(starved_traffic_min_recall() > 0.0);
        assert!(starved_traffic_min_accuracy() > 0.5);

        // And both skew-starved cases share the one derivation.
        let cases = standard_matrix();
        let floor_of = |name: &str| {
            cases
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("case {name} missing"))
                .envelope
        };
        let skewed = floor_of("skewed-tors/drop-k2");
        let combo = floor_of("combo/wide+skewed-tors");
        assert_eq!(skewed.min_recall, Some(starved_traffic_min_recall()));
        assert_eq!(skewed.min_accuracy, Some(starved_traffic_min_accuracy()));
        assert_eq!(combo.min_recall, skewed.min_recall);
        assert_eq!(combo.min_accuracy, skewed.min_accuracy);
        assert_eq!(
            floor_of("sparse-conns/drop-k2").min_recall,
            Some(sparse_conns_min_recall())
        );
    }

    #[test]
    fn rows_derive_the_envelope_from_their_own_fabric_and_noise() {
        // Two failures are inside Theorem 2's regime on the baseline
        // fabric, but not on one pod (no spine diversity) nor under 1 %
        // noise: a row deriving from anything but its own axes misses one.
        let drops = || {
            CompositeFaultPlan::new(vec![FaultKind::RandomDrop {
                failures: 2,
                rate: RateRange::PAPER_FAILURE,
            }])
        };
        let min_accuracy = |params, faults| {
            let uniform = ("uniform", matrix_traffic());
            let slb = SlbModel::default();
            let c = row(
                "probe",
                ("probe", params),
                uniform,
                faults,
                slb,
                (2, 1e-4),
                |e| e,
            );
            c.envelope.min_accuracy
        };
        let base = matrix_params();
        assert_eq!(min_accuracy(base, drops()), Some(IN_REGIME_MIN_ACCURACY));
        let one_pod = ClosParams { npod: 1, ..base };
        assert_eq!(min_accuracy(one_pod, drops()), Some(0.5));
        let noisy = CompositeFaultPlan {
            noise: RateRange { lo: 0.0, hi: 1e-2 },
            ..drops()
        };
        assert_eq!(min_accuracy(base, noisy), Some(0.5));
    }

    #[test]
    fn standard_matrix_meets_the_grid_contract() {
        let cases = standard_matrix();
        assert!(cases.len() >= 24, "only {} cases", cases.len());

        // Names unique.
        let mut names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len(), "duplicate case names");

        // ≥ 5 fault kinds spanned.
        let mut kinds: Vec<&str> = cases.iter().flat_map(|c| c.fault_labels()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert!(kinds.len() >= 5, "only fault kinds {kinds:?}");

        // ≥ 2 topology variants.
        let mut topos: Vec<&str> = cases.iter().map(|c| c.topology).collect();
        topos.sort_unstable();
        topos.dedup();
        assert!(topos.len() >= 2, "only topologies {topos:?}");

        // Every case has valid parameters and a meaningful envelope.
        for c in &cases {
            c.params
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", c.name));
            assert!(c.envelope.max_blamed_per_epoch > 0.0, "{}", c.name);
            assert!(
                !c.run.baselines.integer && !c.run.baselines.binary,
                "{}: matrix cases assert 007 only",
                c.name
            );
        }
    }

    #[test]
    fn fig12_has_one_hot_failure() {
        let cfg = fig12_skewed_rates(6);
        assert!(cfg.faults.first_failure_rate.is_some());
        assert_eq!(cfg.faults.failures, 6);
    }

    #[test]
    fn fig13_targets_t1_tor() {
        let cfg = fig13_cluster(1e-3);
        assert_eq!(cfg.faults.location, FaultLocation::Kind(LinkKind::T1ToTor));
        assert_eq!(cfg.params, ClosParams::test_cluster());
    }
}
