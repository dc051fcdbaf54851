//! The catalogue entries that are one-knob sweeps over `vigil::scenarios`:
//! a [`SweepSpec`] per panel plus a row function.

use crate::{
    accuracy_pct, artifact, precision_pct, print_table, recall_pct, sweep_table, Artifact, Outputs,
    Scale, SeriesRow,
};
use std::collections::BTreeSet;
use vigil::prelude::*;
use vigil::MethodReport;
use vigil_stats::BinaryConfusion;

/// The x-axis of every "#failed links" panel.
const FAILED_LINKS: [u32; 4] = [2, 6, 10, 14];
/// Figure 5(a)'s and Figure 10's drop-rate sweep (0.01–1 %).
const RATES: [f64; 7] = [1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2];

fn integer(r: &ExperimentReport) -> &MethodReport {
    r.integer.as_ref().expect("integer baseline enabled")
}

fn binary(r: &ExperimentReport) -> &MethodReport {
    r.binary.as_ref().expect("binary baseline enabled")
}

/// Half-width of the 95 % CI of a method's per-trial accuracy (%).
fn ci_pct(m: &MethodReport) -> f64 {
    m.accuracy.ci95_half_width().unwrap_or(f64::NAN) * 100.0
}

/// 007 vs the integer program, per-flow accuracy.
fn accuracy_row(x: f64, r: &ExperimentReport) -> SeriesRow {
    SeriesRow::new(
        x,
        [
            ("007 acc %", accuracy_pct(&r.vigil)),
            ("int-opt acc %", accuracy_pct(integer(r))),
        ],
    )
}

/// [`accuracy_row`] plus the integer program's confidence interval.
fn accuracy_ci_row(x: f64, r: &ExperimentReport) -> SeriesRow {
    let mut row = accuracy_row(x, r);
    row.values.push(("int CI±".into(), ci_pct(integer(r))));
    row
}

/// Algorithm 1 vs both programs, precision and recall.
fn detection_row(x: f64, r: &ExperimentReport) -> SeriesRow {
    let (int, bin) = (integer(r), binary(r));
    SeriesRow::new(
        x,
        [
            ("007 prec %", precision_pct(&r.vigil)),
            ("007 rec %", recall_pct(&r.vigil)),
            ("int prec %", precision_pct(int)),
            ("int rec %", recall_pct(int)),
            ("bin prec %", precision_pct(bin)),
            ("bin rec %", recall_pct(bin)),
        ],
    )
}

pub(crate) fn fig03(scale: Scale, engine: &SweepEngine) -> Outputs {
    let spec = SweepSpec::new("fig03", "#failed links", FAILED_LINKS.to_vec(), move |&k| {
        scale.apply(scenarios::fig03_optimal_case(k))
    });
    Ok(vec![sweep_table(engine, &spec, |&k, r| {
        let mut row = accuracy_row(k.into(), r);
        row.values.push(("007 CI±".into(), ci_pct(&r.vigil)));
        row.values
            .push(("bad noise marks".into(), r.noise_marked_incorrectly as f64));
        row
    })])
}

pub(crate) fn fig04(scale: Scale, engine: &SweepEngine) -> Outputs {
    let spec = SweepSpec::new("fig04", "#failed links", FAILED_LINKS.to_vec(), move |&k| {
        scale.apply(scenarios::fig04_detection(k))
    });
    Ok(vec![sweep_table(engine, &spec, |&k, r| {
        detection_row(k.into(), r)
    })])
}

pub(crate) fn fig05(scale: Scale, engine: &SweepEngine) -> Outputs {
    let a = SweepSpec::new("fig05a", "drop rate (%)", RATES.to_vec(), move |&rate| {
        scale.apply(scenarios::fig05_single(rate))
    });
    let b = SweepSpec::new(
        "fig05b",
        "#failed links",
        FAILED_LINKS.to_vec(),
        move |&k| scale.apply(scenarios::fig05_multi(k)),
    );
    Ok(vec![
        sweep_table(engine, &a, |&rate, r| accuracy_row(rate * 100.0, r)),
        sweep_table(engine, &b, |&k, r| accuracy_row(k.into(), r)),
    ])
}

/// Good links' drop rates from a tenth of the paper's baseline noise to
/// 50× it, inside Theorem 2's ceiling (≈1e-4 for this fabric).
pub(crate) fn fig06(scale: Scale, engine: &SweepEngine) -> Outputs {
    let panels = [1u32, 5].map(|failures| {
        let id = format!("fig06_{failures}");
        let spec = SweepSpec::new(
            &id,
            "noise (max rate)",
            vec![1e-7, 1e-6, 5e-6, 1e-5, 5e-5],
            move |&noise| scale.apply(scenarios::fig06_noise(noise, failures)),
        );
        sweep_table(engine, &spec, |&noise, r| accuracy_ci_row(noise, r))
    });
    Ok(panels.into())
}

pub(crate) fn fig07(scale: Scale, engine: &SweepEngine) -> Outputs {
    let a = SweepSpec::new(
        "fig07a",
        "drop rate (%)",
        RATES[1..].to_vec(),
        move |&rate| scale.apply(scenarios::fig07_connections(1, Some(rate))),
    );
    let b = SweepSpec::new(
        "fig07b",
        "#failed links",
        FAILED_LINKS.to_vec(),
        move |&k| scale.apply(scenarios::fig07_connections(k, None)),
    );
    Ok(vec![
        sweep_table(engine, &a, |&rate, r| accuracy_row(rate * 100.0, r)),
        sweep_table(engine, &b, |&k, r| accuracy_ci_row(k.into(), r)),
    ])
}

pub(crate) fn fig08(scale: Scale, engine: &SweepEngine) -> Outputs {
    let a = SweepSpec::new(
        "fig08a",
        "drop rate (%)",
        RATES[1..].to_vec(),
        move |&rate| scale.apply(scenarios::fig08_skew(1, Some(rate))),
    );
    let b = SweepSpec::new(
        "fig08b",
        "#failed links",
        FAILED_LINKS.to_vec(),
        move |&k| scale.apply(scenarios::fig08_skew(k, None)),
    );
    Ok(vec![
        sweep_table(engine, &a, |&rate, r| accuracy_row(rate * 100.0, r)),
        sweep_table(engine, &b, |&k, r| accuracy_row(k.into(), r)),
    ])
}

/// One flat sweep over the (failures × skew) grid, so every cell's trials
/// shard across the same worker pool; a row per failure count.
pub(crate) fn fig09(scale: Scale, engine: &SweepEngine) -> Outputs {
    let failures = [1u32, 5, 10, 15];
    let skews = [0.1, 0.3, 0.5, 0.7];
    let grid = failures
        .iter()
        .flat_map(|&k| skews.map(|s| (k, s)))
        .collect();
    let spec = SweepSpec::new("fig09", "#failures", grid, move |&(k, skew)| {
        scale.apply(scenarios::fig09_hot_tor(skew, k))
    });
    let reports = engine.run_sweep(&spec);
    let rows: Vec<SeriesRow> = failures
        .iter()
        .zip(reports.chunks(skews.len()))
        .map(|(&k, cells)| {
            let columns = skews.iter().zip(cells).map(|(&skew, r)| {
                let label = format!("{}% skew acc %", (skew * 100.0) as u32);
                (label, accuracy_pct(&r.vigil))
            });
            SeriesRow::new(k.into(), columns)
        })
        .collect();
    print_table("#failures", &rows);
    Ok(vec![artifact("fig09", &rows)])
}

pub(crate) fn fig10(scale: Scale, engine: &SweepEngine) -> Outputs {
    let spec = SweepSpec::new("fig10", "drop rate (%)", RATES.to_vec(), move |&rate| {
        scale.apply(scenarios::fig10_detection_single(rate))
    });
    Ok(vec![sweep_table(engine, &spec, |&rate, r| {
        detection_row(rate * 100.0, r)
    })])
}

pub(crate) fn fig11(scale: Scale, engine: &SweepEngine) -> Outputs {
    let kinds = [
        (LinkKind::TorToT1, "ToR-T1"),
        (LinkKind::T1ToT2, "T1-T2"),
        (LinkKind::T2ToT1, "T2-T1"),
        (LinkKind::T1ToTor, "T1-ToR"),
    ];
    let panels = kinds.map(|(kind, label)| {
        let id = format!("fig11_{label}");
        let spec = SweepSpec::new(
            &id,
            "drop rate (%)",
            vec![2.5e-4, 1e-3, 5e-3, 1e-2],
            move |&rate| scale.apply(scenarios::fig11_location(kind, rate)),
        );
        sweep_table(engine, &spec, |&rate, r| {
            let columns = [
                ("007 prec %", precision_pct(&r.vigil)),
                ("007 rec %", recall_pct(&r.vigil)),
            ];
            SeriesRow::new(rate * 100.0, columns)
        })
    });
    Ok(panels.into())
}

/// Includes the paper's counterfactual: "if the top k links had been
/// selected 007's recall would have been close to 100%".
pub(crate) fn fig12(scale: Scale, engine: &SweepEngine) -> Outputs {
    let spec = SweepSpec::new("fig12", "#failed links", FAILED_LINKS.to_vec(), move |&k| {
        scale.apply(scenarios::fig12_skewed_rates(k))
    });
    Ok(vec![sweep_table(engine, &spec, |&k, r| {
        let mut topk = BinaryConfusion::default();
        for er in &r.epochs {
            let picks: BTreeSet<_> = er
                .unbounded_picks
                .iter()
                .take(k as usize)
                .copied()
                .collect();
            let truth: BTreeSet<_> = er.truth_failed.iter().copied().collect();
            topk.merge(BinaryConfusion::from_sets(&picks, &truth));
        }
        let int = integer(r);
        let columns = [
            ("007 prec %", precision_pct(&r.vigil)),
            ("007 rec %", recall_pct(&r.vigil)),
            ("top-k rec %", topk.recall().map_or(f64::NAN, |v| v * 100.0)),
            ("int prec %", precision_pct(int)),
            ("int rec %", recall_pct(int)),
        ];
        SeriesRow::new(k.into(), columns)
    })])
}

pub(crate) fn sec6_7(scale: Scale, engine: &SweepEngine) -> Outputs {
    let max_pods = if scale.fast { 3 } else { 4 };
    let pods = SweepSpec::new("sec6_7_pods", "pods", (1..=max_pods).collect(), move |&p| {
        let mut cfg = scale.apply(scenarios::sec6_7_network_size(p, 1));
        // The fast scale may have shrunk the fabric; keep the pod count.
        cfg.params.npod = p;
        cfg
    });
    let many = SweepSpec::new("sec6_7_30", "#failed links", vec![30u32, 50], move |&k| {
        let mut cfg = scale.apply(scenarios::sec6_7_network_size(2, k));
        cfg.faults.failure_rate = RateRange { lo: 5e-4, hi: 1e-2 };
        cfg
    });
    Ok(vec![
        sweep_table(engine, &pods, |&p, r| {
            let mut row = accuracy_row(p.into(), r);
            row.values
                .push(("007 prec %".into(), precision_pct(&r.vigil)));
            row.values.push(("007 rec %".into(), recall_pct(&r.vigil)));
            row
        }),
        sweep_table(engine, &many, |&k, r| accuracy_row(k.into(), r)),
    ])
}

/// One §5.1 design choice swept at k = 6.
fn variant<X>(
    engine: &SweepEngine,
    scale: Scale,
    (id, knob, values): (&str, &str, Vec<X>),
    alg1: impl Fn(&X) -> Algorithm1Config + Sync,
    row: impl Fn(&X, &MethodReport) -> SeriesRow,
) -> Artifact {
    let spec = SweepSpec::new(id, knob, values, move |x| {
        scale.apply(scenarios::ablation_base(6, alg1(x)))
    });
    sweep_table(engine, &spec, |x, r| row(x, &r.vigil))
}

fn prec_rec(x: f64, m: &MethodReport) -> SeriesRow {
    SeriesRow::new(x, [("prec %", precision_pct(m)), ("rec %", recall_pct(m))])
}

fn prec_rec_fp(x: f64, m: &MethodReport) -> SeriesRow {
    let mut row = prec_rec(x, m);
    let fp = m.pooled.confusion.false_positives as f64;
    row.values.push(("false pos".into(), fp));
    row
}

/// §5.1's design choices; enum-valued knobs sweep an index into their
/// printed legend.
pub(crate) fn ablation(scale: Scale, engine: &SweepEngine) -> Outputs {
    let weights = [
        (VoteWeight::ReciprocalPathLength, "1/h (paper)"),
        (VoteWeight::Unit, "1"),
        (VoteWeight::ReciprocalSquared, "1/h^2"),
    ];
    let bases = [
        (ThresholdBase::Initial, "initial (fixed bar)"),
        (ThresholdBase::Current, "current (adaptive bar)"),
    ];
    for (i, (_, label)) in weights.iter().enumerate() {
        println!("   [{i}] weight = {label}");
    }
    for (i, (_, label)) in bases.iter().enumerate() {
        println!("   [{i}] base = {label}");
    }
    let default = Algorithm1Config::default;
    Ok(vec![
        variant(
            engine,
            scale,
            ("ablation_weight", "weight [idx]", vec![0, 1, 2]),
            |&i: &usize| Algorithm1Config {
                weight: weights[i].0,
                ..default()
            },
            |&i, m| {
                let mut row = SeriesRow::new(i as f64, [("acc %", accuracy_pct(m))]);
                row.values.extend(prec_rec(i as f64, m).values);
                row
            },
        ),
        variant(
            engine,
            scale,
            ("ablation_adjust", "adjust [idx]", vec![true, false]),
            |&adjust| Algorithm1Config {
                adjust,
                ..default()
            },
            |&adjust, m| prec_rec_fp(if adjust { 0.0 } else { 1.0 }, m),
        ),
        variant(
            engine,
            scale,
            (
                "ablation_threshold",
                "threshold (%)",
                vec![0.001, 0.005, 0.01, 0.02, 0.05],
            ),
            |&threshold_frac| Algorithm1Config {
                threshold_frac,
                ..default()
            },
            |&frac, m| prec_rec(frac * 100.0, m),
        ),
        variant(
            engine,
            scale,
            ("ablation_base", "base [idx]", vec![0, 1]),
            |&i: &usize| Algorithm1Config {
                threshold_base: bases[i].0,
                ..default()
            },
            |&i, m| prec_rec(i as f64, m),
        ),
        variant(
            engine,
            scale,
            ("ablation_quorum", "min voters", vec![1u32, 2, 3]),
            |&min_voters| Algorithm1Config {
                min_voters,
                ..default()
            },
            |&n, m| prec_rec_fp(n.into(), m),
        ),
    ])
}
