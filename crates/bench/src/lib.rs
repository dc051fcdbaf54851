//! The figure catalogue: every table and figure of the paper's evaluation
//! as one [`Figure`] entry in [`FIGURES`], run by `vigil-sim figures
//! [--only <id>]`.
//!
//! An entry is data — its id, the artifacts it writes, what it measures,
//! the paper's reference and reported values (arXiv:1802.07222), its
//! default trials × epochs — plus a `run` function that builds the
//! scenario from `vigil::scenarios`, executes it on a
//! [`vigil::SweepEngine`], prints what the artifacts do not hold, and
//! returns each artifact serialized. The caller decides where the bytes
//! go: the CLI writes `results/<id>.json`, the golden test compares them
//! with `tests/golden/<id>.json`.
//!
//! Scale is an argument. The front door resolves it per entry from the
//! entry's defaults and the caller's overrides ([`Figure::scale`]); the
//! output is byte-identical at any engine width.

#![forbid(unsafe_code)]

use serde::Serialize;
use vigil::prelude::*;

mod production;
mod sweeps;
mod testbed;
mod theory;

/// Trials and epochs one entry runs at.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Trials per experiment point.
    pub trials: usize,
    /// Epochs per trial.
    pub epochs: usize,
    /// A smoke run: shrunken fabric and fewer repetitions.
    pub fast: bool,
}

impl Scale {
    /// Applies the scale to a scenario config.
    pub(crate) fn apply(&self, mut cfg: ExperimentConfig) -> ExperimentConfig {
        cfg.trials = self.trials;
        cfg.epochs = self.epochs;
        // Smoke runs shrink the fabric too.
        if self.fast && cfg.params == ClosParams::paper_sim() {
            cfg.params = SMALL_FABRIC;
        }
        cfg
    }
}

/// The two-pod fabric smoke runs (and the packet-level entries) use.
pub(crate) const SMALL_FABRIC: ClosParams = ClosParams {
    npod: 2,
    n0: 8,
    n1: 6,
    n2: 6,
    hosts_per_tor: 6,
};

/// A run that scores 007 alone (no optimization baselines) over
/// `conns` connections per host.
fn vigil_only(conns: u32) -> RunConfig {
    RunConfig {
        traffic: TrafficSpec {
            conns_per_host: ConnCount::Fixed(conns),
            ..TrafficSpec::paper_default()
        },
        baselines: Baselines {
            integer: false,
            binary: false,
            ..Baselines::default()
        },
        ..RunConfig::default()
    }
}

/// Element-wise sum of per-task counters.
pub(crate) fn sum_counts<const N: usize>(rows: impl IntoIterator<Item = [u64; N]>) -> [u64; N] {
    rows.into_iter().fold([0; N], |mut acc, row| {
        for (a, n) in acc.iter_mut().zip(row) {
            *a += n;
        }
        acc
    })
}

/// One serialized output: `results/<id>.json` holds `json`.
#[derive(Debug)]
pub struct Artifact {
    /// File stem, e.g. `"fig05a"`.
    pub id: String,
    /// Pretty-printed JSON, without a trailing newline.
    pub json: String,
}

/// What an entry's `run` returns: its artifacts in declared order, or
/// the check it failed.
pub type Outputs = Result<Vec<Artifact>, String>;

/// One catalogue entry.
pub struct Figure {
    /// Selector for `--only`.
    pub id: &'static str,
    /// The artifact ids `run` returns, in order.
    pub outputs: &'static [&'static str],
    /// What the entry measures.
    pub what: &'static str,
    /// Where the paper reports it, and what it reports.
    pub paper: &'static str,
    /// Default trials per point.
    pub trials: usize,
    /// Default epochs per trial.
    pub epochs: usize,
    /// Runs the entry.
    pub run: fn(Scale, &SweepEngine) -> Outputs,
}

impl Figure {
    /// The entry's scale: its defaults, shrunk when `fast` (a quarter of
    /// the trials, half the epochs), then overridden.
    pub fn scale(&self, fast: bool, trials: Option<usize>, epochs: Option<usize>) -> Scale {
        let (t, e) = if fast {
            (self.trials.div_ceil(4), self.epochs.div_ceil(2))
        } else {
            (self.trials, self.epochs)
        };
        Scale {
            trials: trials.unwrap_or(t.max(1)),
            epochs: epochs.unwrap_or(e.max(1)),
            fast,
        }
    }
}

/// Looks up a catalogue entry by id.
pub fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// The catalogue, in the paper's order.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "fig01",
        outputs: &["fig01"],
        what: "drops are spread across flows (per-interval CDFs)",
        paper: "§2 Figure 1: when an interval has ≥10 drops, ≥3 flows see drops 95% of the \
                time; in ≥80% of intervals no single flow holds more than 34% of the drops \
                ('no single flow sees more than 40%' in most cases)",
        trials: 1,
        epochs: 1,
        run: production::fig01,
    },
    Figure {
        id: "fig03",
        outputs: &["fig03"],
        what: "accuracy vs #failed links (Theorem 2 regime)",
        paper: "§6.1 Figure 3: 007 accuracy > 96% at every k, the integer optimization at or \
                below it; zero incorrect noise marks",
        trials: 5,
        epochs: 2,
        run: sweeps::fig03,
    },
    Figure {
        id: "fig04",
        outputs: &["fig04"],
        what: "Algorithm 1 precision/recall vs #failed links",
        paper: "§6.1 Figure 4: 007 precision/recall near 100% across k; the optimizations \
                flag spurious links (their covers are underdetermined under noise), the \
                binary one worst",
        trials: 5,
        epochs: 2,
        run: sweeps::fig04,
    },
    Figure {
        id: "fig05",
        outputs: &["fig05a", "fig05b"],
        what: "accuracy below Theorem 2's bounds: (a) drop-rate sweep, (b) 2-14 failures",
        paper: "§6.2 Figure 5: high accuracy down to ~0.01% drop rates; 007 ≈ optimization on \
                (a); on (b) 007 stays high while the optimization's intervals blow up",
        trials: 5,
        epochs: 2,
        run: sweeps::fig05,
    },
    Figure {
        id: "fig06",
        outputs: &["fig06_1", "fig06_5"],
        what: "accuracy vs noise level (good-link drop rates), one and five failures",
        paper: "§6.3 Figure 6: 007's accuracy flat in noise; the optimization's intervals widen",
        trials: 5,
        epochs: 2,
        run: sweeps::fig06,
    },
    Figure {
        id: "fig07",
        outputs: &["fig07a", "fig07b"],
        what: "accuracy with conns/host ~ U(10, 60): (a) drop-rate sweep, (b) 2-14 failures",
        paper: "§6.4 Figure 7: 007 keeps a high detection probability regardless of k; the \
                under-constrained optimization degrades",
        trials: 5,
        epochs: 2,
        run: sweeps::fig07,
    },
    Figure {
        id: "fig08",
        outputs: &["fig08a", "fig08b"],
        what: "accuracy under skewed traffic (80% of flows to 25% of ToRs)",
        paper: "§6.5 Figure 8: 007 ≥ 85% beyond 0.1% drop rate on (a), ≥ 98% on (b); the \
                optimization consistently low under skew",
        trials: 5,
        epochs: 2,
        run: sweeps::fig08,
    },
    Figure {
        id: "fig09",
        outputs: &["fig09"],
        what: "accuracy vs #failures under a hot-ToR sink (10-70% of flows)",
        paper: "§6.5 Figure 9: flat and high up to 50% skew; the 70% column dips once the \
                failure count reaches ~10",
        trials: 5,
        epochs: 2,
        run: sweeps::fig09,
    },
    Figure {
        id: "fig10",
        outputs: &["fig10"],
        what: "Algorithm 1 precision/recall vs drop rate (single failure)",
        paper: "§6.6 Figure 10: 007 above both optimizations; recall rises with the drop rate \
                for all methods, 007's precision stays near 100%",
        trials: 5,
        epochs: 2,
        run: sweeps::fig10,
    },
    Figure {
        id: "fig11",
        outputs: &["fig11_ToR-T1", "fig11_T1-T2", "fig11_T2-T1", "fig11_T1-ToR"],
        what: "Algorithm 1 precision/recall vs drop rate, by failed-link location",
        paper: "§6.6 Figure 11: every location class detectable; level-2 links (T1-T2, T2-T1) \
                ramp slightly later than level-1",
        trials: 5,
        epochs: 2,
        run: sweeps::fig11,
    },
    Figure {
        id: "fig12",
        outputs: &["fig12"],
        what: "Algorithm 1 with skewed drop rates (one hot link + mild ones)",
        paper: "§6.6 Figure 12: precision ~100%; recall decays with k because the hot link's \
                votes raise the 1% threshold (top-k picks would recall ~100%)",
        trials: 5,
        epochs: 2,
        run: sweeps::fig12,
    },
    Figure {
        id: "sec6_7",
        outputs: &["sec6_7_pods", "sec6_7_30"],
        what: "accuracy & detection vs network size (pods), plus the 30-failure point",
        paper: "§6.7: single-failure accuracy 98/92/91/90% at 1-4 pods vs 94/72/79/77% for \
                the optimization; recall ≥ 98% to 6 pods, precision 100%; 98.01% accuracy \
                with 30 failed links",
        trials: 3,
        epochs: 1,
        run: sweeps::sec6_7,
    },
    Figure {
        id: "sec7_1",
        outputs: &["sec7_1"],
        what: "clean-testbed validation: a sick ToR unmasked, then 'rebooted'",
        paper: "§7.1: links at one ToR averaged 22.5 ± 3.65 votes; 0 after the reboot",
        trials: 1,
        epochs: 1,
        run: testbed::sec7_1,
    },
    Figure {
        id: "sec7_2",
        outputs: &["sec7_2"],
        what: "per-flow blame with two unequal failures (0.2% vs 0.05%)",
        paper: "§7.2: 90.47% of flows through a failed link blamed on the correct link",
        trials: 10,
        epochs: 3,
        run: testbed::sec7_2,
    },
    Figure {
        id: "fig13",
        outputs: &[
            "fig13_rate0.01",
            "fig13_rate0.005",
            "fig13_rate0.001",
            "fig13_rate0.0005",
        ],
        what: "vote gap distribution on the test cluster (single induced failure)",
        paper: "§7.3 Figure 13: the bad link is top-1 at 1% and 0.1%; at 0.05% top-1 88.9% \
                and always top-2; the integer program flags 1.5/1.18/1.47x as many links; a \
                higher drop rate gives a larger gap",
        trials: 8,
        epochs: 3,
        run: testbed::fig13,
    },
    Figure {
        id: "sec7_3",
        outputs: &["sec7_3"],
        what: "rank positions of two unequal failures (0.2% vs 0.1%)",
        paper: "§7.3: the hotter link is most voted 100% of the time; the second ranks 2nd \
                47%, 3rd 32%, never beyond 5th; the top 3 hold both 80%; per-connection blame \
                98% right",
        trials: 20,
        epochs: 2,
        run: testbed::sec7_3,
    },
    Figure {
        id: "table1",
        outputs: &["table1"],
        what: "ICMP replies per second per switch under 007's traceroute load",
        paper: "§8.1 Table 1: T = 0 69%, 0 < T ≤ 3 30.98%, T > 3 0.02%, max(T) = 11 ≤ Tmax = 100",
        trials: 1,
        epochs: 1,
        run: production::table1,
    },
    Figure {
        id: "sec8_2",
        outputs: &["sec8_2"],
        what: "EverFlow cross-validation: blamed link + recorded path vs ground truth",
        paper: "§8.2: '007 was accurate in every single case'; recorded paths match exactly",
        trials: 1,
        epochs: 1,
        run: production::sec8_2,
    },
    Figure {
        id: "sec8_3",
        outputs: &["sec8_3"],
        what: "VM reboot diagnosis: cause classes for 281 unexplained reboots",
        paper: "§8.3: a cause found for each of 281 reboots (262 host-ToR transients, 2 bad \
                ToRs, 15 config updates, 2 flaps); one day: 0.45 ± 0.12 links blamed per \
                epoch, 48% server-ToR, 24% T1-ToR, 6% T2-T1",
        trials: 1,
        epochs: 1,
        run: production::sec8_3,
    },
    Figure {
        id: "fig14",
        outputs: &["fig14"],
        what: "network-related VM reboots per hour of day",
        paper: "Appendix A Figure 14: ~10 network-related reboots per hour, all unexplained \
                before 007 and every one explained after (§8.3)",
        trials: 1,
        epochs: 1,
        run: production::fig14,
    },
    Figure {
        id: "thm2",
        outputs: &["thm2"],
        what: "Theorem 1/2/3 bounds + Monte-Carlo verification of Lemma 2",
        paper: "§4.1, §5.2, Appendix C",
        trials: 1,
        epochs: 1,
        run: theory::thm2,
    },
    Figure {
        id: "ablation",
        outputs: &[
            "ablation_weight",
            "ablation_adjust",
            "ablation_threshold",
            "ablation_base",
            "ablation_quorum",
        ],
        what: "vote weight / adjustment / threshold / base / quorum ablations (k = 6)",
        paper: "§5.1 design choices: the adjustment cuts false positives ~5%; a 1% threshold \
                balances precision and recall, higher trades recall for precision",
        trials: 4,
        epochs: 2,
        run: sweeps::ablation,
    },
];

/// Serializes one artifact the way `results/<id>.json` holds it.
pub(crate) fn artifact(id: impl Into<String>, data: &impl Serialize) -> Artifact {
    Artifact {
        id: id.into(),
        json: serde_json::to_string_pretty(data).expect("serialization is infallible"),
    }
}

/// One row of a printed/serialized series.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct SeriesRow {
    /// x-axis value (drop rate, #failures, skew, …).
    x: f64,
    /// Metric values keyed by column label, in insertion order.
    values: Vec<(String, f64)>,
}

impl SeriesRow {
    /// A row from `(label, value)` columns.
    pub(crate) fn new<L: Into<String>>(
        x: f64,
        columns: impl IntoIterator<Item = (L, f64)>,
    ) -> Self {
        Self {
            x,
            values: columns.into_iter().map(|(l, v)| (l.into(), v)).collect(),
        }
    }
}

/// Prints a fixed-width table of series rows.
pub(crate) fn print_table(x_label: &str, rows: &[SeriesRow]) {
    if rows.is_empty() {
        println!("(no data)");
        return;
    }
    print!("{:>14}", x_label);
    for (label, _) in &rows[0].values {
        print!("  {label:>20}");
    }
    println!();
    for row in rows {
        print!("{:>14}", trim_float(row.x));
        for (_, v) in &row.values {
            if v.is_nan() {
                print!("  {:>20}", "-");
            } else {
                print!("  {:>20.2}", v);
            }
        }
        println!();
    }
}

fn trim_float(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e9 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Pooled per-flow accuracy (%), NaN when undefined.
pub(crate) fn accuracy_pct(m: &vigil::MethodReport) -> f64 {
    m.pooled.accuracy.value().map_or(f64::NAN, |v| v * 100.0)
}

/// Pooled precision (%), NaN when undefined.
pub(crate) fn precision_pct(m: &vigil::MethodReport) -> f64 {
    m.pooled
        .confusion
        .precision()
        .map_or(f64::NAN, |v| v * 100.0)
}

/// Pooled recall (%), NaN when undefined.
pub(crate) fn recall_pct(m: &vigil::MethodReport) -> f64 {
    m.pooled.confusion.recall().map_or(f64::NAN, |v| v * 100.0)
}

/// Runs a declarative sweep, turns each point's report into a
/// [`SeriesRow`], prints the table, and returns the rows as the
/// `spec.id` artifact.
pub(crate) fn sweep_table<X>(
    engine: &SweepEngine,
    spec: &SweepSpec<'_, X>,
    row: impl Fn(&X, &ExperimentReport) -> SeriesRow,
) -> Artifact {
    let reports = engine.run_sweep(spec);
    let rows: Vec<SeriesRow> = spec
        .values
        .iter()
        .zip(&reports)
        .map(|(x, report)| row(x, report))
        .collect();
    println!("\n{}:", spec.id);
    print_table(spec.knob, &rows);
    artifact(spec.id, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_resolution_defaults() {
        let fig = figure("fig05").expect("catalogued");
        let s = fig.scale(false, None, None);
        assert_eq!((s.trials, s.epochs), (5, 2));
        let cfg = s.apply(ExperimentConfig::default());
        assert_eq!(cfg.trials, 5);
        assert_eq!(cfg.epochs, 2);
        let fast = fig.scale(true, None, Some(3));
        assert_eq!((fast.trials, fast.epochs), (2, 3));
    }

    #[test]
    fn trim_float_formats() {
        assert_eq!(trim_float(3.0), "3");
        assert_eq!(trim_float(0.5), "0.5");
    }

    #[test]
    fn table_printing_smoke() {
        print_table("x", &[SeriesRow::new(1.0, [("a", 2.0), ("b", f64::NAN)])]);
    }
}
