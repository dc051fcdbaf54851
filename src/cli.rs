//! The command line's input and output behind `vigil-sim`. Each
//! subcommand declares its operand and flags once, as a table of
//! [`Flag`]s; [`parse`] reads the arguments against that table and
//! [`usage`] generates the usage text from it. All stdout goes through
//! one [`Out`].

use std::collections::HashMap;
use std::io::{StdoutLock, Write};
use std::ops::Range;
use vigil::prelude::{ExperimentConfig, ExperimentReport, MatrixReport, ScenarioCase};
use vigil_stats::DetectionOutcome;

/// How a flag's value (or an environment variable) is read.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// No value: present or absent.
    Switch,
    /// Any string; the field is its placeholder in the usage.
    Text(&'static str),
    /// A non-negative integer.
    Integer,
    /// An integer ≥ 1.
    Positive,
    /// A number in [0, 1].
    Fraction,
    /// A half-open host range `LO..HI`.
    Hosts,
}

use Kind::*;

/// One declared flag: name, kind, help.
pub type Flag = (&'static str, Kind, &'static str);

impl Kind {
    /// The value's placeholder in the usage, and what it must be.
    fn describe(self) -> (&'static str, &'static str) {
        match self {
            Switch => ("", "no value"),
            Text(p) => (p, "a value"),
            Integer => ("N", "an integer"),
            Positive => ("N", "a positive integer"),
            Fraction => ("F", "a fraction in [0, 1]"),
            Hosts => ("LO..HI", "a half-open range LO..HI"),
        }
    }

    fn accepts(self, raw: &str) -> bool {
        match self {
            Switch | Text(_) => true,
            Integer => raw.parse::<u64>().is_ok(),
            Positive => raw.parse::<u64>().is_ok_and(|v| v > 0),
            Fraction => raw.parse::<f64>().is_ok_and(|v| (0.0..=1.0).contains(&v)),
            Hosts => host_range(raw).is_some(),
        }
    }

    /// `raw`, the value `name` was given (if any), when it is of this kind.
    fn check<'a>(self, name: &str, raw: Option<&'a str>) -> Result<&'a str, String> {
        let wants = self.describe().1;
        match raw {
            Some(raw) if self.accepts(raw) => Ok(raw),
            Some(raw) => Err(format!("{name} needs {wants}, got '{raw}'")),
            None => Err(format!("{name} needs {wants}")),
        }
    }
}

/// Reads `LO..HI` as a half-open range.
pub fn host_range(raw: &str) -> Option<Range<u32>> {
    let (lo, hi) = raw.split_once("..")?;
    Some(lo.trim().parse().ok()?..hi.trim().parse().ok()?)
}

/// The environment variable `name` read as an integer `kind` (`None` when
/// unset), with the error a flag of that kind would give.
pub fn env(name: &str, kind: Kind) -> Result<Option<usize>, String> {
    match std::env::var(name) {
        Ok(raw) => Ok(kind.check(name, Some(&raw))?.parse().ok()),
        Err(_) => Ok(None),
    }
}

/// A subcommand's arguments, each value checked against its flag's kind.
pub struct Parsed {
    /// The leading operand, when one was given.
    pub operand: Option<String>,
    values: HashMap<&'static str, Option<String>>,
}

impl Parsed {
    /// Whether the flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The flag's value as given.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.values.get(name)?.as_deref()
    }

    /// The flag's value as a `T` (the parser has checked its kind).
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.text(name)?.parse().ok()
    }
}

/// Reads `args` against a subcommand's table: an optional leading operand
/// (when `operand` is not empty; required when it reads `<…>`), then
/// declared flags. A repeated flag's last value wins.
pub fn parse(operand: &str, flags: &[&[Flag]], args: &[String]) -> Result<Parsed, String> {
    let mut args = args.iter().map(String::as_str).peekable();
    let given = match operand {
        "" => None,
        _ => args.next_if(|a| !a.starts_with("--")).map(String::from),
    };
    let mut values = HashMap::new();
    while let Some(arg) = args.next() {
        let mut declared = flags.iter().flat_map(|group| group.iter());
        let Some(&(name, kind, _)) = declared.find(|(name, ..)| *name == arg) else {
            return Err(format!("unknown flag {arg}"));
        };
        let value = match kind {
            Switch => None,
            _ => Some(kind.check(name, args.next())?.to_string()),
        };
        values.insert(name, value);
    }
    if given.is_none() && operand.starts_with('<') {
        return Err(format!("missing {operand}"));
    }
    Ok(Parsed {
        operand: given,
        values,
    })
}

/// The usage text of subcommand `name`: one line per declared flag.
pub fn usage(name: &str, operand: &str, flags: &[&[Flag]]) -> String {
    let mut text = format!("usage: vigil-sim {name} {operand}")
        .trim_end()
        .to_string();
    for &(flag, kind, help) in flags.iter().flat_map(|group| group.iter()) {
        let flag = format!("{flag} {}", kind.describe().0);
        text += &format!("\n  {flag:<28} {help}");
    }
    text
}

/// Stdout, locked once. `writeln!(out, …)?` returns a failed write as an
/// error instead of panicking, so a full disk or a closed pipe is an
/// ordinary error.
pub struct Out(StdoutLock<'static>);

impl Out {
    /// Locks stdout.
    pub fn stdout() -> Self {
        Self(std::io::stdout().lock())
    }

    /// What `writeln!` calls.
    pub fn write_fmt(&mut self, args: std::fmt::Arguments) -> Result<(), String> {
        let write = self.0.write_fmt(args);
        write.map_err(|e| format!("cannot write to stdout: {e}"))
    }

    /// Flushes stdout, so that no write error is lost at exit.
    pub fn flush(&mut self) -> Result<(), String> {
        let flush = self.0.flush();
        flush.map_err(|e| format!("cannot write to stdout: {e}"))
    }

    /// The report of `vigil-sim run`, `stream` and `collect`: pretty
    /// JSON with `--json`, else the human-readable table.
    pub fn report(
        &mut self,
        json: bool,
        cfg: &ExperimentConfig,
        report: &ExperimentReport,
    ) -> Result<(), String> {
        if json {
            let json = serde_json::to_string_pretty(report)
                .map_err(|e| format!("serialization failed: {e}"))?;
            return writeln!(self, "{json}");
        }
        writeln!(self, "experiment: {}", report.name)?;
        writeln!(
            self,
            "topology: {:?} ({} trials × {} epochs, {} thread(s), {:.0} ms)",
            cfg.params, cfg.trials, cfg.epochs, report.timing.threads, report.timing.total_ms
        )?;
        let pct = |v: Option<f64>| v.map_or("-".into(), |x| format!("{:.1}%", x * 100.0));
        let integer = report.integer.as_ref().map(|m| &m.pooled);
        writeln!(self, "\n                         007      integer-opt")?;
        type Metric = fn(&DetectionOutcome) -> Option<f64>;
        let rows: [(&str, Metric); 3] = [
            ("per-flow accuracy  ", |m| m.accuracy.value()),
            ("detection precision", |m| m.confusion.precision()),
            ("detection recall   ", |m| m.confusion.recall()),
        ];
        for (label, metric) in rows {
            let (vigil, integer) = (metric(&report.vigil.pooled), integer.and_then(metric));
            writeln!(self, "{label} {:>8}   {:>12}", pct(vigil), pct(integer))?;
        }
        writeln!(
            self,
            "\nlinks blamed per epoch: {:.2} ± {:.2}",
            report.detected_per_epoch.mean(),
            report.detected_per_epoch.ci95_half_width().unwrap_or(0.0)
        )?;
        writeln!(
            self,
            "noise-marked flows: {} (incorrect: {})",
            report.noise_marked, report.noise_marked_incorrectly
        )
    }

    /// The scenario grid, one case per line (`vigil-sim matrix --list`).
    pub fn cases(&mut self, cases: &[ScenarioCase]) -> Result<(), String> {
        writeln!(self, "{} scenario(s):", cases.len())?;
        for c in cases {
            writeln!(
                self,
                "  {:<28} topology={:<16} traffic={:<12} faults={}",
                c.name,
                c.topology,
                c.traffic,
                c.fault_labels().join("+")
            )?;
        }
        Ok(())
    }

    /// The human-readable verdict of `vigil-sim matrix`: one row per
    /// case, then the byzantine breaking points.
    pub fn matrix(&mut self, report: &MatrixReport) -> Result<(), String> {
        let pct = |v: Option<f64>| v.map_or("-".into(), |x| format!("{:.1}", x * 100.0));
        writeln!(
            self,
            "\n{:<28} {:>7} {:>7} {:>7} {:>9}  verdict",
            "case", "acc%", "rec%", "prec%", "blamed/ep"
        )?;
        for c in &report.cases {
            writeln!(
                self,
                "{:<28} {:>7} {:>7} {:>7} {:>9.2}  {}",
                c.name,
                pct(c.metrics.accuracy),
                pct(c.metrics.recall),
                pct(c.metrics.precision),
                c.metrics.blamed_per_epoch,
                if c.pass { "pass" } else { "FAIL" }
            )?;
            for v in &c.violations {
                writeln!(self, "{:>30} ! {v}", "")?;
            }
        }
        if report.breaking_points.is_empty() {
            return Ok(());
        }
        writeln!(
            self,
            "\n{:<12} {:>10} {:>11} {:>11}",
            "behavior", "breaks at", "tolerates", "max tested"
        )?;
        let pct_or =
            |v: Option<f64>, none: &str| v.map_or(none.into(), |f| format!("{:.0}%", f * 100.0));
        for b in &report.breaking_points {
            writeln!(
                self,
                "{:<12} {:>10} {:>11} {:>11.0}%",
                b.behavior,
                pct_or(b.breaking_fraction, "never"),
                pct_or(b.tolerated_fraction, "-"),
                b.max_tested_fraction * 100.0
            )?;
        }
        Ok(())
    }
}
