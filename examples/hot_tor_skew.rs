//! Traffic skew stress test (the paper's §6.5 / Figure 9 scenario).
//!
//! A single "hot" ToR sinks half the datacenter's flows — the worst
//! realistic case for a voting scheme, because every link near the hot
//! ToR harvests votes from sheer traffic volume. The paper shows 007
//! "can tolerate up to 50 % skew with negligible accuracy degradation";
//! this example reproduces one point of that experiment and prints the
//! comparison against the integer-program baseline.
//!
//! ```sh
//! cargo run --release --example hot_tor_skew
//! ```

use vigil::prelude::*;

fn main() {
    for &skew in &[0.1, 0.5, 0.7] {
        let mut cfg = scenarios::fig09_hot_tor(skew, 5);
        // Keep the example snappy: the small fabric, a few trials.
        cfg.params = ClosParams::tiny();
        cfg.trials = 3;
        cfg.epochs = 2;
        cfg.run.traffic.conns_per_host = ConnCount::Fixed(40);
        cfg.faults.failure_rate = RateRange::fixed(5e-3);

        let (report, _) = SweepEngine::serial().run_experiment(&cfg);
        let vigil_acc = report.vigil.pooled.accuracy.value().unwrap_or(f64::NAN);
        let opt_acc = report
            .integer
            .as_ref()
            .and_then(|m| m.pooled.accuracy.value())
            .unwrap_or(f64::NAN);
        println!(
            "skew {:>3.0}%:  007 accuracy {:>6.1}%   integer-optimization accuracy {:>6.1}%   (recall {:>5.1}%, precision {:>5.1}%)",
            skew * 100.0,
            vigil_acc * 100.0,
            opt_acc * 100.0,
            report.vigil.pooled.confusion.recall().unwrap_or(1.0) * 100.0,
            report.vigil.pooled.confusion.precision().unwrap_or(1.0) * 100.0,
        );
    }
    println!("\n(the paper's Figure 9: degradation only beyond ~50% skew with many failures)");
}
