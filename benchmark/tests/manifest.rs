//! `BENCHMARK.json` names exactly what the binary measures: workloads,
//! metrics, units, directions, bounds and the run length.

use serde_json::Value;
use vigil_benchmark::aa::BOUNDS;
use vigil_benchmark::run::{MetricDef, END_TO_END, PER_LAYER};
use vigil_benchmark::workloads::{FULL_SECONDS, WORKLOADS};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap()
}

fn assert_metrics(listed: &Value, defs: &[MetricDef]) {
    let listed = listed.as_seq().unwrap();
    assert_eq!(listed.len(), defs.len());
    for (entry, (name, unit, higher_is_better)) in listed.iter().zip(defs) {
        assert_eq!(text(entry, "name"), *name);
        assert_eq!(text(entry, "unit"), *unit, "{name}");
        let better = if *higher_is_better { "higher" } else { "lower" };
        assert_eq!(text(entry, "better"), better, "{name}");
    }
}

#[test]
fn manifest_matches_the_binary() {
    let m = manifest();
    assert_eq!(
        m.get("run_seconds").and_then(Value::as_f64),
        Some(FULL_SECONDS as f64)
    );
    assert_eq!(
        m.get("paths").and_then(Value::as_seq).unwrap(),
        [Value::Str("benchmark".into())]
    );

    let workloads = m.get("workloads").and_then(Value::as_seq).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, workload) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(entry, "name"), workload.name);
        assert_eq!(text(entry, "why"), workload.why);
        assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
    }

    assert_metrics(m.get("end_to_end").unwrap(), &END_TO_END);
    assert_metrics(m.get("per_layer").unwrap(), &PER_LAYER);
    for (entry, (name, bound)) in m
        .get("end_to_end")
        .and_then(Value::as_seq)
        .unwrap()
        .iter()
        .zip(BOUNDS)
    {
        assert_eq!(text(entry, "name"), name);
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(bound));
        assert!(bound <= 0.25);
    }
}
