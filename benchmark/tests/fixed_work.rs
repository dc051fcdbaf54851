//! Work per run is a pure function of (workload, size, seed): windows,
//! flows, evidence and — on the in-process workloads — the allocation
//! count repeat exactly, whatever the wall clock did.
//!
//! One test function on purpose: the allocation counters are
//! process-wide, and a second test running on another thread would
//! leak its allocations into this one's windows.

use std::path::PathBuf;
use vigil_benchmark::run::{end_to_end, RunSpec};
use vigil_benchmark::workloads::{Driver, Size, WORKLOADS};

#[test]
fn work_is_a_pure_function_of_workload_and_seed() {
    for workload in &WORKLOADS {
        let spec = |seed| RunSpec {
            workload,
            size: Size::Smoke,
            seed,
            out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        };
        let first = end_to_end(&spec(11)).unwrap();
        let again = end_to_end(&spec(11)).unwrap();
        let other = end_to_end(&spec(12)).unwrap();
        for run in [&first, &again, &other] {
            assert_eq!(run.failed, 0, "{}: failed windows", workload.name);
            assert!(
                run.attempted > run.work.windows,
                "cold windows are checked too"
            );
        }

        let expected_windows =
            (workload.sessions(Size::Smoke) * workload.windows(Size::Smoke)) as u64;
        assert_eq!(first.work.windows, expected_windows);
        assert_eq!(first.work.windows, again.work.windows);
        assert_eq!(first.work.flows, again.work.flows);
        assert_eq!(first.work.evidence, again.work.evidence);
        if workload.driver == Driver::InProcess {
            assert_eq!(
                first.work.alloc_calls, again.work.alloc_calls,
                "{}: allocation count must repeat exactly",
                workload.name
            );
            assert_eq!(
                first.metric("alloc_kib_per_window"),
                again.metric("alloc_kib_per_window")
            );
        }

        // Another seed is other traffic on another fault plan — but the
        // same number of windows and flows.
        assert_eq!(first.work.windows, other.work.windows);
        assert_eq!(first.work.flows, other.work.flows);
        assert_ne!(
            first.work.evidence, other.work.evidence,
            "{}: a new seed must change the inputs",
            workload.name
        );
    }
}
