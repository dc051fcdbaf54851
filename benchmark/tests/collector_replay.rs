//! Recorded agent bytes replayed into `run_collector` reproduce the
//! in-process report byte for byte (fleet ≡ stream).

use std::path::Path;
use vigil::{stream_trial, ExperimentReport, StreamTuning};
use vigil_benchmark::collector::{record_fleet, replay};
use vigil_benchmark::workloads::Workload;

#[test]
fn replayed_recording_reproduces_the_in_process_report() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let windows = 12;
    let config = Workload::by_name("collector-ingest")
        .unwrap()
        .config(21, 0, windows);

    let fleet = record_fleet(&config, dir, "replay-test").unwrap();
    assert!(fleet.iter().all(|r| r.epochs() == windows + 1));
    let out = replay(&config, &fleet, windows, &dir.join("replay-test.sock")).unwrap();

    assert_eq!(out.window_ns.len(), windows);
    assert_eq!(out.stats.windows, windows as u64 + 1);
    assert_eq!(
        (
            out.stats.shed,
            out.stats.seq_gaps,
            out.stats.quarantined_frames
        ),
        (0, 0, 0)
    );
    let (trial, stream_stats) = stream_trial(&config, 0, &StreamTuning::default());
    assert_eq!(out.stats.evidence, stream_stats.evidence);
    let mut expected = ExperimentReport::empty(&config);
    expected.merge_trial(trial);
    assert_eq!(
        serde_json::to_string(&*out.report).unwrap(),
        serde_json::to_string(&expected).unwrap()
    );

    // A shorter replay of the same recording is a shorter experiment.
    let short = replay(&config, &fleet, 3, &dir.join("replay-test.sock")).unwrap();
    assert_eq!(short.stats.windows, 4);
}
