//! Quickstart: inject one lossy link into a small Clos fabric, run one
//! 007 epoch, and print the vote ranking and Algorithm 1's verdict.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vigil::evaluate::evaluate_epoch;
use vigil::prelude::*;
use vigil_fabric::EpochScratch;

fn main() {
    // A 2-pod Clos: 4 ToRs/pod, 3 T1s/pod, 4 T2s, 4 hosts per rack.
    let params = ClosParams::tiny();
    let topo = ClosTopology::new(params, 42).expect("valid parameters");
    println!(
        "fabric: {} hosts, {} switches, {} directional links",
        topo.num_hosts(),
        topo.num_switches(),
        topo.num_links()
    );

    // Fault injection: background noise on every link (≤ 1e-6, the
    // paper's model) plus ONE failed fabric link dropping 2 % of packets.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let plan = FaultPlan {
        failure_rate: RateRange::fixed(0.02),
        ..FaultPlan::paper_default(1)
    };
    let faults = plan.build(&topo, &mut rng);
    let bad = *faults.failed_set().iter().next().expect("one failure");
    let bad_link = topo.link(bad);
    println!(
        "injected failure: link {:?} ({:?}) at 2% drop rate\n",
        bad, bad_link.kind
    );

    // One epoch of the full pipeline: traffic → retransmissions → path
    // discovery (Theorem 1 pacing) → votes → Algorithm 1.
    // The session keeps only the flows scoring consults; its counters
    // still see every simulated flow.
    let config = RunConfig::default();
    let mut session = StreamSession::new(
        &topo,
        &config,
        StreamTuning::default(),
        RetainPolicy::EvidenceOnly,
    );
    let run = session.run_window(&topo, &config, &faults, &mut rng, &mut EpochScratch::new());

    println!(
        "epoch: {} flows, {} with retransmissions, {} traced",
        session.stats().flows,
        run.outcome.flows_with_retransmissions().count(),
        run.reports.len()
    );

    println!("\ntop of the vote ranking (the paper's 'heat map'):");
    for (link, votes) in run.detection.raw_tally.ranking().into_iter().take(5) {
        let marker = if link == bad {
            "  <-- injected failure"
        } else {
            ""
        };
        println!(
            "  {:>6.2} votes  link {:?} ({:?}){}",
            votes,
            link,
            topo.link(link).kind,
            marker
        );
    }

    println!("\nAlgorithm 1 detections:");
    for d in &run.detection.detections {
        let marker = if d.link == bad { "  <-- correct!" } else { "" };
        println!("  link {:?} with {:.2} votes{}", d.link, d.votes, marker);
    }

    let report = evaluate_epoch(&run);
    println!(
        "\nper-flow blame accuracy: {:.1}% over {} failure-class flows",
        report.vigil.accuracy.value().unwrap_or(0.0) * 100.0,
        report.vigil.accuracy.total
    );
    println!(
        "noise-marked flows: {} (incorrectly: {})",
        report.noise_marked, report.noise_marked_incorrectly
    );
}
