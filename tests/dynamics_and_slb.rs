//! Integration tests for time-varying faults (flaps, maintenance). The
//! SLB gate's effect on the pipeline is tested in `vigil::run`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vigil::prelude::*;
use vigil_fabric::dynamics::FaultTimeline;
use vigil_fabric::flowsim::simulate_epoch;
use vigil_topology::LinkKind;

#[test]
fn flapping_link_detected_only_while_flapping() {
    let topo = ClosTopology::new(ClosParams::tiny(), 300).unwrap();
    let flappy = topo
        .links()
        .iter()
        .find(|l| l.kind == LinkKind::TorToT1)
        .unwrap()
        .id;

    // Epochs 1 and 2 contain flaps; epochs 0 and 3 are quiet.
    // Cycles: 35–38, 45–48, 55–58 (epoch 1) and 65–68, 75–78, 85–88
    // (epoch 2).
    let mut timeline = FaultTimeline::new();
    timeline.add_flap(flappy, 35.0, 6, 3.0, 7.0);
    let cfg = RunConfig {
        traffic: TrafficSpec {
            conns_per_host: ConnCount::Fixed(25),
            ..TrafficSpec::paper_default()
        },
        baselines: Baselines {
            integer: false,
            binary: false,
            ..Baselines::default()
        },
        ..RunConfig::default()
    };

    let mut rng = ChaCha8Rng::seed_from_u64(300);
    let mut detected_by_epoch = Vec::new();
    for epoch in 0..4 {
        let from = epoch as f64 * 30.0;
        let faults = timeline.materialize(
            topo.num_links(),
            RateRange::PAPER_NOISE,
            from,
            from + 30.0,
            &mut rng,
        );
        let run = vigil::run_epoch(&topo, &faults, &cfg, &mut rng, &mut EpochScratch::new());
        detected_by_epoch.push(run.detection.detected_links().contains(&flappy));
    }
    assert!(
        !detected_by_epoch[0],
        "no detection before the flapping starts"
    );
    assert!(detected_by_epoch[1], "flap inside epoch 1 must be detected");
    assert!(detected_by_epoch[2], "flap inside epoch 2 must be detected");
    assert!(!detected_by_epoch[3], "flapping over: link clean again");
}

#[test]
fn maintenance_window_reroutes_without_drop_storm() {
    let topo = ClosTopology::new(ClosParams::tiny(), 301).unwrap();
    let link = topo
        .links()
        .iter()
        .find(|l| l.kind == LinkKind::TorToT1)
        .unwrap()
        .id;
    let mut timeline = FaultTimeline::new();
    // A 30 s window exactly covering epoch 1, 1 s convergence bursts.
    timeline.add_maintenance(link, 30.0, 30.0, 1.0, 0.2);

    let mut rng = ChaCha8Rng::seed_from_u64(301);
    let faults = timeline.materialize(
        topo.num_links(),
        RateRange::PAPER_NOISE,
        30.0,
        60.0,
        &mut rng,
    );
    // Mid-window the link is withdrawn: flows route around it.
    assert!(faults.is_down(link));
    let cfg = RunConfig {
        traffic: TrafficSpec {
            conns_per_host: ConnCount::Fixed(20),
            ..TrafficSpec::paper_default()
        },
        baselines: Baselines {
            integer: false,
            binary: false,
            ..Baselines::default()
        },
        ..RunConfig::default()
    };
    // A withdrawn link drops nothing, so the check walks the fabric's
    // full table: a flow routed over it would not retransmit, and a
    // scored run would not keep its row.
    let outcome = simulate_epoch(
        &topo,
        &faults,
        &cfg.traffic,
        &cfg.sim,
        &mut rng,
        &mut EpochScratch::new(),
    );
    assert!(!outcome.flows.is_empty());
    assert!(
        outcome.flows.iter().all(|f| !f.path.contains_link(link)),
        "withdrawn link must carry no flows"
    );
}
