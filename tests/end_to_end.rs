//! Cross-crate integration tests: the full 007 pipeline over the
//! emulated fabric, exercising every workspace crate together.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vigil::evaluate::evaluate_epoch;
use vigil::prelude::*;
use vigil_fabric::faults::LinkFaults;
use vigil_topology::{HostId, Node};

fn run_config(conns: u32) -> RunConfig {
    RunConfig {
        traffic: TrafficSpec {
            conns_per_host: ConnCount::Fixed(conns),
            ..TrafficSpec::paper_default()
        },
        ..RunConfig::default()
    }
}

#[test]
fn single_failure_localized_end_to_end() {
    let topo = ClosTopology::new(ClosParams::tiny(), 100).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(100);
    let faults = FaultPlan {
        failure_rate: RateRange::fixed(0.03),
        ..FaultPlan::paper_default(1)
    }
    .build(&topo, &mut rng);
    let bad = *faults.failed_set().iter().next().unwrap();

    let run = vigil::run_epoch(&topo, &faults, &run_config(30), &mut rng);
    // The failed link must top the ranking…
    assert_eq!(run.detection.raw_tally.ranking()[0].0, bad);
    // …be detected by Algorithm 1…
    assert!(run.detection.detected_links().contains(&bad));
    // …and per-flow blame must be overwhelmingly correct.
    let report = evaluate_epoch(&run);
    assert!(report.vigil.accuracy.value().unwrap() > 0.85);
    assert_eq!(report.vigil.confusion.recall(), Some(1.0));
}

#[test]
fn multiple_failures_ranked_and_detected() {
    let topo = ClosTopology::new(ClosParams::tiny(), 101).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    let faults = FaultPlan {
        failure_rate: RateRange::fixed(0.05),
        ..FaultPlan::paper_default(3)
    }
    .build(&topo, &mut rng);

    let run = vigil::run_epoch(&topo, &faults, &run_config(40), &mut rng);
    let detected = run.detection.detected_links();
    for bad in faults.failed_set() {
        assert!(
            detected.contains(bad),
            "failed link {bad:?} missed; detected {detected:?}"
        );
    }
}

#[test]
fn experiment_runner_deterministic_across_calls() {
    let cfg = ExperimentConfig {
        name: "determinism".into(),
        params: ClosParams::tiny(),
        faults: FaultPlan::paper_default(1),
        run: run_config(20),
        epochs: 2,
        trials: 2,
        seed: 999,
    };
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a.vote_gaps, b.vote_gaps);
    assert_eq!(a.vigil.pooled.accuracy, b.vigil.pooled.accuracy);
}

#[test]
fn theorem1_budget_holds_in_packet_emulation() {
    // Drive traceroutes as fast as the Theorem 1 pacer allows; no switch
    // may exceed Tmax + burst replies in any second.
    use vigil_agents::{HostAgent, HostPacer, ProbeTracer, TcpMonitor};
    use vigil_fabric::flowsim::simulate_epoch;
    use vigil_fabric::netsim::{NetSim, NetSimConfig};

    let topo = ClosTopology::new(ClosParams::tiny(), 102).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(102);
    let faults = FaultPlan {
        failure_rate: RateRange::fixed(0.05),
        ..FaultPlan::paper_default(2)
    }
    .build(&topo, &mut rng);
    let mut sim = NetSim::new(topo.clone(), faults.clone(), NetSimConfig::default(), 7);

    let traffic = TrafficSpec {
        conns_per_host: ConnCount::Fixed(20),
        ..TrafficSpec::paper_default()
    };
    let outcome = simulate_epoch(&topo, &faults, &traffic, &SimConfig::default(), &mut rng);
    let monitor = TcpMonitor::new();
    for host in topo.hosts() {
        let mut agent = HostAgent::new(host, HostPacer::from_theorem1(&topo, 100.0, 30.0));
        let events: Vec<_> = monitor.events_for_host(host, &outcome.flows).collect();
        for e in events {
            let mut tracer = ProbeTracer::new(&mut sim);
            let _ = agent.handle_event(&e, &mut tracer);
        }
    }
    let max = sim.icmp_accounting().max_per_second();
    assert!(
        f64::from(max) <= 100.0 + 100.0,
        "switch exceeded Tmax+burst: {max}"
    );
}

#[test]
fn flowsim_and_netsim_agree_on_paths() {
    // Identical topology + faults: the flow simulator's recorded path and
    // the packet emulator's probe-discovered path must agree (the §8.2
    // validation as an invariant).
    use vigil_agents::{ProbeTracer, Tracer};
    use vigil_fabric::netsim::{NetSim, NetSimConfig};

    let topo = ClosTopology::new(ClosParams::tiny(), 103).unwrap();
    let faults = LinkFaults::new(topo.num_links());
    let mut sim = NetSim::new(topo.clone(), faults, NetSimConfig::default(), 9);

    for i in 0..10u16 {
        let src = HostId(u32::from(i % 4));
        let dst = HostId(topo.num_hosts() as u32 - 1 - u32::from(i % 3));
        let tuple =
            vigil_packet::FiveTuple::tcp(topo.host_ip(src), 47_000 + i, topo.host_ip(dst), 443);
        let flow_path = topo.route(&tuple, src, dst).unwrap();
        let mut tracer = ProbeTracer::new(&mut sim);
        let discovered = tracer.trace(src, &tuple).expect("clean fabric traces");
        assert_eq!(discovered.links, flow_path.links, "tuple {tuple}");
        assert!(discovered.complete);
    }
}

#[test]
fn noise_classifier_sound_under_ground_truth() {
    // Whatever the agent marks as noise must be ground-truth noise, over
    // several seeds and fault severities.
    for seed in 200..206 {
        let topo = ClosTopology::new(ClosParams::tiny(), seed).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let faults = FaultPlan {
            failure_rate: RateRange { lo: 1e-3, hi: 2e-2 },
            ..FaultPlan::paper_default(2)
        }
        .build(&topo, &mut rng);
        let run = vigil::run_epoch(&topo, &faults, &run_config(30), &mut rng);
        let report = evaluate_epoch(&run);
        assert_eq!(
            report.noise_marked_incorrectly, 0,
            "seed {seed}: agent noise-marked a failure drop"
        );
    }
}

#[test]
fn host_uplink_blackhole_produces_establishment_failures_not_votes() {
    let topo = ClosTopology::new(ClosParams::tiny(), 104).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(104);
    let mut faults = LinkFaults::new(topo.num_links());
    let victim = HostId(3);
    let up = topo
        .link_between(Node::Host(victim), Node::Switch(topo.host_tor(victim)))
        .unwrap();
    faults.fail_link(up, 1.0);

    let cfg = run_config(10);
    // The fabric's full table for the same epoch (same RNG stream).
    let outcome = vigil_fabric::flowsim::simulate_epoch(
        &topo,
        &faults,
        &cfg.traffic,
        &cfg.sim,
        &mut rng.clone(),
    );
    let run = vigil::run_epoch(&topo, &faults, &cfg, &mut rng);
    // The victim's flows never establish ⇒ never traced (§4.2).
    assert!(run.reports.iter().all(|r| r.host != victim));
    // And the fabric recorded the establishment failures.
    let failed = outcome
        .flows
        .iter()
        .filter(|f| f.src == victim && !f.established)
        .count();
    assert_eq!(failed, 10);
}

#[test]
fn baselines_and_vigil_agree_on_hot_failure() {
    let topo = ClosTopology::new(ClosParams::tiny(), 105).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(105);
    let faults = FaultPlan {
        failure_rate: RateRange::fixed(0.05),
        ..FaultPlan::paper_default(1)
    }
    .build(&topo, &mut rng);
    let bad = *faults.failed_set().iter().next().unwrap();

    let mut cfg = run_config(30);
    cfg.baselines.binary = true;
    let run = vigil::run_epoch(&topo, &faults, &cfg, &mut rng);
    assert!(run.detection.detected_links().contains(&bad));
    assert!(run.integer.as_ref().unwrap().counts.contains_key(&bad.0));
    assert!(run.binary.as_ref().unwrap().links.contains(&bad.0));
}

#[test]
fn link_health_heat_map_tracks_a_persistent_failure() {
    // Multi-epoch pipeline + the §2 heat map: a persistently lossy link
    // must build an EWMA score and a detection streak long enough to be
    // actionable, and cool off after repair.
    let topo = ClosTopology::new(ClosParams::tiny(), 106).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(106);
    let mut faults = FaultPlan {
        failure_rate: RateRange::fixed(0.05),
        ..FaultPlan::paper_default(1)
    }
    .build(&topo, &mut rng);
    let bad = *faults.failed_set().iter().next().unwrap();

    let cfg = run_config(25);
    let mut health = vigil_analysis::LinkHealth::new(topo.num_links(), 0.4);
    for _ in 0..3 {
        let run = vigil::run_epoch(&topo, &faults, &cfg, &mut rng);
        health.absorb(&run.detection);
    }
    assert_eq!(health.heat_map().first().map(|(l, _)| *l), Some(bad));
    assert!(health.current_streak(bad) >= 3);
    assert_eq!(health.actionable(3), vec![bad]);

    // Repair; the streak breaks and the score decays.
    let hot_score = health.score(bad);
    faults.repair_link(bad, RateRange::PAPER_NOISE, &mut rng);
    for _ in 0..3 {
        let run = vigil::run_epoch(&topo, &faults, &cfg, &mut rng);
        health.absorb(&run.detection);
    }
    assert_eq!(health.current_streak(bad), 0);
    assert!(health.score(bad) < hot_score / 3.0);
    assert_eq!(health.longest_streak(bad), 3, "history preserved");
}
