//! Integration tests for time-varying faults (flaps, maintenance) and the
//! SLB-gated path discovery over VIP traffic.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vigil::prelude::*;
use vigil_agents::{HostAgent, HostPacer, OracleTracer, SlbGate, TcpMonitor};
use vigil_fabric::dynamics::FaultTimeline;
use vigil_fabric::flowsim::{simulate_epoch, simulate_flows};
use vigil_fabric::slb::{Slb, VipPool};
use vigil_fabric::traffic::FlowSpec;
use vigil_topology::{HostId, LinkKind};

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
        let run = vigil::run_epoch(&topo, &faults, &cfg, &mut rng);
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
    let outcome = simulate_epoch(&topo, &faults, &cfg.traffic, &cfg.sim, &mut rng);
    assert!(!outcome.flows.is_empty());
    assert!(
        outcome.flows.iter().all(|f| !f.path.contains_link(link)),
        "withdrawn link must carry no flows"
    );
}

#[test]
fn vip_traffic_traced_through_slb_gate() {
    let topo = ClosTopology::new(ClosParams::tiny(), 302).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(302);

    // Storage VIP backed by pod-1 hosts.
    let vip = "10.255.0.1".parse().unwrap();
    let backends: Vec<_> = topo
        .hosts()
        .filter(|h| topo.host_pod(*h) == 1)
        .take(4)
        .map(|h| (h, topo.host_ip(h), 8443))
        .collect();
    let mut slb = Slb::new();
    slb.add_pool(VipPool {
        vip,
        vip_port: 443,
        backends,
    });

    // Pod-0 clients connect to the VIP; the SLB assigns DIPs; the wire
    // carries DIP flows.
    let mut specs = Vec::new();
    let mut vip_of: std::collections::HashMap<_, _> = Default::default();
    for host in topo.hosts().filter(|h| topo.host_pod(*h) == 0).take(8) {
        for i in 0..4u16 {
            let vip_flow = vigil_packet::FiveTuple::tcp(topo.host_ip(host), 45_000 + i, vip, 443);
            let a = slb.establish(host, vip_flow, &mut rng).unwrap();
            let dip_flow = vip_flow.with_destination(a.dip, a.port);
            vip_of.insert(dip_flow, vip_flow);
            specs.push(FlowSpec {
                src: host,
                dst: a.host,
                tuple: dip_flow,
                packets: 60,
            });
        }
    }

    // A lossy link on the way to pod 1: fail the T1→T2 link that carries
    // the most of our mounts, so several flows witness it.
    let mut usage: std::collections::HashMap<vigil_topology::LinkId, u32> = Default::default();
    for s in &specs {
        let path = topo.route(&s.tuple, s.src, s.dst).unwrap();
        for l in &path.links {
            if topo.link(*l).kind == LinkKind::T1ToT2 {
                *usage.entry(*l).or_default() += 1;
            }
        }
    }
    let bad = *usage
        .iter()
        .max_by_key(|(_, c)| **c)
        .expect("cross-pod flows use level-2 links")
        .0;
    let mut faults = vigil_fabric::faults::LinkFaults::new(topo.num_links());
    faults.set_noise(RateRange::PAPER_NOISE, &mut rng);
    faults.fail_link(bad, 0.12);

    let outcome = simulate_flows(&topo, &faults, &specs, &SimConfig::default(), &mut rng);
    let monitor = TcpMonitor::new();
    let mut tracer = OracleTracer::from_flows(&outcome.flows);
    let mut gate = SlbGate::new(&slb, SlbGate::default_vip_classifier);

    // The monitor reports the kernel's view: the VIP tuple (the vSwitch
    // rewrites destinations transparently). Rebuild events accordingly.
    let mut reports = Vec::new();
    for host in topo.hosts() {
        let mut agent = HostAgent::new(host, HostPacer::from_theorem1(&topo, 100.0, 30.0));
        for ev in monitor.events_for_host(host, &outcome.flows) {
            let as_vip = vigil_agents::RetransmissionEvent {
                tuple: vip_of.get(&ev.tuple).copied().unwrap_or(ev.tuple),
                ..ev
            };
            // The gate must resolve the VIP back to the DIP for tracing.
            if let Some(r) = gate.handle_event(&mut agent, &as_vip, &mut tracer, &mut rng) {
                reports.push(r);
            }
        }
    }
    assert!(!reports.is_empty(), "lossy link must trigger gated traces");
    assert!(gate.stats().resolved >= reports.len() as u64);
    assert_eq!(gate.stats().skipped_unknown, 0);
    // Reports carry the VIP tuple (what the monitor saw) but DIP paths.
    for r in &reports {
        assert_eq!(r.tuple.dst_ip, vip, "reports key by the monitor's tuple");
        assert!(!r.links.is_empty());
    }

    // And the votes still localize the failure.
    let evidence: Vec<vigil_analysis::FlowEvidence> = reports
        .iter()
        .map(|r| vigil_analysis::FlowEvidence::new(r.links.clone(), r.retransmissions))
        .collect();
    let tally = vigil_analysis::VoteTally::tally(
        &evidence,
        topo.num_links(),
        vigil_analysis::VoteWeight::ReciprocalPathLength,
    );
    assert_eq!(
        tally.ranking()[0].0,
        bad,
        "votes must rank the lossy link first"
    );
}

#[test]
fn snat_flows_never_trace() {
    let topo = ClosTopology::new(ClosParams::tiny(), 303).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(303);
    let vip = "10.255.0.9".parse().unwrap();
    let backend = topo.hosts().last().unwrap();
    let mut slb = Slb::new();
    slb.add_pool(VipPool {
        vip,
        vip_port: 443,
        backends: vec![(backend, topo.host_ip(backend), 8443)],
    });
    let host = HostId(0);
    let flow = vigil_packet::FiveTuple::tcp(topo.host_ip(host), 46_000, vip, 443);
    let _ = slb.establish(host, flow, &mut rng).unwrap();
    slb.mark_snat(flow);

    let mut gate = SlbGate::new(&slb, SlbGate::default_vip_classifier);
    let mut agent = HostAgent::new(host, HostPacer::with_budget(5));
    let mut tracer = OracleTracer::default();
    let event = vigil_agents::RetransmissionEvent {
        host,
        tuple: flow,
        retransmissions: 3,
    };
    assert!(gate
        .handle_event(&mut agent, &event, &mut tracer, &mut rng)
        .is_none());
    assert_eq!(gate.stats().skipped_snat, 1);
    assert_eq!(
        agent.traceroutes_used(),
        0,
        "no budget burned on SNAT flows"
    );
    let _: u32 = rng.gen(); // rng still usable (gate borrows ended)
}
