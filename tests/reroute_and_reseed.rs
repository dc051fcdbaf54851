//! Integration tests for the §9.1 routing-instability story: ECMP seeds
//! change on switch reboot, BGP withdrawals move flows, and the §4.2
//! retransmit→trace race is only dangerous when routing changes in the
//! window between them.

use vigil::prelude::*;
use vigil_agents::ProbeTracer;
use vigil_fabric::faults::LinkFaults;
use vigil_fabric::netsim::{NetSim, NetSimConfig};
use vigil_packet::FiveTuple;
use vigil_topology::HostId;

fn cross_pod(sim: &NetSim) -> (HostId, HostId, FiveTuple) {
    let src = HostId(0);
    let dst = HostId(sim.topo().num_hosts() as u32 - 1);
    let tuple = FiveTuple::tcp(
        sim.topo().host_ip(src),
        52_000,
        sim.topo().host_ip(dst),
        443,
    );
    (src, dst, tuple)
}

#[test]
fn switch_reboot_reseeds_and_moves_some_flows() {
    let topo = ClosTopology::new(ClosParams::tiny(), 400).unwrap();
    let faults = LinkFaults::new(topo.num_links());
    let mut sim = NetSim::new(topo, faults, NetSimConfig::default(), 40);
    let (src, dst, _) = cross_pod(&sim);

    // Record paths for a sheaf of flows, "reboot" the source ToR (new
    // ECMP seed), and count how many moved: some must, some must not —
    // the hash still spreads.
    let tuples: Vec<FiveTuple> = (0..32u16)
        .map(|i| {
            FiveTuple::tcp(
                sim.topo().host_ip(src),
                53_000 + i,
                sim.topo().host_ip(dst),
                443,
            )
        })
        .collect();
    let before: Vec<_> = tuples
        .iter()
        .map(|t| sim.data_path(t, src, dst).unwrap())
        .collect();
    let tor = sim.topo().host_tor(src);
    sim.topo_mut().reseed_switch(tor, 0xBEEF);
    let after: Vec<_> = tuples
        .iter()
        .map(|t| sim.data_path(t, src, dst).unwrap())
        .collect();
    let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
    assert!(moved > 0, "a reseed must move some flows");
    assert!(moved < tuples.len(), "a reseed must not move every flow");
}

#[test]
fn trace_before_reroute_matches_data_path() {
    // The paper's argument: TCP retransmits within ~ms and the trace
    // fires immediately, so the probe path equals the data path as long
    // as routing is stable over that window. Stable fabric ⇒ always
    // matches (also asserted in §8.2's harness); this test pins the
    // negative: withdraw a link *before* the trace and the recorded path
    // must differ from the stale data path, which the §8.2 validation
    // would flag.
    let topo = ClosTopology::new(ClosParams::tiny(), 401).unwrap();
    let faults = LinkFaults::new(topo.num_links());
    let mut sim = NetSim::new(topo, faults, NetSimConfig::default(), 41);
    let (src, dst, tuple) = cross_pod(&sim);

    let data_path_at_drop_time = sim.data_path(&tuple, src, dst).unwrap();

    // Fast trace (no routing change): exact match.
    let traced = ProbeTracer::new(&mut sim).trace(src, &tuple).unwrap();
    assert_eq!(traced.links, data_path_at_drop_time.links);

    // Slow trace after a BGP withdrawal on the flow's uplink choice.
    sim.faults_mut()
        .set_admin_down(data_path_at_drop_time.links[1], true);
    let traced_late = ProbeTracer::new(&mut sim).trace(src, &tuple).unwrap();
    assert_ne!(
        traced_late.links, data_path_at_drop_time.links,
        "a reroute between drop and trace must be observable"
    );
    // The late trace is still a *valid current* path — 007's votes then
    // land on live links, the failure mode the paper accepts as rare.
    let current = sim.data_path(&tuple, src, dst).unwrap();
    assert_eq!(traced_late.links, current.links);
}

#[test]
fn withdrawal_and_restore_round_trip() {
    let topo = ClosTopology::new(ClosParams::tiny(), 402).unwrap();
    let faults = LinkFaults::new(topo.num_links());
    let mut sim = NetSim::new(topo, faults, NetSimConfig::default(), 42);
    let (src, dst, tuple) = cross_pod(&sim);

    let original = sim.data_path(&tuple, src, dst).unwrap();
    let withdrawn = original.links[1];
    sim.faults_mut().set_admin_down(withdrawn, true);
    assert_ne!(sim.data_path(&tuple, src, dst).unwrap(), original);
    sim.faults_mut().set_admin_down(withdrawn, false);
    assert_eq!(
        sim.data_path(&tuple, src, dst).unwrap(),
        original,
        "restoring the link restores the deterministic ECMP choice"
    );
}
