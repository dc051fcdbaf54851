//! Hunting a silent packet drop with real probe trains.
//!
//! Silent drops (§1) are "nearly impossible to detect with traditional
//! monitoring tools": the switch's counters look clean, SNMP shows the
//! link up, but packets vanish. This example runs the *packet-level*
//! emulator: 007 crafts its 15 TTL-staggered TCP probes (bad checksum,
//! TTL in the IP ID), walks them through the fabric, and uses the
//! **partial traceroute** — replies stop right before the silent link —
//! to pinpoint the failure (§4.2: "This actually helps us, as it directly
//! pinpoints the faulty link").
//!
//! ```sh
//! cargo run --release --example silent_drop_hunt
//! ```

use vigil::prelude::*;
use vigil_agents::ProbeTracer;
use vigil_fabric::faults::LinkFaults;
use vigil_fabric::netsim::{NetSim, NetSimConfig};
use vigil_packet::FiveTuple;
use vigil_topology::HostId;

fn main() {
    let topo = ClosTopology::new(ClosParams::tiny(), 99).expect("valid parameters");
    let faults = LinkFaults::new(topo.num_links());
    let mut sim = NetSim::new(topo, faults, NetSimConfig::default(), 5);

    // A victim flow crossing pods.
    let src = HostId(0);
    let dst = HostId(sim.topo().num_hosts() as u32 - 1);
    let tuple = FiveTuple::tcp(
        sim.topo().host_ip(src),
        50_000,
        sim.topo().host_ip(dst),
        443,
    );
    let clean_path = sim.data_path(&tuple, src, dst).expect("routable");
    println!("victim flow: {tuple}");
    println!("true path: {} links", clean_path.hop_count());

    // Baseline trace on the healthy fabric: full path, every hop answers.
    let discovered = ProbeTracer::new(&mut sim)
        .trace(src, &tuple)
        .expect("healthy fabric answers");
    println!(
        "healthy trace: {} links discovered, complete = {}",
        discovered.links.len(),
        discovered.complete
    );
    assert_eq!(discovered.links, clean_path.links);

    // Now the silent failure: the flow's T1->T2 link starts eating every
    // packet. BGP stays up; no counter increments; SNMP sees nothing.
    let silent = clean_path.links[2];
    sim.faults_mut().fail_link(silent, 1.0);
    println!("\n*** link {:?} goes silently black ***\n", silent);

    let partial = ProbeTracer::new(&mut sim)
        .trace(src, &tuple)
        .expect("upstream hops still answer");
    println!(
        "post-failure trace: {} links discovered, complete = {}",
        partial.links.len(),
        partial.complete
    );

    // The deepest discovered link sits immediately before the silent one:
    // the next hop of the last responding switch is the culprit.
    let last_discovered = *partial.links.last().expect("some links discovered");
    let last_pos = clean_path
        .links
        .iter()
        .position(|l| *l == last_discovered)
        .expect("prefix of the true path");
    let culprit = clean_path.links[last_pos + 1];
    println!(
        "replies stop after link {:?}; next link on the path is {:?}",
        last_discovered, culprit
    );
    assert_eq!(culprit, silent);
    println!(
        "\n==> silent drop localized to link {:?} — correct!",
        culprit
    );

    // And the ICMP control-plane stayed within the operator's cap:
    println!(
        "switch ICMP max rate observed: {}/s (cap {} per Theorem 1's premise)",
        sim.icmp_accounting().max_per_second(),
        vigil_fabric::control_plane::PAPER_TMAX,
    );
}
