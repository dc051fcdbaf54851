//! The paper's motivating scenario (§1, Appendix A): VM images are
//! mounted over the network from a storage service; "even a small network
//! outage or a few lossy links can cause the VM to 'panic' and reboot" —
//! and 70 % of those reboots were unexplained before 007.
//!
//! This example builds that world: hosts mounting VHDs over TCP from
//! storage hosts in other racks, a transient host↔ToR fault (the §8.3
//! dominant cause: 262 of 281 reboots), and 007 explaining each reboot by
//! naming the culpable link.
//!
//! ```sh
//! cargo run --release --example vm_reboot_diagnosis
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vigil::prelude::*;
use vigil_topology::Node;

fn main() {
    let topo = ClosTopology::new(ClosParams::tiny(), 1).expect("valid parameters");
    let mut rng = ChaCha8Rng::seed_from_u64(2024);

    // --- The outage: a compute host's ToR uplink goes transiently bad ---
    let victim = vigil_topology::HostId(0);
    let uplink = topo
        .link_between(Node::Host(victim), Node::Switch(topo.host_tor(victim)))
        .expect("host uplink exists");
    let mut faults = vigil_fabric::faults::LinkFaults::new(topo.num_links());
    faults.set_noise(RateRange::PAPER_NOISE, &mut rng);
    faults.fail_link(uplink, 0.55); // severe transient loss
    println!(
        "transient fault: host {:?}'s uplink (link {:?}) dropping 55%\n",
        victim, uplink
    );

    // --- VHD mounts: every host keeps 8 storage connections open --------
    let cfg = RunConfig {
        traffic: TrafficSpec {
            conns_per_host: ConnCount::Fixed(8),
            packets_per_flow: PacketCount::Fixed(80),
            ..TrafficSpec::paper_default()
        },
        baselines: Baselines {
            integer: false,
            ..Baselines::default()
        },
        ..RunConfig::default()
    };
    println!(
        "{} VHD mount connections to storage hosts in other racks",
        topo.num_hosts() * 8
    );

    // --- One epoch of storage traffic over the faulty fabric ------------
    // The run keeps every flow that retransmitted; a mount that failed to
    // deliver its writes (incomplete flow) panics the guest, and an
    // incomplete flow always retransmitted.
    let run = run_epoch(&topo, &faults, &cfg, &mut rng, &mut EpochScratch::new());
    let reboots: Vec<_> = run.outcome.flows.iter().filter(|f| !f.completed).collect();
    println!(
        "epoch outcome: {} mounts suffered retransmissions, {} VM reboots",
        run.outcome.flows_with_retransmissions().count(),
        reboots.len()
    );

    // --- 007 explains the reboots ---------------------------------------
    let detection = &run.detection;
    println!("\n007's verdict:");
    for d in &detection.detections {
        let link = topo.link(d.link);
        let class = match link.kind {
            LinkKind::HostToTor | LinkKind::TorToHost => "host<->ToR (the §8.3 dominant class)",
            LinkKind::TorToT1 | LinkKind::T1ToTor => "ToR<->T1",
            LinkKind::T1ToT2 | LinkKind::T2ToT1 => "T1<->T2",
        };
        let marker = if d.link == uplink {
            "  <-- the injected transient"
        } else {
            ""
        };
        println!(
            "  link {:?} [{}] {:.2} votes{}",
            d.link, class, d.votes, marker
        );
    }

    // Per-reboot attribution, like the §8.3 investigation.
    let mut explained = 0;
    for reboot in &reboots {
        let ev =
            vigil_analysis::FlowEvidence::new(reboot.path.links.clone(), reboot.retransmissions);
        if let Some(blamed) = vigil_analysis::blame_flow(&detection.raw_tally, &ev) {
            if blamed == uplink {
                explained += 1;
            }
        }
    }
    println!(
        "\nreboot attribution: {}/{} reboots traced to the faulty uplink",
        explained,
        reboots.len()
    );
}
