//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary topologies, traffic, and fault draws.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vigil::prelude::*;
use vigil_analysis::{detect, Algorithm1Config, FlowEvidence, VoteTally, VoteWeight};
use vigil_fabric::flowsim::{simulate_epoch, SimConfig};
use vigil_packet::FiveTuple;
use vigil_topology::{HostId, Node};

/// Arbitrary-but-valid Clos parameters, kept small for test speed.
fn arb_params() -> impl Strategy<Value = ClosParams> {
    (1u16..=3, 2u16..=5, 1u16..=4, 1u16..=4, 1u16..=4).prop_map(|(npod, n0, n1, n2, h)| {
        ClosParams {
            npod,
            n0,
            n1,
            n2: if npod > 1 { n2.max(1) } else { n2 },
            hosts_per_tor: h,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Routing always yields structurally valid paths: consecutive nodes
    /// joined by the right directional link, host endpoints, length ∈
    /// {2, 4, 6}.
    #[test]
    fn routes_are_valid_paths(params in arb_params(), seed in any::<u64>(),
                              sport in 1024u16..65000) {
        let topo = ClosTopology::new(params, seed).unwrap();
        let hosts = topo.num_hosts() as u32;
        prop_assume!(hosts >= 2);
        let src = HostId(seed as u32 % hosts);
        let dst = HostId((seed as u32 / 7 + 1) % hosts);
        prop_assume!(src != dst);
        let tuple = FiveTuple::tcp(topo.host_ip(src), sport, topo.host_ip(dst), 443);
        let path = topo.route(&tuple, src, dst).unwrap();

        prop_assert!(matches!(path.nodes.first(), Some(Node::Host(h)) if *h == src));
        prop_assert!(matches!(path.nodes.last(), Some(Node::Host(h)) if *h == dst));
        prop_assert!([2usize, 4, 6].contains(&path.hop_count()),
                     "unexpected hop count {}", path.hop_count());
        for (i, l) in path.links.iter().enumerate() {
            let link = topo.link(*l);
            prop_assert_eq!(link.from, path.nodes[i]);
            prop_assert_eq!(link.to, path.nodes[i + 1]);
        }
    }

    /// ECMP stickiness: the same five-tuple routes identically on
    /// repeated calls (the property probes rely on, §4.2).
    #[test]
    fn routing_is_a_function_of_the_tuple(params in arb_params(), seed in any::<u64>()) {
        let topo = ClosTopology::new(params, seed).unwrap();
        let hosts = topo.num_hosts() as u32;
        prop_assume!(hosts >= 2);
        let src = HostId(0);
        let dst = HostId(hosts - 1);
        prop_assume!(src != dst);
        let tuple = FiveTuple::tcp(topo.host_ip(src), 50_000, topo.host_ip(dst), 443);
        let a = topo.route(&tuple, src, dst).unwrap();
        let b = topo.route(&tuple, src, dst).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Drop accounting conserves mass: Σ per-flow drops = Σ per-link
    /// drops, and retransmissions = drops per flow.
    #[test]
    fn epoch_drop_conservation(params in arb_params(), seed in any::<u64>(),
                               failures in 0u32..3, rate_milli in 1u32..50) {
        let topo = ClosTopology::new(params, seed).unwrap();
        prop_assume!(topo.num_hosts() >= 2);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let eligible = topo.links().iter().filter(|l| !l.kind.is_host_link()).count() as u32;
        let plan = FaultPlan {
            failures: failures.min(eligible),
            failure_rate: RateRange::fixed(f64::from(rate_milli) / 1000.0),
            ..FaultPlan::paper_default(0)
        };
        let plan = FaultPlan { failures: failures.min(eligible), ..plan };
        let faults = plan.build(&topo, &mut rng);
        let traffic = TrafficSpec {
            conns_per_host: ConnCount::Fixed(5),
            packets_per_flow: PacketCount::Fixed(30),
            ..TrafficSpec::paper_default()
        };
        let out = simulate_epoch(&topo, &faults, &traffic, &SimConfig::default(), &mut rng, &mut EpochScratch::new());
        let per_flow: u64 = out.flows.iter().map(|f| f.total_drops() as u64).sum();
        let per_link: u64 = out.ground_truth.drops_per_link.iter().sum();
        prop_assert_eq!(per_flow, per_link);
        for f in &out.flows {
            prop_assert_eq!(f.retransmissions, f.total_drops());
            // Drops only on links of the flow's own path.
            for (l, _) in &f.drops_per_link {
                prop_assert!(f.path.contains_link(*l));
            }
        }
    }

    /// Algorithm 1's detections always carry votes above the configured
    /// threshold, never repeat a link, and are ordered by pick votes —
    /// exactly, with no slack: votes are exact, and a power-of-two
    /// threshold scales a vote total without rounding.
    #[test]
    fn algorithm1_detection_invariants(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..30, 1..=vigil_topology::MAX_ROUTE_LINKS), 0..60),
        threshold_log2 in 2i32..8)
    {
        let evidence: Vec<FlowEvidence> = paths.iter().map(|p| {
            let mut q: Vec<_> = p.iter().map(|l| vigil_topology::LinkId(*l)).collect();
            q.sort_unstable();
            q.dedup();
            FlowEvidence::new(q, 1)
        }).collect();
        let config = Algorithm1Config {
            threshold_frac: 2f64.powi(-threshold_log2),
            // The fixed bar is the variant with an invariant expressible
            // against the initial total; the Current bar shrinks with
            // retraction and is exercised by the pipeline tests.
            threshold_base: vigil_analysis::ThresholdBase::Initial,
            ..Algorithm1Config::default()
        };
        let out = detect(&evidence, 30, &config);
        let initial_total = VoteTally::tally(&evidence, 30, config.weight).total();
        let mut seen = std::collections::HashSet::new();
        for d in &out.detections {
            prop_assert!(seen.insert(d.link), "duplicate detection");
            prop_assert!(d.votes > 0.0);
            // Initial base: every pick cleared the fixed bar.
            prop_assert!(d.votes >= config.threshold_frac * initial_total);
        }
        for w in out.detections.windows(2) {
            prop_assert!(w[0].votes >= w[1].votes);
        }
    }

    /// Vote weights: a flow's total cast mass under 1/h is exactly 1 on
    /// every route length.
    #[test]
    fn unit_vote_mass(links in proptest::collection::vec(
        0u32..50, 1..=vigil_topology::MAX_ROUTE_LINKS)) {
        let mut q: Vec<_> = links.iter().map(|l| vigil_topology::LinkId(*l)).collect();
        q.sort_unstable();
        q.dedup();
        let e = FlowEvidence::new(q, 1);
        let mut t = VoteTally::new(50);
        t.cast(&e, VoteWeight::ReciprocalPathLength);
        prop_assert_eq!(t.total(), 1.0);
    }

    /// Theorem 1's budget is monotone: more hosts per rack ⇒ smaller
    /// per-host budget; higher Tmax ⇒ larger.
    #[test]
    fn theorem1_monotonicity(params in arb_params(), tmax in 10.0f64..500.0) {
        use vigil_topology::bounds::theorem1_ct_bound;
        let base = theorem1_ct_bound(&params, tmax);
        prop_assert!(base >= 0.0);
        let denser = ClosParams {
            hosts_per_tor: params.hosts_per_tor.saturating_mul(2).min(200),
            ..params
        };
        if denser.hosts_per_tor > params.hosts_per_tor {
            prop_assert!(theorem1_ct_bound(&denser, tmax) <= base + 1e-12);
        }
        prop_assert!(theorem1_ct_bound(&params, tmax * 2.0) >= base - 1e-12);
    }
}
