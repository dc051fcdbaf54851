//! Property tests for epoch-compiled routing: on random Clos sizes and
//! random exclusion sets, [`RouteTable::lookup`] followed by either
//! emitter — the inline [`RouteTable::links`] the per-flow kernel reads,
//! or [`RouteTable::emit_into`] that builds owned paths — must reproduce
//! a fresh `route_filtered_into` walk exactly: same complete/blackhole
//! verdicts, same node and link sequences, at every point a route can
//! truncate. This is the decision-as-path kernel's no-behavior-change
//! guarantee at the topology layer.

use proptest::prelude::*;
use vigil_packet::FiveTuple;
use vigil_topology::{
    ClosParams, ClosTopology, HostId, LinkId, LinkSet, RouteError, RouteScratch, RouteTable,
    MAX_ROUTE_LINKS,
};

/// A small random-but-valid Clos parameterization (single-pod fabrics
/// included: `npod == 1` exercises the intra-pod-only cascade).
fn params_strategy() -> impl Strategy<Value = ClosParams> {
    (1u16..=2, 2u16..=4, 2u16..=3, 2u16..=4, 1u16..=3).prop_map(
        |(npod, n0, n1, n2, hosts_per_tor)| ClosParams {
            npod,
            n0,
            n1,
            n2,
            hosts_per_tor,
        },
    )
}

/// Routes one flow through both the compiled table and the fresh walk
/// and asserts identical verdicts and identical emitted sequences from
/// both emitters. Returns the walk's link sequence.
fn assert_table_matches_walk(
    topo: &ClosTopology,
    table: &RouteTable,
    down: &LinkSet,
    src: HostId,
    dst: HostId,
    sport: u16,
) -> Vec<LinkId> {
    let tuple = FiveTuple::tcp(topo.host_ip(src), sport, topo.host_ip(dst), 443);
    let mut walk = RouteScratch::new();
    let walked = topo.route_filtered_into(&tuple, src, dst, &|l| down.contains(l), &mut walk);

    let mut emitted = RouteScratch::new();
    match table.lookup(topo, &tuple, src, dst) {
        Ok(decision) => {
            table.emit_into(&decision, &mut emitted);
            let verdict = walked.expect("walk agrees the flow is routable");
            assert_eq!(
                decision.routed(),
                verdict,
                "verdict mismatch {src:?}->{dst:?}"
            );
            assert_eq!(emitted.nodes, walk.nodes, "node sequence mismatch");
            assert_eq!(emitted.links, walk.links, "link sequence mismatch");
            assert_eq!(
                table.links(&decision).as_slice(),
                &walk.links[..],
                "inline link sequence mismatch"
            );
        }
        Err(RouteError::SameHost) => {
            assert!(
                matches!(walked, Err(RouteError::SameHost)),
                "only the table called {src:?}->{dst:?} same-host"
            );
        }
        Err(other) => panic!("lookup returned unexpected error {other:?}"),
    }
    walk.links
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Clean fabric: the compiled table reproduces the unfiltered walk
    /// for every drawn flow.
    #[test]
    fn table_matches_walk_on_clean_fabric(
        params in params_strategy(),
        seed in 0u64..1_000,
        flows in proptest::collection::vec((0u32..64, 0u32..64, 40_000u16..60_000), 1..20),
    ) {
        let topo = ClosTopology::new(params, seed).expect("strategy yields valid params");
        let hosts = topo.num_hosts() as u32;
        let down = LinkSet::new(topo.num_links());
        let table = RouteTable::compile(&topo, &down);
        for (a, b, sport) in flows {
            let (src, dst) = (HostId(a % hosts), HostId(b % hosts));
            assert_table_matches_walk(&topo, &table, &down, src, dst, sport);
        }
    }

    /// Faulted fabric: random strided exclusion sets — dense enough to
    /// force diversions, truncated partials, and full blackholes (stride
    /// 2 downs every host uplink) — produce identical outcomes through
    /// the table and the walk.
    #[test]
    fn table_matches_walk_under_exclusions(
        params in params_strategy(),
        seed in 0u64..1_000,
        dead_stride in 2u32..7,
        dead_phase in 0u32..7,
        flows in proptest::collection::vec((0u32..64, 0u32..64, 40_000u16..60_000), 1..20),
    ) {
        let topo = ClosTopology::new(params, seed).expect("strategy yields valid params");
        let hosts = topo.num_hosts() as u32;
        let down: LinkSet = (0..topo.num_links() as u32)
            .filter(|l| (l + dead_phase) % dead_stride == 0)
            .map(LinkId)
            .collect();
        let table = RouteTable::compile(&topo, &down);
        for (a, b, sport) in flows {
            let (src, dst) = (HostId(a % hosts), HostId(b % hosts));
            assert_table_matches_walk(&topo, &table, &down, src, dst, sport);
        }
    }

    /// Every truncation point: on top of a random down-set, withdrawing
    /// every link out of the `k`-th node of a flow's route blackholes it
    /// there, for each `k` — the zero-link host blackhole, the partial
    /// ending at each switch tier — and both emitters still agree with
    /// the walk on the `k`-link prefix.
    #[test]
    fn emitters_match_walk_at_every_truncation_point(
        params in params_strategy(),
        seed in 0u64..1_000,
        dead_stride in 5u32..11,
        flows in proptest::collection::vec((0u32..64, 0u32..64, 40_000u16..60_000), 1..8),
    ) {
        let topo = ClosTopology::new(params, seed).expect("strategy yields valid params");
        let hosts = topo.num_hosts() as u32;
        let base: LinkSet = (0..topo.num_links() as u32)
            .filter(|l| l % dead_stride == 0)
            .map(LinkId)
            .collect();
        let base_table = RouteTable::compile(&topo, &base);
        for (a, b, sport) in flows {
            let (src, dst) = (HostId(a % hosts), HostId(b % hosts));
            let route = assert_table_matches_walk(&topo, &base_table, &base, src, dst, sport);
            prop_assert!(route.len() <= MAX_ROUTE_LINKS);
            for (k, link) in route.iter().enumerate() {
                // Upstream stages keep their live candidate sets, so the
                // first `k` links stand and the route dies at node `k`.
                let node = topo.link(*link).from;
                let mut down = base.clone();
                for l in topo.links().iter().filter(|l| l.from == node) {
                    down.insert(l.id);
                }
                let table = RouteTable::compile(&topo, &down);
                let cut = assert_table_matches_walk(&topo, &table, &down, src, dst, sport);
                prop_assert_eq!(&cut[..], &route[..k], "truncation at hop {}", k);
            }
        }
    }

    /// The fingerprint keys tables by membership: any permutation of the
    /// same down-set fingerprints identically, and compiled tables match
    /// exactly the `(params, down)` pair they were built for.
    #[test]
    fn fingerprint_and_matches_key_by_down_set(
        params in params_strategy(),
        seed in 0u64..1_000,
        dead_stride in 2u32..7,
    ) {
        let topo = ClosTopology::new(params, seed).expect("strategy yields valid params");
        let down: LinkSet = (0..topo.num_links() as u32)
            .filter(|l| l % dead_stride == 0)
            .map(LinkId)
            .collect();
        let reversed: LinkSet = (0..topo.num_links() as u32)
            .rev()
            .filter(|l| l % dead_stride == 0)
            .map(LinkId)
            .collect();
        prop_assert_eq!(
            RouteTable::fingerprint_of(&down),
            RouteTable::fingerprint_of(&reversed)
        );
        let table = RouteTable::compile(&topo, &down);
        prop_assert!(table.matches(topo.params(), &down));
        let mut shifted = down.clone();
        shifted.insert(LinkId(topo.num_links() as u32 - 1));
        if shifted.len() != down.len() {
            prop_assert!(!table.matches(topo.params(), &shifted));
            prop_assert_ne!(
                RouteTable::fingerprint_of(&down),
                RouteTable::fingerprint_of(&shifted)
            );
        }
    }
}
