//! Epoch-compiled routing: the fault-keyed [`RouteTable`].
//!
//! Within one epoch the administrative down-set is fixed, so the live
//! ECMP candidate set at every switch — and therefore the whole routing
//! *structure* — is fixed too. [`ClosTopology::route_filtered_into`]
//! nevertheless re-walks the Clos cascade per flow: a `HashMap` lookup
//! per hop plus two filter scans per ECMP stage. [`RouteTable::compile`]
//! hoists all of that to epoch-open time: it enumerates each stage's
//! surviving candidates once, keyed by the down-link set, and
//! [`RouteTable::lookup`] reduces a per-flow route to at most three
//! tuple-hash selections over precompiled live lists plus a few array
//! probes. The ECMP seeds are read *live* from the topology at lookup
//! time, so [`ClosTopology::reseed_switch`] needs no invalidation.
//!
//! The compiled plan exploits the constructor's deterministic link
//! layout (host pairs first, then level-1 pairs, then level-2 pairs,
//! each `up` immediately followed by its `down` twin), so every link id
//! is plain arithmetic — no `link_between` map probe survives on the
//! per-flow path. `compile` cross-checks that arithmetic against the
//! authoritative link tables in debug builds.
//!
//! Routing consumes no RNG draws, so a driver swapping the walk for a
//! table lookup is byte-identical by construction; the equivalence
//! (including blackhole verdicts and partial-path shapes) is
//! property-tested against `route_filtered_into` in
//! `tests/route_table.rs`.

use crate::clos::ClosTopology;
use crate::ecmp;
use crate::ids::{HostId, LinkId, LinkSet, Node, SwitchId};
use crate::params::ClosParams;
use crate::route::{RouteError, RouteScratch, Routed};
use vigil_packet::FiveTuple;

/// Where a blackholed route truncates (or that it did not).
const TAG_COMPLETE: u8 = 0;
/// Host uplink withdrawn: partial path is the bare source host.
const TAG_AT_HOST: u8 = 1;
/// No live next hop at the source ToR (same-ToR downlink dead, or every
/// uplink T1 withdrawn): partial ends at the source ToR.
const TAG_AT_SRC_TOR: u8 = 2;
/// No live next hop at the ascended T1 (intra-pod downlink dead, or
/// every T2 withdrawn): partial ends at the up T1.
const TAG_AT_UP_T1: u8 = 3;
/// Every destination-pod T1 withdrawn at the chosen T2.
const TAG_AT_T2: u8 = 4;
/// The chosen descent T1's link to the destination ToR is dead.
const TAG_AT_DOWN_T1: u8 = 5;
/// The destination ToR's downlink to the destination host is dead.
const TAG_AT_DST_TOR: u8 = 6;

/// Sentinel for an ECMP stage the route never reached.
const NO_CHOICE: u16 = u16::MAX;

/// Compressed sparse rows of live ECMP candidates: row `r` holds the
/// candidate indices that survived the down-set, in ascending candidate
/// order — exactly the order `route_filtered_into`'s filtered `nth`
/// scan enumerates, so `row[pick]` reproduces its choice bit for bit.
#[derive(Debug, Clone, Default)]
struct Csr {
    starts: Vec<u32>,
    items: Vec<u16>,
}

impl Csr {
    fn build(rows: usize, cands: usize, mut live: impl FnMut(usize, usize) -> bool) -> Self {
        let mut starts = Vec::with_capacity(rows + 1);
        let mut items = Vec::new();
        starts.push(0u32);
        for r in 0..rows {
            for c in 0..cands {
                if live(r, c) {
                    items.push(c as u16);
                }
            }
            starts.push(items.len() as u32);
        }
        Self { starts, items }
    }

    fn row(&self, r: usize) -> &[u16] {
        &self.items[self.starts[r] as usize..self.starts[r + 1] as usize]
    }
}

/// The outcome of one compiled route lookup: the verdict plus the packed
/// stage choices. In a Clos that *is* the path — every link and node id
/// follows from it by arithmetic ([`RouteTable::links`],
/// [`RouteTable::emit_into`]) — so drivers carry the 16-byte decision
/// per flow and build an owned [`crate::Path`] only for flows they keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    src: HostId,
    dst: HostId,
    tag: u8,
    up_t1: u16,
    t2: u16,
    down_t1: u16,
}

impl RouteDecision {
    /// Whether the route completed or blackholed — mirrors what
    /// [`ClosTopology::route_filtered_into`] returns for the same flow.
    pub fn routed(&self) -> Routed {
        if self.tag == TAG_COMPLETE {
            Routed::Complete
        } else {
            Routed::Blackholed
        }
    }

    /// A packed identity unique per distinct emitted path (for one
    /// compiled table): endpoints, truncation tag, and the ECMP choices.
    /// Two flows with equal keys route over byte-identical paths, so the
    /// key indexes a path memo without ever hashing a link slice.
    pub fn cache_key(&self) -> u128 {
        u128::from(self.src.0)
            | (u128::from(self.dst.0) << 32)
            | (u128::from(self.tag) << 64)
            | (u128::from(self.up_t1) << 72)
            | (u128::from(self.t2) << 88)
            | (u128::from(self.down_t1) << 104)
    }
}

/// Links on the longest Clos route (host–ToR–T1–T2–T1–ToR–host).
pub const MAX_ROUTE_LINKS: usize = 6;

/// A decision's link sequence held inline — what the per-flow kernel
/// reads instead of a heap-allocated path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteLinks {
    len: u8,
    ids: [LinkId; MAX_ROUTE_LINKS],
}

impl RouteLinks {
    /// The links in traversal order (empty for a flow blackholed at its
    /// own host).
    pub fn as_slice(&self) -> &[LinkId] {
        &self.ids[..usize::from(self.len)]
    }
}

/// A routing plan compiled against one `(params, down-set)` pair.
///
/// Compile once per epoch (or reuse across epochs whose down-set is
/// unchanged — flap timelines never change it, maintenance changes it
/// once); then each flow costs at most three [`ecmp::select`] calls over
/// the precompiled live lists. See the module docs for the full design.
#[derive(Debug, Clone)]
pub struct RouteTable {
    params: ClosParams,
    down: LinkSet,
    fingerprint: u64,
    /// Host uplink (`HostToTor`) liveness, indexed by host id.
    host_up_live: Vec<bool>,
    /// ToR→host downlink (`TorToHost`) liveness, indexed by host id.
    host_down_live: Vec<bool>,
    /// Live uplink T1 indices per ToR (row = dense ToR id).
    tor_up: Csr,
    /// Live uplink T2 indices per T1 (row = `pod·n1 + t1`).
    t1_up: Csr,
    /// Live descent T1 indices per (T2, destination pod)
    /// (row = `t2·npod + pod`).
    t2_down: Csr,
    /// `T1ToTor` downlink liveness, indexed by `(pod·n1 + t1)·n0 + tor`.
    t1_down_live: Vec<bool>,
}

impl RouteTable {
    /// Compiles the routing plan for `topo` under the given down-set.
    /// Cost is `O(num_links)`; amortized over an epoch's flows it is
    /// noise.
    pub fn compile(topo: &ClosTopology, down: &LinkSet) -> Self {
        let params = *topo.params();
        let npod = u32::from(params.npod);
        let n0 = u32::from(params.n0);
        let n1 = u32::from(params.n1);
        let n2 = u32::from(params.n2);
        let h = u32::from(params.hosts_per_tor);
        let num_hosts = npod * n0 * h;
        let base1 = 2 * num_hosts;
        let base2 = base1 + 2 * npod * n0 * n1;
        debug_assert!(verify_link_arithmetic(topo), "link-id arithmetic drifted");

        let live = |id: u32| !down.contains(LinkId(id));
        let host_up_live = (0..num_hosts).map(|i| live(2 * i)).collect();
        let host_down_live = (0..num_hosts).map(|i| live(2 * i + 1)).collect();
        let tor_up = Csr::build((npod * n0) as usize, n1 as usize, |tor, t1| {
            live(base1 + 2 * (tor as u32 * n1 + t1 as u32))
        });
        let t1_up = Csr::build((npod * n1) as usize, n2 as usize, |t1_row, t2| {
            live(base2 + 2 * (t1_row as u32 * n2 + t2 as u32))
        });
        let t2_down = Csr::build((n2 * npod) as usize, n1 as usize, |row, t1| {
            let (t2, pod) = (row as u32 / npod, row as u32 % npod);
            live(base2 + 2 * ((pod * n1 + t1 as u32) * n2 + t2) + 1)
        });
        let mut t1_down_live = vec![false; (npod * n1 * n0) as usize];
        for pod in 0..npod {
            for t1 in 0..n1 {
                for tor in 0..n0 {
                    let tor_dense = pod * n0 + tor;
                    t1_down_live[((pod * n1 + t1) * n0 + tor) as usize] =
                        live(base1 + 2 * (tor_dense * n1 + t1) + 1);
                }
            }
        }

        Self {
            params,
            fingerprint: Self::fingerprint_of(down),
            down: down.clone(),
            host_up_live,
            host_down_live,
            tor_up,
            t1_up,
            t2_down,
            t1_down_live,
        }
    }

    /// The order-insensitive fingerprint of a down-set — a cheap first
    /// filter before the exact [`LinkSet`] comparison when probing a
    /// cache of compiled tables.
    pub fn fingerprint_of(down: &LinkSet) -> u64 {
        down.iter().fold(0, |acc, l| {
            acc ^ crate::splitmix64(u64::from(l.0).wrapping_add(0x9e37_79b9_7f4a_7c15))
        })
    }

    /// This table's down-set fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The down-set this table was compiled against.
    pub fn down_set(&self) -> &LinkSet {
        &self.down
    }

    /// The parameters this table was compiled against.
    pub fn params(&self) -> &ClosParams {
        &self.params
    }

    /// True when this table is valid for `(params, down)` — the whole
    /// route structure is a function of exactly that pair (ECMP seeds
    /// are read live, so reseeds never invalidate a table).
    pub fn matches(&self, params: &ClosParams, down: &LinkSet) -> bool {
        self.params == *params && self.down == *down
    }

    /// Routes one flow through the compiled plan. Byte-equivalent to
    /// [`ClosTopology::route_filtered_into`] with the compiled down-set
    /// as the exclusion predicate: same completion/blackhole verdict,
    /// and [`Self::emit_into`] reproduces the identical node/link
    /// sequences. `topo` must have the parameters this table was
    /// compiled for (only its live ECMP seeds are consulted).
    pub fn lookup(
        &self,
        topo: &ClosTopology,
        tuple: &FiveTuple,
        src: HostId,
        dst: HostId,
    ) -> Result<RouteDecision, RouteError> {
        if src == dst {
            return Err(RouteError::SameHost);
        }
        let n0 = u32::from(self.params.n0);
        let n1 = u32::from(self.params.n1);
        let npod = u32::from(self.params.npod);
        let h = u32::from(self.params.hosts_per_tor);
        let src_tor = src.0 / h;
        let dst_tor = dst.0 / h;

        let mut d = RouteDecision {
            src,
            dst,
            tag: TAG_COMPLETE,
            up_t1: NO_CHOICE,
            t2: NO_CHOICE,
            down_t1: NO_CHOICE,
        };
        if !self.host_up_live[src.0 as usize] {
            d.tag = TAG_AT_HOST;
            return Ok(d);
        }
        if src_tor == dst_tor {
            if !self.host_down_live[dst.0 as usize] {
                d.tag = TAG_AT_SRC_TOR;
            }
            return Ok(d);
        }

        let ups = self.tor_up.row(src_tor as usize);
        if ups.is_empty() {
            d.tag = TAG_AT_SRC_TOR;
            return Ok(d);
        }
        let pick = ecmp::select(topo.ecmp_seed(SwitchId(src_tor)), tuple, ups.len());
        let up = ups[pick];
        d.up_t1 = up;

        let src_pod = src_tor / n0;
        let dst_pod = dst_tor / n0;
        let dst_tor_local = dst_tor - dst_pod * n0;
        if src_pod == dst_pod {
            if !self.t1_down_live[((src_pod * n1 + u32::from(up)) * n0 + dst_tor_local) as usize] {
                d.tag = TAG_AT_UP_T1;
            } else if !self.host_down_live[dst.0 as usize] {
                d.tag = TAG_AT_DST_TOR;
            }
            return Ok(d);
        }

        let t1_row = src_pod * n1 + u32::from(up);
        let t2s = self.t1_up.row(t1_row as usize);
        if t2s.is_empty() {
            d.tag = TAG_AT_UP_T1;
            return Ok(d);
        }
        let pick = ecmp::select(
            topo.ecmp_seed(SwitchId(npod * n0 + t1_row)),
            tuple,
            t2s.len(),
        );
        let t2 = t2s[pick];
        d.t2 = t2;

        let downs = self.t2_down.row((u32::from(t2) * npod + dst_pod) as usize);
        if downs.is_empty() {
            d.tag = TAG_AT_T2;
            return Ok(d);
        }
        let t2_switch = SwitchId(npod * (n0 + n1) + u32::from(t2));
        let pick = ecmp::select(topo.ecmp_seed(t2_switch), tuple, downs.len());
        let down = downs[pick];
        d.down_t1 = down;

        if !self.t1_down_live[((dst_pod * n1 + u32::from(down)) * n0 + dst_tor_local) as usize] {
            d.tag = TAG_AT_DOWN_T1;
        } else if !self.host_down_live[dst.0 as usize] {
            d.tag = TAG_AT_DST_TOR;
        }
        Ok(d)
    }

    /// The links of a decision's (possibly partial) path, inline: pure
    /// id arithmetic, no heap, no topology probe. Equal to the link
    /// sequence [`Self::emit_into`] writes.
    #[inline]
    pub fn links(&self, d: &RouteDecision) -> RouteLinks {
        let mut out = RouteLinks {
            len: 0,
            ids: [LinkId(0); MAX_ROUTE_LINKS],
        };
        self.walk(d, |link, _| {
            out.ids[usize::from(out.len)] = link;
            out.len += 1;
        });
        out
    }

    /// Writes the node/link sequences of a decision's (possibly partial)
    /// path into `out` — byte-identical to what `route_filtered_into`
    /// leaves in its scratch for the same flow.
    pub fn emit_into(&self, d: &RouteDecision, out: &mut RouteScratch) {
        out.nodes.clear();
        out.links.clear();
        out.nodes.push(Node::Host(d.src));
        self.walk(d, |link, to| {
            out.links.push(link);
            out.nodes.push(to);
        });
    }

    /// Calls `hop(link, receiving node)` for every hop of the decision's
    /// path in order, stopping where its tag says the route truncated —
    /// the one place the link-id arithmetic lives.
    #[inline(always)]
    fn walk(&self, d: &RouteDecision, mut hop: impl FnMut(LinkId, Node)) {
        let npod = u32::from(self.params.npod);
        let n0 = u32::from(self.params.n0);
        let n1 = u32::from(self.params.n1);
        let n2 = u32::from(self.params.n2);
        let h = u32::from(self.params.hosts_per_tor);
        let num_hosts = npod * n0 * h;
        let base1 = 2 * num_hosts;
        let base2 = base1 + 2 * npod * n0 * n1;
        let src_tor = d.src.0 / h;
        let dst_tor = d.dst.0 / h;
        let src_pod = src_tor / n0;
        let dst_pod = dst_tor / n0;
        let tor_node = |tor: u32| Node::Switch(SwitchId(tor));
        let t1_node = |pod: u32, t1: u32| Node::Switch(SwitchId(npod * n0 + pod * n1 + t1));

        if d.tag == TAG_AT_HOST {
            return;
        }
        hop(LinkId(2 * d.src.0), tor_node(src_tor));
        if d.tag == TAG_AT_SRC_TOR {
            return;
        }
        if src_tor == dst_tor {
            hop(LinkId(2 * d.dst.0 + 1), Node::Host(d.dst));
            return;
        }
        let up = u32::from(d.up_t1);
        let mut last_t1 = up;
        hop(
            LinkId(base1 + 2 * (src_tor * n1 + up)),
            t1_node(src_pod, up),
        );
        if d.tag == TAG_AT_UP_T1 {
            return;
        }
        if src_pod != dst_pod {
            let t2 = u32::from(d.t2);
            hop(
                LinkId(base2 + 2 * ((src_pod * n1 + up) * n2 + t2)),
                Node::Switch(SwitchId(npod * (n0 + n1) + t2)),
            );
            if d.tag == TAG_AT_T2 {
                return;
            }
            last_t1 = u32::from(d.down_t1);
            hop(
                LinkId(base2 + 2 * ((dst_pod * n1 + last_t1) * n2 + t2) + 1),
                t1_node(dst_pod, last_t1),
            );
            if d.tag == TAG_AT_DOWN_T1 {
                return;
            }
        }
        // Descend from the last T1 (the ascended one inside a pod, the
        // descent choice across pods) to the destination ToR and host.
        hop(
            LinkId(base1 + 2 * (dst_tor * n1 + last_t1) + 1),
            tor_node(dst_tor),
        );
        if d.tag == TAG_AT_DST_TOR {
            return;
        }
        hop(LinkId(2 * d.dst.0 + 1), Node::Host(d.dst));
    }
}

/// Debug-build cross-check: the arithmetic link-id layout `compile` and
/// `emit_into` assume must agree with the authoritative link tables.
fn verify_link_arithmetic(topo: &ClosTopology) -> bool {
    use crate::clos::LinkKind;
    let p = *topo.params();
    let (npod, n0, n1, n2, h) = (
        u32::from(p.npod),
        u32::from(p.n0),
        u32::from(p.n1),
        u32::from(p.n2),
        u32::from(p.hosts_per_tor),
    );
    let num_hosts = npod * n0 * h;
    let base1 = 2 * num_hosts;
    let base2 = base1 + 2 * npod * n0 * n1;
    topo.links().iter().all(|l| {
        let id = l.id.0;
        match l.kind {
            LinkKind::HostToTor | LinkKind::TorToHost => id < base1,
            LinkKind::TorToT1 | LinkKind::T1ToTor => (base1..base2).contains(&id),
            LinkKind::T1ToT2 | LinkKind::T2ToT1 => id >= base2,
        }
    }) && (0..num_hosts).all(|host| {
        let tor = Node::Switch(SwitchId(host / h));
        topo.link_between(Node::Host(HostId(host)), tor) == Some(LinkId(2 * host))
            && topo.link_between(tor, Node::Host(HostId(host))) == Some(LinkId(2 * host + 1))
    }) && (0..npod * n0).all(|tor| {
        (0..n1).all(|t1| {
            let a = Node::Switch(SwitchId(tor));
            let b = Node::Switch(SwitchId(npod * n0 + (tor / n0) * n1 + t1));
            let up = base1 + 2 * (tor * n1 + t1);
            topo.link_between(a, b) == Some(LinkId(up))
                && topo.link_between(b, a) == Some(LinkId(up + 1))
        })
    }) && (0..npod * n1).all(|t1_row| {
        (0..n2).all(|t2| {
            let a = Node::Switch(SwitchId(npod * n0 + t1_row));
            let b = Node::Switch(SwitchId(npod * (n0 + n1) + t2));
            let up = base2 + 2 * (t1_row * n2 + t2);
            topo.link_between(a, b) == Some(LinkId(up))
                && topo.link_between(b, a) == Some(LinkId(up + 1))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ClosParams;

    fn topo() -> ClosTopology {
        ClosTopology::new(ClosParams::tiny(), 42).unwrap()
    }

    fn tuple(sp: u16) -> FiveTuple {
        FiveTuple::tcp(
            "10.0.0.1".parse().unwrap(),
            sp,
            "10.1.3.4".parse().unwrap(),
            443,
        )
    }

    /// One decision's emission must equal the walk's scratch, across a
    /// spread of tuples and endpoint classes (the exhaustive random
    /// check lives in `tests/route_table.rs`).
    #[test]
    fn lookup_matches_walk_on_clean_fabric() {
        let t = topo();
        let down = LinkSet::new(t.num_links());
        let table = RouteTable::compile(&t, &down);
        let mut walk = RouteScratch::new();
        let mut fast = RouteScratch::new();
        for (src, dst) in [(0u32, 1u32), (0, 5), (0, 31), (9, 30), (17, 2)] {
            let (src, dst) = (HostId(src), HostId(dst));
            for sp in 0..32u16 {
                let ft = tuple(40_000 + sp);
                let verdict = t
                    .route_filtered_into(&ft, src, dst, &|_| false, &mut walk)
                    .unwrap();
                let d = table.lookup(&t, &ft, src, dst).unwrap();
                assert_eq!(d.routed(), verdict);
                table.emit_into(&d, &mut fast);
                assert_eq!(fast.nodes, walk.nodes);
                assert_eq!(fast.links, walk.links);
            }
        }
    }

    #[test]
    fn same_host_rejected() {
        let t = topo();
        let table = RouteTable::compile(&t, &LinkSet::new(t.num_links()));
        assert_eq!(
            table
                .lookup(&t, &tuple(1), HostId(3), HostId(3))
                .unwrap_err(),
            RouteError::SameHost
        );
    }

    #[test]
    fn matches_keys_on_params_and_down_set() {
        let t = topo();
        let mut down = LinkSet::new(t.num_links());
        let table = RouteTable::compile(&t, &down);
        assert!(table.matches(t.params(), &down));
        down.insert(LinkId(7));
        assert!(!table.matches(t.params(), &down));
        let other = RouteTable::compile(&t, &down);
        assert!(other.matches(t.params(), &down));
        assert_ne!(other.fingerprint(), table.fingerprint());
        assert!(!other.matches(&ClosParams::test_cluster(), &down));
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_membership_keyed() {
        let a: LinkSet = [LinkId(3), LinkId(90)].into_iter().collect();
        let b: LinkSet = [LinkId(90), LinkId(3)].into_iter().collect();
        assert_eq!(
            RouteTable::fingerprint_of(&a),
            RouteTable::fingerprint_of(&b)
        );
        assert_ne!(
            RouteTable::fingerprint_of(&a),
            RouteTable::fingerprint_of(&LinkSet::default())
        );
        // A set containing only link 0 must not fingerprint to empty.
        let zero: LinkSet = [LinkId(0)].into_iter().collect();
        assert_ne!(RouteTable::fingerprint_of(&zero), 0);
    }

    #[test]
    fn cache_keys_distinguish_truncation_points() {
        let t = topo();
        // Withdraw every uplink of host 0's ToR and host 1's downlink:
        // flows from host 0 blackhole at the ToR; flows to host 1 on the
        // same ToR blackhole there too, but with a different tag path.
        let mut down = LinkSet::new(t.num_links());
        down.insert(LinkId(0)); // host 0 uplink (2·host + 0)
        let table = RouteTable::compile(&t, &down);
        let d_host = table.lookup(&t, &tuple(9), HostId(0), HostId(9)).unwrap();
        assert_eq!(d_host.routed(), Routed::Blackholed);
        let d_ok = table.lookup(&t, &tuple(9), HostId(2), HostId(9)).unwrap();
        assert_eq!(d_ok.routed(), Routed::Complete);
        assert_ne!(d_host.cache_key(), d_ok.cache_key());
    }
}
