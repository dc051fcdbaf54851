//! Clos datacenter topology for the `vigil` reproduction of 007 (NSDI 2018).
//!
//! The paper's Definition 1: a Clos topology has `npod` pods, each with `n0`
//! top-of-rack (ToR) switches (with `H` hosts each) and `n1` tier-1
//! switches; ToR↔T1 form a complete bipartite network inside each pod
//! (*level 1 links*), and every pod's T1 switches connect to all `n2`
//! global tier-2 switches (*level 2 links*).
//!
//! Everything 007 does is parameterized by this structure:
//!
//! * **ECMP routing** (§4.2): packets of one five-tuple follow one path,
//!   chosen by per-switch hashes ([`ecmp`], [`route`]).
//! * **Directional links** (Figure 11 distinguishes ToR→T1 from T1→ToR
//!   failures), including host↔ToR links (§8.3: 48 % of blamed links are
//!   server↔ToR).
//! * **Router aliasing** (§4.2): mapping ICMP source IPs back to switch
//!   identities from the known topology ([`alias`]).
//! * **Theorem 1** (ICMP rate safety) and **Theorem 2/3** (voting accuracy)
//!   bound calculators ([`bounds`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod bounds;
pub mod clos;
pub mod degrade;
pub mod ecmp;
pub mod ids;
pub mod params;
pub mod route;
pub mod route_table;

pub use clos::{ClosTopology, Link, LinkKind};
pub use degrade::DegradeSpec;

/// The SplitMix64 finalizer — the workspace's one canonical bit mixer
/// for deterministic, seed-stable hashing (ECMP switch seeds, degraded
/// spine selection, the SLB gate's per-tuple decisions). Mix inputs in
/// with XOR/golden-ratio multiplies, then finalize.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
pub use ids::{HostId, LinkId, LinkSet, Node, SwitchId, SwitchKind};
pub use params::ClosParams;
pub use route::{Path, RouteError, RouteScratch, Routed};
pub use route_table::{RouteDecision, RouteLinks, RouteTable, MAX_ROUTE_LINKS};
