//! Degraded / asymmetric Clos knobs.
//!
//! A symmetric Clos is the paper's evaluation fabric, but production
//! fabrics rarely stay symmetric: spine links get withdrawn for
//! maintenance, fail outright, or are simply absent mid-rollout. Each
//! withdrawal shrinks ECMP groups *non-uniformly* — some T1s keep more
//! T2 uplinks than others — so path diversity, and with it Theorem 2's
//! amplification factor `α`, varies across the fabric. [`DegradeSpec`]
//! selects a deterministic set of spine (T1↔T2) link pairs to withdraw,
//! which the fault layer then marks administratively down: routing flows
//! around them (no drops), leaving an asymmetric fabric for the scenario
//! matrix to stress.

use crate::clos::{ClosTopology, LinkKind};
use crate::ids::LinkId;
use serde::{Deserialize, Serialize};

/// A declarative fabric degradation: withdraw a fraction of spine link
/// pairs (both directions of a T1↔T2 adjacency).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradeSpec {
    /// Fraction of T1↔T2 pairs withdrawn, in `[0, 1)`. Selection keeps at
    /// least one live T2 uplink per T1 so the degraded fabric stays
    /// connected (degradation reroutes; it must not blackhole).
    pub frac_spine_pairs_down: f64,
}

impl DegradeSpec {
    /// A spec withdrawing `frac` of the spine pairs.
    pub fn new(frac: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&frac),
            "degradation fraction must be in [0, 1)"
        );
        Self {
            frac_spine_pairs_down: frac,
        }
    }

    /// The withdrawn links: both directions of the selected T1↔T2 pairs.
    ///
    /// Selection is a pure function of the topology and `salt` (pairs are
    /// ranked by a SplitMix hash of their up-link id), so the same spec
    /// degrades the same fabric identically on any thread or machine.
    /// Two guards keep degradation a pure reroute (never a blackhole):
    /// a pair is skipped when withdrawing it would leave its T1 with no
    /// live T2 uplink, *or* its T2 with no live downlink into the T1's
    /// pod (a flow already at that T2 bound for that pod would have
    /// nowhere to descend).
    pub fn withdrawn_links(&self, topo: &ClosTopology, salt: u64) -> Vec<LinkId> {
        let up_links: Vec<_> = topo
            .links()
            .iter()
            .filter(|l| l.kind == LinkKind::T1ToT2)
            .collect();
        if up_links.is_empty() || self.frac_spine_pairs_down <= 0.0 {
            return Vec::new();
        }
        let target = (up_links.len() as f64 * self.frac_spine_pairs_down).floor() as usize;

        // Rank pairs by hash so the selection is scattered, not clustered
        // on low link ids.
        let mut ranked: Vec<_> = up_links.iter().map(|l| (mix(salt, l.id.0), *l)).collect();
        ranked.sort_by_key(|(h, l)| (*h, l.id));

        // Connectivity bookkeeping: live T2-uplinks per T1 node, and live
        // per-pod downlinks per T2 node.
        let pod_of = |t1: crate::ids::Node| -> u16 {
            match t1 {
                crate::ids::Node::Switch(s) => match topo.switch_kind(s) {
                    crate::ids::SwitchKind::T1 { pod, .. } => pod,
                    other => unreachable!("spine link endpoint is a T1, got {other:?}"),
                },
                crate::ids::Node::Host(_) => unreachable!("spine links join switches"),
            }
        };
        let mut live_uplinks = std::collections::HashMap::new();
        let mut live_downlinks = std::collections::HashMap::new();
        for l in &up_links {
            *live_uplinks.entry(l.from).or_insert(0u32) += 1;
            *live_downlinks.entry((l.to, pod_of(l.from))).or_insert(0u32) += 1;
        }

        let mut withdrawn = Vec::new();
        for (_, link) in ranked {
            if withdrawn.len() / 2 >= target {
                break;
            }
            let pod = pod_of(link.from);
            if live_uplinks[&link.from] <= 1 {
                continue; // would disconnect this T1 from the spine
            }
            if live_downlinks[&(link.to, pod)] <= 1 {
                continue; // would strand this T2's traffic toward the pod
            }
            *live_uplinks.get_mut(&link.from).expect("counted above") -= 1;
            *live_downlinks
                .get_mut(&(link.to, pod))
                .expect("counted above") -= 1;
            withdrawn.push(link.id);
            let reverse = topo
                .link_between(link.to, link.from)
                .expect("spine links are paired by construction");
            withdrawn.push(reverse);
        }
        withdrawn.sort();
        withdrawn
    }
}

/// SplitMix64 over `(salt, id)` — the ranking hash.
fn mix(salt: u64, id: u32) -> u64 {
    crate::splitmix64(salt ^ u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ClosParams;

    fn topo() -> ClosTopology {
        ClosTopology::new(ClosParams::tiny(), 9).unwrap()
    }

    #[test]
    fn selection_is_deterministic_and_paired() {
        let t = topo();
        let spec = DegradeSpec::new(0.25);
        let a = spec.withdrawn_links(&t, 7);
        let b = spec.withdrawn_links(&t, 7);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_eq!(a.len() % 2, 0, "withdrawals come in direction pairs");
        for id in &a {
            assert!(t.link(*id).kind.is_level2());
        }
    }

    #[test]
    fn different_salts_differ() {
        let t = topo();
        let spec = DegradeSpec::new(0.25);
        assert_ne!(spec.withdrawn_links(&t, 1), spec.withdrawn_links(&t, 2));
    }

    #[test]
    fn degradation_never_blackholes_either_side() {
        let t = topo();
        // Aggressive degradation: connectivity still preserved on both
        // ends of every withdrawn pair.
        for salt in 0..8u64 {
            let spec = DegradeSpec::new(0.9);
            let down: std::collections::BTreeSet<_> =
                spec.withdrawn_links(&t, salt).into_iter().collect();
            assert!(!down.is_empty());

            // Every T1 keeps ≥ 1 live T2 uplink.
            let mut up = std::collections::HashMap::new();
            // Every T2 keeps ≥ 1 live downlink into every pod.
            let mut per_pod = std::collections::HashMap::new();
            for l in t.links() {
                if l.kind != LinkKind::T1ToT2 {
                    continue;
                }
                let pod = match l.from {
                    crate::ids::Node::Switch(s) => match t.switch_kind(s) {
                        crate::ids::SwitchKind::T1 { pod, .. } => pod,
                        _ => unreachable!(),
                    },
                    _ => unreachable!(),
                };
                let alive = u32::from(!down.contains(&l.id));
                *up.entry(l.from).or_insert(0u32) += alive;
                *per_pod.entry((l.to, pod)).or_insert(0u32) += alive;
            }
            assert!(up.values().all(|&n| n >= 1), "a T1 lost its whole spine");
            assert!(
                per_pod.values().all(|&n| n >= 1),
                "a T2 lost all downlinks into a pod (salt {salt})"
            );
        }
    }

    #[test]
    fn zero_fraction_withdraws_nothing() {
        let t = topo();
        assert!(DegradeSpec::new(0.0).withdrawn_links(&t, 5).is_empty());
    }

    #[test]
    fn single_tier_fabric_has_no_spine() {
        let t = ClosTopology::new(ClosParams::test_cluster(), 1).unwrap();
        assert!(DegradeSpec::new(0.5).withdrawn_links(&t, 5).is_empty());
    }

    #[test]
    fn oversubscription_shrinks_spine_only() {
        let p = ClosParams::paper_sim();
        let o = p.with_oversubscription(2);
        assert_eq!(o.n0, p.n0);
        assert_eq!(o.hosts_per_tor, p.hosts_per_tor);
        assert_eq!(o.n1, p.n1 / 2);
        assert_eq!(o.n2, p.n2 / 2);
        o.validate().unwrap();
        let spine_pairs = |c: ClosParams| u32::from(c.n1) * u32::from(c.n2);
        assert!(spine_pairs(o) < spine_pairs(p));
        // Degenerate factor never zeroes a layer.
        let tiny = ClosParams::tiny().with_oversubscription(100);
        assert_eq!(tiny.n1, 1);
        assert_eq!(tiny.n2, 1);
        tiny.validate().unwrap();
    }
}
