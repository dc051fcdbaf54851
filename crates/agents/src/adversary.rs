//! Byzantine host agents: the adversarial axis of the scenario matrix.
//!
//! 007's democratic tally (§5) assumes every host agent reports honestly.
//! The obvious threat model — hosts that lie about paths, stay silent, or
//! flood spurious votes — is what this module injects: an
//! [`AdversaryModel`] wraps the monitoring agent's emission decision so a
//! deterministic, seed-derived fraction of hosts misbehaves with one of
//! four [`ByzantineBehavior`]s, identically in the batch, streaming, and
//! threaded pipelines.
//!
//! **Purity invariant.** Every adversary decision — which hosts are
//! compromised, which healthy flows get spurious evidence, which fake
//! links a liar blames — is a pure SplitMix64 hash of `(salt, host,
//! five-tuple)`. No RNG is drawn, so a disabled spec (`fraction = 0`) is
//! a true no-op on the draw order, and an enabled one is byte-identical
//! at any thread count or chunk size (arrival order never enters the
//! hash).

use crate::monitor::{is_eventful, RetransmissionEvent};
use crate::pathdisc::DiscoveredPath;
use serde::{Deserialize, Serialize};
use vigil_fabric::flowsim::FlowRecord;
use vigil_packet::FiveTuple;
use vigil_topology::{splitmix64, HostId, LinkId, Path};

/// What a compromised host does with its monitoring agent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ByzantineBehavior {
    /// Reports its real retransmissions but blames links *not* on the
    /// flow's path (same path length, hash-chosen off-path links).
    Liar,
    /// Observes retransmissions but emits nothing — a silent voter.
    Mute,
    /// Reports honestly *and* emits spurious evidence (1–3 claimed
    /// retransmissions on the true path) for healthy flows at `rate`.
    Flooder {
        /// Fraction of the host's healthy established flows flooded.
        rate: f64,
    },
    /// Inverts good/bad: silent on real retransmissions, spurious
    /// evidence on every healthy established flow.
    Flipper,
}

/// Hash-stream discriminators so membership, flood, and fake-link draws
/// are independent even at the same `(salt, host, tuple)`.
const MEMBER_SALT: u64 = 0xB12A_0007_B12A_0007;
const FLOOD_SALT: u64 = 0x5075_7269_6F75_7300; // "Spurious"
const LIAR_SALT: u64 = 0x4C79_696E_674C_696E; // "LyingLin(ks)"

/// The byzantine-voter axis threaded through `RunConfig`: a fraction of
/// hosts, a behavior, and the salt every decision hashes from. The
/// default (`fraction = 0`) disables the axis entirely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ByzantineSpec {
    /// Fraction of hosts compromised (0 disables the axis; membership is
    /// per-host hash thresholding, so the realized count is binomial
    /// around `fraction × hosts`).
    pub fraction: f64,
    /// What compromised hosts do.
    pub behavior: ByzantineBehavior,
    /// Seed-salt mixed into every decision hash. Case seeds feed this so
    /// two byzantine cases never share a compromised set.
    pub salt: u64,
}

impl Default for ByzantineSpec {
    fn default() -> Self {
        Self {
            fraction: 0.0,
            behavior: ByzantineBehavior::Liar,
            salt: 0x0007_BAD5_0007_BAD5,
        }
    }
}

impl ByzantineSpec {
    /// Whether the axis is active (any nonzero fraction).
    pub fn enabled(&self) -> bool {
        self.fraction > 0.0
    }

    /// Liar hosts at `fraction`.
    pub fn liars(fraction: f64) -> Self {
        Self {
            fraction,
            behavior: ByzantineBehavior::Liar,
            ..Self::default()
        }
    }

    /// Mute hosts at `fraction`.
    pub fn mutes(fraction: f64) -> Self {
        Self {
            fraction,
            behavior: ByzantineBehavior::Mute,
            ..Self::default()
        }
    }

    /// Flooder hosts at `fraction`, flooding `rate` of healthy flows.
    pub fn flooders(fraction: f64, rate: f64) -> Self {
        Self {
            fraction,
            behavior: ByzantineBehavior::Flooder { rate },
            ..Self::default()
        }
    }

    /// Flipper hosts at `fraction`.
    pub fn flippers(fraction: f64) -> Self {
        Self {
            fraction,
            behavior: ByzantineBehavior::Flipper,
            ..Self::default()
        }
    }

    /// A short label for the behavior (matrix fault-axis reporting).
    pub fn label(&self) -> &'static str {
        match self.behavior {
            ByzantineBehavior::Liar => "byz-liar",
            ByzantineBehavior::Mute => "byz-mute",
            ByzantineBehavior::Flooder { .. } => "byz-flood",
            ByzantineBehavior::Flipper => "byz-flip",
        }
    }
}

/// SplitMix64 chain over a host id and a five-tuple, seeded by `salt` —
/// the same per-tuple purity idiom as the fabric's SLB gate.
fn hash_flow(salt: u64, host: HostId, tuple: &FiveTuple) -> u64 {
    let words = [
        u64::from(host.0),
        u64::from(u32::from(tuple.src_ip)),
        u64::from(u32::from(tuple.dst_ip)),
        (u64::from(tuple.src_port) << 32)
            | (u64::from(tuple.dst_port) << 16)
            | tuple.protocol as u64,
    ];
    let mut z = salt;
    for w in words {
        z = splitmix64(z ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    z
}

/// Maps a hash to `[0, 1)` (53-bit mantissa, like `rand`'s float path).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The compiled adversary for one topology: answers, per flow, what the
/// source host's monitoring agent emits. Honest hosts emit the
/// §4.2 eventful rule ([`is_eventful`]) exactly; compromised hosts follow
/// the spec's behavior. All answers are pure functions of `(salt, host, tuple)`.
#[derive(Debug, Clone)]
pub struct AdversaryModel {
    spec: ByzantineSpec,
    num_links: usize,
}

impl AdversaryModel {
    /// Compiles `spec` against a fabric of `num_links` links.
    ///
    /// # Panics
    ///
    /// Panics when `spec` is enabled on a degenerate fabric (a liar
    /// needs off-path links to blame).
    pub fn new(spec: ByzantineSpec, num_links: usize) -> Self {
        assert!(
            !spec.enabled() || num_links >= 16,
            "byzantine axis needs a real fabric ({num_links} links)"
        );
        Self { spec, num_links }
    }

    /// The spec this model compiles.
    pub fn spec(&self) -> &ByzantineSpec {
        &self.spec
    }

    /// Whether `host` is compromised — a pure per-host hash threshold,
    /// independent of flows or arrival order.
    pub fn compromised(&self, host: HostId) -> bool {
        if !self.spec.enabled() {
            return false;
        }
        let h = splitmix64(
            self.spec.salt ^ MEMBER_SALT ^ u64::from(host.0).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        unit(h) < self.spec.fraction
    }

    /// The column-level emission decision: what `src`'s monitoring agent
    /// reports for a flow, from the four columns every rule reads —
    /// `None` is silence. Honest hosts (every host, when the spec is
    /// disabled) follow §4.2: established and at least one
    /// retransmission. The flow's path is deliberately not an input, so
    /// a scanning driver materializes a record only for rows that emit;
    /// [`claimed_path`](Self::claimed_path) resolves the path afterwards.
    pub fn decide(
        &self,
        src: HostId,
        tuple: &FiveTuple,
        established: bool,
        retransmissions: u32,
    ) -> Option<RetransmissionEvent> {
        let eventful = is_eventful(established, retransmissions);
        let honest = || RetransmissionEvent {
            host: src,
            tuple: *tuple,
            retransmissions,
        };
        if !self.compromised(src) {
            return eventful.then(honest);
        }
        // Spurious evidence for a healthy established flow: 1–3 claimed
        // retransmissions, on a `rate` fraction of them.
        let spurious = |rate: f64| {
            let h = hash_flow(self.spec.salt ^ FLOOD_SALT, src, tuple);
            (established && unit(h) < rate).then(|| RetransmissionEvent {
                host: src,
                tuple: *tuple,
                retransmissions: 1 + (splitmix64(h) % 3) as u32,
            })
        };
        match self.spec.behavior {
            ByzantineBehavior::Liar => eventful.then(honest),
            ByzantineBehavior::Mute => None,
            ByzantineBehavior::Flooder { rate } => {
                if eventful {
                    Some(honest())
                } else {
                    spurious(rate)
                }
            }
            ByzantineBehavior::Flipper => {
                if eventful {
                    None
                } else {
                    spurious(1.0)
                }
            }
        }
    }

    /// The path `event.host`'s agent reports for an event
    /// [`decide`](Self::decide) emitted on a flow whose true path is
    /// `path`: the oracle discovery, except that a liar fabricates one.
    pub fn claimed_path(&self, event: &RetransmissionEvent, path: &Path) -> DiscoveredPath {
        if self.spec.behavior == ByzantineBehavior::Liar && self.compromised(event.host) {
            self.fake_path(event, &path.links)
        } else {
            DiscoveredPath::of_flow_path(path)
        }
    }

    /// What `rec.src`'s monitoring agent emits for this flow record:
    /// `Some((event, path))` routes through the host agent (pacer, dup
    /// cache, hub) exactly like an honest observation; `None` is silence.
    /// [`decide`](Self::decide) on the record's columns, then
    /// [`claimed_path`](Self::claimed_path) on its path.
    pub fn emission(&self, rec: &FlowRecord) -> Option<(RetransmissionEvent, DiscoveredPath)> {
        let event = self.decide(rec.src, &rec.tuple, rec.established, rec.retransmissions)?;
        let path = self.claimed_path(&event, &rec.path);
        Some((event, path))
    }

    /// A liar's fabricated path: as many links as the true path, none of
    /// them on it, drawn from a hash chain (deterministic in the flow,
    /// not in arrival order). Falls back to an id-order sweep if the
    /// chain stalls (pathologically small fabrics).
    fn fake_path(&self, event: &RetransmissionEvent, true_links: &[LinkId]) -> DiscoveredPath {
        let want = true_links.len().max(1);
        let mut links: Vec<LinkId> = Vec::with_capacity(want);
        let mut z = hash_flow(self.spec.salt ^ LIAR_SALT, event.host, &event.tuple);
        let mut attempts = 0usize;
        while links.len() < want && attempts < 64 * want {
            z = splitmix64(z);
            let cand = LinkId((z % self.num_links as u64) as u32);
            if !true_links.contains(&cand) && !links.contains(&cand) {
                links.push(cand);
            }
            attempts += 1;
        }
        let mut id = 0u32;
        while links.len() < want && (id as usize) < self.num_links {
            let cand = LinkId(id);
            if !true_links.contains(&cand) && !links.contains(&cand) {
                links.push(cand);
            }
            id += 1;
        }
        DiscoveredPath {
            links,
            complete: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_disabled_and_honest() {
        let spec = ByzantineSpec::default();
        assert!(!spec.enabled());
        let adv = AdversaryModel::new(spec, 4); // degenerate fabric ok when disabled
        assert!(!adv.compromised(HostId(0)));
    }

    #[test]
    fn membership_fraction_is_approximate_and_salted() {
        let adv = AdversaryModel::new(ByzantineSpec::liars(0.33), 296);
        let n = 600u32;
        let hit = (0..n).filter(|&h| adv.compromised(HostId(h))).count();
        let frac = hit as f64 / f64::from(n);
        assert!(
            (frac - 0.33).abs() < 0.08,
            "membership fraction {frac} far from 0.33"
        );
        // A different salt compromises a different set.
        let other = AdversaryModel::new(
            ByzantineSpec {
                salt: 1,
                ..ByzantineSpec::liars(0.33)
            },
            296,
        );
        assert!((0..n).any(|h| adv.compromised(HostId(h)) != other.compromised(HostId(h))));
    }

    #[test]
    fn behaviors_round_trip_serde() {
        for spec in [
            ByzantineSpec::liars(0.2),
            ByzantineSpec::mutes(0.5),
            ByzantineSpec::flooders(0.1, 0.5),
            ByzantineSpec::flippers(0.33),
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ByzantineSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "{json}");
        }
    }
}
