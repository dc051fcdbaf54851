//! Workload generators (the paper's §6 traffic models).
//!
//! Baseline (§6): "Each host establishes 2 connections per second to a
//! random ToR outside of its rack" — 60 connections per host per 30-second
//! epoch, with "up to 100 packets per flow".
//!
//! Variants:
//! * §6.4 — connections per epoch drawn uniformly from (10, 60);
//! * §6.5 — skewed traffic: 80 % of flows target hosts under a random 25 %
//!   of the ToRs; and the *hot ToR* special case where a single ToR sinks
//!   10–70 % of all flows.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use vigil_packet::FiveTuple;
use vigil_topology::{ClosTopology, HostId, SwitchId};

/// How many connections each host opens per epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnCount {
    /// The same count for every host.
    Fixed(u32),
    /// Uniform in `lo..=hi` per host (§6.4 uses 10..=60).
    Uniform(u32, u32),
}

impl ConnCount {
    /// Samples the count for one host.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match *self {
            ConnCount::Fixed(n) => n,
            ConnCount::Uniform(lo, hi) => {
                assert!(lo <= hi, "invalid connection range");
                rng.gen_range(lo..=hi)
            }
        }
    }
}

/// How many packets one flow carries in the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketCount {
    /// Fixed size.
    Fixed(u32),
    /// Uniform in `lo..=hi` (the paper sends "up to 100 packets per
    /// flow"; the theorem works with the `n_l`/`n_u` percentile bounds).
    Uniform(u32, u32),
}

impl PacketCount {
    /// Samples the packet count for one flow.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match *self {
            PacketCount::Fixed(n) => n,
            PacketCount::Uniform(lo, hi) => {
                assert!(lo <= hi, "invalid packet range");
                rng.gen_range(lo..=hi)
            }
        }
    }

    /// `(n_l, n_u)` bounds used by the Theorem 2 calculator.
    pub fn bounds(&self) -> (u32, u32) {
        match *self {
            PacketCount::Fixed(n) => (n, n),
            PacketCount::Uniform(lo, hi) => (lo, hi),
        }
    }
}

/// Destination selection policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DestSpec {
    /// Uniform over ToRs other than the source's rack (the paper's
    /// baseline).
    Uniform,
    /// §6.5 skew: a fraction `frac_hot_flows` of flows go to hosts under a
    /// random `frac_hot_tors` of the ToRs; the rest are uniform.
    SkewedTors {
        /// Fraction of ToRs designated "hot" (paper: 0.25).
        frac_hot_tors: f64,
        /// Fraction of flows sent to the hot set (paper: 0.8).
        frac_hot_flows: f64,
    },
    /// §6.5 hot-ToR: a single ToR sinks `frac` of all flows.
    HotTor {
        /// Fraction of all flows destined to the hot ToR (0.1–0.7 in
        /// Figure 9).
        frac: f64,
    },
}

/// Complete traffic specification for one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Connections per host per epoch.
    pub conns_per_host: ConnCount,
    /// Packets per flow.
    pub packets_per_flow: PacketCount,
    /// Destination policy.
    pub dest: DestSpec,
    /// Destination service port (e.g. 443; the storage service in the
    /// motivation).
    pub dst_port: u16,
}

impl TrafficSpec {
    /// The paper's baseline: 60 connections per host per 30-second epoch,
    /// 50–100 packets per flow, uniform destinations.
    pub fn paper_default() -> Self {
        Self {
            conns_per_host: ConnCount::Fixed(60),
            packets_per_flow: PacketCount::Uniform(50, 100),
            dest: DestSpec::Uniform,
            dst_port: 443,
        }
    }

    /// Generates every flow of one epoch into a caller-owned buffer
    /// (cleared first) — no per-epoch allocation once the buffer has grown
    /// to an epoch's size.
    ///
    /// Five-tuples are made unique by a per-host ephemeral source port
    /// counter; the fabric and agents key flows by [`FlowSpec::tuple`].
    pub fn generate_into<R: Rng + ?Sized>(
        &self,
        topo: &ClosTopology,
        rng: &mut R,
        flows: &mut Vec<FlowSpec>,
    ) {
        // ToRs are indexed pod-major, so "a uniform ToR" is one uniform
        // index — the draw `choose` made over a collected list of them.
        let tors = TorIndex {
            topo,
            n0: u32::from(topo.params().n0),
            len: u32::from(topo.params().npod) * u32::from(topo.params().n0),
        };
        let rack_size = u32::from(topo.params().hosts_per_tor);

        // Pre-pick the hot set once per epoch, as the paper does per
        // experiment.
        let hot_tors: Vec<SwitchId> = match &self.dest {
            DestSpec::SkewedTors { frac_hot_tors, .. } => {
                let count = ((f64::from(tors.len) * frac_hot_tors).round() as usize).max(1);
                let mut shuffled: Vec<SwitchId> = (0..tors.len).map(|k| tors.at(k)).collect();
                shuffled.shuffle(rng);
                shuffled.truncate(count);
                shuffled
            }
            DestSpec::HotTor { .. } => vec![tors.choose(rng)],
            DestSpec::Uniform => Vec::new(),
        };

        flows.clear();
        for src in topo.hosts() {
            let src_tor = topo.host_tor(src);
            let src_ip = topo.host_ip(src);
            let conns = self.conns_per_host.sample(rng);
            let mut next_port: u16 = rng.gen_range(32_768..60_000);
            for _ in 0..conns {
                let dst_tor = self.pick_dest_tor(&tors, &hot_tors, src_tor, rng);
                let pick = rng.gen_range(0..rack_size) as usize;
                let dst = topo
                    .hosts_under(dst_tor)
                    .nth(pick)
                    .expect("ToRs have hosts");
                let tuple = FiveTuple::tcp(src_ip, next_port, topo.host_ip(dst), self.dst_port);
                next_port = next_port.wrapping_add(1).max(32_768);
                flows.push(FlowSpec {
                    src,
                    dst,
                    tuple,
                    packets: self.packets_per_flow.sample(rng),
                });
            }
        }
    }

    fn pick_dest_tor<R: Rng + ?Sized>(
        &self,
        tors: &TorIndex<'_>,
        hot: &[SwitchId],
        src_tor: SwitchId,
        rng: &mut R,
    ) -> SwitchId {
        let uniform_other = |rng: &mut R| loop {
            let t = tors.choose(rng);
            if t != src_tor || tors.len == 1 {
                return t;
            }
        };
        match &self.dest {
            DestSpec::Uniform => uniform_other(rng),
            DestSpec::SkewedTors { frac_hot_flows, .. } => {
                if rng.gen_bool(*frac_hot_flows) {
                    // Hot destinations may include the source rack; the
                    // paper only excludes the source rack for the uniform
                    // baseline. Retry if we land exactly on the source ToR.
                    for _ in 0..8 {
                        let t = *hot.choose(rng).expect("hot set non-empty");
                        if t != src_tor {
                            return t;
                        }
                    }
                    uniform_other(rng)
                } else {
                    uniform_other(rng)
                }
            }
            DestSpec::HotTor { frac } => {
                let t = hot[0];
                if rng.gen_bool(*frac) && t != src_tor {
                    t
                } else {
                    uniform_other(rng)
                }
            }
        }
    }
}

/// The fabric's ToRs as an indexable sequence (pod-major, the order the
/// generator has always enumerated them in) without collecting them.
struct TorIndex<'a> {
    topo: &'a ClosTopology,
    n0: u32,
    len: u32,
}

impl TorIndex<'_> {
    fn at(&self, k: u32) -> SwitchId {
        self.topo.tor((k / self.n0) as u16, (k % self.n0) as u16)
    }

    /// One uniform draw over the ToRs.
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> SwitchId {
        self.at(rng.gen_range(0..self.len))
    }
}

/// One generated connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// The connection five-tuple (post-SLB: destination is the DIP).
    pub tuple: FiveTuple,
    /// Packets the flow will send this epoch.
    pub packets: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;
    use vigil_topology::ClosParams;

    fn topo() -> ClosTopology {
        ClosTopology::new(ClosParams::tiny(), 11).unwrap()
    }

    /// One epoch's flows in a fresh buffer.
    fn generate(spec: &TrafficSpec, topo: &ClosTopology, rng: &mut ChaCha8Rng) -> Vec<FlowSpec> {
        let mut flows = Vec::new();
        spec.generate_into(topo, rng, &mut flows);
        flows
    }

    #[test]
    fn fixed_conn_count_generates_exactly() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let spec = TrafficSpec {
            conns_per_host: ConnCount::Fixed(3),
            ..TrafficSpec::paper_default()
        };
        let flows = generate(&spec, &topo, &mut rng);
        assert_eq!(flows.len(), topo.num_hosts() * 3);
    }

    #[test]
    fn uniform_conn_count_within_range() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let spec = TrafficSpec {
            conns_per_host: ConnCount::Uniform(2, 5),
            ..TrafficSpec::paper_default()
        };
        let flows = generate(&spec, &topo, &mut rng);
        let total = flows.len();
        assert!(total >= topo.num_hosts() * 2 && total <= topo.num_hosts() * 5);
    }

    #[test]
    fn destinations_leave_the_rack() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let flows = generate(&TrafficSpec::paper_default(), &topo, &mut rng);
        for f in &flows {
            assert_ne!(
                topo.host_tor(f.src),
                topo.host_tor(f.dst),
                "uniform baseline must leave the source rack"
            );
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn tuples_unique_within_epoch() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let flows = generate(&TrafficSpec::paper_default(), &topo, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for f in &flows {
            assert!(seen.insert(f.tuple), "duplicate tuple {}", f.tuple);
        }
    }

    #[test]
    fn packets_respect_bounds() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let spec = TrafficSpec {
            packets_per_flow: PacketCount::Uniform(10, 20),
            ..TrafficSpec::paper_default()
        };
        for f in generate(&spec, &topo, &mut rng) {
            assert!((10..=20).contains(&f.packets));
        }
        assert_eq!(spec.packets_per_flow.bounds(), (10, 20));
    }

    #[test]
    fn hot_tor_receives_requested_share() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let spec = TrafficSpec {
            conns_per_host: ConnCount::Fixed(50),
            dest: DestSpec::HotTor { frac: 0.5 },
            ..TrafficSpec::paper_default()
        };
        let flows = generate(&spec, &topo, &mut rng);
        let mut per_tor: HashMap<SwitchId, usize> = HashMap::new();
        for f in &flows {
            *per_tor.entry(topo.host_tor(f.dst)).or_default() += 1;
        }
        let max_share = per_tor.values().copied().max().unwrap() as f64 / flows.len() as f64;
        // ~50 % requested minus the flows whose source shares the hot rack.
        assert!(max_share > 0.35, "hot ToR got only {max_share:.2}");
    }

    #[test]
    fn skewed_tors_concentrate_flows() {
        let topo = topo();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let spec = TrafficSpec {
            conns_per_host: ConnCount::Fixed(50),
            dest: DestSpec::SkewedTors {
                frac_hot_tors: 0.25,
                frac_hot_flows: 0.8,
            },
            ..TrafficSpec::paper_default()
        };
        let flows = generate(&spec, &topo, &mut rng);
        let mut per_tor: HashMap<SwitchId, usize> = HashMap::new();
        for f in &flows {
            *per_tor.entry(topo.host_tor(f.dst)).or_default() += 1;
        }
        // Top 25 % of ToRs (2 of 8) should carry well over half the flows.
        let mut counts: Vec<usize> = per_tor.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top2: usize = counts.iter().take(2).sum();
        assert!(
            top2 as f64 / flows.len() as f64 > 0.5,
            "top-2 ToRs carry only {top2}/{}",
            flows.len()
        );
    }

    #[test]
    fn generate_into_overwrites_a_reused_buffer() {
        let topo = topo();
        let mut buf = Vec::new();
        for dest in [
            DestSpec::Uniform,
            DestSpec::HotTor { frac: 0.4 },
            DestSpec::SkewedTors {
                frac_hot_tors: 0.25,
                frac_hot_flows: 0.8,
            },
        ] {
            let spec = TrafficSpec {
                dest,
                ..TrafficSpec::paper_default()
            };
            let fresh = generate(&spec, &topo, &mut ChaCha8Rng::seed_from_u64(8));
            spec.generate_into(&topo, &mut ChaCha8Rng::seed_from_u64(8), &mut buf);
            assert_eq!(buf, fresh);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let topo = topo();
        let spec = TrafficSpec::paper_default();
        let a = generate(&spec, &topo, &mut ChaCha8Rng::seed_from_u64(9));
        let b = generate(&spec, &topo, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
