//! Packet-level emulation of the probe path (the §4 engineering story).
//!
//! Where [`crate::flowsim`] reproduces the paper's MATLAB flow simulator,
//! this module emulates what actually happens to a 007 probe train on the
//! wire, with real bytes from `vigil-packet`:
//!
//! 1. the host crafts 15 TCP probes (TTL 1–15, TTL in the IP ID, bad TCP
//!    checksum) for the traced five-tuple;
//! 2. each probe walks the tuple's **current** ECMP path, surviving each
//!    link with `1 − drop_rate` (so a blackhole yields the paper's
//!    "partial traceroutes");
//! 3. the switch where TTL hits zero generates an ICMP Time Exceeded —
//!    if its control-plane token bucket (`Tmax`) lets it;
//! 4. the reply walks the reverse path (its links have their own drop
//!    rates) and, if it arrives, is parsed back into a hop report.
//!
//! Timing uses a configurable per-link latency, so reply timestamps feed
//! the per-second ICMP accounting behind Table 1, and rerouting races
//! (§4.2: "routing may change by the time traceroute starts") are
//! reproducible by mutating faults/seeds between the data transmission and
//! the trace.

use crate::control_plane::{IcmpAccounting, TokenBucket};
use crate::faults::LinkFaults;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use vigil_packet::icmp::{IcmpTimeExceeded, EMBEDDED_PAYLOAD_LEN};
use vigil_packet::ipv4::{Ipv4Packet, Ipv4Repr};
use vigil_packet::traceroute::{parse_time_exceeded, ProbeBuilder, ProbeReply, MAX_PROBE_TTL};
use vigil_packet::FiveTuple;
use vigil_topology::{ClosTopology, HostId, Node, Path, RouteError};

/// Emulator knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetSimConfig {
    /// One-way per-link latency in seconds (datacenter RTTs are "typically
    /// less than 1 or 2 ms" end to end, §4.2).
    pub link_latency: f64,
    /// Switch ICMP cap, replies per second (`Tmax`, §4.1).
    pub tmax: f64,
    /// Token-bucket burst (how many back-to-back replies a quiet switch
    /// may emit).
    pub bucket_burst: f64,
    /// Gap between successive probes of one train, seconds.
    pub probe_spacing: f64,
}

impl Default for NetSimConfig {
    fn default() -> Self {
        Self {
            link_latency: 10e-6,
            tmax: crate::control_plane::PAPER_TMAX,
            bucket_burst: crate::control_plane::PAPER_TMAX,
            probe_spacing: 100e-6,
        }
    }
}

/// The result of one probe train.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TracerouteOutcome {
    /// Hop reports that made it back, in arrival order.
    pub replies: Vec<ProbeReply>,
    /// Probes emitted (always 15 — the paper's fixed train).
    pub probes_sent: u32,
    /// When the train started (emulator clock, seconds).
    pub started_at: f64,
    /// When the last reply arrived (= `started_at` if none did).
    pub finished_at: f64,
    /// The ground-truth path the probes were routed on (for validation
    /// harnesses; the agent must *not* peek at this).
    pub oracle_path: Path,
}

/// The timestamped packet-walk emulator.
#[derive(Debug)]
pub struct NetSim {
    topo: ClosTopology,
    faults: LinkFaults,
    config: NetSimConfig,
    buckets: Vec<TokenBucket>,
    accounting: IcmpAccounting,
    clock: f64,
    next_seq: u32,
    rng: ChaCha8Rng,
}

impl NetSim {
    /// Builds an emulator over a topology and fault table.
    pub fn new(topo: ClosTopology, faults: LinkFaults, config: NetSimConfig, seed: u64) -> Self {
        assert_eq!(
            faults.len(),
            topo.num_links(),
            "fault table must cover the topology"
        );
        let buckets = (0..topo.num_switches())
            .map(|_| TokenBucket::new(config.tmax, config.bucket_burst))
            .collect();
        let accounting = IcmpAccounting::new(topo.num_switches() as u32);
        Self {
            topo,
            faults,
            config,
            buckets,
            accounting,
            clock: 0.0,
            next_seq: 1,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The topology (read).
    pub fn topo(&self) -> &ClosTopology {
        &self.topo
    }

    /// The topology (mutate — e.g. `reseed_switch` to model a reboot).
    pub fn topo_mut(&mut self) -> &mut ClosTopology {
        &mut self.topo
    }

    /// The fault table (read).
    pub fn faults(&self) -> &LinkFaults {
        &self.faults
    }

    /// The fault table (mutate — inject/withdraw/repair mid-run).
    pub fn faults_mut(&mut self) -> &mut LinkFaults {
        &mut self.faults
    }

    /// Emulator clock, seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Advances the clock (e.g. to the next epoch).
    pub fn advance(&mut self, dt: f64) {
        assert!(dt >= 0.0, "time cannot run backwards");
        self.clock += dt;
        self.accounting.observe_until(self.clock);
    }

    /// Per-switch ICMP accounting (Table 1's data).
    pub fn icmp_accounting(&self) -> &IcmpAccounting {
        &self.accounting
    }

    /// The current data path of a five-tuple (what TCP packets take right
    /// now, honouring withdrawn links). This is the §8.2 EverFlow oracle.
    pub fn data_path(
        &self,
        tuple: &FiveTuple,
        src: HostId,
        dst: HostId,
    ) -> Result<Path, RouteError> {
        self.topo
            .route_filtered(tuple, src, dst, &|l| self.faults.is_down(l))
    }

    /// Sends a full probe train for `tuple` from `src` and collects the
    /// surviving ICMP replies.
    pub fn send_probe_train(&mut self, src: HostId, tuple: &FiveTuple) -> TracerouteOutcome {
        let started_at = self.clock;
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let builder = ProbeBuilder::new(*tuple, seq);

        // Resolve the destination host from the DIP; a probe train to an
        // address outside the fabric would "traceroute the internet",
        // which the SLB-query gate prevents upstream. Here we emulate the
        // fabric edge: unknown DIP ⇒ no replies.
        let Some(dst) = self.topo.host_by_ip(tuple.dst_ip) else {
            return TracerouteOutcome {
                replies: Vec::new(),
                probes_sent: u32::from(MAX_PROBE_TTL),
                started_at,
                finished_at: started_at,
                oracle_path: Path::new(vec![Node::Host(src)], vec![]),
            };
        };

        // The path probes are routed on *now* (may differ from the data
        // packets' earlier path if routing changed in between — the race
        // the paper argues is rare because retransmit→trace is fast).
        let path = match self
            .topo
            .route_filtered(tuple, src, dst, &|l| self.faults.is_down(l))
        {
            Ok(p) => p,
            Err(RouteError::Blackhole { partial }) => partial,
            Err(RouteError::SameHost) => {
                return TracerouteOutcome {
                    replies: Vec::new(),
                    probes_sent: u32::from(MAX_PROBE_TTL),
                    started_at,
                    finished_at: started_at,
                    oracle_path: Path::new(vec![Node::Host(src)], vec![]),
                };
            }
        };

        let mut replies: Vec<(f64, ProbeReply)> = Vec::new();
        for ttl in 1..=MAX_PROBE_TTL {
            let send_time = started_at + f64::from(ttl - 1) * self.config.probe_spacing;
            let probe_bytes = builder.probe(ttl);
            if let Some((t, reply)) = self.walk_probe(&probe_bytes, &path, send_time) {
                replies.push((t, reply));
            }
        }
        replies.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        let finished_at = replies.last().map_or(started_at, |(t, _)| *t);
        // The train occupies the wire for its send duration; move the
        // clock past it so successive traces don't time-travel.
        self.clock = self
            .clock
            .max(started_at + f64::from(MAX_PROBE_TTL) * self.config.probe_spacing)
            .max(finished_at);
        self.accounting.observe_until(self.clock);

        TracerouteOutcome {
            replies: replies.into_iter().map(|(_, r)| r).collect(),
            probes_sent: u32::from(MAX_PROBE_TTL),
            started_at,
            finished_at,
            oracle_path: path,
        }
    }

    /// Walks one probe through the fabric. Returns the delivered reply and
    /// its arrival time, or `None` (probe lost, TTL reached the
    /// destination host, bucket empty, or reply lost on the way back).
    fn walk_probe(
        &mut self,
        probe_bytes: &[u8],
        path: &Path,
        send_time: f64,
    ) -> Option<(f64, ProbeReply)> {
        let pkt = Ipv4Packet::new_checked(probe_bytes).expect("builder emits valid IPv4");
        let ttl = usize::from(pkt.ttl());

        // Forward walk: the probe must survive links 0..min(ttl, len).
        let travel = ttl.min(path.links.len());
        for link in &path.links[..travel] {
            if self.rng.gen_bool(self.faults.rate(*link).clamp(0.0, 1.0)) {
                return None; // probe dropped in flight
            }
        }
        if ttl >= path.nodes.len() {
            // Ran past the recorded (possibly partial) path: blackholed
            // at a routing hole or delivered nowhere; no reply either way.
            return None;
        }
        let expiring_node = path.nodes[ttl];
        let switch = expiring_node.switch()?; // destination host: silent drop (bad TCP checksum)

        // Control plane: the ICMP cap.
        let arrive = send_time + ttl as f64 * self.config.link_latency;
        if !self.buckets[switch.0 as usize].try_take(arrive) {
            return None;
        }
        self.accounting.record(switch.0, arrive);

        // Craft the real ICMP Time Exceeded the switch would emit.
        let original = Ipv4Repr::parse(&pkt).expect("probe header is valid");
        let mut embedded = [0u8; EMBEDDED_PAYLOAD_LEN];
        embedded.copy_from_slice(&pkt.payload()[..EMBEDDED_PAYLOAD_LEN]);
        let msg = IcmpTimeExceeded {
            original,
            original_payload: embedded,
        };
        let mut reply_bytes = vec![0u8; msg.buffer_len()];
        msg.emit(&mut reply_bytes);

        // Reverse walk: the reply crosses the reverse of each traversed
        // link, each with its own drop rate.
        for link in path.links[..ttl].iter().rev() {
            let l = self.topo.link(*link);
            let rev = self
                .topo
                .link_between(l.to, l.from)
                .expect("every link has a reverse twin");
            if self.rng.gen_bool(self.faults.rate(rev).clamp(0.0, 1.0)) {
                return None; // reply dropped on the way home
            }
        }

        let delivered = arrive + ttl as f64 * self.config.link_latency;
        let reply = parse_time_exceeded(self.topo.switch_ip(switch), &reply_bytes)
            .expect("switch-emitted reply parses");
        Some((delivered, reply))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vigil_topology::{ClosParams, LinkId, LinkKind};

    fn sim() -> NetSim {
        let topo = ClosTopology::new(ClosParams::tiny(), 5).unwrap();
        let faults = LinkFaults::new(topo.num_links());
        NetSim::new(topo, faults, NetSimConfig::default(), 99)
    }

    fn cross_pod_tuple(sim: &NetSim) -> (HostId, HostId, FiveTuple) {
        let src = HostId(0);
        let dst = HostId(sim.topo().num_hosts() as u32 - 1);
        let tuple = FiveTuple::tcp(
            sim.topo().host_ip(src),
            50_000,
            sim.topo().host_ip(dst),
            443,
        );
        (src, dst, tuple)
    }

    #[test]
    fn clean_fabric_discovers_every_switch_hop() {
        let mut sim = sim();
        let (src, dst, tuple) = cross_pod_tuple(&sim);
        let data_path = sim.data_path(&tuple, src, dst).unwrap();
        let out = sim.send_probe_train(src, &tuple);

        // Inter-pod: 6 links, 5 switches at nodes 1..=5 ⇒ 5 replies.
        assert_eq!(out.replies.len(), 5);
        for (i, reply) in out.replies.iter().enumerate() {
            assert_eq!(usize::from(reply.hop), i + 1);
            let expected_switch = data_path.nodes[i + 1].switch().unwrap();
            assert_eq!(
                sim.topo().alias().resolve(reply.responder),
                Some(expected_switch),
                "hop {} answered by the wrong switch",
                i + 1
            );
            assert_eq!(reply.tuple, tuple, "five-tuple must round-trip");
        }
        assert_eq!(out.oracle_path, data_path);
        assert!(out.finished_at > out.started_at);
    }

    #[test]
    fn blackhole_yields_partial_traceroute() {
        let mut sim = sim();
        let (src, dst, tuple) = cross_pod_tuple(&sim);
        let path = sim.data_path(&tuple, src, dst).unwrap();
        // Blackhole the T1→T2 link on this flow's path (index 2).
        let bad = path.links[2];
        assert_eq!(sim.topo().link(bad).kind, LinkKind::T1ToT2);
        sim.faults_mut().fail_link(bad, 1.0);

        let out = sim.send_probe_train(src, &tuple);
        // Probes with TTL ≥ 3 die crossing link index 2; hops 1 and 2
        // still answer. The deepest answering hop sits right before the
        // failed link — the "directly pinpoints the faulty link" property.
        assert_eq!(out.replies.iter().map(|r| r.hop).max(), Some(2));
        assert_eq!(out.replies.len(), 2);
    }

    #[test]
    fn token_bucket_caps_replies() {
        let topo = ClosTopology::new(ClosParams::tiny(), 5).unwrap();
        let faults = LinkFaults::new(topo.num_links());
        // Tiny cap: 2 replies/s, burst 2.
        let config = NetSimConfig {
            tmax: 2.0,
            bucket_burst: 2.0,
            ..NetSimConfig::default()
        };
        let mut sim = NetSim::new(topo, faults, config, 1);
        let (src, _dst, tuple) = cross_pod_tuple(&sim);

        // Hammer the same first-hop switch with many trains back to back.
        let mut total_hop1 = 0;
        for _ in 0..20 {
            let out = sim.send_probe_train(src, &tuple);
            total_hop1 += out.replies.iter().filter(|r| r.hop == 1).count();
        }
        // 20 trains in ≪ 1 s: only the burst (2) can answer at hop 1.
        assert!(
            total_hop1 <= 3,
            "rate limiter let {total_hop1} hop-1 replies through"
        );
        assert!(sim.icmp_accounting().max_per_second() as f64 <= 2.0 + 1.0);
    }

    #[test]
    fn accounting_never_exceeds_tmax_under_default_cap() {
        let mut sim = sim();
        let (src, _dst, tuple) = cross_pod_tuple(&sim);
        for _ in 0..50 {
            let _ = sim.send_probe_train(src, &tuple);
            sim.advance(0.05);
        }
        let max = sim.icmp_accounting().max_per_second();
        assert!(
            f64::from(max) <= sim.config.tmax + sim.config.bucket_burst,
            "max {max} exceeded the cap"
        );
    }

    #[test]
    fn reroute_race_changes_probe_path() {
        let mut sim = sim();
        let (src, dst, tuple) = cross_pod_tuple(&sim);
        let before = sim.data_path(&tuple, src, dst).unwrap();
        // Withdraw the flow's ToR→T1 link between "data" and "trace".
        sim.faults_mut().set_admin_down(before.links[1], true);
        let out = sim.send_probe_train(src, &tuple);
        assert_ne!(out.oracle_path, before, "probes must take the new path");
        // §8.2-style validation would now flag the mismatch:
        assert_ne!(sim.data_path(&tuple, src, dst).unwrap().links, before.links);
    }

    #[test]
    fn unknown_dip_gets_no_replies() {
        let mut sim = sim();
        let src = HostId(0);
        let tuple = FiveTuple::tcp(
            sim.topo().host_ip(src),
            50_000,
            "192.0.2.1".parse().unwrap(),
            443,
        );
        let out = sim.send_probe_train(src, &tuple);
        assert!(out.replies.is_empty());
    }

    #[test]
    fn clock_advances_past_each_train() {
        let mut sim = sim();
        let (src, _dst, tuple) = cross_pod_tuple(&sim);
        let t0 = sim.now();
        let _ = sim.send_probe_train(src, &tuple);
        assert!(sim.now() > t0);
    }

    #[test]
    fn lossy_reverse_path_loses_replies() {
        let mut sim = sim();
        let (src, dst, tuple) = cross_pod_tuple(&sim);
        let path = sim.data_path(&tuple, src, dst).unwrap();
        // Make the reverse of the first link (ToR→host direction) fully
        // lossy: every reply dies on its last hop home.
        let l0 = sim.topo().link(path.links[0]);
        let rev = sim.topo().link_between(l0.to, l0.from).unwrap();
        sim.faults_mut().fail_link(rev, 1.0);
        let out = sim.send_probe_train(src, &tuple);
        assert!(out.replies.is_empty(), "all replies should die on reverse");
    }

    #[test]
    fn determinism_per_seed() {
        let mk = || {
            let topo = ClosTopology::new(ClosParams::tiny(), 5).unwrap();
            let mut faults = LinkFaults::new(topo.num_links());
            faults.fail_link(LinkId(40), 0.3);
            NetSim::new(topo, faults, NetSimConfig::default(), 7)
        };
        let mut a = mk();
        let mut b = mk();
        let (src, _dst, tuple) = cross_pod_tuple(&a);
        for _ in 0..5 {
            let ra = a.send_probe_train(src, &tuple);
            let rb = b.send_probe_train(src, &tuple);
            assert_eq!(ra.replies, rb.replies);
        }
    }
}
