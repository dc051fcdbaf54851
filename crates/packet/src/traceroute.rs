//! Crafting and decoding 007 traceroute probes (paper §4.2).
//!
//! The path discovery agent sends **15 TCP packets with TTL values 0–15**
//! (the paper's wording; we emit TTLs 1..=15 — a TTL-0 packet is dropped by
//! the sending host's own stack and discovers nothing, and 15 probes of
//! TTLs 1..=15 match the "15 appropriately crafted TCP packets" count).
//! Each probe:
//!
//! * copies the traced flow's five-tuple (post-SLB, i.e. using the DIP) so
//!   ECMP hashes it onto the same path as the data packets;
//! * encodes the TTL in the IPv4 Identification field so concurrent
//!   traceroutes to multiple destinations can be disambiguated when the
//!   ICMP replies arrive out of order;
//! * carries a deliberately bad TCP checksum so a probe that reaches the
//!   destination is dropped by its TCP stack instead of confusing the
//!   connection.

use crate::five_tuple::FiveTuple;
use crate::icmp::IcmpTimeExceeded;
use crate::ipv4::Ipv4Repr;
use crate::tcp::{TcpFlags, TcpRepr, TcpSegment};
use crate::WireError;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Highest TTL probed; datacenter Clos paths have at most 5 hops
/// (host→ToR→T1→T2→T1→ToR→host crosses 6 links but 5 switches), so 15
/// covers any path with ample margin.
pub const MAX_PROBE_TTL: u8 = 15;

/// Magic upper byte placed in the IP Identification field alongside the
/// TTL, so probe idents are recognizable: `ident = 0xB7 << 8 | ttl`.
pub const IDENT_MAGIC: u8 = 0xb7;

/// Builds the probe train for one traced flow.
#[derive(Debug, Clone)]
pub struct ProbeBuilder {
    tuple: FiveTuple,
    seq: u32,
}

impl ProbeBuilder {
    /// Creates a builder for the given (post-SLB) five-tuple. `seq` is an
    /// arbitrary sequence number stamped into the probes (the agent uses
    /// the traced connection's current sequence so captures are easy to
    /// correlate; any value works).
    pub fn new(tuple: FiveTuple, seq: u32) -> Self {
        Self { tuple, seq }
    }

    /// Encodes a TTL into the Identification field.
    pub fn encode_ident(ttl: u8) -> u16 {
        u16::from_be_bytes([IDENT_MAGIC, ttl])
    }

    /// Decodes an Identification field back into a TTL, if it carries the
    /// probe magic.
    pub fn decode_ident(ident: u16) -> Option<u8> {
        let [magic, ttl] = ident.to_be_bytes();
        (magic == IDENT_MAGIC && (1..=MAX_PROBE_TTL).contains(&ttl)).then_some(ttl)
    }

    /// Emits the full probe packet (IPv4 + TCP, 40 bytes) for one TTL.
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is 0 or exceeds [`MAX_PROBE_TTL`].
    pub fn probe(&self, ttl: u8) -> Vec<u8> {
        assert!(
            (1..=MAX_PROBE_TTL).contains(&ttl),
            "probe TTL must be in 1..={MAX_PROBE_TTL}, got {ttl}"
        );
        let ip = Ipv4Repr {
            src_addr: self.tuple.src_ip,
            dst_addr: self.tuple.dst_ip,
            protocol: self.tuple.protocol.number(),
            ttl,
            ident: Self::encode_ident(ttl),
            payload_len: crate::tcp::HEADER_LEN,
        };
        let tcp = TcpRepr {
            src_port: self.tuple.src_port,
            dst_port: self.tuple.dst_port,
            seq: self.seq,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0,
        };
        let mut buf = vec![0u8; ip.buffer_len()];
        ip.emit(&mut buf);
        tcp.emit(&mut buf[crate::ipv4::HEADER_LEN..]);
        let mut seg = TcpSegment::new_unchecked(&mut buf[crate::ipv4::HEADER_LEN..]);
        seg.fill_bad_checksum(self.tuple.src_ip, self.tuple.dst_ip);
        buf
    }

    /// The five-tuple the probes carry.
    pub fn tuple(&self) -> FiveTuple {
        self.tuple
    }
}

/// A decoded ICMP Time Exceeded reply attributed to a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeReply {
    /// The switch interface that answered.
    pub responder: Ipv4Addr,
    /// The probe's TTL (i.e. the hop index, 1-based) recovered from the
    /// embedded Identification field.
    pub hop: u8,
    /// The five-tuple of the traced flow recovered from the embedded
    /// header + payload — lets one host run concurrent traceroutes.
    pub tuple: FiveTuple,
}

/// Parses an ICMP Time Exceeded reply (as raw ICMP bytes plus the outer
/// source address) into a [`ProbeReply`], verifying it answers one of our
/// probes via the ident magic.
///
/// Returns `Err(WireError::Malformed)` for replies that are valid ICMP but
/// do not correspond to a 007 probe.
pub fn parse_time_exceeded(from: Ipv4Addr, icmp_bytes: &[u8]) -> Result<ProbeReply, WireError> {
    let msg = IcmpTimeExceeded::parse(icmp_bytes)?;
    reply_from_message(from, &msg)
}

/// Converts an already-parsed [`IcmpTimeExceeded`] into a [`ProbeReply`].
pub fn reply_from_message(from: Ipv4Addr, msg: &IcmpTimeExceeded) -> Result<ProbeReply, WireError> {
    let hop = ProbeBuilder::decode_ident(msg.original.ident).ok_or(WireError::Malformed)?;
    let protocol = crate::five_tuple::Protocol::from_number(msg.original.protocol)
        .ok_or(WireError::Malformed)?;
    let (src_port, dst_port) = msg.original_ports();
    Ok(ProbeReply {
        responder: from,
        hop,
        tuple: FiveTuple {
            src_ip: msg.original.src_addr,
            dst_ip: msg.original.dst_addr,
            src_port,
            dst_port,
            protocol,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icmp::EMBEDDED_PAYLOAD_LEN;
    use crate::ipv4::Ipv4Packet;
    use proptest::prelude::*;

    fn tuple() -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 1, 9),
            51000,
            Ipv4Addr::new(10, 4, 2, 7),
            443,
        )
    }

    #[test]
    fn train_has_15_probes_with_staggered_ttls() {
        let b = ProbeBuilder::new(tuple(), 42);
        // The paper's "15 appropriately crafted TCP packets with TTL
        // values ranging 0–15": one probe per TTL `1..=MAX_PROBE_TTL`.
        let train: Vec<Vec<u8>> = (1..=MAX_PROBE_TTL).map(|ttl| b.probe(ttl)).collect();
        assert_eq!(train.len(), 15);
        for (i, probe) in train.iter().enumerate() {
            let pkt = Ipv4Packet::new_checked(&probe[..]).unwrap();
            assert_eq!(pkt.ttl(), i as u8 + 1);
            assert_eq!(pkt.ident(), ProbeBuilder::encode_ident(i as u8 + 1));
            assert!(pkt.verify_checksum(), "IP header checksum must be valid");
        }
    }

    #[test]
    fn probe_five_tuple_matches_flow() {
        let t = tuple();
        let b = ProbeBuilder::new(t, 42);
        let probe = b.probe(5);
        let pkt = Ipv4Packet::new_checked(&probe[..]).unwrap();
        assert_eq!(pkt.src_addr(), t.src_ip);
        assert_eq!(pkt.dst_addr(), t.dst_ip);
        assert_eq!(pkt.protocol(), 6);
        let seg = TcpSegment::new_checked(pkt.payload()).unwrap();
        assert_eq!(seg.src_port(), t.src_port);
        assert_eq!(seg.dst_port(), t.dst_port);
    }

    #[test]
    fn probe_tcp_checksum_is_deliberately_bad() {
        let t = tuple();
        let probe = ProbeBuilder::new(t, 42).probe(3);
        let pkt = Ipv4Packet::new_checked(&probe[..]).unwrap();
        let seg = TcpSegment::new_checked(pkt.payload()).unwrap();
        assert!(!seg.verify_checksum(t.src_ip, t.dst_ip));
    }

    #[test]
    #[should_panic(expected = "probe TTL")]
    fn zero_ttl_rejected() {
        let _ = ProbeBuilder::new(tuple(), 0).probe(0);
    }

    #[test]
    fn ident_roundtrip() {
        for ttl in 1..=MAX_PROBE_TTL {
            assert_eq!(
                ProbeBuilder::decode_ident(ProbeBuilder::encode_ident(ttl)),
                Some(ttl)
            );
        }
        assert_eq!(ProbeBuilder::decode_ident(0x0005), None); // no magic
        assert_eq!(ProbeBuilder::decode_ident(0xb700), None); // ttl 0
        assert_eq!(ProbeBuilder::decode_ident(0xb710), None); // ttl 16
    }

    #[test]
    fn reply_roundtrip_through_icmp() {
        // Simulate the switch: take probe at ttl=4, embed its header in an
        // ICMP Time Exceeded, and parse the reply.
        let t = tuple();
        let probe = ProbeBuilder::new(t, 7).probe(4);
        let pkt = Ipv4Packet::new_checked(&probe[..]).unwrap();
        let repr = Ipv4Repr::parse(&pkt).unwrap();
        let mut payload = [0u8; EMBEDDED_PAYLOAD_LEN];
        payload.copy_from_slice(&pkt.payload()[..EMBEDDED_PAYLOAD_LEN]);
        let msg = IcmpTimeExceeded {
            original: repr,
            original_payload: payload,
        };
        let mut buf = vec![0u8; msg.buffer_len()];
        msg.emit(&mut buf);

        let switch_ip = Ipv4Addr::new(10, 200, 0, 17);
        let reply = parse_time_exceeded(switch_ip, &buf).unwrap();
        assert_eq!(reply.responder, switch_ip);
        assert_eq!(reply.hop, 4);
        assert_eq!(reply.tuple, t);
    }

    #[test]
    fn foreign_icmp_rejected() {
        // An ICMP reply whose embedded ident lacks the probe magic must be
        // rejected (it answers someone else's packet).
        let msg = IcmpTimeExceeded {
            original: Ipv4Repr {
                src_addr: Ipv4Addr::new(10, 0, 0, 1),
                dst_addr: Ipv4Addr::new(10, 0, 0, 2),
                protocol: 6,
                ttl: 0,
                ident: 0x1234,
                payload_len: EMBEDDED_PAYLOAD_LEN,
            },
            original_payload: [0; 8],
        };
        let mut buf = vec![0u8; msg.buffer_len()];
        msg.emit(&mut buf);
        assert_eq!(
            parse_time_exceeded(Ipv4Addr::new(10, 9, 9, 9), &buf).unwrap_err(),
            WireError::Malformed
        );
    }

    proptest! {
        #[test]
        fn any_probe_roundtrips(src in any::<[u8;4]>(), dst in any::<[u8;4]>(),
                                sp in any::<u16>(), dp in any::<u16>(),
                                ttl in 1u8..=MAX_PROBE_TTL) {
            let t = FiveTuple::tcp(src.into(), sp, dst.into(), dp);
            let probe = ProbeBuilder::new(t, 99).probe(ttl);
            let pkt = Ipv4Packet::new_checked(&probe[..]).unwrap();
            prop_assert_eq!(pkt.ttl(), ttl);
            prop_assert_eq!(ProbeBuilder::decode_ident(pkt.ident()), Some(ttl));
            let seg = TcpSegment::new_checked(pkt.payload()).unwrap();
            prop_assert_eq!(seg.src_port(), sp);
            prop_assert_eq!(seg.dst_port(), dp);
            // the probe must never verify as a real segment
            prop_assert!(!seg.verify_checksum(t.src_ip, t.dst_ip));
        }
    }
}
