//! The ECMP five-tuple.
//!
//! "All packets of a given flow, defined by the five-tuple, follow the same
//! path. Thus, traceroute packets must have the same five-tuple as the flow
//! we want to trace." (paper §4.2). The five-tuple is therefore the single
//! identity every layer of this workspace agrees on: the fabric hashes it
//! for ECMP, the monitoring agent keys retransmission events by it, and the
//! path discovery agent crafts probes that reproduce it exactly.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// Transport protocol carried in the IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum Protocol {
    /// Transmission Control Protocol (IP protocol 6).
    Tcp = 6,
    /// User Datagram Protocol (IP protocol 17).
    Udp = 17,
}

impl Protocol {
    /// The IP protocol number.
    pub fn number(self) -> u8 {
        self as u8
    }

    /// Parses an IP protocol number.
    pub fn from_number(n: u8) -> Option<Self> {
        match n {
            6 => Some(Protocol::Tcp),
            17 => Some(Protocol::Udp),
            _ => None,
        }
    }
}

/// A connection five-tuple: source/destination address and port plus
/// protocol. ECMP switches hash exactly these fields (plus a per-switch
/// seed), so two packets with equal five-tuples take equal paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source TCP/UDP port.
    pub src_port: u16,
    /// Destination TCP/UDP port.
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl FiveTuple {
    /// Convenience constructor for a TCP five-tuple.
    pub fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        Self {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: Protocol::Tcp,
        }
    }

    /// The tuple with source and destination swapped — the five-tuple of
    /// packets on the reverse path (ACKs).
    pub fn reversed(&self) -> Self {
        Self {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// Canonical 13-byte encoding hashed by ECMP implementations:
    /// `src_ip ‖ dst_ip ‖ src_port ‖ dst_port ‖ protocol`, all big-endian.
    pub fn to_bytes(&self) -> [u8; 13] {
        let mut out = [0u8; 13];
        out[0..4].copy_from_slice(&self.src_ip.octets());
        out[4..8].copy_from_slice(&self.dst_ip.octets());
        out[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        out[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        out[12] = self.protocol.number();
        out
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {}:{} -> {}:{}",
            self.protocol, self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 1, 2),
            43210,
            Ipv4Addr::new(10, 8, 3, 4),
            443,
        )
    }

    #[test]
    fn protocol_numbers_roundtrip() {
        assert_eq!(Protocol::from_number(6), Some(Protocol::Tcp));
        assert_eq!(Protocol::from_number(17), Some(Protocol::Udp));
        assert_eq!(Protocol::from_number(1), None);
        assert_eq!(Protocol::Tcp.number(), 6);
    }

    #[test]
    fn reversed_twice_is_identity() {
        let t = sample();
        assert_eq!(t.reversed().reversed(), t);
        assert_ne!(t.reversed(), t);
    }

    #[test]
    fn byte_encoding_layout() {
        let t = sample();
        let b = t.to_bytes();
        assert_eq!(&b[0..4], &[10, 0, 1, 2]);
        assert_eq!(&b[4..8], &[10, 8, 3, 4]);
        assert_eq!(u16::from_be_bytes([b[8], b[9]]), 43210);
        assert_eq!(u16::from_be_bytes([b[10], b[11]]), 443);
        assert_eq!(b[12], 6);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(sample().to_string(), "Tcp 10.0.1.2:43210 -> 10.8.3.4:443");
    }

    proptest! {
        #[test]
        fn distinct_tuples_distinct_bytes(a in any::<[u8;4]>(), b in any::<[u8;4]>(),
                                          pa in any::<u16>(), pb in any::<u16>()) {
            let t1 = FiveTuple::tcp(a.into(), pa, b.into(), pb);
            let t2 = t1.reversed();
            if t1 != t2 {
                prop_assert_ne!(t1.to_bytes(), t2.to_bytes());
            }
        }
    }
}
