//! ICMP Time Exceeded messages (type 11, code 0).
//!
//! When a switch decrements a probe's TTL to zero it answers with an ICMP
//! Time Exceeded message whose payload embeds the original IPv4 header plus
//! the first 8 bytes of its payload (RFC 792). 007's path discovery agent
//! reads two things out of that reply: the **source address** (which switch
//! answered — resolved to a switch name via the topology's alias map) and
//! the embedded **IPv4 Identification field** (which probe, i.e. which TTL,
//! this reply answers — the §4.2 disambiguation trick).

use crate::checksum;
use crate::ipv4::{self, Ipv4Packet, Ipv4Repr};
use crate::WireError;
use serde::{Deserialize, Serialize};

/// ICMP message type for Time Exceeded.
pub const TYPE_TIME_EXCEEDED: u8 = 11;
/// Code 0: time to live exceeded in transit.
pub const CODE_TTL_IN_TRANSIT: u8 = 0;
/// ICMP header length (type, code, checksum, unused).
pub const ICMP_HEADER_LEN: usize = 8;
/// Number of original-datagram payload bytes embedded per RFC 792.
pub const EMBEDDED_PAYLOAD_LEN: usize = 8;

/// An owned ICMP Time Exceeded message: the embedded original header and
/// the leading bytes of its payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IcmpTimeExceeded {
    /// The IPv4 header of the datagram whose TTL expired.
    pub original: Ipv4Repr,
    /// First 8 bytes of the expired datagram's payload (the start of the
    /// TCP header: source and destination port, sequence number).
    pub original_payload: [u8; EMBEDDED_PAYLOAD_LEN],
}

impl IcmpTimeExceeded {
    /// Total emitted length: ICMP header + embedded IPv4 header + 8 bytes.
    pub fn buffer_len(&self) -> usize {
        ICMP_HEADER_LEN + ipv4::HEADER_LEN + EMBEDDED_PAYLOAD_LEN
    }

    /// Emits the ICMP message (with valid ICMP checksum) into `buf`.
    pub fn emit(&self, buf: &mut [u8]) {
        assert!(buf.len() >= self.buffer_len(), "ICMP buffer too small");
        buf[0] = TYPE_TIME_EXCEEDED;
        buf[1] = CODE_TTL_IN_TRANSIT;
        buf[2..4].copy_from_slice(&[0, 0]); // checksum placeholder
        buf[4..8].copy_from_slice(&[0, 0, 0, 0]); // unused

        // Embed the original header. Note: the original is embedded as seen
        // at the expiring hop, i.e. with TTL 0 — but its *ident* is intact,
        // which is all 007 needs.
        let mut embedded = Ipv4Repr {
            payload_len: EMBEDDED_PAYLOAD_LEN,
            ..self.original
        };
        embedded.ttl = 0;
        embedded.emit(&mut buf[ICMP_HEADER_LEN..]);
        buf[ICMP_HEADER_LEN + ipv4::HEADER_LEN
            ..ICMP_HEADER_LEN + ipv4::HEADER_LEN + EMBEDDED_PAYLOAD_LEN]
            .copy_from_slice(&self.original_payload);
        let len = self.buffer_len();
        let c = checksum::checksum(&buf[..len]);
        buf[2..4].copy_from_slice(&c.to_be_bytes());
    }

    /// Parses an ICMP Time Exceeded message.
    ///
    /// Returns [`WireError::Malformed`] for other ICMP types/codes,
    /// [`WireError::Checksum`] when the ICMP checksum fails, and
    /// [`WireError::Truncated`] when the embedded datagram is incomplete.
    pub fn parse(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() < ICMP_HEADER_LEN + ipv4::HEADER_LEN + EMBEDDED_PAYLOAD_LEN {
            return Err(WireError::Truncated);
        }
        if buf[0] != TYPE_TIME_EXCEEDED || buf[1] != CODE_TTL_IN_TRANSIT {
            return Err(WireError::Malformed);
        }
        if !checksum::verify(buf) {
            return Err(WireError::Checksum);
        }
        let inner = Ipv4Packet::new_checked(&buf[ICMP_HEADER_LEN..])?;
        // The embedded header was captured after TTL decrement; accept any
        // TTL but demand a valid embedded header checksum.
        let original = Ipv4Repr::parse(&inner)?;
        let payload = inner.payload();
        if payload.len() < EMBEDDED_PAYLOAD_LEN {
            return Err(WireError::Truncated);
        }
        let mut original_payload = [0u8; EMBEDDED_PAYLOAD_LEN];
        original_payload.copy_from_slice(&payload[..EMBEDDED_PAYLOAD_LEN]);
        Ok(Self {
            original,
            original_payload,
        })
    }

    /// The source/destination ports of the original TCP segment, recovered
    /// from the embedded payload bytes.
    pub fn original_ports(&self) -> (u16, u16) {
        (
            u16::from_be_bytes([self.original_payload[0], self.original_payload[1]]),
            u16::from_be_bytes([self.original_payload[2], self.original_payload[3]]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn sample() -> IcmpTimeExceeded {
        IcmpTimeExceeded {
            original: Ipv4Repr {
                src_addr: Ipv4Addr::new(10, 1, 1, 1),
                dst_addr: Ipv4Addr::new(10, 2, 2, 2),
                protocol: 6,
                ttl: 0,
                ident: 0x0005,
                payload_len: EMBEDDED_PAYLOAD_LEN,
            },
            original_payload: [0xc3, 0x50, 0x01, 0xbb, 0, 0, 0, 1],
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let msg = sample();
        let mut buf = vec![0u8; msg.buffer_len()];
        msg.emit(&mut buf);
        let parsed = IcmpTimeExceeded::parse(&buf).unwrap();
        assert_eq!(parsed.original.ident, 0x0005);
        assert_eq!(parsed.original.src_addr, Ipv4Addr::new(10, 1, 1, 1));
        assert_eq!(parsed.original_payload, msg.original_payload);
    }

    #[test]
    fn ports_recovered() {
        let msg = sample();
        assert_eq!(msg.original_ports(), (0xc350, 0x01bb)); // 50000 → 443
    }

    #[test]
    fn wrong_type_rejected() {
        let msg = sample();
        let mut buf = vec![0u8; msg.buffer_len()];
        msg.emit(&mut buf);
        buf[0] = 3; // destination unreachable
        assert_eq!(
            IcmpTimeExceeded::parse(&buf).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let msg = sample();
        let mut buf = vec![0u8; msg.buffer_len()];
        msg.emit(&mut buf);
        buf[5] ^= 0x01; // flip a bit in the unused field
        assert_eq!(
            IcmpTimeExceeded::parse(&buf).unwrap_err(),
            WireError::Checksum
        );
    }

    #[test]
    fn truncated_rejected() {
        let msg = sample();
        let mut buf = vec![0u8; msg.buffer_len()];
        msg.emit(&mut buf);
        assert_eq!(
            IcmpTimeExceeded::parse(&buf[..20]).unwrap_err(),
            WireError::Truncated
        );
    }

    proptest! {
        #[test]
        fn parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..96)) {
            let _ = IcmpTimeExceeded::parse(&data);
        }

        #[test]
        fn arbitrary_ident_roundtrips(ident in any::<u16>(), payload in any::<[u8;8]>()) {
            let msg = IcmpTimeExceeded {
                original: Ipv4Repr {
                    src_addr: Ipv4Addr::new(10, 0, 0, 1),
                    dst_addr: Ipv4Addr::new(10, 0, 0, 2),
                    protocol: 6,
                    ttl: 0,
                    ident,
                    payload_len: EMBEDDED_PAYLOAD_LEN,
                },
                original_payload: payload,
            };
            let mut buf = vec![0u8; msg.buffer_len()];
            msg.emit(&mut buf);
            let parsed = IcmpTimeExceeded::parse(&buf).unwrap();
            prop_assert_eq!(parsed.original.ident, ident);
            prop_assert_eq!(parsed.original_payload, payload);
        }
    }
}
