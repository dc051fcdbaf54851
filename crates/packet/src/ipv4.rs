//! IPv4 header parsing and building.
//!
//! Follows the smoltcp idiom: [`Ipv4Packet`] is a zero-copy view over any
//! `AsRef<[u8]>` buffer with field accessors at fixed offsets, and
//! [`Ipv4Repr`] is the owned, validated high-level representation. 007's
//! probes rely on three IPv4 fields specifically: **TTL** (staggered 0–15),
//! **Identification** (encodes the TTL so concurrent traceroutes can be
//! disambiguated, §4.2), and the **header checksum** (valid — only the TCP
//! checksum is deliberately corrupted).

use crate::checksum;
use crate::WireError;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Minimum (and, without options, only) IPv4 header length in bytes.
pub const HEADER_LEN: usize = 20;

mod field {
    use std::ops::Range;
    pub const VER_IHL: usize = 0;
    pub const DSCP_ECN: usize = 1;
    pub const TOTAL_LEN: Range<usize> = 2..4;
    pub const IDENT: Range<usize> = 4..6;
    pub const FLAGS_FRAG: Range<usize> = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: Range<usize> = 10..12;
    pub const SRC: Range<usize> = 12..16;
    pub const DST: Range<usize> = 16..20;
}

/// A read/write view of an IPv4 packet in a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps a buffer without any checks. Accessors may panic on truncated
    /// buffers; prefer [`Ipv4Packet::new_checked`].
    pub fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Wraps a buffer after validating length, version, and IHL.
    pub fn new_checked(buffer: T) -> Result<Self, WireError> {
        let pkt = Self::new_unchecked(buffer);
        pkt.check()?;
        Ok(pkt)
    }

    fn check(&self) -> Result<(), WireError> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if data[field::VER_IHL] >> 4 != 4 {
            return Err(WireError::Malformed);
        }
        let ihl = usize::from(data[field::VER_IHL] & 0x0f) * 4;
        if ihl < HEADER_LEN || data.len() < ihl {
            return Err(WireError::Malformed);
        }
        let total = usize::from(self.total_len());
        if total < ihl || data.len() < total {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    /// Releases the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_IHL] & 0x0f) * 4
    }

    /// Total length field (header + payload).
    pub fn total_len(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::TOTAL_LEN][0], d[field::TOTAL_LEN][1]])
    }

    /// Identification field — 007 encodes the probe TTL here.
    pub fn ident(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::IDENT][0], d[field::IDENT][1]])
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// IP protocol number (6 = TCP).
    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[field::PROTOCOL]
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(
            d[field::SRC][0],
            d[field::SRC][1],
            d[field::SRC][2],
            d[field::SRC][3],
        )
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(
            d[field::DST][0],
            d[field::DST][1],
            d[field::DST][2],
            d[field::DST][3],
        )
    }

    /// True when the header checksum verifies.
    pub fn verify_checksum(&self) -> bool {
        let hdr = &self.buffer.as_ref()[..self.header_len()];
        checksum::verify(hdr)
    }

    /// The payload bytes after the header, bounded by `total_len`.
    pub fn payload(&self) -> &[u8] {
        let hl = self.header_len();
        let total = usize::from(self.total_len()).min(self.buffer.as_ref().len());
        &self.buffer.as_ref()[hl..total]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Recomputes and stores the header checksum.
    pub fn fill_checksum(&mut self) {
        let hl = self.header_len();
        let buf = self.buffer.as_mut();
        buf[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let c = checksum::checksum(&buf[..hl]);
        buf[field::CHECKSUM].copy_from_slice(&c.to_be_bytes());
    }
}

/// Owned, validated representation of an IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Repr {
    /// Source address.
    pub src_addr: Ipv4Addr,
    /// Destination address.
    pub dst_addr: Ipv4Addr,
    /// IP protocol number.
    pub protocol: u8,
    /// Time to live.
    pub ttl: u8,
    /// Identification field.
    pub ident: u16,
    /// Payload length in bytes (total length = 20 + payload).
    pub payload_len: usize,
}

impl Ipv4Repr {
    /// Parses and validates a packet view into a repr.
    pub fn parse<T: AsRef<[u8]>>(packet: &Ipv4Packet<T>) -> Result<Self, WireError> {
        if !packet.verify_checksum() {
            return Err(WireError::Checksum);
        }
        Ok(Self {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            ttl: packet.ttl(),
            ident: packet.ident(),
            payload_len: usize::from(packet.total_len()) - packet.header_len(),
        })
    }

    /// Total emitted length (header + payload).
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emits the header into the first 20 bytes of `buf` and fills the
    /// checksum. `buf` must hold at least [`Ipv4Repr::buffer_len`] bytes.
    pub fn emit(&self, buf: &mut [u8]) {
        assert!(
            buf.len() >= self.buffer_len(),
            "buffer too small: {} < {}",
            buf.len(),
            self.buffer_len()
        );
        buf[field::VER_IHL] = 0x45;
        buf[field::DSCP_ECN] = 0;
        let total = self.buffer_len() as u16;
        buf[field::TOTAL_LEN].copy_from_slice(&total.to_be_bytes());
        buf[field::IDENT].copy_from_slice(&self.ident.to_be_bytes());
        buf[field::FLAGS_FRAG].copy_from_slice(&[0x40, 0x00]); // DF, no fragments
        buf[field::TTL] = self.ttl;
        buf[field::PROTOCOL] = self.protocol;
        buf[field::CHECKSUM].copy_from_slice(&[0, 0]);
        buf[field::SRC].copy_from_slice(&self.src_addr.octets());
        buf[field::DST].copy_from_slice(&self.dst_addr.octets());
        let c = checksum::checksum(&buf[..HEADER_LEN]);
        buf[field::CHECKSUM].copy_from_slice(&c.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src_addr: Ipv4Addr::new(10, 1, 2, 3),
            dst_addr: Ipv4Addr::new(10, 4, 5, 6),
            protocol: 6,
            ttl: 7,
            ident: 0x0007,
            payload_len: 20,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(pkt.verify_checksum());
        let parsed = Ipv4Repr::parse(&pkt).unwrap();
        assert_eq!(parsed, repr);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Ipv4Packet::new_checked(&[0u8; 10][..]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = [0u8; 20];
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn bad_ihl_rejected() {
        let mut buf = [0u8; 20];
        buf[0] = 0x43; // IHL = 3 words < 20 bytes
        buf[2..4].copy_from_slice(&20u16.to_be_bytes());
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn total_len_longer_than_buffer_rejected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        buf.truncate(30); // total_len says 40
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn corrupted_checksum_detected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        buf[10] ^= 0xff;
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(!pkt.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&pkt).unwrap_err(), WireError::Checksum);
    }

    #[test]
    fn payload_view_bounds() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len() + 5]; // trailing garbage
        repr.emit(&mut buf);
        buf[20] = 0xaa;
        let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.payload().len(), 20);
        assert_eq!(pkt.payload()[0], 0xaa);
    }

    proptest! {
        #[test]
        fn parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            if let Ok(pkt) = Ipv4Packet::new_checked(&data[..]) {
                let _ = pkt.ttl();
                let _ = pkt.ident();
                let _ = pkt.src_addr();
                let _ = pkt.dst_addr();
                let _ = pkt.payload();
                let _ = pkt.verify_checksum();
                let _ = Ipv4Repr::parse(&pkt);
            }
        }

        #[test]
        fn arbitrary_repr_roundtrips(src in any::<[u8;4]>(), dst in any::<[u8;4]>(),
                                     ttl in any::<u8>(), ident in any::<u16>(),
                                     payload_len in 0usize..64) {
            let repr = Ipv4Repr {
                src_addr: src.into(),
                dst_addr: dst.into(),
                protocol: 6,
                ttl,
                ident,
                payload_len,
            };
            let mut buf = vec![0u8; repr.buffer_len()];
            repr.emit(&mut buf);
            let pkt = Ipv4Packet::new_checked(&buf[..]).unwrap();
            prop_assert_eq!(Ipv4Repr::parse(&pkt).unwrap(), repr);
        }
    }
}
