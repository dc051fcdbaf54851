//! TCP segment parsing and building.
//!
//! Only the fixed 20-byte header matters to 007 (no options are needed by
//! the probes). The notable requirement from §4.2 is the ability to emit a
//! segment with a **deliberately bad checksum**: probe packets must never be
//! interpreted as in-band data by the destination, so 007 corrupts the TCP
//! checksum while keeping the IPv4 header (and thus forwarding behaviour)
//! intact.

use crate::checksum;
use crate::WireError;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Fixed TCP header length (no options) in bytes.
pub const HEADER_LEN: usize = 20;

mod field {
    use std::ops::Range;
    pub const SRC_PORT: Range<usize> = 0..2;
    pub const DST_PORT: Range<usize> = 2..4;
    pub const SEQ: Range<usize> = 4..8;
    pub const ACK: Range<usize> = 8..12;
    pub const DATA_OFF: usize = 12;
    pub const FLAGS: usize = 13;
    pub const WINDOW: Range<usize> = 14..16;
    pub const CHECKSUM: Range<usize> = 16..18;
    pub const URGENT: Range<usize> = 18..20;
}

/// TCP flag bits (subset 007 cares about).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// True when all bits of `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

/// A read/write view of a TCP segment in a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wraps a buffer without checks.
    pub fn new_unchecked(buffer: T) -> Self {
        Self { buffer }
    }

    /// Wraps a buffer after validating the length against the data offset.
    pub fn new_checked(buffer: T) -> Result<Self, WireError> {
        let seg = Self::new_unchecked(buffer);
        let data = seg.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let off = seg.header_len();
        if off < HEADER_LEN {
            return Err(WireError::Malformed);
        }
        if data.len() < off {
            return Err(WireError::Truncated);
        }
        Ok(seg)
    }

    /// Header length from the data-offset field, in bytes.
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::DATA_OFF] >> 4) * 4
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::SRC_PORT][0], d[field::SRC_PORT][1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::DST_PORT][0], d[field::DST_PORT][1]])
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        let d = self.buffer.as_ref();
        u32::from_be_bytes([
            d[field::SEQ][0],
            d[field::SEQ][1],
            d[field::SEQ][2],
            d[field::SEQ][3],
        ])
    }

    /// Acknowledgment number.
    pub fn ack(&self) -> u32 {
        let d = self.buffer.as_ref();
        u32::from_be_bytes([
            d[field::ACK][0],
            d[field::ACK][1],
            d[field::ACK][2],
            d[field::ACK][3],
        ])
    }

    /// Flag bits.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.buffer.as_ref()[field::FLAGS] & 0x3f)
    }

    /// Window field.
    pub fn window(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::WINDOW][0], d[field::WINDOW][1]])
    }

    /// Verifies the TCP checksum against the pseudo-header for the given
    /// endpoints. 007 probes intentionally fail this.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let data = self.buffer.as_ref();
        let acc = checksum::pseudo_header_sum(src, dst, 6, data.len() as u16);
        checksum::finish(checksum::sum(acc, data)) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpSegment<T> {
    /// Computes and stores the correct checksum for the given endpoints.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        let data = self.buffer.as_mut();
        data[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let c = checksum::tcp_checksum(src, dst, data);
        data[field::CHECKSUM].copy_from_slice(&c.to_be_bytes());
    }

    /// Stores a checksum guaranteed to be wrong for the given endpoints —
    /// the §4.2 "deliberately bad checksum". Implemented as the correct
    /// checksum XOR `0xffff` (never equal to the correct value).
    pub fn fill_bad_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        self.fill_checksum(src, dst);
        let data = self.buffer.as_mut();
        let c = u16::from_be_bytes([data[field::CHECKSUM][0], data[field::CHECKSUM][1]]) ^ 0xffff;
        data[field::CHECKSUM].copy_from_slice(&c.to_be_bytes());
    }
}

/// Owned, validated representation of a fixed-size TCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpRepr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpRepr {
    /// Parses a segment view (checksum not verified here; probes are
    /// *expected* to carry bad checksums).
    pub fn parse<T: AsRef<[u8]>>(seg: &TcpSegment<T>) -> Self {
        Self {
            src_port: seg.src_port(),
            dst_port: seg.dst_port(),
            seq: seg.seq(),
            ack: seg.ack(),
            flags: seg.flags(),
            window: seg.window(),
        }
    }

    /// Emits the fixed header into the first 20 bytes of `buf`, leaving the
    /// checksum zeroed (callers pick [`TcpSegment::fill_checksum`] or
    /// [`TcpSegment::fill_bad_checksum`]).
    pub fn emit(&self, buf: &mut [u8]) {
        assert!(buf.len() >= HEADER_LEN, "TCP buffer too small");
        buf[field::SRC_PORT].copy_from_slice(&self.src_port.to_be_bytes());
        buf[field::DST_PORT].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[field::SEQ].copy_from_slice(&self.seq.to_be_bytes());
        buf[field::ACK].copy_from_slice(&self.ack.to_be_bytes());
        buf[field::DATA_OFF] = 5 << 4;
        buf[field::FLAGS] = self.flags.0;
        buf[field::WINDOW].copy_from_slice(&self.window.to_be_bytes());
        buf[field::CHECKSUM].copy_from_slice(&[0, 0]);
        buf[field::URGENT].copy_from_slice(&[0, 0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn sample_repr() -> TcpRepr {
        TcpRepr {
            src_port: 50123,
            dst_port: 443,
            seq: 0x01020304,
            ack: 0x05060708,
            flags: TcpFlags::ACK,
            window: 8192,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = sample_repr();
        let mut buf = [0u8; HEADER_LEN];
        repr.emit(&mut buf);
        let seg = TcpSegment::new_checked(&buf[..]).unwrap();
        assert_eq!(TcpRepr::parse(&seg), repr);
    }

    #[test]
    fn good_checksum_verifies() {
        let repr = sample_repr();
        let mut buf = [0u8; HEADER_LEN];
        repr.emit(&mut buf);
        let mut seg = TcpSegment::new_unchecked(&mut buf[..]);
        seg.fill_checksum(SRC, DST);
        let seg = TcpSegment::new_checked(&buf[..]).unwrap();
        assert!(seg.verify_checksum(SRC, DST));
    }

    #[test]
    fn bad_checksum_never_verifies() {
        let repr = sample_repr();
        let mut buf = [0u8; HEADER_LEN];
        repr.emit(&mut buf);
        let mut seg = TcpSegment::new_unchecked(&mut buf[..]);
        seg.fill_bad_checksum(SRC, DST);
        let seg = TcpSegment::new_checked(&buf[..]).unwrap();
        assert!(!seg.verify_checksum(SRC, DST));
    }

    #[test]
    fn checksum_binds_to_endpoints() {
        let repr = sample_repr();
        let mut buf = [0u8; HEADER_LEN];
        repr.emit(&mut buf);
        let mut seg = TcpSegment::new_unchecked(&mut buf[..]);
        seg.fill_checksum(SRC, DST);
        let seg = TcpSegment::new_checked(&buf[..]).unwrap();
        assert!(!seg.verify_checksum(SRC, Ipv4Addr::new(10, 0, 0, 3)));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            TcpSegment::new_checked(&[0u8; 10][..]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = [0u8; HEADER_LEN];
        buf[12] = 2 << 4; // offset 8 bytes < 20
        assert_eq!(
            TcpSegment::new_checked(&buf[..]).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn flags_operations() {
        let f = TcpFlags(TcpFlags::SYN.0 | TcpFlags::ACK.0);
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
    }

    proptest! {
        #[test]
        fn parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            if let Ok(seg) = TcpSegment::new_checked(&data[..]) {
                let _ = TcpRepr::parse(&seg);
                let _ = seg.verify_checksum(SRC, DST);
            }
        }

        #[test]
        fn arbitrary_repr_roundtrips(sp in any::<u16>(), dp in any::<u16>(),
                                     seq in any::<u32>(), ack in any::<u32>(),
                                     flags in 0u8..0x40, window in any::<u16>()) {
            let repr = TcpRepr { src_port: sp, dst_port: dp, seq, ack,
                                 flags: TcpFlags(flags), window };
            let mut buf = [0u8; HEADER_LEN];
            repr.emit(&mut buf);
            let seg = TcpSegment::new_checked(&buf[..]).unwrap();
            prop_assert_eq!(TcpRepr::parse(&seg), repr);
        }

        #[test]
        fn bad_checksum_always_differs_from_good(sp in any::<u16>(), dp in any::<u16>()) {
            let repr = TcpRepr { src_port: sp, dst_port: dp, seq: 1, ack: 2,
                                 flags: TcpFlags::ACK, window: 64 };
            let mut good = [0u8; HEADER_LEN];
            repr.emit(&mut good);
            let mut bad = good;
            TcpSegment::new_unchecked(&mut good[..]).fill_checksum(SRC, DST);
            TcpSegment::new_unchecked(&mut bad[..]).fill_bad_checksum(SRC, DST);
            prop_assert_ne!(&good[field::CHECKSUM], &bad[field::CHECKSUM]);
            prop_assert!(!TcpSegment::new_unchecked(&bad[..]).verify_checksum(SRC, DST));
        }
    }
}
