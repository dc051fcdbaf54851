//! The `AgentEvent` wire codec: how a host's 007 process puts evidence
//! on an actual socket to the centralized analysis agent (paper §6).
//!
//! The in-process streaming pipeline hands typed [`AgentEvent`]s from
//! the agents' buffer straight to the analysis intake; the
//! distributed service mode moves the same events over TCP or Unix
//! sockets as **length-prefixed frames**, in the `vigil_packet` idiom:
//! explicit big-endian layouts, checked parsing, an error enum per
//! failure shape, and proptest round-trips. No serde on the wire — the
//! frame layout is part of the protocol, not an implementation detail.
//!
//! ```text
//! frame := magic "007" (3B) | kind (1B) | payload_len (u32 BE) | checksum (u32 BE) | payload
//! ```
//!
//! The checksum is FNV-1a-32 over the kind byte, the length field, and
//! the payload — the wire is treated as unreliable (protocol v2): a
//! flipped bit anywhere in a frame is a typed [`FrameError::BadChecksum`]
//! (or a framing error), never a silently-wrong event.
//!
//! Frame kinds:
//!
//! | kind | frame | payload | direction |
//! |------|-------|---------|-----------|
//! | 1 | [`WireFrame::Hello`]     | version u16 ‖ flags u8 ‖ host_lo u32 ‖ host_hi u32 | agent → collector |
//! | 2 | `FlowOpen`               | host u32 ‖ seq u64 ‖ tuple 13B | agent → collector |
//! | 3 | `Evidence`               | seq u64 ‖ host u32 ‖ tuple 13B ‖ retx u32 ‖ complete u8 ‖ n u32 ‖ n × link u32 | agent → collector |
//! | 4 | `EpochTick`              | host u32 ‖ seq u64 ‖ epoch u64 | agent → collector |
//! | 5 | `Drain`                  | host u32 ‖ seq u64 | agent → collector |
//! | 6 | [`WireFrame::EpochDone`] | epoch u64 ‖ events u64 | agent → collector |
//! | 7 | [`WireFrame::ResumeAt`]  | epoch u64 | collector → agent |
//! | 8 | [`WireFrame::Heartbeat`] | (empty) | agent → collector |
//!
//! All integers big-endian; the 13-byte tuple is
//! [`FiveTuple::to_bytes`] (`src_ip ‖ dst_ip ‖ src_port ‖ dst_port ‖
//! protocol`). `Hello` must be a connection's first frame — it carries
//! the protocol version and the host-id range the connection will emit
//! for, which is what the collector's admission control checks.
//! `EpochDone` is the per-connection epoch barrier: the agent sends it
//! after the last event of an epoch, carrying the exact number of event
//! frames the epoch held, so the collector can verify completeness.
//! `ResumeAt { epoch }` is the collector's only utterance: every epoch
//! below `epoch` is settled; begin (or replay) at `epoch`. It serves as
//! the admission response after a `Hello`, the per-window ack
//! (`ResumeAt { w + 1 }`), and the replay request (`ResumeAt { w }` when
//! the window arrived incomplete). `Heartbeat` proves liveness while an
//! agent waits out a slow window.
//!
//! [`FrameReader::next_frame`] is strict (any framing error poisons the
//! stream); [`FrameReader::next_frame_lenient`] quarantines corrupt
//! bytes and resynchronizes on the next magic instead — the collector's
//! reading mode, with the skipped bytes surfaced via
//! [`FrameReader::quarantined_frames`] / [`quarantined_bytes`](FrameReader::quarantined_bytes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;

use std::fmt;
use std::io::{self, Read, Write};

use vigil_agents::{AgentEvent, TraceReport};
use vigil_packet::{FiveTuple, Protocol};
use vigil_topology::{HostId, LinkId};

/// The protocol version carried in every [`WireFrame::Hello`].
/// Version 2 added the header checksum, the `events` count on
/// [`WireFrame::EpochDone`], and the [`WireFrame::ResumeAt`] /
/// [`WireFrame::Heartbeat`] control frames.
pub const WIRE_VERSION: u16 = 2;

/// [`WireFrame::Hello`] flag: the agent reads collector responses
/// (acks, replay requests) and survives reconnects. The collector never
/// writes to a connection without this bit — writing into a socket a
/// fire-and-forget agent already closed raises a TCP reset that
/// discards any of its frames still buffered unread on the collector
/// side.
pub const HELLO_RESILIENT: u8 = 1;

/// Frame magic: every frame opens with these three bytes.
pub const MAGIC: [u8; 3] = *b"007";

/// Frames never carry more than this much payload; a length prefix
/// beyond it is [`FrameError::Malformed`], not an allocation request.
pub const MAX_PAYLOAD: usize = 1 << 20;

const HEADER_LEN: usize = 3 + 1 + 4 + 4;
const TUPLE_LEN: usize = 13;

const KIND_HELLO: u8 = 1;
const KIND_FLOW_OPEN: u8 = 2;
const KIND_EVIDENCE: u8 = 3;
const KIND_EPOCH_TICK: u8 = 4;
const KIND_DRAIN: u8 = 5;
const KIND_EPOCH_DONE: u8 = 6;
const KIND_RESUME_AT: u8 = 7;
const KIND_HEARTBEAT: u8 = 8;

/// FNV-1a-32 over the kind byte, the big-endian payload length, and the
/// payload bytes — the per-frame checksum of protocol v2.
pub fn frame_checksum(kind: u8, payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    let mut eat = |b: u8| {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    };
    eat(kind);
    for b in (payload.len() as u32).to_be_bytes() {
        eat(b);
    }
    for &b in payload {
        eat(b);
    }
    h
}

/// Errors produced when parsing a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does — read more bytes and retry.
    Truncated,
    /// The first bytes are not the `"007"` magic: this is not a frame
    /// stream (or the stream lost sync).
    BadMagic,
    /// The kind byte names no known frame kind.
    UnknownKind(u8),
    /// The header checksum does not cover the received bytes — the frame
    /// was corrupted in flight.
    BadChecksum,
    /// A length or field value is inconsistent with the layout.
    Malformed,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::Malformed => write!(f, "malformed frame payload"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One frame of the agent↔collector protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFrame {
    /// Connection handshake — must be the first frame. Carries the
    /// protocol version and the half-open host-id range `[host_lo,
    /// host_hi)` this connection emits events for.
    Hello {
        /// Protocol version ([`WIRE_VERSION`]).
        version: u16,
        /// Capability bits ([`HELLO_RESILIENT`]); unknown bits are
        /// ignored by the collector.
        flags: u8,
        /// First host id (inclusive).
        host_lo: u32,
        /// Last host id (exclusive).
        host_hi: u32,
    },
    /// A protocol event from a host agent.
    Event(AgentEvent),
    /// Per-connection epoch barrier: every event of `epoch` has been
    /// sent on this connection.
    EpochDone {
        /// The epoch that is now fully sent (0-based window index).
        epoch: u64,
        /// Event frames the epoch held on this connection — the
        /// collector checks its delivered count against this to decide
        /// between ack (`ResumeAt {epoch+1}`) and replay (`ResumeAt {epoch}`).
        events: u64,
    },
    /// Collector → agent: every epoch below `epoch` is settled; begin
    /// (or replay) at `epoch`. Sent after admission, as the per-window
    /// ack, and as the replay request for an incomplete window.
    ResumeAt {
        /// First unsettled epoch.
        epoch: u64,
    },
    /// Liveness beacon: no payload, no sequence — an agent waiting out a
    /// slow window sends these so the collector's idle timeout doesn't
    /// reap a healthy connection.
    Heartbeat,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Serializes one frame onto `out` (appending; the buffer is not
/// cleared). The emitted bytes always parse back to an equal frame —
/// the proptests pin that round-trip for every variant.
pub fn emit_frame(frame: &WireFrame, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(0); // kind, patched below
    put_u32(out, 0); // payload length, patched below
    put_u32(out, 0); // checksum, patched below
    let kind = match frame {
        WireFrame::Hello {
            version,
            flags,
            host_lo,
            host_hi,
        } => {
            put_u16(out, *version);
            out.push(*flags);
            put_u32(out, *host_lo);
            put_u32(out, *host_hi);
            KIND_HELLO
        }
        WireFrame::Event(event) => match event {
            AgentEvent::FlowOpen { host, seq, tuple } => {
                put_u32(out, host.0);
                put_u64(out, *seq);
                out.extend_from_slice(&tuple.to_bytes());
                KIND_FLOW_OPEN
            }
            AgentEvent::Evidence { seq, report } => {
                put_u64(out, *seq);
                put_u32(out, report.host.0);
                out.extend_from_slice(&report.tuple.to_bytes());
                put_u32(out, report.retransmissions);
                out.push(report.complete as u8);
                put_u32(out, report.links.len() as u32);
                for link in &report.links {
                    put_u32(out, link.0);
                }
                KIND_EVIDENCE
            }
            AgentEvent::EpochTick { host, seq, epoch } => {
                put_u32(out, host.0);
                put_u64(out, *seq);
                put_u64(out, *epoch);
                KIND_EPOCH_TICK
            }
            AgentEvent::Drain { host, seq } => {
                put_u32(out, host.0);
                put_u64(out, *seq);
                KIND_DRAIN
            }
        },
        WireFrame::EpochDone { epoch, events } => {
            put_u64(out, *epoch);
            put_u64(out, *events);
            KIND_EPOCH_DONE
        }
        WireFrame::ResumeAt { epoch } => {
            put_u64(out, *epoch);
            KIND_RESUME_AT
        }
        WireFrame::Heartbeat => KIND_HEARTBEAT,
    };
    out[start + 3] = kind;
    let payload_len = (out.len() - start - HEADER_LEN) as u32;
    out[start + 4..start + 8].copy_from_slice(&payload_len.to_be_bytes());
    let csum = frame_checksum(kind, &out[start + HEADER_LEN..]);
    out[start + 8..start + 12].copy_from_slice(&csum.to_be_bytes());
}

/// A checked, consuming reader over one frame's payload bytes.
struct Payload<'a> {
    buf: &'a [u8],
}

impl<'a> Payload<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() < n {
            return Err(FrameError::Malformed);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(FrameError::Malformed)?;
        self.buf = rest;
        Ok(*head)
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_be_bytes)
    }

    fn tuple(&mut self) -> Result<FiveTuple, FrameError> {
        let b = self.take(TUPLE_LEN)?;
        let protocol = Protocol::from_number(b[12]).ok_or(FrameError::Malformed)?;
        Ok(FiveTuple {
            src_ip: std::net::Ipv4Addr::new(b[0], b[1], b[2], b[3]),
            dst_ip: std::net::Ipv4Addr::new(b[4], b[5], b[6], b[7]),
            src_port: u16::from_be_bytes([b[8], b[9]]),
            dst_port: u16::from_be_bytes([b[10], b[11]]),
            protocol,
        })
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Malformed)
        }
    }
}

/// Parses one frame from the front of `buf`.
///
/// Returns the frame and the number of bytes it occupied.
/// [`FrameError::Truncated`] means `buf` holds a frame prefix — read
/// more bytes and retry; every other error is unrecoverable for the
/// position (a lenient reader resynchronizes on the next magic). Never
/// panics and never reads past the claimed frame, whatever the input.
pub fn parse_frame(buf: &[u8]) -> Result<(WireFrame, usize), FrameError> {
    let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
        // Report BadMagic as soon as the prefix can't be ours, so garbage
        // shorter than a header is not mistaken for a truncated frame.
        if !MAGIC.starts_with(&buf[..buf.len().min(3)]) {
            return Err(FrameError::BadMagic);
        }
        return Err(FrameError::Truncated);
    };
    if header[..3] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let kind = header[3];
    let payload_len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::Malformed);
    }
    let total = HEADER_LEN + payload_len;
    if buf.len() < total {
        return Err(FrameError::Truncated);
    }
    let claimed = u32::from_be_bytes([header[8], header[9], header[10], header[11]]);
    let payload = &buf[HEADER_LEN..total];
    if frame_checksum(kind, payload) != claimed {
        return Err(FrameError::BadChecksum);
    }
    let mut p = Payload { buf: payload };
    let frame = match kind {
        KIND_HELLO => {
            let version = p.u16()?;
            let flags = p.take(1)?[0];
            let host_lo = p.u32()?;
            let host_hi = p.u32()?;
            WireFrame::Hello {
                version,
                flags,
                host_lo,
                host_hi,
            }
        }
        KIND_FLOW_OPEN => {
            let host = HostId(p.u32()?);
            let seq = p.u64()?;
            let tuple = p.tuple()?;
            WireFrame::Event(AgentEvent::FlowOpen { host, seq, tuple })
        }
        KIND_EVIDENCE => {
            let seq = p.u64()?;
            let host = HostId(p.u32()?);
            let tuple = p.tuple()?;
            let retransmissions = p.u32()?;
            let complete = match p.take(1)?[0] {
                0 => false,
                1 => true,
                _ => return Err(FrameError::Malformed),
            };
            let n = p.u32()? as usize;
            // The link list must account for exactly the remaining bytes.
            let mut links = Vec::with_capacity(n.min(MAX_PAYLOAD / 4));
            for _ in 0..n {
                links.push(LinkId(p.u32()?));
            }
            WireFrame::Event(AgentEvent::Evidence {
                seq,
                report: TraceReport {
                    host,
                    tuple,
                    retransmissions,
                    links,
                    complete,
                },
            })
        }
        KIND_EPOCH_TICK => {
            let host = HostId(p.u32()?);
            let seq = p.u64()?;
            let epoch = p.u64()?;
            WireFrame::Event(AgentEvent::EpochTick { host, seq, epoch })
        }
        KIND_DRAIN => {
            let host = HostId(p.u32()?);
            let seq = p.u64()?;
            WireFrame::Event(AgentEvent::Drain { host, seq })
        }
        KIND_EPOCH_DONE => {
            let epoch = p.u64()?;
            let events = p.u64()?;
            WireFrame::EpochDone { epoch, events }
        }
        KIND_RESUME_AT => {
            let epoch = p.u64()?;
            WireFrame::ResumeAt { epoch }
        }
        KIND_HEARTBEAT => WireFrame::Heartbeat,
        other => return Err(FrameError::UnknownKind(other)),
    };
    p.finish()?;
    Ok((frame, total))
}

/// Blocking frame reader over any [`Read`] (a socket, a file, a pipe).
///
/// Buffers internally; [`next_frame`](Self::next_frame) returns `None`
/// on a clean end-of-stream (EOF on a frame boundary) and an error when
/// the peer sent garbage or hung up mid-frame.
/// [`next_frame_lenient`](Self::next_frame_lenient) quarantines garbage
/// and resynchronizes instead.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    quarantined_frames: u64,
    quarantined_bytes: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(8 * 1024),
            start: 0,
            quarantined_frames: 0,
            quarantined_bytes: 0,
        }
    }

    /// Resync events so far: each is one run of quarantined bytes that
    /// [`next_frame_lenient`](Self::next_frame_lenient) skipped to find
    /// the next frame boundary (≈ corrupt frames seen).
    pub fn quarantined_frames(&self) -> u64 {
        self.quarantined_frames
    }

    /// Total bytes skipped while resynchronizing.
    pub fn quarantined_bytes(&self) -> u64 {
        self.quarantined_bytes
    }

    fn reclaim(&mut self) {
        // Reclaim consumed space once it dominates the buffer.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 8 * 1024];
        let n = self.inner.read(&mut chunk)?;
        if n == 0 {
            return Ok(false);
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(true)
    }

    /// Reads the next frame, blocking for more bytes as needed. Strict:
    /// any framing error poisons the stream (`InvalidData`).
    pub fn next_frame(&mut self) -> io::Result<Option<WireFrame>> {
        self.read_frame(false)
    }

    /// Reads the next frame, quarantining garbage: on any framing error
    /// other than truncation the reader skips forward to the next `"007"`
    /// magic (counting the skipped run in the quarantine counters) and
    /// keeps going. Mid-frame EOF is still an error — a torn connection
    /// is the caller's signal to reconcile, not bytes to skip.
    ///
    /// One caveat is inherent to length-prefixed framing: a corrupted
    /// length field that stays within [`MAX_PAYLOAD`] makes the reader
    /// wait for that many bytes before the checksum unmasks the frame;
    /// recovery then re-finds every swallowed frame (the buffer is only
    /// discarded byte-by-byte past verified boundaries), but a stalled
    /// peer can hold the wait — the collector's idle timeout bounds it.
    pub fn next_frame_lenient(&mut self) -> io::Result<Option<WireFrame>> {
        self.read_frame(true)
    }

    /// The one read loop: `lenient` decides whether a framing error
    /// poisons the stream or is quarantined and skipped.
    fn read_frame(&mut self, lenient: bool) -> io::Result<Option<WireFrame>> {
        loop {
            match parse_frame(&self.buf[self.start..]) {
                Ok((frame, used)) => {
                    self.start += used;
                    self.reclaim();
                    return Ok(Some(frame));
                }
                Err(FrameError::Truncated) => {
                    if !self.fill()? {
                        if self.start == self.buf.len() {
                            return Ok(None); // clean EOF on a boundary
                        }
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ));
                    }
                }
                Err(e) if !lenient => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
                Err(_) => {
                    // Resync: skip at least one byte, up to the next
                    // possible magic (keeping a 2-byte tail that could be
                    // a magic prefix still being received).
                    let window = &self.buf[self.start..];
                    let skip = match window[1..].windows(MAGIC.len()).position(|w| w == MAGIC) {
                        Some(k) => k + 1,
                        None => window.len().saturating_sub(MAGIC.len() - 1).max(1),
                    };
                    self.start += skip;
                    self.quarantined_bytes += skip as u64;
                    self.quarantined_frames += 1;
                    self.reclaim();
                }
            }
        }
    }
}

/// Buffered frame writer over any [`Write`].
#[derive(Debug)]
pub struct FrameWriter<W> {
    inner: W,
    scratch: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            scratch: Vec::with_capacity(4 * 1024),
        }
    }

    /// Serializes and writes one frame, as a single `write_all` call on
    /// the sink — a sink that treats each call as one frame (the chaos
    /// injector does) sees exact frame boundaries.
    pub fn write_frame(&mut self, frame: &WireFrame) -> io::Result<()> {
        self.scratch.clear();
        emit_frame(frame, &mut self.scratch);
        self.inner.write_all(&self.scratch)
    }

    /// Flushes the underlying sink.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// The underlying sink (to retune a chaos injector mid-stream).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tuple() -> FiveTuple {
        FiveTuple::tcp(
            "10.0.0.1".parse().unwrap(),
            40_001,
            "10.0.1.1".parse().unwrap(),
            443,
        )
    }

    fn sample_frames() -> Vec<WireFrame> {
        vec![
            WireFrame::Hello {
                version: WIRE_VERSION,
                flags: HELLO_RESILIENT,
                host_lo: 0,
                host_hi: 16,
            },
            WireFrame::Event(AgentEvent::FlowOpen {
                host: HostId(3),
                seq: 0,
                tuple: tuple(),
            }),
            WireFrame::Event(AgentEvent::Evidence {
                seq: 1,
                report: TraceReport {
                    host: HostId(3),
                    tuple: tuple(),
                    retransmissions: 2,
                    links: vec![LinkId(1), LinkId(9), LinkId(40)],
                    complete: true,
                },
            }),
            WireFrame::Event(AgentEvent::EpochTick {
                host: HostId(3),
                seq: 2,
                epoch: 7,
            }),
            WireFrame::Event(AgentEvent::Drain {
                host: HostId(3),
                seq: 3,
            }),
            WireFrame::EpochDone {
                epoch: 7,
                events: 4,
            },
            WireFrame::ResumeAt { epoch: 8 },
            WireFrame::Heartbeat,
        ]
    }

    /// A raw frame with a *valid* checksum over arbitrary kind/payload —
    /// for reaching the post-checksum error paths.
    fn raw_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(kind);
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(&frame_checksum(kind, payload).to_be_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn every_variant_round_trips() {
        for frame in sample_frames() {
            let mut buf = Vec::new();
            emit_frame(&frame, &mut buf);
            let (back, used) = parse_frame(&buf).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn frames_concatenate() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            emit_frame(f, &mut buf);
        }
        let mut at = 0;
        let mut out = Vec::new();
        while at < buf.len() {
            let (f, used) = parse_frame(&buf[at..]).unwrap();
            out.push(f);
            at += used;
        }
        assert_eq!(out, frames);
    }

    #[test]
    fn truncation_is_recoverable() {
        for frame in sample_frames() {
            let mut buf = Vec::new();
            emit_frame(&frame, &mut buf);
            for cut in 0..buf.len() {
                assert_eq!(
                    parse_frame(&buf[..cut]).unwrap_err(),
                    FrameError::Truncated,
                    "cut at {cut} of {}",
                    buf.len()
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // The v2 contract: no flipped bit anywhere in a frame can yield
        // Ok — corruption is always a typed error (usually BadChecksum;
        // framing errors for bits in the magic/length).
        for frame in sample_frames() {
            let mut clean = Vec::new();
            emit_frame(&frame, &mut clean);
            for byte in 0..clean.len() {
                for bit in 0..8u8 {
                    let mut buf = clean.clone();
                    buf[byte] ^= 1 << bit;
                    assert!(
                        parse_frame(&buf).is_err(),
                        "flip of byte {byte} bit {bit} parsed as valid"
                    );
                }
            }
        }
    }

    #[test]
    fn garbage_prefix_is_bad_magic() {
        assert_eq!(
            parse_frame(b"GET / HTTP/1.0\r\n").unwrap_err(),
            FrameError::BadMagic
        );
        assert_eq!(parse_frame(b"X").unwrap_err(), FrameError::BadMagic);
        assert_eq!(parse_frame(b"00").unwrap_err(), FrameError::Truncated);
        assert_eq!(parse_frame(b"008AAAA").unwrap_err(), FrameError::BadMagic);
    }

    #[test]
    fn unknown_kind_and_oversize_rejected() {
        assert_eq!(
            parse_frame(&raw_frame(200, &[])).unwrap_err(),
            FrameError::UnknownKind(200)
        );

        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(KIND_DRAIN);
        buf.extend_from_slice(&(MAX_PAYLOAD as u32 + 1).to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        assert_eq!(parse_frame(&buf).unwrap_err(), FrameError::Malformed);
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        // A correctly-checksummed frame whose payload is one byte too
        // long must still fail the layout check.
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u64.to_be_bytes());
        payload.extend_from_slice(&0u64.to_be_bytes());
        payload.push(0xFF);
        assert_eq!(
            parse_frame(&raw_frame(KIND_EPOCH_DONE, &payload)).unwrap_err(),
            FrameError::Malformed
        );
    }

    #[test]
    fn corrupt_payload_is_bad_checksum() {
        let mut buf = Vec::new();
        emit_frame(&WireFrame::ResumeAt { epoch: 9 }, &mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert_eq!(parse_frame(&buf).unwrap_err(), FrameError::BadChecksum);
    }

    #[test]
    fn reader_reassembles_split_stream() {
        struct Dribble {
            data: Vec<u8>,
            at: usize,
        }
        impl Read for Dribble {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.at >= self.data.len() {
                    return Ok(0);
                }
                // one byte at a time: worst-case fragmentation
                out[0] = self.data[self.at];
                self.at += 1;
                Ok(1)
            }
        }
        let frames = sample_frames();
        let mut data = Vec::new();
        for f in &frames {
            emit_frame(f, &mut data);
        }
        let mut reader = FrameReader::new(Dribble { data, at: 0 });
        let mut out = Vec::new();
        while let Some(f) = reader.next_frame().unwrap() {
            out.push(f);
        }
        assert_eq!(out, frames);
    }

    #[test]
    fn reader_flags_mid_frame_eof() {
        let mut data = Vec::new();
        emit_frame(
            &WireFrame::EpochDone {
                epoch: 1,
                events: 0,
            },
            &mut data,
        );
        data.truncate(data.len() - 2);
        let mut reader = FrameReader::new(io::Cursor::new(data));
        let err = reader.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn lenient_reader_resyncs_past_corruption() {
        let frames = sample_frames();
        let mut data = Vec::new();
        emit_frame(&frames[0], &mut data);
        data.extend_from_slice(b"\xDE\xAD\xBE\xEF garbage between frames");
        emit_frame(&frames[1], &mut data);
        // A corrupted frame (payload bit flip) followed by a clean one.
        let mut corrupt = Vec::new();
        emit_frame(&frames[2], &mut corrupt);
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        data.extend_from_slice(&corrupt);
        emit_frame(&frames[3], &mut data);

        let mut reader = FrameReader::new(io::Cursor::new(data));
        let mut out = Vec::new();
        while let Some(f) = reader.next_frame_lenient().unwrap() {
            out.push(f);
        }
        assert_eq!(
            out,
            vec![frames[0].clone(), frames[1].clone(), frames[3].clone()],
            "clean frames survive, corrupt bytes are skipped"
        );
        assert!(
            reader.quarantined_frames() >= 2,
            "both garbage runs counted"
        );
        assert!(reader.quarantined_bytes() > 0);
    }

    fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
        (
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            any::<bool>(),
        )
            .prop_map(|(src, dst, sp, dp, udp)| FiveTuple {
                src_ip: std::net::Ipv4Addr::from(src.to_be_bytes()),
                dst_ip: std::net::Ipv4Addr::from(dst.to_be_bytes()),
                src_port: sp,
                dst_port: dp,
                protocol: if udp { Protocol::Udp } else { Protocol::Tcp },
            })
    }

    /// One strategy covering every frame variant: a selector plus a
    /// superset of field draws, mapped onto the selected variant (the
    /// vendored proptest has no `prop_oneof!`).
    fn arb_frame() -> impl Strategy<Value = WireFrame> {
        (
            0u8..8,
            (any::<u32>(), any::<u64>(), any::<u64>(), any::<u16>()),
            arb_tuple(),
            (any::<u32>(), any::<bool>()),
            proptest::collection::vec(any::<u32>(), 0..12),
        )
            .prop_map(
                |(which, (host, seq, epoch, version), tuple, (retx, complete), links)| match which {
                    0 => WireFrame::Hello {
                        version,
                        flags: (seq % 251) as u8,
                        host_lo: host,
                        host_hi: epoch as u32,
                    },
                    1 => WireFrame::Event(AgentEvent::FlowOpen {
                        host: HostId(host),
                        seq,
                        tuple,
                    }),
                    2 => WireFrame::Event(AgentEvent::Evidence {
                        seq,
                        report: TraceReport {
                            host: HostId(host),
                            tuple,
                            retransmissions: retx,
                            links: links.into_iter().map(LinkId).collect(),
                            complete,
                        },
                    }),
                    3 => WireFrame::Event(AgentEvent::EpochTick {
                        host: HostId(host),
                        seq,
                        epoch,
                    }),
                    4 => WireFrame::Event(AgentEvent::Drain {
                        host: HostId(host),
                        seq,
                    }),
                    5 => WireFrame::EpochDone { epoch, events: seq },
                    6 => WireFrame::ResumeAt { epoch },
                    _ => WireFrame::Heartbeat,
                },
            )
    }

    proptest! {
        #[test]
        fn emit_parse_round_trip(frame in arb_frame()) {
            let mut buf = Vec::new();
            emit_frame(&frame, &mut buf);
            let (back, used) = parse_frame(&buf).unwrap();
            prop_assert_eq!(used, buf.len());
            prop_assert_eq!(back, frame);
        }

        #[test]
        fn every_truncation_is_truncated(frame in arb_frame(), frac in 0.0f64..1.0) {
            let mut buf = Vec::new();
            emit_frame(&frame, &mut buf);
            let cut = ((buf.len() as f64) * frac) as usize;
            prop_assert_eq!(parse_frame(&buf[..cut.min(buf.len() - 1)]).unwrap_err(),
                            FrameError::Truncated);
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = parse_frame(&bytes);
        }

        #[test]
        fn garbage_prefix_never_parses(mut bytes in proptest::collection::vec(any::<u8>(), 1..64),
                                       frame in arb_frame()) {
            // Force a non-magic first byte, then append a valid frame:
            // the strict parser must reject at the front, not resync
            // silently (resync is next_frame_lenient's explicit job).
            if bytes[0] == MAGIC[0] {
                bytes[0] = bytes[0].wrapping_add(1);
            }
            emit_frame(&frame, &mut bytes);
            prop_assert_eq!(parse_frame(&bytes).unwrap_err(), FrameError::BadMagic);
        }
    }
}
