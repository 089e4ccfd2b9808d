//! Growable byte ring and the incremental frame decoder built on it.
//!
//! The reactor reads whatever the kernel has into a [`ByteRing`] and
//! peels complete frames off the front with [`FrameDecoder::next`];
//! partial frames simply stay buffered until more bytes arrive. The
//! client [`Connection`](crate::Connection) feeds the same decoder from
//! blocking reads, so there is one frame reader: a fully framed but undecodable body is
//! surfaced as [`Decoded::Bad`] with the recovered request correlation
//! id (the session survives), while a broken length prefix is a hard
//! error because resync is impossible.

use std::io::{self, Read, Write};

use crate::frame::{decode_body, decode_request_corr, encode_envelope, Envelope};
use crate::wire::{frame_prefix, WireError};

/// An append-at-the-back, consume-at-the-front byte buffer. Consumed
/// bytes are reclaimed by shifting only when the dead prefix dominates
/// the allocation, so steady-state streaming does no per-frame moves.
#[derive(Debug, Default)]
pub(crate) struct ByteRing {
    buf: Vec<u8>,
    start: usize,
}

impl ByteRing {
    pub(crate) fn new() -> ByteRing {
        ByteRing::default()
    }

    /// Live (unconsumed) bytes.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.start == self.buf.len()
    }

    /// The live bytes, front first.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Encodes `env` at the back; returns its wire size.
    pub(crate) fn push_envelope(&mut self, env: &Envelope) -> usize {
        encode_envelope(env, &mut self.buf)
    }

    /// Writes the front to `dst` until it would block or the ring is
    /// empty. False when `dst` is over (closed or failed).
    pub(crate) fn write_to(&mut self, dst: &mut impl Write) -> bool {
        while !self.is_empty() {
            match dst.write(self.as_slice()) {
                Ok(0) => return false,
                Ok(n) => self.consume(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Discards `n` bytes off the front.
    pub(crate) fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.buf.len());
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// One frame peeled off the stream: decoded, or
/// consumed-but-undecodable.
#[derive(Debug)]
pub enum Decoded {
    /// A well-formed envelope plus its wire size (prefix included).
    Frame(Envelope, usize),
    /// The frame's bytes were fully consumed but the body is invalid.
    /// `corr` is the recovered request correlation id when the header
    /// still parsed, so servers can answer with a structured error.
    Bad {
        corr: Option<u64>,
        error: WireError,
        nbytes: usize,
    },
}

/// Incremental decoder: feed arbitrary byte chunks with [`extend`]
/// (any split, down to one byte at a time), harvest complete frames
/// with [`next`]. Equivalent to the one-shot [`decode_body`] path on
/// every input — the property tests pin that equivalence.
///
/// [`extend`]: FrameDecoder::extend
/// [`next`]: FrameDecoder::next
#[derive(Debug, Default)]
pub struct FrameDecoder {
    ring: ByteRing,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.ring.extend(bytes);
    }

    /// Reads `src` until it would block or more than `limit` bytes are
    /// buffered. True when the stream is over (its end, or an error).
    pub(crate) fn read_from(
        &mut self,
        src: &mut impl Read,
        scratch: &mut [u8],
        limit: usize,
    ) -> bool {
        loop {
            match src.read(scratch) {
                Ok(0) => return true,
                Ok(n) => {
                    self.extend(&scratch[..n]);
                    if self.buffered() > limit {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }

    /// Bytes buffered but not yet peeled into frames.
    pub fn buffered(&self) -> usize {
        self.ring.len()
    }

    /// Peels the next complete frame off the front.
    ///
    /// * `Ok(Some(_))` — one frame's bytes were consumed (decoded or
    ///   [`Decoded::Bad`]); call again, more may be buffered.
    /// * `Ok(None)` — the buffer holds only part of a frame; feed more.
    /// * `Err(_)` — broken framing (overlong or oversized length
    ///   prefix); resync is impossible, hang up.
    // Not `Iterator`: the fallible `io::Result<Option<_>>` shape is the
    // point (a stream can end in "wait for more" or "hang up").
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> io::Result<Option<Decoded>> {
        let buf = self.ring.as_slice();
        let prefix = frame_prefix(buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let Some((header, len)) = prefix else {
            return Ok(None);
        };
        let total = header + len;
        if buf.len() < total {
            return Ok(None);
        }
        let body = &buf[header..total];
        let peeled = match decode_body(body) {
            Ok(env) => Decoded::Frame(env, total),
            Err(e) => Decoded::Bad {
                corr: decode_request_corr(body),
                error: e,
                nbytes: total,
            },
        };
        self.ring.consume(total);
        Ok(Some(peeled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_envelope, Frame};
    use crate::wire::{put_varint, MAX_FRAME_LEN};

    #[test]
    fn ring_reclaims_consumed_prefix() {
        let mut ring = ByteRing::new();
        ring.extend(&[1, 2, 3, 4, 5]);
        ring.consume(2);
        assert_eq!(ring.as_slice(), &[3, 4, 5]);
        ring.consume(3);
        assert!(ring.is_empty());
        assert_eq!(ring.len(), 0);
        ring.extend(&[9]);
        assert_eq!(ring.as_slice(), &[9]);
    }

    #[test]
    fn decoder_handles_byte_at_a_time_delivery() {
        let mut wire = Vec::new();
        for seq in 0..3u64 {
            encode_envelope(
                &Envelope::one_way(Frame::Heartbeat {
                    switch: 1,
                    seq,
                    at_ns: 0,
                }),
                &mut wire,
            );
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            while let Some(d) = dec.next().expect("framing") {
                match d {
                    Decoded::Frame(env, _) => got.push(env),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(dec.buffered(), 0);
        for (seq, env) in got.iter().enumerate() {
            assert!(
                matches!(env.frame, Frame::Heartbeat { seq: s, .. } if s == seq as u64),
                "frame {seq} out of order"
            );
        }
    }

    #[test]
    fn bad_body_keeps_the_stream_aligned() {
        let mut bad_body = vec![crate::wire::PROTOCOL_VERSION, 200, 0];
        put_varint(&mut bad_body, 9);
        let mut wire = Vec::new();
        put_varint(&mut wire, bad_body.len() as u64);
        wire.extend_from_slice(&bad_body);
        encode_envelope(&Envelope::one_way(Frame::Ack), &mut wire);

        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        match dec.next().expect("framing").expect("first frame") {
            Decoded::Bad { corr, error, .. } => {
                assert_eq!(corr, Some(9));
                assert!(matches!(error, WireError::Tag { .. }));
            }
            other => panic!("expected Bad, got {other:?}"),
        }
        match dec.next().expect("framing").expect("second frame") {
            Decoded::Frame(env, _) => assert_eq!(env.frame, Frame::Ack),
            other => panic!("expected Ack, got {other:?}"),
        }
        assert!(dec.next().expect("framing").is_none());
    }

    #[test]
    fn broken_length_prefix_is_fatal() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0xff; 16]);
        assert!(dec.next().is_err(), "overlong varint prefix");

        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        put_varint(&mut wire, (MAX_FRAME_LEN as u64) + 1);
        dec.extend(&wire);
        assert!(dec.next().is_err(), "oversized frame");
    }

    #[test]
    fn partial_prefix_waits_for_more() {
        let mut wire = Vec::new();
        encode_envelope(
            &Envelope::one_way(Frame::Error {
                message: "x".repeat(200),
            }),
            &mut wire,
        );
        assert!(wire[0] & 0x80 != 0, "length prefix spans bytes");
        let mut dec = FrameDecoder::new();
        dec.extend(&wire[..1]);
        assert!(dec.next().expect("framing").is_none());
        dec.extend(&wire[1..]);
        assert!(matches!(
            dec.next().expect("framing"),
            Some(Decoded::Frame(..))
        ));
    }
}
