//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! +------+----------------+-------------------+
//! | type | payload length |      payload      |
//! | 1 B  |  4 B, BE u32   | `length` bytes    |
//! +------+----------------+-------------------+
//! ```
//!
//! A client sends [`FrameType::Req`] frames (payload: a big-endian
//! `u32` byte count) and receives exactly one response frame per
//! request:
//!
//! * [`FrameType::Ok`] — payload is exactly the requested entropy
//!   bytes.
//! * [`FrameType::ErrTimeout`] — the pool's deadline expired
//!   (`PoolError::Timeout`); payload is the *healthy prefix*
//!   delivered before it did (possibly empty). Bytes in an error
//!   frame passed the same health gate as bytes in an `Ok` frame —
//!   the error conveys shortfall, never quality loss.
//! * [`FrameType::ErrExhausted`] — every shard is retired
//!   (`PoolError::SourcesExhausted`); payload is the healthy prefix.
//! * [`FrameType::ErrTooLarge`] — the request exceeded the server's
//!   request-size cap; payload is the cap as a big-endian `u32`. The
//!   connection stays usable.
//! * [`FrameType::ErrProtocol`] — malformed traffic; payload is a
//!   UTF-8 diagnostic. The server closes the connection after
//!   sending it.
//!
//! Requests on one connection are served strictly in order; the
//! protocol has no framing ambiguity because every frame declares its
//! length up front, bounded by a receiver-chosen cap.

use std::io::{self, Read, Write};

/// Hard upper bound a receiver places on one frame's payload, over
/// and above any configured request cap (guards allocation against a
/// corrupt or hostile length field).
pub const MAX_FRAME_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Bytes of frame header: one type byte plus a four-byte length.
pub const HEADER_LEN: usize = 5;

/// The message kind carried by a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Client request for N entropy bytes.
    Req,
    /// Full delivery of the requested bytes.
    Ok,
    /// Deadline expired; payload is the delivered healthy prefix.
    ErrTimeout,
    /// All sources retired; payload is the delivered healthy prefix.
    ErrExhausted,
    /// Request exceeded the server cap; payload is the cap (BE u32).
    ErrTooLarge,
    /// Malformed traffic; payload is a UTF-8 diagnostic.
    ErrProtocol,
}

impl FrameType {
    /// The on-wire tag.
    pub fn as_u8(self) -> u8 {
        match self {
            FrameType::Req => 0x01,
            FrameType::Ok => 0x02,
            FrameType::ErrTimeout => 0x03,
            FrameType::ErrExhausted => 0x04,
            FrameType::ErrTooLarge => 0x05,
            FrameType::ErrProtocol => 0x06,
        }
    }

    /// Parses an on-wire tag.
    pub fn from_u8(tag: u8) -> Option<FrameType> {
        match tag {
            0x01 => Some(FrameType::Req),
            0x02 => Some(FrameType::Ok),
            0x03 => Some(FrameType::ErrTimeout),
            0x04 => Some(FrameType::ErrExhausted),
            0x05 => Some(FrameType::ErrTooLarge),
            0x06 => Some(FrameType::ErrProtocol),
            _ => None,
        }
    }
}

/// One parsed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind.
    pub kind: FrameType,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Writes one frame in a single write: header and payload leave
/// together, so a `TCP_NODELAY` socket sends them as one segment and
/// the reader wakes once per frame.
///
/// # Errors
///
/// Propagates the underlying I/O error; `payload` longer than
/// [`MAX_FRAME_PAYLOAD`] is reported as [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, kind: FrameType, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_PAYLOAD as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds protocol bound", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.push(kind.as_u8());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Writes a request frame for `n` bytes of entropy.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_req(w: &mut impl Write, n: u32) -> io::Result<()> {
    write_frame(w, FrameType::Req, &n.to_be_bytes())
}

/// Parses a request payload into its byte count.
pub fn parse_req(payload: &[u8]) -> Option<u32> {
    let bytes: [u8; 4] = payload.try_into().ok()?;
    Some(u32::from_be_bytes(bytes))
}

/// Reads one frame, bounding the payload at `max_payload` bytes.
/// Returns `Ok(None)` on a clean end-of-stream *before* the first
/// header byte.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for an unknown frame tag or an
/// oversize length field; [`io::ErrorKind::UnexpectedEof`] for a
/// stream truncated mid-frame; otherwise the underlying I/O error.
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> io::Result<Option<Frame>> {
    let mut tag = [0u8; 1];
    loop {
        match r.read(&mut tag) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let kind = FrameType::from_u8(tag[0]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame tag {:#04x}", tag[0]),
        )
    })?;
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len);
    let bound = max_payload.min(MAX_FRAME_PAYLOAD);
    if len > bound {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload {len} exceeds bound {bound}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(Frame { kind, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_tags_round_trip() {
        for kind in [
            FrameType::Req,
            FrameType::Ok,
            FrameType::ErrTimeout,
            FrameType::ErrExhausted,
            FrameType::ErrTooLarge,
            FrameType::ErrProtocol,
        ] {
            assert_eq!(FrameType::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(FrameType::from_u8(0x00), None);
        assert_eq!(FrameType::from_u8(0x99), None);
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let mut wire = Vec::new();
        write_req(&mut wire, 4096).unwrap();
        write_frame(&mut wire, FrameType::Ok, b"entropy").unwrap();
        write_frame(&mut wire, FrameType::ErrTimeout, &[]).unwrap();

        let mut r = Cursor::new(wire);
        let req = read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap().unwrap();
        assert_eq!(req.kind, FrameType::Req);
        assert_eq!(parse_req(&req.payload), Some(4096));
        let ok = read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap().unwrap();
        assert_eq!(ok.kind, FrameType::Ok);
        assert_eq!(ok.payload, b"entropy");
        let err = read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap().unwrap();
        assert_eq!(err.kind, FrameType::ErrTimeout);
        assert!(err.payload.is_empty());
        // Clean EOF after the last frame.
        assert!(read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap().is_none());
    }

    #[test]
    fn oversize_length_field_is_rejected_not_allocated() {
        let mut wire = vec![FrameType::Ok.as_u8()];
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(wire), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let wire = vec![0xEEu8, 0, 0, 0, 0];
        let err = read_frame(&mut Cursor::new(wire), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::Ok, b"abcdef").unwrap();
        wire.truncate(wire.len() - 2);
        let err = read_frame(&mut Cursor::new(wire), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Counts the write calls a frame costs.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, FrameType::Ok, b"entropy").unwrap();
        assert_eq!(w.writes, 1, "header and payload must leave together");
        write_req(&mut w, 4096).unwrap();
        assert_eq!(w.writes, 2);
        let mut r = Cursor::new(w.bytes);
        let ok = read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap().unwrap();
        assert_eq!(
            (ok.kind, ok.payload.as_slice()),
            (FrameType::Ok, &b"entropy"[..])
        );
        let req = read_frame(&mut r, MAX_FRAME_PAYLOAD).unwrap().unwrap();
        assert_eq!(parse_req(&req.payload), Some(4096));
    }

    #[test]
    fn malformed_req_payload_is_rejected() {
        assert_eq!(parse_req(b"abc"), None);
        assert_eq!(parse_req(b"abcde"), None);
        assert_eq!(parse_req(&7u32.to_be_bytes()), Some(7));
    }
}
