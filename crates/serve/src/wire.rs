//! Hand-rolled framing for the `pld` protocol, in the same spirit as
//! `pl_sim::checkpoint::wire`: explicit little-endian fields, a CRC32
//! over every payload, and typed rejection of every malformed-frame
//! class — never a panic, never an unbounded allocation, never a hang
//! on a short frame (the transport sets read timeouts).
//!
//! # Frame layout
//!
//! ```text
//! magic   4 bytes   b"PLD1"
//! kind    1 byte    request/response discriminator (see proto)
//! length  4 bytes   payload length, little-endian, <= MAX_FRAME
//! payload length bytes
//! crc32   4 bytes   IEEE CRC32 of the payload
//! ```
//!
//! Payloads decode through the checkpoint decoder's bounded [`Reader`],
//! which checks every length and count against the bytes actually
//! present before allocating; a [`pl_sim::DecodeError`] becomes a
//! [`ServeError::Request`]. [`read_frame`] reads whole frames off the
//! socket.

use crate::error::ServeError;
use pl_sim::checkpoint::wire::Reader;
use std::io::{Read, Write};

/// Frame magic: four bytes so a stray HTTP request or checkpoint file
/// pointed at the daemon's port fails immediately and legibly.
pub const MAGIC: [u8; 4] = *b"PLD1";

/// Upper bound on one frame's payload. Generous for BLIF text (the
/// largest ITC'99 design is well under 1 MiB) while keeping a hostile
/// length field from requesting a multi-gigabyte allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// The frame checksum: the checkpoint wire format's IEEE CRC32.
pub use pl_sim::checkpoint::wire::crc32;

/// Frames and writes one message.
///
/// # Errors
///
/// [`ServeError::Io`] if the write fails.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), ServeError> {
    let io_err = |e: std::io::Error| ServeError::Io {
        context: "write frame",
        message: e.to_string(),
    };
    debug_assert!(payload.len() <= MAX_FRAME as usize);
    let mut out = Vec::with_capacity(4 + 1 + 4 + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&out).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Reads one frame. `Ok(None)` is a clean end of stream (EOF exactly at
/// a frame boundary); every other irregularity is a typed error:
///
/// * EOF inside a frame → [`ServeError::Frame`] (`"truncated frame"`),
/// * wrong magic → [`ServeError::Frame`] (`"magic"`),
/// * length above [`MAX_FRAME`] → [`ServeError::Frame`]
///   (`"oversized length"`), **before** any allocation,
/// * payload CRC mismatch → [`ServeError::Frame`] (`"checksum"`),
/// * socket errors (including read timeouts, so a stalled sender can
///   never hang the connection forever) → [`ServeError::Io`].
///
/// # Errors
///
/// As listed above.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, ServeError> {
    let mut magic = [0u8; 4];
    match read_exact_or_eof(r, &mut magic)? {
        Filled::Eof => return Ok(None),
        Filled::Partial(got) => {
            return Err(ServeError::Frame {
                context: "truncated frame",
                message: format!("stream ended {got} byte(s) into the 4-byte magic"),
            });
        }
        Filled::Full => {}
    }
    if magic != MAGIC {
        return Err(ServeError::Frame {
            context: "magic",
            message: format!("found {magic:02x?}, expected {MAGIC:02x?}"),
        });
    }
    let mut head = [0u8; 5];
    read_exact(r, &mut head, "frame header")?;
    let kind = head[0];
    let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return Err(ServeError::Frame {
            context: "oversized length",
            message: format!("payload length {len} exceeds the {MAX_FRAME}-byte frame cap"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact(r, &mut payload, "frame payload")?;
    let mut crc = [0u8; 4];
    read_exact(r, &mut crc, "frame checksum")?;
    let stored = u32::from_le_bytes(crc);
    let computed = crc32(&payload);
    if stored != computed {
        return Err(ServeError::Frame {
            context: "checksum",
            message: format!("stored {stored:#010x}, computed {computed:#010x}"),
        });
    }
    Ok(Some((kind, payload)))
}

enum Filled {
    Full,
    Eof,
    Partial(usize),
}

/// `read_exact` that distinguishes "EOF before any byte" (a clean
/// close) from "EOF mid-buffer" (a truncated frame).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<Filled, ServeError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Ok(if got == 0 {
                    Filled::Eof
                } else {
                    Filled::Partial(got)
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(ServeError::Io {
                    context: "read frame",
                    message: e.to_string(),
                });
            }
        }
    }
    Ok(Filled::Full)
}

fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), ServeError> {
    match read_exact_or_eof(r, buf)? {
        Filled::Full => Ok(()),
        Filled::Eof | Filled::Partial(_) => Err(ServeError::Frame {
            context: "truncated frame",
            message: format!("stream ended inside the {what}"),
        }),
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn push_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads a string written by [`push_string`], its length bounded by the
/// bytes left; a short payload, an oversized length or invalid UTF-8 is a
/// [`ServeError::Request`].
pub(crate) fn read_string(r: &mut Reader<'_>, what: &'static str) -> Result<String, ServeError> {
    let len = r.count(1, what)?;
    String::from_utf8(r.take(len, what)?.to_vec()).map_err(|_| ServeError::Request {
        message: format!("{what}: invalid UTF-8"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello").unwrap();
        let mut r = &buf[..];
        let (kind, payload) = read_frame(&mut r).unwrap().expect("one frame");
        assert_eq!(kind, 7);
        assert_eq!(payload, b"hello");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after");
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"x").unwrap();
        buf[0] ^= 0xFF;
        match read_frame(&mut &buf[..]) {
            Err(ServeError::Frame { context, .. }) => assert_eq!(context, "magic"),
            other => panic!("expected Frame error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_typed_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(1);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut &buf[..]) {
            Err(ServeError::Frame { context, .. }) => assert_eq!(context, "oversized length"),
            other => panic!("expected Frame error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_everywhere_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"payload").unwrap();
        for cut in 1..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Err(ServeError::Frame { .. }) => {}
                other => panic!("cut at {cut}: expected Frame error, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_checksum_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"payload").unwrap();
        let n = buf.len();
        buf[n - 1] ^= 0x01;
        match read_frame(&mut &buf[..]) {
            Err(ServeError::Frame { context, .. }) => assert_eq!(context, "checksum"),
            other => panic!("expected Frame error, got {other:?}"),
        }
    }

    #[test]
    fn cursor_bounds_counts_and_strings() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut r = Reader::new(&payload);
        assert!(r.count(1, "n").is_err(), "absurd count rejected");
        let mut r = Reader::new(&payload);
        assert!(
            read_string(&mut r, "s").is_err(),
            "absurd string length rejected"
        );
    }
}
