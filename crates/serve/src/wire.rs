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
//! Payloads are decoded through [`Cursor`], which bounds every length
//! and count against the bytes actually present before allocating —
//! the lesson of the checkpoint decoder's 32-bit narrowing bug applies
//! here from day one.

use crate::error::ServeError;
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

/// Bounds-checked payload decoder: every read is validated against the
/// remaining bytes, lengths are bounded *in u64 space* before narrowing
/// to `usize`, and decoding must consume the payload exactly
/// ([`Cursor::expect_end`]).
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts decoding `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ServeError> {
        if n > self.remaining() {
            return Err(ServeError::Request {
                message: format!("{what}: needs {n} byte(s), {} remaining", self.remaining()),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] if the payload is exhausted.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, ServeError> {
        Ok(self.take(1, what)?[0])
    }

    /// A little-endian u16.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] if the payload is exhausted.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, ServeError> {
        Ok(u16::from_le_bytes(
            self.take(2, what)?.try_into().expect("2 bytes"),
        ))
    }

    /// A little-endian u64.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] if the payload is exhausted.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// A u64 that must fit `usize` and be at most `remaining / min_item_bytes`
    /// — the pattern for element counts about to drive allocation.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] on exhaustion or an out-of-bounds count.
    pub fn count(
        &mut self,
        min_item_bytes: usize,
        what: &'static str,
    ) -> Result<usize, ServeError> {
        let raw = self.u64(what)?;
        let limit = (self.remaining() / min_item_bytes.max(1)) as u64;
        if raw > limit {
            return Err(ServeError::Request {
                message: format!("{what}: count {raw} exceeds the in-bounds limit {limit}"),
            });
        }
        usize::try_from(raw).map_err(|_| ServeError::Request {
            message: format!("{what}: count {raw} does not fit this target"),
        })
    }

    /// A length-prefixed UTF-8 string (u64 length, bounded by the
    /// remaining bytes before any slice or allocation).
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] on exhaustion, an oversized length, or
    /// invalid UTF-8.
    pub fn string(&mut self, what: &'static str) -> Result<String, ServeError> {
        let len = self.u64(what)?;
        if len > self.remaining() as u64 {
            return Err(ServeError::Request {
                message: format!(
                    "{what}: string length {len} exceeds the {} remaining byte(s)",
                    self.remaining()
                ),
            });
        }
        let bytes = self.take(len as usize, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ServeError::Request {
            message: format!("{what}: invalid UTF-8"),
        })
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] if bytes trail the decoded value.
    pub fn expect_end(&self, what: &'static str) -> Result<(), ServeError> {
        if self.remaining() != 0 {
            return Err(ServeError::Request {
                message: format!("{what}: {} trailing byte(s)", self.remaining()),
            });
        }
        Ok(())
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn push_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
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
        let mut c = Cursor::new(&payload);
        assert!(c.count(1, "n").is_err(), "absurd count rejected");
        let mut c = Cursor::new(&payload);
        assert!(c.string("s").is_err(), "absurd string length rejected");
    }
}
