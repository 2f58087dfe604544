//! Versioned, checksummed byte serialization for [`SimCheckpoint`] —
//! the on-disk/wire form behind crash-resumable sweeps
//! ([`crate::parallel::sweep_resumable`]).
//!
//! Hand-rolled (no serde, per the workspace's no-registry-dependency
//! constraint) and **paranoid by construction**: decoding untrusted bytes
//! returns a typed [`SimError`] for every corruption class — truncation,
//! bad magic, version skew, digest mismatch, checksum failure,
//! out-of-range indices — and never panics or silently misdecodes.
//!
//! # Format layout (version 1)
//!
//! All integers are little-endian. The file is:
//!
//! | bytes | field |
//! |---|---|
//! | 8 | magic `b"PLSIMCK\0"` |
//! | 4 | format version (`u32`, currently 1) |
//! | … | sections (below), in fixed order |
//! | 4 | trailer CRC32 over **every preceding byte** |
//!
//! Each section is framed as `tag: u8`, `len: u64` (payload bytes),
//! payload, `crc32(payload): u32`. Sections, in order:
//!
//! | tag | section | payload |
//! |---|---|---|
//! | 1 | `HEADER` | netlist fingerprint `u64`, delay-model digest `u64`, gate/arc/output counts `u64`×3 |
//! | 2 | `STATE` | `now`, `seq`, `events`, `rounds` (`u64`×4) |
//! | 3 | `QUEUE` | event count `u64`, then per event: key `u128`, kind tag `u8` (0 = Tokens, 1 = Fire, 2 = Produce, 3 = Cleanup), kind fields |
//! | 4 | `ARCS` | per-arc token bytes (0/1) ×arcs, per-arc value bytes (0/1) ×arcs |
//! | 5 | `GATES` | `pin_tokens` ×gates, `pin_vals` ×gates, `ack_missing u32` ×gates, `pending_input` (0 = none, 1 = false, 2 = true) ×gates, `flags` (≤ 0x0F) ×gates, `gen u64` ×gates |
//! | 6 | `RECORDS` | queue count `u64` (must equal outputs), then per queue: entry count `u64`, entries (`value u8` 0/1, `tick u64`) |
//!
//! The trailer CRC32 covers the whole file, so **any** single byte flip
//! (a burst error of ≤ 32 bits) is guaranteed to be rejected; the
//! per-section CRCs localize the diagnosis. Semantic validation happens
//! after the checksums: the header digests bind the bytes to one specific
//! netlist (arc-topology fingerprint) and delay model, every gate index
//! is range-checked, queue keys must be strictly ascending with in-range
//! sequence numbers, and boolean/flag bytes must be in-domain.
//!
//! # Lane widths (version 2)
//!
//! The checkpoint is generic over the simulator's [`LaneWord`], and the
//! wire version IS the lane width's name: scalar (`bool`) checkpoints
//! encode exactly the version-1 layout above, byte for byte, so every
//! pre-batch checkpoint still decodes unchanged. 64-lane (`u64`)
//! checkpoints encode version 2 ([`VERSION_BATCH`]), which differs only
//! where per-lane values live:
//!
//! * `HEADER` gains a trailing `lanes: u64` field (64);
//! * arc values, queue `Tokens` values, and record values are 8-byte
//!   little-endian lane words instead of 0/1 bytes;
//! * `pin_vals` is 64 bytes per gate (8 little-endian lane words, one
//!   per pin) instead of one bitset byte;
//! * `pending_input` is a tag byte (0 = none, 1 = present) followed by a
//!   lane word when present, instead of the packed 0/1/2 byte.
//!
//! A decode at the wrong width — a v1 file into a 64-lane simulator or a
//! v2 file into a scalar one — is rejected with
//! [`SimError::CheckpointLaneMismatch`] (the version field names the
//! width before any structure is parsed).
//!
//! # Version-evolution rules
//!
//! * The magic never changes; the version integer is bumped for **any**
//!   layout change (new/removed/reordered sections or fields, changed
//!   widths or tag values). There are no minor versions and no in-place
//!   extension points — checkpoints are short-lived operational state,
//!   not archives, so decoders support exactly one version per lane
//!   width and reject everything else with
//!   [`SimError::CheckpointVersionSkew`].
//! * A reader that wants to migrate old checkpoints does so by matching
//!   on the version **before** the section walk and dispatching to a
//!   frozen copy of the old decoder; the current decoder never grows
//!   conditional paths. (The scalar/batch split is not such a migration:
//!   one generic walk reads both, with the lane width fixed at the
//!   decoder's type, not by the input bytes.)
//! * Section tags are never reused for different content across versions,
//!   so a misversioned decode attempt fails structurally even if the
//!   version field itself was the corrupted byte (the trailer CRC catches
//!   that case first anyway).

use std::collections::VecDeque;

use pl_core::PlNetlist;

use crate::checkpoint::{netlist_fingerprint, Fnv64, SimCheckpoint};
use crate::delay::DelayModel;
use crate::engine::{Event, EventKind};
use crate::error::{DecodeError, SimError};
use crate::lane::LaneWord;

/// First eight bytes of every serialized checkpoint.
pub const MAGIC: [u8; 8] = *b"PLSIMCK\0";

/// The wire-format version for scalar (1-lane) checkpoints — the original
/// layout, unchanged.
pub const VERSION: u32 = 1;

/// The wire-format version for 64-lane batch checkpoints (see the
/// [module docs](self#lane-widths-version-2)).
pub const VERSION_BATCH: u32 = 2;

// Section tags (never reused across versions).
const SEC_HEADER: (u8, &str) = (1, "HEADER");
const SEC_STATE: (u8, &str) = (2, "STATE");
const SEC_QUEUE: (u8, &str) = (3, "QUEUE");
const SEC_ARCS: (u8, &str) = (4, "ARCS");
const SEC_GATES: (u8, &str) = (5, "GATES");
const SEC_RECORDS: (u8, &str) = (6, "RECORDS");

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), table-driven —
/// the checksum of every section and of the whole file, of the resume
/// journal's entries and `sweep.meta`, and of every `pld` frame. Detects
/// all burst errors of ≤ 32 bits, hence every single-byte corruption.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut k = 0;
            while k < 8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                k += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a digest of a [`DelayModel`] (the bit patterns of its five
/// components) — binds a checkpoint to the exact delay model, since the
/// quantized tick values baked into every queued event depend on it.
#[must_use]
pub(crate) fn delay_digest(delays: &DelayModel) -> u64 {
    let mut h = Fnv64::new();
    for x in [
        delays.c_element,
        delays.lut,
        delays.latch,
        delays.wire,
        delays.ee_overhead,
    ] {
        h.mix(x.to_bits());
    }
    h.finish()
}

/// The one bounded decoder of untrusted little-endian bytes: checkpoint
/// sections, the resume meta and journal, and `pld` protocol payloads all
/// read through it. Every read is checked against the bytes left and
/// names what it was reading; running short is
/// [`DecodeError::Truncated`]. A length or count is bounded by the bytes
/// left before it can drive an allocation.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `buf` at its first byte.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated {
                context,
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N, context)?.try_into().expect("N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, DecodeError> {
        self.array(context).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        self.array(context).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        self.array(context).map(u64::from_le_bytes)
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self, context: &'static str) -> Result<u128, DecodeError> {
        self.array(context).map(u128::from_le_bytes)
    }

    /// A boolean byte; any value but 0 and 1 is
    /// [`DecodeError::OutOfRange`].
    pub fn bool(&mut self, field: &'static str) -> Result<bool, DecodeError> {
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::OutOfRange {
                field,
                value: u64::from(other),
                limit: 1,
            }),
        }
    }

    /// A `u64` length or count about to drive reads or allocation: above
    /// the bytes left (at `min_item_bytes` per item) it is
    /// [`DecodeError::OutOfRange`], so a corrupted count can neither
    /// over-allocate nor walk past the buffer.
    pub fn count(
        &mut self,
        min_item_bytes: usize,
        field: &'static str,
    ) -> Result<usize, DecodeError> {
        let raw = self.u64(field)?;
        let limit = (self.remaining() / min_item_bytes.max(1)) as u64;
        let err = DecodeError::OutOfRange {
            field,
            value: raw,
            limit,
        };
        if raw > limit {
            return Err(err);
        }
        // `raw <= limit <= remaining()` so this cannot fail on any
        // target, but keep the conversion checked rather than a bare
        // `as` cast: on a 32-bit usize a future bound change must fail
        // typed, never truncate.
        usize::try_from(raw).map_err(|_| err)
    }

    /// Checks that every byte was read; bytes left are
    /// [`DecodeError::Trailing`].
    pub fn expect_end(&self, field: &'static str) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(DecodeError::Trailing { field, remaining }),
        }
    }
}

/// Frames `payload` as a section: tag, length, payload, payload CRC32.
pub(crate) fn push_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Reads one section frame, checks its tag and CRC, returns the payload.
pub(crate) fn read_section<'a>(
    r: &mut Reader<'a>,
    (tag, name): (u8, &'static str),
) -> Result<&'a [u8], SimError> {
    let found = r.u8(name)?;
    if found != tag {
        return Err(out_of_range("section tag", found.into(), tag.into()));
    }
    // The length is bounded by the remaining bytes minus the 4-byte CRC
    // *in u64 space*: narrowing to usize first would truncate lengths
    // like `1 << 32` to 0 on 32-bit targets and sail past this check.
    let len = r.u64(name)?;
    let avail = r.remaining().saturating_sub(4) as u64;
    if len > avail {
        return Err(SimError::CheckpointTruncated {
            context: name,
            needed: usize::try_from(len).map_or(usize::MAX, |l| l.saturating_add(4)),
            available: r.remaining(),
        });
    }
    // Bounded by `remaining()` (a usize), so the narrowing is exact.
    let len = len as usize;
    let payload = r.take(len, name)?;
    let stored = r.u32(name)?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(SimError::CheckpointChecksum {
            section: name,
            stored,
            computed,
        });
    }
    Ok(payload)
}

fn push_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

/// A decoded value outside its domain.
pub(crate) fn out_of_range(field: &'static str, value: u64, limit: u64) -> SimError {
    SimError::CheckpointOutOfRange {
        field,
        value,
        limit,
    }
}

fn check_gate(gate: u32, gates: usize, field: &'static str) -> Result<(), SimError> {
    if (gate as usize) < gates {
        Ok(())
    } else {
        Err(out_of_range(field, u64::from(gate), gates as u64))
    }
}

/// Reads one lane word at the checkpoint's width. For the scalar word
/// this is exactly the old 0/1-byte boolean read (with the same
/// out-of-range error on other bytes); wider words cannot be out of
/// domain.
fn read_word<L: LaneWord>(r: &mut Reader<'_>, field: &'static str) -> Result<L, SimError> {
    let bytes = r.take(L::WIRE_BYTES, field)?;
    L::from_wire(bytes).ok_or_else(|| out_of_range(field, u64::from(bytes[0]), 1))
}

impl<L: LaneWord> SimCheckpoint<L> {
    /// The wire version this lane width encodes and expects: the version
    /// field names the width, so a cross-width decode fails before any
    /// structure is parsed.
    fn wire_version() -> u32 {
        if L::LANES == 1 {
            VERSION
        } else {
            VERSION_BATCH
        }
    }
    /// Serializes this checkpoint to the versioned, CRC-protected wire
    /// format described in the [module docs](self). `delays` must be the
    /// delay model the snapshotted simulator ran with — its digest is
    /// embedded so [`SimCheckpoint::from_bytes`] can refuse to resume
    /// under a different model (the quantized ticks inside the event
    /// queue would silently disagree otherwise).
    #[must_use]
    pub fn to_bytes(&self, delays: &DelayModel) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self.queue.len() * (26 + L::WIRE_BYTES)
                + self.arcs * (1 + L::WIRE_BYTES)
                + self.gates * (15 + L::PV_WIRE_BYTES + L::WIRE_BYTES)
                + self.outputs * 16,
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&Self::wire_version().to_le_bytes());

        let mut p = Vec::with_capacity(48);
        p.extend_from_slice(&self.fingerprint.to_le_bytes());
        p.extend_from_slice(&delay_digest(delays).to_le_bytes());
        p.extend_from_slice(&(self.gates as u64).to_le_bytes());
        p.extend_from_slice(&(self.arcs as u64).to_le_bytes());
        p.extend_from_slice(&(self.outputs as u64).to_le_bytes());
        if L::LANES != 1 {
            p.extend_from_slice(&(L::LANES as u64).to_le_bytes());
        }
        push_section(&mut out, SEC_HEADER.0, &p);

        p.clear();
        for x in [self.now, self.seq, self.events, self.rounds] {
            p.extend_from_slice(&x.to_le_bytes());
        }
        push_section(&mut out, SEC_STATE.0, &p);

        p.clear();
        p.extend_from_slice(&(self.queue.len() as u64).to_le_bytes());
        for e in &self.queue {
            p.extend_from_slice(&e.key.to_le_bytes());
            match e.kind {
                EventKind::Tokens {
                    gate,
                    value,
                    data,
                    acks,
                } => {
                    p.push(0);
                    p.extend_from_slice(&gate.to_le_bytes());
                    value.to_wire(&mut p);
                    push_bool(&mut p, data);
                    push_bool(&mut p, acks);
                }
                EventKind::Fire { gate } => {
                    p.push(1);
                    p.extend_from_slice(&gate.to_le_bytes());
                }
                EventKind::Produce { gate, gen } => {
                    p.push(2);
                    p.extend_from_slice(&gate.to_le_bytes());
                    p.extend_from_slice(&gen.to_le_bytes());
                }
                EventKind::Cleanup { gate, gen } => {
                    p.push(3);
                    p.extend_from_slice(&gate.to_le_bytes());
                    p.extend_from_slice(&gen.to_le_bytes());
                }
            }
        }
        push_section(&mut out, SEC_QUEUE.0, &p);

        p.clear();
        p.extend_from_slice(&self.tokens);
        for &v in &self.values {
            v.to_wire(&mut p);
        }
        push_section(&mut out, SEC_ARCS.0, &p);

        p.clear();
        p.extend_from_slice(&self.pin_tokens);
        for pv in &self.pin_vals {
            L::pv_to_wire(pv, &mut p);
        }
        for &a in &self.ack_missing {
            p.extend_from_slice(&a.to_le_bytes());
        }
        for &pi in &self.pending_input {
            if L::LANES == 1 {
                // The v1 packed byte: 0 = none, 1 = false, 2 = true.
                p.push(match pi {
                    None => 0,
                    Some(v) => 1 + u8::from(v.lane(0)),
                });
            } else {
                match pi {
                    None => p.push(0),
                    Some(v) => {
                        p.push(1);
                        v.to_wire(&mut p);
                    }
                }
            }
        }
        p.extend_from_slice(&self.flags);
        for &g in &self.gen {
            p.extend_from_slice(&g.to_le_bytes());
        }
        push_section(&mut out, SEC_GATES.0, &p);

        p.clear();
        p.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for q in &self.records {
            p.extend_from_slice(&(q.len() as u64).to_le_bytes());
            for &(v, t) in q {
                v.to_wire(&mut p);
                p.extend_from_slice(&t.to_le_bytes());
            }
        }
        push_section(&mut out, SEC_RECORDS.0, &p);

        out.extend_from_slice(&crc32(&out).to_le_bytes());
        out
    }

    /// Decodes a checkpoint from `bytes`, validating it end to end
    /// against the netlist and delay model it will be resumed under.
    ///
    /// The checks run cheapest-and-most-global first: magic, version,
    /// whole-file CRC (so any single byte flip is rejected before any
    /// structure is trusted), then per-section CRCs, then the header
    /// digests binding the bytes to `pl` and `delays`, then field-level
    /// range validation. Decoding never panics and never allocates more
    /// than the byte length supports, whatever the input.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointTruncated`], [`SimError::CheckpointBadMagic`],
    /// [`SimError::CheckpointVersionSkew`],
    /// [`SimError::CheckpointLaneMismatch`] (a checkpoint written at the
    /// other lane width — the version field names the width, so this is
    /// detected before any structure is parsed),
    /// [`SimError::CheckpointChecksum`],
    /// [`SimError::CheckpointDigestMismatch`] (wrong netlist, delay model,
    /// or shape counts), and [`SimError::CheckpointOutOfRange`] (indices
    /// or enum bytes outside their domain).
    pub fn from_bytes(bytes: &[u8], pl: &PlNetlist, delays: &DelayModel) -> Result<Self, SimError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(8, "magic")?;
        if magic != MAGIC {
            return Err(SimError::CheckpointBadMagic {
                found: magic.try_into().expect("8 bytes"),
            });
        }
        let version = r.u32("version")?;
        if version != Self::wire_version() {
            // A known version at the wrong width is a lane mismatch, not
            // skew: the encoding is valid, it just belongs to the other
            // simulator width.
            return Err(if version == VERSION || version == VERSION_BATCH {
                SimError::CheckpointLaneMismatch {
                    found: if version == VERSION { 1 } else { 64 },
                    expected: L::LANES as u32,
                }
            } else {
                SimError::CheckpointVersionSkew {
                    found: version,
                    supported: Self::wire_version(),
                }
            });
        }
        // Whole-file CRC before trusting any structure: guarantees every
        // single-byte corruption is caught, including inside length
        // fields that would otherwise mis-slice the section walk.
        if r.remaining() < 4 {
            return Err(SimError::CheckpointTruncated {
                context: "file trailer",
                needed: 4,
                available: r.remaining(),
            });
        }
        let body_len = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body_len..].try_into().expect("4 bytes"));
        let computed = crc32(&bytes[..body_len]);
        if stored != computed {
            return Err(SimError::CheckpointChecksum {
                section: "file",
                stored,
                computed,
            });
        }
        let mut r = Reader::new(&bytes[12..body_len]);

        let mut h = Reader::new(read_section(&mut r, SEC_HEADER)?);
        let fingerprint = h.u64("header fingerprint")?;
        let delays_stored = h.u64("header delay digest")?;
        let gates = h.u64("header gate count")?;
        let arcs = h.u64("header arc count")?;
        let outputs = h.u64("header output count")?;
        if L::LANES != 1 {
            let lanes = h.u64("header lane count")?;
            if lanes != L::LANES as u64 {
                return Err(SimError::CheckpointLaneMismatch {
                    found: lanes as u32,
                    expected: L::LANES as u32,
                });
            }
        }
        h.expect_end("header size")?;
        let expected_fp = netlist_fingerprint(pl);
        if fingerprint != expected_fp {
            return Err(SimError::CheckpointDigestMismatch {
                what: "netlist fingerprint",
                stored: fingerprint,
                expected: expected_fp,
            });
        }
        let expected_dd = delay_digest(delays);
        if delays_stored != expected_dd {
            return Err(SimError::CheckpointDigestMismatch {
                what: "delay model",
                stored: delays_stored,
                expected: expected_dd,
            });
        }
        for (what, stored, expected) in [
            ("gate count", gates, pl.gates().len() as u64),
            ("arc count", arcs, pl.arcs().len() as u64),
            ("output count", outputs, pl.output_gates().len() as u64),
        ] {
            if stored != expected {
                return Err(SimError::CheckpointDigestMismatch {
                    what,
                    stored,
                    expected,
                });
            }
        }
        let (gates, arcs, outputs) = (gates as usize, arcs as usize, outputs as usize);

        let mut s = Reader::new(read_section(&mut r, SEC_STATE)?);
        let now = s.u64("state now")?;
        let seq = s.u64("state seq")?;
        let events = s.u64("state events")?;
        let rounds = s.u64("state rounds")?;
        s.expect_end("state size")?;

        let mut q = Reader::new(read_section(&mut r, SEC_QUEUE)?);
        // Smallest event encoding: key (16) + tag (1) + gate (4).
        let n_events = q.count(21, "queue event count")?;
        let mut queue = Vec::with_capacity(n_events);
        let mut prev_key = None;
        for _ in 0..n_events {
            let key = q.u128("queue event key")?;
            if prev_key.is_some_and(|p| p >= key) {
                return Err(out_of_range(
                    "queue key order",
                    queue.len() as u64,
                    n_events as u64,
                ));
            }
            prev_key = Some(key);
            let event_seq = key as u64;
            if event_seq >= seq {
                return Err(out_of_range("queue event seq", event_seq, seq));
            }
            let kind = match q.u8("queue event tag")? {
                0 => {
                    let gate = q.u32("queue event gate")?;
                    check_gate(gate, gates, "queue event gate")?;
                    EventKind::Tokens {
                        gate,
                        value: read_word::<L>(&mut q, "queue event value")?,
                        data: q.bool("queue event data")?,
                        acks: q.bool("queue event acks")?,
                    }
                }
                1 => {
                    let gate = q.u32("queue event gate")?;
                    check_gate(gate, gates, "queue event gate")?;
                    EventKind::Fire { gate }
                }
                tag @ (2 | 3) => {
                    let gate = q.u32("queue event gate")?;
                    check_gate(gate, gates, "queue event gate")?;
                    let gen = q.u64("queue event gen")?;
                    if tag == 2 {
                        EventKind::Produce { gate, gen }
                    } else {
                        EventKind::Cleanup { gate, gen }
                    }
                }
                other => return Err(out_of_range("queue event tag", u64::from(other), 3)),
            };
            queue.push(Event { key, kind });
        }
        q.expect_end("queue section size")?;

        let mut a = Reader::new(read_section(&mut r, SEC_ARCS)?);
        let mut tokens = Vec::with_capacity(arcs);
        for _ in 0..arcs {
            tokens.push(u8::from(a.bool("arc token")?));
        }
        let mut values = Vec::with_capacity(arcs);
        for _ in 0..arcs {
            values.push(read_word::<L>(&mut a, "arc value")?);
        }
        a.expect_end("arcs section size")?;

        let mut g = Reader::new(read_section(&mut r, SEC_GATES)?);
        let pin_tokens = g.take(gates, "gate pin tokens")?.to_vec();
        let mut pin_vals = Vec::with_capacity(gates);
        for _ in 0..gates {
            let bytes = g.take(L::PV_WIRE_BYTES, "gate pin values")?;
            pin_vals.push(
                L::pv_from_wire(bytes)
                    .ok_or_else(|| out_of_range("gate pin values", u64::from(bytes[0]), 1))?,
            );
        }
        let mut ack_missing = Vec::with_capacity(gates);
        for _ in 0..gates {
            ack_missing.push(g.u32("gate ack counter")?);
        }
        let mut pending_input = Vec::with_capacity(gates);
        for _ in 0..gates {
            let tag = g.u8("gate pending input")?;
            pending_input.push(if L::LANES == 1 {
                // The v1 packed byte: 0 = none, 1 = false, 2 = true.
                match tag {
                    0 => None,
                    1 => Some(L::splat(false)),
                    2 => Some(L::splat(true)),
                    other => return Err(out_of_range("gate pending input", u64::from(other), 2)),
                }
            } else {
                match tag {
                    0 => None,
                    1 => Some(read_word::<L>(&mut g, "gate pending input")?),
                    other => return Err(out_of_range("gate pending input", u64::from(other), 1)),
                }
            });
        }
        let mut flags = Vec::with_capacity(gates);
        for _ in 0..gates {
            let f = g.u8("gate flags")?;
            if f > 0x0F {
                return Err(out_of_range("gate flags", u64::from(f), 0x0F));
            }
            flags.push(f);
        }
        let mut gen = Vec::with_capacity(gates);
        for _ in 0..gates {
            gen.push(g.u64("gate generation")?);
        }
        g.expect_end("gates section size")?;

        let mut rec = Reader::new(read_section(&mut r, SEC_RECORDS)?);
        let n_queues = rec.count(8, "record queue count")?;
        if n_queues != outputs {
            return Err(out_of_range(
                "record queue count",
                n_queues as u64,
                outputs as u64,
            ));
        }
        let mut records = Vec::with_capacity(outputs);
        for _ in 0..outputs {
            let n = rec.count(L::WIRE_BYTES + 8, "record entry count")?;
            let mut queue = VecDeque::with_capacity(n);
            for _ in 0..n {
                let v = read_word::<L>(&mut rec, "record value")?;
                let t = rec.u64("record tick")?;
                queue.push_back((v, t));
            }
            records.push(queue);
        }
        rec.expect_end("records section size")?;
        r.expect_end("trailing bytes")?;

        Ok(SimCheckpoint {
            gates,
            arcs,
            outputs,
            fingerprint,
            now,
            seq,
            events,
            rounds,
            queue,
            tokens,
            values,
            pin_tokens,
            pin_vals,
            ack_missing,
            pending_input,
            flags,
            gen,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BatchSimulator, PlSimulator};
    use pl_netlist::Netlist;

    fn counter() -> PlNetlist {
        let mut n = Netlist::new("cnt");
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        let t1 = n.add_xor2(q1, q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        n.set_output("q0", q0);
        n.set_output("q1", q1);
        PlNetlist::from_sync(&n).unwrap()
    }

    /// A mid-stream checkpoint of a free-running counter: non-empty event
    /// queue, non-trivial records, every section populated.
    fn mid_stream_checkpoint(pl: &PlNetlist) -> SimCheckpoint {
        let mut sim = PlSimulator::new(pl, DelayModel::default()).unwrap();
        for _ in 0..3 {
            sim.run_vector(&[]).unwrap();
        }
        sim.feed_vector(&[]).unwrap();
        let ck = sim.snapshot();
        assert!(ck.queued_events() > 0, "the counter free-runs");
        ck
    }

    /// The 64-lane analogue of [`mid_stream_checkpoint`].
    fn mid_stream_batch_checkpoint(pl: &PlNetlist) -> SimCheckpoint<u64> {
        let mut sim = BatchSimulator::new(pl, DelayModel::default()).unwrap();
        for _ in 0..3 {
            sim.run_vector(&[]).unwrap();
        }
        sim.feed_vector(&[]).unwrap();
        let ck = sim.snapshot();
        assert!(ck.queued_events() > 0, "the counter free-runs");
        ck
    }

    /// Recomputes every section CRC and the trailer after a deliberate
    /// payload mutation, so tests can exercise the semantic validators
    /// behind the checksums.
    fn fix_crcs(bytes: &mut [u8]) {
        let end = bytes.len() - 4;
        let mut pos = 12;
        while pos + 9 <= end {
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            let p = pos + 9;
            let crc = crc32(&bytes[p..p + len]);
            bytes[p + len..p + len + 4].copy_from_slice(&crc.to_le_bytes());
            pos = p + len + 4;
        }
        let trailer = crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&trailer.to_le_bytes());
    }

    /// Byte offset of section `index`'s payload (0-based, file order).
    fn payload_offset(bytes: &[u8], index: usize) -> usize {
        let mut pos = 12;
        for _ in 0..index {
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            pos += 9 + len + 4;
        }
        pos + 9
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_is_identity_mid_stream() {
        let pl = counter();
        let delays = DelayModel::default();
        let ck = mid_stream_checkpoint(&pl);
        let bytes = ck.to_bytes(&delays);
        let back = SimCheckpoint::from_bytes(&bytes, &pl, &delays).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn round_trip_resumes_bit_identically() {
        let pl = counter();
        let delays = DelayModel::default();
        let mut reference = PlSimulator::new(&pl, delays.clone()).unwrap();
        let expected: Vec<_> = (0..8).map(|_| reference.run_vector(&[]).unwrap()).collect();

        let mut first = PlSimulator::new(&pl, delays.clone()).unwrap();
        for e in &expected[..4] {
            assert_eq!(&first.run_vector(&[]).unwrap(), e);
        }
        let bytes = first.snapshot().to_bytes(&delays);
        let ck = SimCheckpoint::from_bytes(&bytes, &pl, &delays).unwrap();
        let mut resumed = PlSimulator::resume_from(&pl, delays, &ck).unwrap();
        for e in &expected[4..] {
            assert_eq!(&resumed.run_vector(&[]).unwrap(), e);
        }
    }

    #[test]
    fn initial_state_round_trips() {
        let pl = counter();
        let delays = DelayModel::default();
        let ck = PlSimulator::new(&pl, delays.clone()).unwrap().snapshot();
        let bytes = ck.to_bytes(&delays);
        assert_eq!(SimCheckpoint::from_bytes(&bytes, &pl, &delays).unwrap(), ck);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let pl = counter();
        let delays = DelayModel::default();
        let bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        for len in 0..bytes.len() {
            let err = SimCheckpoint::<bool>::from_bytes(&bytes[..len], &pl, &delays)
                .expect_err("truncated input must not decode");
            // Any typed error is acceptable; none may panic.
            let _ = err.to_string();
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let pl = counter();
        let delays = DelayModel::default();
        let bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xA5;
            let err = SimCheckpoint::<bool>::from_bytes(&corrupt, &pl, &delays)
                .expect_err("flipped byte must not decode");
            let _ = err.to_string();
        }
    }

    #[test]
    fn bad_magic_is_named() {
        let pl = counter();
        let delays = DelayModel::default();
        let mut bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        bytes[0] = b'X';
        match SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &delays) {
            Err(SimError::CheckpointBadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("expected CheckpointBadMagic, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_named() {
        let pl = counter();
        let delays = DelayModel::default();
        let mut bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        // A future-version file would carry valid CRCs; only the version
        // differs.
        fix_crcs(&mut bytes);
        match SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &delays) {
            Err(SimError::CheckpointVersionSkew {
                found: 3,
                supported: VERSION,
            }) => {}
            other => panic!("expected CheckpointVersionSkew, got {other:?}"),
        }
    }

    #[test]
    fn lane_mismatch_is_named_in_both_directions() {
        let pl = counter();
        let delays = DelayModel::default();
        // A scalar (v1) file into a 64-lane decoder...
        let scalar_bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        match SimCheckpoint::<u64>::from_bytes(&scalar_bytes, &pl, &delays) {
            Err(SimError::CheckpointLaneMismatch {
                found: 1,
                expected: 64,
            }) => {}
            other => panic!("expected CheckpointLaneMismatch, got {other:?}"),
        }
        // ...and a 64-lane (v2) file into a scalar decoder.
        let batch_bytes = mid_stream_batch_checkpoint(&pl).to_bytes(&delays);
        match SimCheckpoint::<bool>::from_bytes(&batch_bytes, &pl, &delays) {
            Err(SimError::CheckpointLaneMismatch {
                found: 64,
                expected: 1,
            }) => {}
            other => panic!("expected CheckpointLaneMismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrong_netlist_is_a_digest_mismatch() {
        let pl = counter();
        let delays = DelayModel::default();
        let bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        let mut n = Netlist::new("xor");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_xor2(a, b).unwrap();
        n.set_output("y", g);
        let other = PlNetlist::from_sync(&n).unwrap();
        match SimCheckpoint::<bool>::from_bytes(&bytes, &other, &delays) {
            Err(SimError::CheckpointDigestMismatch {
                what: "netlist fingerprint",
                ..
            }) => {}
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrong_delay_model_is_a_digest_mismatch() {
        let pl = counter();
        let delays = DelayModel::default();
        let bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        let scaled = delays.scaled(2.0);
        match SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &scaled) {
            Err(SimError::CheckpointDigestMismatch {
                what: "delay model",
                ..
            }) => {}
            other => panic!("expected a delay-model mismatch, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_gate_index_is_rejected_despite_valid_checksums() {
        let pl = counter();
        let delays = DelayModel::default();
        let ck = mid_stream_checkpoint(&pl);
        let mut bytes = ck.to_bytes(&delays);
        // QUEUE is the third section; its payload starts with the event
        // count (8 bytes), then key (16) + tag (1) + gate (4).
        let gate_at = payload_offset(&bytes, 2) + 8 + 16 + 1;
        bytes[gate_at..gate_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fix_crcs(&mut bytes);
        match SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &delays) {
            Err(SimError::CheckpointOutOfRange {
                field: "queue event gate",
                ..
            }) => {}
            other => panic!("expected an out-of-range gate, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_section_names_itself() {
        let pl = counter();
        let delays = DelayModel::default();
        let mut bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        // Flip one payload byte inside STATE (section 2) and repair only
        // the trailer, leaving the section CRC stale: the decoder must
        // name the section.
        let state_at = payload_offset(&bytes, 1);
        bytes[state_at] ^= 0xFF;
        let end = bytes.len() - 4;
        let trailer = crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&trailer.to_le_bytes());
        match SimCheckpoint::<bool>::from_bytes(&bytes, &pl, &delays) {
            Err(SimError::CheckpointChecksum {
                section: "STATE", ..
            }) => {}
            other => panic!("expected the STATE checksum to fail, got {other:?}"),
        }
    }

    #[test]
    fn batch_round_trip_is_identity_mid_stream() {
        let pl = counter();
        let delays = DelayModel::default();
        let ck = mid_stream_batch_checkpoint(&pl);
        let bytes = ck.to_bytes(&delays);
        let back = SimCheckpoint::<u64>::from_bytes(&bytes, &pl, &delays).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn batch_round_trip_resumes_bit_identically() {
        let pl = counter();
        let delays = DelayModel::default();
        let mut reference = BatchSimulator::new(&pl, delays.clone()).unwrap();
        let expected: Vec<_> = (0..8).map(|_| reference.run_vector(&[]).unwrap()).collect();

        let mut first = BatchSimulator::new(&pl, delays.clone()).unwrap();
        for e in &expected[..4] {
            assert_eq!(&first.run_vector(&[]).unwrap(), e);
        }
        let bytes = first.snapshot().to_bytes(&delays);
        let ck = SimCheckpoint::<u64>::from_bytes(&bytes, &pl, &delays).unwrap();
        let mut resumed = BatchSimulator::resume_from(&pl, delays, &ck).unwrap();
        for e in &expected[4..] {
            assert_eq!(&resumed.run_vector(&[]).unwrap(), e);
        }
    }

    #[test]
    fn batch_every_truncation_is_a_typed_error() {
        let pl = counter();
        let delays = DelayModel::default();
        let bytes = mid_stream_batch_checkpoint(&pl).to_bytes(&delays);
        for len in 0..bytes.len() {
            let err = SimCheckpoint::<u64>::from_bytes(&bytes[..len], &pl, &delays)
                .expect_err("truncated input must not decode");
            let _ = err.to_string();
        }
    }

    #[test]
    fn batch_every_single_byte_flip_is_rejected() {
        let pl = counter();
        let delays = DelayModel::default();
        let bytes = mid_stream_batch_checkpoint(&pl).to_bytes(&delays);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xA5;
            let err = SimCheckpoint::<u64>::from_bytes(&corrupt, &pl, &delays)
                .expect_err("flipped byte must not decode");
            let _ = err.to_string();
        }
    }

    #[test]
    fn delay_digest_distinguishes_components() {
        let d = DelayModel::default();
        assert_ne!(delay_digest(&d), delay_digest(&d.scaled(2.0)));
        // Swapping two component values must change the digest (FNV-1a
        // mixing is order-sensitive).
        let swapped = DelayModel {
            c_element: d.lut,
            lut: d.c_element,
            ..d.clone()
        };
        assert_ne!(delay_digest(&d), delay_digest(&swapped));
    }
}
