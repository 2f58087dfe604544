//! Simulation error type.

use std::error::Error;
use std::fmt;

use pl_core::{PlArcId, PlError, PlGateId};

/// Errors produced by the discrete-event simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// Wrong number of primary-input values supplied for a vector.
    InputArityMismatch {
        /// Values supplied.
        got: usize,
        /// Input ports expected.
        expected: usize,
    },
    /// The token game stalled before every output produced its token — a
    /// liveness failure at run time.
    Deadlock {
        /// Simulation time at which no further event was schedulable.
        at_time: f64,
        /// Output ports still waiting for a token.
        missing_outputs: Vec<String>,
    },
    /// A second token was delivered onto an occupied arc — a safety
    /// violation (the marked graph was not safe).
    SafetyViolation {
        /// The over-full arc.
        arc: PlArcId,
        /// The gate that produced the extra token.
        producer: PlGateId,
    },
    /// An early-evaluation master was fired early although its known pins
    /// do not force the output — an unsound trigger.
    UnsoundTrigger {
        /// The offending master gate.
        master: PlGateId,
    },
    /// The netlist failed its structural (liveness) pre-check.
    Structural(PlError),
    /// A [`crate::SimCheckpoint`] was restored into a simulator whose
    /// netlist shape differs from the one the snapshot was taken from.
    CheckpointMismatch {
        /// Gate count of the snapshotted netlist.
        snapshot_gates: usize,
        /// Arc count of the snapshotted netlist.
        snapshot_arcs: usize,
        /// Output count of the snapshotted netlist.
        snapshot_outputs: usize,
        /// Gate count of the restoring simulator's netlist.
        netlist_gates: usize,
        /// Arc count of the restoring simulator's netlist.
        netlist_arcs: usize,
        /// Output count of the restoring simulator's netlist.
        netlist_outputs: usize,
    },
    /// A serialized checkpoint ([`crate::checkpoint::wire`]) ended before
    /// the bytes the decoder needed — the file (or buffer) was truncated.
    CheckpointTruncated {
        /// What the decoder was reading when the bytes ran out.
        context: &'static str,
        /// Bytes the decoder needed at that point.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A serialized checkpoint did not start with the wire-format magic —
    /// the bytes are not a checkpoint at all.
    CheckpointBadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// A serialized checkpoint was written by an unsupported wire-format
    /// version (see [`crate::checkpoint::wire`] for the evolution rules).
    CheckpointVersionSkew {
        /// Version number stored in the encoding.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// A serialized checkpoint was written at a different lane width than
    /// the simulator decoding it (scalar checkpoints restore only into
    /// scalar simulators, 64-lane into 64-lane).
    CheckpointLaneMismatch {
        /// Lane count the encoding was written at.
        found: u32,
        /// Lane count of the decoding simulator.
        expected: u32,
    },
    /// A serialized checkpoint's identity digest (netlist fingerprint,
    /// delay-model digest, or a shape count) disagrees with the netlist /
    /// delay model it is being decoded against.
    CheckpointDigestMismatch {
        /// Which digest disagreed.
        what: &'static str,
        /// The value stored in the encoding.
        stored: u64,
        /// The value computed from the decode context.
        expected: u64,
    },
    /// A CRC32 over a serialized checkpoint section (or the whole file)
    /// did not match — the bytes were corrupted in flight or at rest.
    CheckpointChecksum {
        /// Which section failed its checksum.
        section: &'static str,
        /// The CRC stored in the encoding.
        stored: u32,
        /// The CRC computed over the received bytes.
        computed: u32,
    },
    /// A decoded checkpoint field landed outside its valid domain (a gate
    /// index past the netlist, a flag byte with unknown bits, a non-0/1
    /// boolean, ...) even though every checksum passed.
    CheckpointOutOfRange {
        /// Which field was out of range.
        field: &'static str,
        /// The decoded value.
        value: u64,
        /// The exclusive upper bound (or bit-mask limit) it violated.
        limit: u64,
    },
    /// An I/O operation on a checkpoint directory failed (the `std::io`
    /// error is carried as text so this enum stays `Clone + PartialEq`).
    CheckpointIo {
        /// The file or directory the operation touched.
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A resumed sweep's parameters disagree with the `sweep.meta` the
    /// checkpoint directory was created with — the directory belongs to a
    /// different run.
    ResumeMismatch {
        /// Which parameter disagreed.
        field: &'static str,
        /// The value recorded in `sweep.meta`.
        stored: u64,
        /// The value of the current invocation.
        expected: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InputArityMismatch { got, expected } => {
                write!(f, "expected {expected} input values, got {got}")
            }
            SimError::Deadlock {
                at_time,
                missing_outputs,
            } => {
                write!(
                    f,
                    "deadlock at t={at_time}: outputs {} never produced a token",
                    missing_outputs.join(", ")
                )
            }
            SimError::SafetyViolation { arc, producer } => {
                write!(
                    f,
                    "safety violation: gate {producer} double-marked arc {arc}"
                )
            }
            SimError::UnsoundTrigger { master } => {
                write!(
                    f,
                    "unsound trigger fired master {master} without a forced output"
                )
            }
            SimError::Structural(e) => write!(f, "structural check failed: {e}"),
            SimError::CheckpointMismatch {
                snapshot_gates,
                snapshot_arcs,
                snapshot_outputs,
                netlist_gates,
                netlist_arcs,
                netlist_outputs,
            } => {
                write!(
                    f,
                    "checkpoint restored onto a structurally different netlist: snapshot \
                     over a {snapshot_gates}-gate/{snapshot_arcs}-arc/{snapshot_outputs}\
                     -output netlist, restoring simulator over a {netlist_gates}-gate/\
                     {netlist_arcs}-arc/{netlist_outputs}-output netlist (equal counts \
                     mean the arc topologies differ)"
                )
            }
            SimError::CheckpointTruncated {
                context,
                needed,
                available,
            } => {
                write!(
                    f,
                    "checkpoint truncated while reading {context}: needed {needed} \
                     bytes, only {available} available"
                )
            }
            SimError::CheckpointBadMagic { found } => {
                write!(f, "checkpoint bad magic: found {found:02x?}")
            }
            SimError::CheckpointVersionSkew { found, supported } => {
                write!(
                    f,
                    "checkpoint version skew: encoded as format v{found}, this \
                     build supports v{supported}"
                )
            }
            SimError::CheckpointLaneMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint lane mismatch: encoded at {found} lane(s), \
                     this simulator runs {expected} lane(s)"
                )
            }
            SimError::CheckpointDigestMismatch {
                what,
                stored,
                expected,
            } => {
                write!(
                    f,
                    "checkpoint digest mismatch on {what}: stored {stored:#x}, \
                     expected {expected:#x} (the checkpoint belongs to a \
                     different design or delay model)"
                )
            }
            SimError::CheckpointChecksum {
                section,
                stored,
                computed,
            } => {
                write!(
                    f,
                    "checkpoint checksum failure in {section}: stored \
                     {stored:#010x}, computed {computed:#010x}"
                )
            }
            SimError::CheckpointOutOfRange {
                field,
                value,
                limit,
            } => {
                write!(
                    f,
                    "checkpoint field {field} out of range: value {value}, \
                     limit {limit}"
                )
            }
            SimError::CheckpointIo { path, message } => {
                write!(f, "checkpoint i/o failure on {path}: {message}")
            }
            SimError::ResumeMismatch {
                field,
                stored,
                expected,
            } => {
                write!(
                    f,
                    "resume mismatch on {field}: sweep.meta records {stored:#x}, \
                     this invocation has {expected:#x} (the checkpoint directory \
                     belongs to a different sweep)"
                )
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Structural(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<PlError> for SimError {
    fn from(e: PlError) -> Self {
        SimError::Structural(e)
    }
}

/// Why a bounded decode of untrusted bytes
/// ([`crate::checkpoint::wire::Reader`]) failed. The checkpoint and
/// resume decoders report it as the matching [`SimError`]; the `pld`
/// protocol as a malformed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the bytes the decoder needed.
    Truncated {
        /// What the decoder was reading.
        context: &'static str,
        /// Bytes it needed.
        needed: usize,
        /// Bytes left.
        available: usize,
    },
    /// A value or count outside its domain.
    OutOfRange {
        /// The field read.
        field: &'static str,
        /// The value found.
        value: u64,
        /// The bound it broke.
        limit: u64,
    },
    /// Bytes left after the last field.
    Trailing {
        /// What should have ended.
        field: &'static str,
        /// Bytes left.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated while reading {context}: needed {needed} bytes, only {available} available"
            ),
            DecodeError::OutOfRange {
                field,
                value,
                limit,
            } => write!(f, "{field} out of range: value {value}, limit {limit}"),
            DecodeError::Trailing { field, remaining } => {
                write!(f, "{field}: {remaining} trailing byte(s)")
            }
        }
    }
}

impl Error for DecodeError {}

/// [`SimError`] has no trailing-bytes variant: trailing bytes are an
/// out-of-range value (the count left) against a limit of 0.
impl From<DecodeError> for SimError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated {
                context,
                needed,
                available,
            } => SimError::CheckpointTruncated {
                context,
                needed,
                available,
            },
            DecodeError::OutOfRange {
                field,
                value,
                limit,
            } => SimError::CheckpointOutOfRange {
                field,
                value,
                limit,
            },
            DecodeError::Trailing { field, remaining } => SimError::CheckpointOutOfRange {
                field,
                value: remaining as u64,
                limit: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_ports() {
        let e = SimError::Deadlock {
            at_time: 4.2,
            missing_outputs: vec!["y".into()],
        };
        assert!(e.to_string().contains('y'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<SimError>();
    }
}
