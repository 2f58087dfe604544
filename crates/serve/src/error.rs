//! The daemon's error type, spanning framing, request decoding, option
//! validation and the compile pipeline itself.

use pl_flow::FlowError;
use pl_sim::DecodeError;

/// Errors from the `pld` protocol and the services behind it.
///
/// The variants mirror the protocol's error codes (see
/// [`crate::proto`]): a [`ServeError::Frame`] means the byte stream
/// itself was malformed (the server answers with code `ERR_FRAME` and
/// closes the connection), while the other server-side variants keep
/// the connection alive — one bad request must not take down the
/// session, let alone the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// The byte stream violated the framing layer: bad magic, an
    /// oversized or truncated frame, a checksum mismatch.
    Frame {
        /// Which framing rule was violated.
        context: &'static str,
        /// Details (found/expected values, byte counts).
        message: String,
    },
    /// A well-framed payload that does not decode to a request or
    /// response: unknown kind byte, out-of-domain field, trailing
    /// bytes, invalid UTF-8.
    Request {
        /// What failed to decode.
        message: String,
    },
    /// A socket-level failure (connect, read, write, timeout).
    Io {
        /// What was being done when the socket failed.
        context: &'static str,
        /// The underlying I/O error.
        message: String,
    },
    /// The compile pipeline rejected the request (including
    /// [`FlowError::Options`] from `FlowOptions::validate`).
    Flow(FlowError),
    /// Client side only: the server answered with a typed error frame.
    Remote {
        /// The protocol error code (see [`crate::proto`]).
        code: u16,
        /// The server's message.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Frame { context, message } => write!(f, "bad frame ({context}): {message}"),
            ServeError::Request { message } => write!(f, "bad request: {message}"),
            ServeError::Io { context, message } => write!(f, "io ({context}): {message}"),
            ServeError::Flow(e) => write!(f, "flow: {e}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FlowError> for ServeError {
    fn from(e: FlowError) -> Self {
        ServeError::Flow(e)
    }
}

/// A payload that fails to decode is a malformed request: the server
/// answers `ERR_REQUEST` and keeps the connection.
impl From<DecodeError> for ServeError {
    fn from(e: DecodeError) -> Self {
        ServeError::Request {
            message: e.to_string(),
        }
    }
}
