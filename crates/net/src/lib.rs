//! adv-net: a fault-hardened multi-tenant TCP front door for the serving
//! engine.
//!
//! The in-process [`adv_serve::ServeEngine`] already survives worker
//! panics, pipeline failures, and deadline pressure; this crate puts a wire
//! boundary in front of it, where the *other* half of production failure
//! modes live — slow clients, torn frames, retry storms, tenant overload.
//! Everything is std-only: a thread-per-connection listener over a
//! length-prefixed binary protocol.
//!
//! The pieces:
//!
//! * [`Frame`] — the `ADVNET1` wire format: magic / version / length /
//!   CRC32 framing (adv-store's envelope discipline applied to a socket)
//!   with strict typed rejection of anything malformed.
//! * [`TenantTable`] / [`TokenBucket`] — per-tenant API keys and
//!   token-bucket rate limits; authentication happens once per connection
//!   at `Hello` time, admission per request.
//! * [`NetServer`] — the listener: bounded concurrent connections,
//!   admission control that answers [`Frame::Busy`] *before* work enters
//!   the engine, client deadlines propagated into the engine's
//!   shed-expired path, slow-loris eviction, bounded retry with jittered
//!   backoff for transient pipeline failures, and graceful drain on
//!   shutdown (in-flight requests answered, new connects refused via the
//!   engine's `Draining` health state).
//! * [`NetClient`] — the matching blocking client used by the tests, the
//!   `loadgen` binary, and the roundtrip bench.
//! * [`FaultyStream`] — the chaos seam: wraps any stream and applies a
//!   [`NetFaultPlan`]'s seeded schedule of torn frames, bit flips, stalls,
//!   and disconnects.
//!
//! Accounting identity, asserted by the net-chaos soak: every request the
//! server *accepts* (admits into the engine) is answered exactly once —
//! `accepted = answered + shed_expired + abandoned`, where `abandoned`
//! counts replies that could not be delivered because the connection died
//! first. Refusals (`Busy`, auth failures, malformed frames) never enter
//! the engine and are counted separately.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod client;
mod fault;
mod frame;
mod limits;
mod metrics;
mod server;

pub use client::{ClientConfig, NetClient, Reply, ServerStatus};
pub use fault::{FaultyStream, NetFault, NetFaultPlan, NetFaultStats, NetStream};
pub use frame::{
    decode_header, read_frame, write_frame, BusyReason, Frame, FrameError, WireErrorCode,
    FRAME_MAGIC, HEADER_LEN, MAX_ROUTES, PROTOCOL_VERSION,
};
pub use limits::{derived_key, TenantPolicy, TenantSpec, TenantTable, TokenBucket};
pub use metrics::{NetMetrics, NetMetricsSnapshot};
pub use server::{NetServer, NetServerConfig};

/// Errors surfaced by the network layer.
#[derive(Debug)]
pub enum NetError {
    /// A malformed or corrupted frame (typed codec rejection).
    Frame(FrameError),
    /// A socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The peer closed the connection cleanly where a frame was expected.
    Closed,
    /// The server answered with a typed [`Frame::Error`].
    Remote {
        /// The error category the server reported.
        code: WireErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server refused admission with a [`Frame::Busy`] during the
    /// handshake (connection cap, draining).
    Refused {
        /// Why admission failed.
        reason: BusyReason,
        /// The server's suggested backoff, milliseconds.
        retry_after_ms: u32,
    },
    /// The peer sent a frame kind that is illegal in the current protocol
    /// state (e.g. a `Request` before `Hello`).
    Protocol(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Frame(e) => write!(f, "frame error: {e}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Closed => write!(f, "connection closed"),
            NetError::Remote { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            NetError::Refused {
                reason,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "refused at the door ({reason}); retry in {retry_after_ms}ms"
                )
            }
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Frame(e) => Some(e),
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> NetError {
        NetError::Frame(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetError>;
