//! The `ADVNET1` wire frame: a length-prefixed, CRC-guarded envelope for
//! every message the front door exchanges, reusing `adv-store`'s envelope
//! discipline (magic / version / length / CRC32, strict validation) on the
//! socket instead of the filesystem.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   "ADVNET1\0"  8 bytes
//! version u32          currently 2
//! kind    u8           frame kind discriminant
//! flags   u8           must be 0 in version 2
//! length  u32          payload byte count
//! crc32   u32          CRC32 of the payload
//! payload [u8; length]
//! ```
//!
//! Version 2 (the model-zoo protocol) added the `variant` routing key to
//! `Request`, engine health plus the live routing table to `Welcome`, the
//! `StatusQuery`/`Status` pair for mid-session observation, and the
//! `VariantUnavailable` busy reason. Version-1 peers are rejected at the
//! header (`BadVersion`) — both ends of this protocol live in this
//! workspace, so there is no compatibility shim.
//!
//! Validation is strict: wrong magic, unknown version or kind, nonzero
//! flags, a length that does not match the buffer, trailing bytes after the
//! payload, a CRC mismatch, or an out-of-range field inside the payload all
//! reject the frame with a typed [`FrameError`] — never a panic. The fuzz
//! suite pins this for every strict prefix and every single-bit flip of a
//! valid frame.

use adv_magnet::{DefenseScheme, Verdict};
use adv_serve::{EngineHealth, RouteInfo};
use adv_store::codec::{DecodeError, Reader, Writer};
use adv_store::crc32;

/// The frame magic (8 bytes, NUL-padded).
pub const FRAME_MAGIC: &[u8; 8] = b"ADVNET1\0";

/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 2;

/// Routing-table entries a `Welcome`/`Status` frame may carry — a sanity
/// bound, far above any realistic variant count.
pub const MAX_ROUTES: usize = 1024;

/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 8 + 4 + 1 + 1 + 4 + 4;

/// Why a server refused to take a request right now. Busy frames are the
/// admission-control answer: they are sent *before* any work enters the
/// engine, so a loaded or draining server degrades into fast, explicit
/// rejections instead of queue bloat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// The tenant exhausted its token bucket.
    RateLimited,
    /// The engine's request queue is at capacity (backpressure).
    QueueFull,
    /// The server is draining for shutdown; no new work is admitted.
    Draining,
    /// The server is at its concurrent-connection cap.
    Overloaded,
    /// The requested variant is not in the live routing table (unknown,
    /// retired, or its shard has failed); other variants may still serve.
    VariantUnavailable,
}

impl BusyReason {
    fn to_wire(self) -> u8 {
        match self {
            BusyReason::RateLimited => 1,
            BusyReason::QueueFull => 2,
            BusyReason::Draining => 3,
            BusyReason::Overloaded => 4,
            BusyReason::VariantUnavailable => 5,
        }
    }

    fn from_wire(b: u8) -> Result<BusyReason, FrameError> {
        match b {
            1 => Ok(BusyReason::RateLimited),
            2 => Ok(BusyReason::QueueFull),
            3 => Ok(BusyReason::Draining),
            4 => Ok(BusyReason::Overloaded),
            5 => Ok(BusyReason::VariantUnavailable),
            _ => Err(FrameError::BadField("busy reason")),
        }
    }
}

impl std::fmt::Display for BusyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusyReason::RateLimited => write!(f, "rate limited"),
            BusyReason::QueueFull => write!(f, "queue full"),
            BusyReason::Draining => write!(f, "draining"),
            BusyReason::Overloaded => write!(f, "overloaded"),
            BusyReason::VariantUnavailable => write!(f, "variant unavailable"),
        }
    }
}

fn health_to_wire(h: EngineHealth) -> u8 {
    match h {
        EngineHealth::Healthy => 0,
        EngineHealth::Degraded => 1,
        EngineHealth::Draining => 2,
        EngineHealth::Failed => 3,
    }
}

fn health_from_wire(b: u8) -> Result<EngineHealth, FrameError> {
    match b {
        0 => Ok(EngineHealth::Healthy),
        1 => Ok(EngineHealth::Degraded),
        2 => Ok(EngineHealth::Draining),
        3 => Ok(EngineHealth::Failed),
        _ => Err(FrameError::BadField("engine health")),
    }
}

fn encode_routes<'w>(w: &'w mut Writer, routes: &[RouteInfo]) -> &'w mut Writer {
    let count = routes.len().min(MAX_ROUTES);
    routes
        .iter()
        .take(count)
        .fold(w.u16(count as u16), |w, route| {
            w.u32(route.variant)
                .u32(route.version)
                .u8(health_to_wire(route.health))
        })
}

fn decode_routes(r: &mut Reader<'_>) -> Result<Vec<RouteInfo>, FrameError> {
    let count = r.u16()? as usize;
    if count > MAX_ROUTES {
        return Err(FrameError::BadField("route count"));
    }
    let mut routes = Vec::with_capacity(count);
    for _ in 0..count {
        routes.push(RouteInfo {
            variant: r.u32()?,
            version: r.u32()?,
            health: health_from_wire(r.u8()?)?,
        });
    }
    Ok(routes)
}

/// Typed error category carried by an [`Frame::Error`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorCode {
    /// Unknown tenant or wrong API key.
    Auth,
    /// The server could not parse the client's frame.
    Malformed,
    /// The defense pipeline failed terminally for this request.
    Pipeline,
    /// The request's deadline expired before a verdict was produced.
    DeadlineExpired,
    /// The request frame exceeded the server's size cap.
    TooLarge,
    /// Anything else (supervision failure, internal invariant).
    Internal,
}

impl WireErrorCode {
    fn to_wire(self) -> u8 {
        match self {
            WireErrorCode::Auth => 1,
            WireErrorCode::Malformed => 2,
            WireErrorCode::Pipeline => 3,
            WireErrorCode::DeadlineExpired => 4,
            WireErrorCode::TooLarge => 5,
            WireErrorCode::Internal => 6,
        }
    }

    fn from_wire(b: u8) -> Result<WireErrorCode, FrameError> {
        match b {
            1 => Ok(WireErrorCode::Auth),
            2 => Ok(WireErrorCode::Malformed),
            3 => Ok(WireErrorCode::Pipeline),
            4 => Ok(WireErrorCode::DeadlineExpired),
            5 => Ok(WireErrorCode::TooLarge),
            6 => Ok(WireErrorCode::Internal),
            _ => Err(FrameError::BadField("error code")),
        }
    }
}

impl std::fmt::Display for WireErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireErrorCode::Auth => write!(f, "auth"),
            WireErrorCode::Malformed => write!(f, "malformed"),
            WireErrorCode::Pipeline => write!(f, "pipeline"),
            WireErrorCode::DeadlineExpired => write!(f, "deadline expired"),
            WireErrorCode::TooLarge => write!(f, "too large"),
            WireErrorCode::Internal => write!(f, "internal"),
        }
    }
}

fn scheme_to_wire(s: DefenseScheme) -> u8 {
    match s {
        DefenseScheme::None => 0,
        DefenseScheme::DetectorOnly => 1,
        DefenseScheme::ReformerOnly => 2,
        DefenseScheme::Full => 3,
    }
}

fn scheme_from_wire(b: u8) -> Result<DefenseScheme, FrameError> {
    match b {
        0 => Ok(DefenseScheme::None),
        1 => Ok(DefenseScheme::DetectorOnly),
        2 => Ok(DefenseScheme::ReformerOnly),
        3 => Ok(DefenseScheme::Full),
        _ => Err(FrameError::BadField("defense scheme")),
    }
}

/// Every message the protocol can carry, server- and client-side.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: open a session as `tenant`, proving the API key.
    Hello {
        /// Tenant id presented by the client.
        tenant: u32,
        /// The tenant's API key.
        key: u64,
    },
    /// Server → client: the session is open.
    Welcome {
        /// Protocol version the server speaks.
        version: u32,
        /// Largest frame (payload bytes) the server will accept.
        max_frame: u32,
        /// Aggregate engine health at session open.
        health: EngineHealth,
        /// The live routing table: every variant currently admitting
        /// traffic, with its version and per-shard health.
        routes: Vec<RouteInfo>,
    },
    /// Client → server: classify one input.
    Request {
        /// Client-chosen request id, echoed in the reply.
        id: u64,
        /// Client deadline budget in milliseconds; 0 means "server
        /// default". Propagated into the engine's shed-expired path.
        deadline_ms: u32,
        /// Route tag (which corpus/endpoint the input belongs to).
        route: u32,
        /// Sample tag (resolvable back to the input at replay time).
        sample: u32,
        /// Defense variant to route to (0 = the default variant).
        variant: u32,
        /// Input shape (per-item, e.g. `[C, H, W]`).
        dims: Vec<u32>,
        /// Input data, row-major, `dims` product many values.
        data: Vec<f32>,
    },
    /// Server → client: the verdict for a request.
    Response {
        /// The request id this answers.
        id: u64,
        /// The defense pipeline's decision.
        verdict: Verdict,
        /// Scheme the batch actually ran under.
        scheme: DefenseScheme,
        /// `true` when the breaker had degraded the configured scheme.
        degraded: bool,
        /// Time the request waited in the engine queue, nanoseconds.
        queue_ns: u64,
        /// Pipeline execution time of the request's batch, nanoseconds.
        infer_ns: u64,
        /// Requests coalesced into the executed batch.
        batch: u32,
    },
    /// Server → client: the request was refused before entering the engine.
    Busy {
        /// The request id (0 for connection-level refusals).
        id: u64,
        /// Why admission failed.
        reason: BusyReason,
        /// Suggested client backoff before retrying, milliseconds.
        retry_after_ms: u32,
    },
    /// Server → client: the request failed with a typed error.
    Error {
        /// The request id (0 for connection-level errors).
        id: u64,
        /// Error category.
        code: WireErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Client → server: clean end of session.
    Bye,
    /// Client → server: report current health and the live routing table
    /// (answered with a [`Frame::Status`]); lets ops clients observe a
    /// drain or a hot swap mid-session without a side channel.
    StatusQuery,
    /// Server → client: the engine's current state.
    Status {
        /// Aggregate engine health.
        health: EngineHealth,
        /// Routing-table epoch (bumps on every hot-swap flip).
        epoch: u64,
        /// The live routing table.
        routes: Vec<RouteInfo>,
    },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Welcome { .. } => 2,
            Frame::Request { .. } => 3,
            Frame::Response { .. } => 4,
            Frame::Busy { .. } => 5,
            Frame::Error { .. } => 6,
            Frame::Bye => 7,
            Frame::StatusQuery => 8,
            Frame::Status { .. } => 9,
        }
    }

    /// Serializes the frame (header + payload) into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut w = Writer::with_capacity(HEADER_LEN + payload.len());
        w.bytes(FRAME_MAGIC)
            .u32(PROTOCOL_VERSION)
            .u8(self.kind())
            .u8(0) // flags, reserved
            .u32(payload.len() as u32)
            .u32(crc32(&payload))
            .bytes(&payload);
        w.into_vec()
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Frame::Hello { tenant, key } => w.u32(*tenant).u64(*key),
            Frame::Welcome {
                version,
                max_frame,
                health,
                routes,
            } => encode_routes(
                w.u32(*version).u32(*max_frame).u8(health_to_wire(*health)),
                routes,
            ),
            Frame::Request {
                id,
                deadline_ms,
                route,
                sample,
                variant,
                dims,
                data,
            } => w
                .u64(*id)
                .u32(*deadline_ms)
                .u32(*route)
                .u32(*sample)
                .u32(*variant)
                .u8(dims.len() as u8)
                .u32s(dims)
                .f32s(data),
            Frame::Response {
                id,
                verdict,
                scheme,
                degraded,
                queue_ns,
                infer_ns,
                batch,
            } => {
                let (tag, class) = match verdict {
                    Verdict::Detected => (0, 0),
                    Verdict::Classified(class) => (1, *class as u32),
                };
                w.u64(*id)
                    .u8(tag)
                    .u32(class)
                    .u8(scheme_to_wire(*scheme))
                    .u8(u8::from(*degraded))
                    .u64(*queue_ns)
                    .u64(*infer_ns)
                    .u32(*batch)
            }
            Frame::Busy {
                id,
                reason,
                retry_after_ms,
            } => w.u64(*id).u8(reason.to_wire()).u32(*retry_after_ms),
            Frame::Error { id, code, message } => {
                let msg = message.as_bytes();
                let len = msg.len().min(u16::MAX as usize);
                w.u64(*id)
                    .u8(code.to_wire())
                    .u16(len as u16)
                    .bytes(msg.get(..len).unwrap_or_default())
            }
            Frame::Bye | Frame::StatusQuery => &mut w,
            Frame::Status {
                health,
                epoch,
                routes,
            } => encode_routes(w.u8(health_to_wire(*health)).u64(*epoch), routes),
        };
        w.into_vec()
    }

    /// Parses exactly one frame from `buf`, which must contain the whole
    /// frame and nothing else.
    ///
    /// # Errors
    ///
    /// A typed [`FrameError`] for any malformation; see the module docs for
    /// the strictness contract.
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        let (kind, payload_len, stored_crc) = decode_header(buf)?;
        let payload = buf.get(HEADER_LEN..).unwrap_or_default();
        if payload.len() != payload_len {
            return Err(FrameError::LengthMismatch {
                header: payload_len as u64,
                actual: payload.len() as u64,
            });
        }
        decode_body(kind, payload, stored_crc)
    }

    /// Decodes a frame's body given an already-validated header. Used by
    /// the streaming reader, which pulls the header and payload off the
    /// socket separately.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    pub fn decode_body(kind: u8, payload: &[u8], stored_crc: u32) -> Result<Frame, FrameError> {
        decode_body(kind, payload, stored_crc)
    }
}

/// Writes one frame (header + payload) and flushes.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_frame<W: std::io::Write + ?Sized>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// Reads exactly one frame. Payloads above `max_payload` are rejected
/// *before* any allocation or payload read.
///
/// # Errors
///
/// [`crate::NetError::Closed`] on EOF at a frame boundary, `Io` on EOF or
/// socket failure mid-frame, `Frame` for any codec rejection.
pub fn read_frame<R: std::io::Read + ?Sized>(
    r: &mut R,
    max_payload: usize,
) -> crate::Result<Frame> {
    let mut header = [0u8; HEADER_LEN];
    fill(r, &mut header, true)?;
    let (kind, payload_len, stored_crc) = decode_header(&header)?;
    if payload_len > max_payload {
        return Err(FrameError::TooLarge {
            len: payload_len as u64,
            max: max_payload as u64,
        }
        .into());
    }
    let mut payload = vec![0u8; payload_len];
    fill(r, &mut payload, false)?;
    Ok(Frame::decode_body(kind, &payload, stored_crc)?)
}

/// Fills `buf` completely. `at_boundary` selects whether EOF before the
/// first byte is a clean close or a mid-frame truncation.
fn fill<R: std::io::Read + ?Sized>(
    r: &mut R,
    buf: &mut [u8],
    at_boundary: bool,
) -> crate::Result<()> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let (_, rest) = buf.split_at_mut(filled);
        let n = r.read(rest)?;
        if n == 0 {
            return Err(if at_boundary && filled == 0 {
                crate::NetError::Closed
            } else {
                crate::NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ))
            });
        }
        filled += n;
    }
    Ok(())
}

/// Validates the fixed header, returning `(kind, payload_len, crc32)`.
///
/// # Errors
///
/// Typed [`FrameError`] on truncation, bad magic/version/flags, or an
/// unknown kind.
pub fn decode_header(buf: &[u8]) -> Result<(u8, usize, u32), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated {
            have: buf.len(),
            need: HEADER_LEN,
        });
    }
    let mut r = Reader::new(buf);
    r.magic(FRAME_MAGIC, "frame magic")
        .map_err(|_| FrameError::BadMagic)?;
    let version = r.u32()?;
    if version != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = r.u8()?;
    if !(1..=9).contains(&kind) {
        return Err(FrameError::BadKind(kind));
    }
    let flags = r.u8()?;
    if flags != 0 {
        return Err(FrameError::BadFlags(flags));
    }
    Ok((kind, r.u32()? as usize, r.u32()?))
}

fn decode_body(kind: u8, payload: &[u8], stored_crc: u32) -> Result<Frame, FrameError> {
    let computed = crc32(payload);
    if stored_crc != computed {
        return Err(FrameError::CrcMismatch {
            stored: stored_crc,
            computed,
        });
    }
    let mut r = Reader::new(payload);
    let frame = match kind {
        1 => Frame::Hello {
            tenant: r.u32()?,
            key: r.u64()?,
        },
        2 => Frame::Welcome {
            version: r.u32()?,
            max_frame: r.u32()?,
            health: health_from_wire(r.u8()?)?,
            routes: decode_routes(&mut r)?,
        },
        3 => {
            let id = r.u64()?;
            let deadline_ms = r.u32()?;
            let route = r.u32()?;
            let sample = r.u32()?;
            let variant = r.u32()?;
            let rank = r.u8()? as usize;
            if rank == 0 || rank > 8 {
                return Err(FrameError::BadField("tensor rank"));
            }
            let dims = r.u32s(rank)?;
            if dims.contains(&0) {
                return Err(FrameError::BadField("zero tensor dim"));
            }
            // The remaining payload must carry exactly `volume` f32s; the
            // byte budget was already capped by the reader's max length.
            let volume = dims
                .iter()
                .fold(1u64, |v, &d| v.saturating_mul(u64::from(d)));
            if volume.saturating_mul(4) != r.remaining() as u64 {
                return Err(FrameError::BadField("tensor data length"));
            }
            let data = r.f32s(r.remaining() / 4)?;
            Frame::Request {
                id,
                deadline_ms,
                route,
                sample,
                variant,
                dims,
                data,
            }
        }
        4 => {
            let id = r.u64()?;
            let tag = r.u8()?;
            let class = r.u32()?;
            let verdict = match tag {
                0 if class == 0 => Verdict::Detected,
                1 => Verdict::Classified(class as usize),
                _ => return Err(FrameError::BadField("verdict")),
            };
            Frame::Response {
                id,
                verdict,
                scheme: scheme_from_wire(r.u8()?)?,
                degraded: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::BadField("degraded flag")),
                },
                queue_ns: r.u64()?,
                infer_ns: r.u64()?,
                batch: r.u32()?,
            }
        }
        5 => Frame::Busy {
            id: r.u64()?,
            reason: BusyReason::from_wire(r.u8()?)?,
            retry_after_ms: r.u32()?,
        },
        6 => {
            let id = r.u64()?;
            let code = WireErrorCode::from_wire(r.u8()?)?;
            let len = r.u16()? as usize;
            let raw = r.bytes(len)?;
            let message = std::str::from_utf8(raw)
                .map_err(|_| FrameError::BadField("error message utf8"))?
                .to_string();
            Frame::Error { id, code, message }
        }
        7 => Frame::Bye,
        8 => Frame::StatusQuery,
        9 => Frame::Status {
            health: health_from_wire(r.u8()?)?,
            epoch: r.u64()?,
            routes: decode_routes(&mut r)?,
        },
        other => return Err(FrameError::BadKind(other)),
    };
    match r.remaining() {
        0 => Ok(frame),
        extra => Err(FrameError::TrailingBytes { extra }),
    }
}

/// Why a frame was rejected. Every variant is a protocol-level decision the
/// peer caused; none of them are recoverable for the frame in question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the structure requires.
    Truncated {
        /// Bytes available (for a payload: those before the field that ran
        /// short).
        have: usize,
        /// Bytes required (for a payload: a lower bound, one more).
        need: usize,
    },
    /// The first 8 bytes are not [`FRAME_MAGIC`].
    BadMagic,
    /// Unknown protocol version.
    BadVersion(u32),
    /// Unknown frame kind discriminant.
    BadKind(u8),
    /// Reserved flags set (must be 0 in version 1).
    BadFlags(u8),
    /// Header length field disagrees with the bytes present.
    LengthMismatch {
        /// Length the header claims.
        header: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// Payload checksum mismatch (corruption in flight).
    CrcMismatch {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The payload declared a larger frame than the peer accepts.
    TooLarge {
        /// Payload length the header claims.
        len: u64,
        /// The enforced cap.
        max: u64,
    },
    /// Payload bytes left over after the structure was fully read.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
    /// An in-range structural field held an out-of-range value.
    BadField(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadFlags(fl) => write!(f, "reserved flags set: {fl:#04x}"),
            FrameError::LengthMismatch { header, actual } => {
                write!(
                    f,
                    "length mismatch: header says {header}, buffer has {actual}"
                )
            }
            FrameError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:08x}, computed {computed:08x}"
                )
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the payload")
            }
            FrameError::BadField(what) => write!(f, "out-of-range field: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Inside a frame the codec's reader fails only when the payload ends in
/// the middle of a field; every format-level check has its own variant.
impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Truncated {
            have: e.offset,
            need: e.offset + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                tenant: 7,
                key: 0xDEAD_BEEF_CAFE_F00D,
            },
            Frame::Welcome {
                version: PROTOCOL_VERSION,
                max_frame: 1 << 20,
                health: EngineHealth::Healthy,
                routes: vec![
                    RouteInfo {
                        variant: 0,
                        version: 3,
                        health: EngineHealth::Healthy,
                    },
                    RouteInfo {
                        variant: 2,
                        version: 1,
                        health: EngineHealth::Degraded,
                    },
                ],
            },
            Frame::Request {
                id: 42,
                deadline_ms: 250,
                route: 1,
                sample: 9,
                variant: 2,
                dims: vec![1, 4, 4],
                data: (0..16).map(|i| i as f32 / 16.0).collect(),
            },
            Frame::Response {
                id: 42,
                verdict: Verdict::Classified(3),
                scheme: DefenseScheme::Full,
                degraded: false,
                queue_ns: 1_000,
                infer_ns: 2_000,
                batch: 8,
            },
            Frame::Response {
                id: 43,
                verdict: Verdict::Detected,
                scheme: DefenseScheme::DetectorOnly,
                degraded: true,
                queue_ns: 0,
                infer_ns: 5,
                batch: 1,
            },
            Frame::Busy {
                id: 44,
                reason: BusyReason::RateLimited,
                retry_after_ms: 120,
            },
            Frame::Busy {
                id: 46,
                reason: BusyReason::VariantUnavailable,
                retry_after_ms: 0,
            },
            Frame::Error {
                id: 45,
                code: WireErrorCode::Pipeline,
                message: "detector failed".to_string(),
            },
            Frame::Bye,
            Frame::StatusQuery,
            Frame::Status {
                health: EngineHealth::Draining,
                epoch: 17,
                routes: vec![RouteInfo {
                    variant: 1,
                    version: 4,
                    health: EngineHealth::Draining,
                }],
            },
        ]
    }

    #[test]
    fn every_kind_roundtrips() {
        let mut all = Vec::new();
        for frame in sample_frames() {
            let bytes = frame.encode();
            assert_eq!(Frame::decode(&bytes).unwrap(), frame, "{frame:?}");
            // The CRC rejects every flip of a sealed frame, so each flipped
            // payload is resealed to reach the parser, which must not panic.
            for bad in adv_store::codec::single_bit_flips(&bytes[HEADER_LEN..]) {
                let _ = Frame::decode_body(frame.kind(), &bad, crc32(&bad));
            }
            all.extend(bytes);
        }
        let hash = adv_store::codec::fnv64(&all);
        assert_eq!(hash, 0xd6d7_fdd5_c799_5d9b, "{hash:#018x}");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Frame::Bye.encode();
        bytes.push(0);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn payload_corruption_rejected() {
        let mut bytes = Frame::Hello { tenant: 1, key: 2 }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn request_data_length_must_match_dims() {
        let frame = Frame::Request {
            id: 1,
            deadline_ms: 0,
            route: 0,
            sample: 0,
            variant: 0,
            dims: vec![2, 2],
            data: vec![0.0; 5], // one extra value
        };
        let bytes = frame.encode();
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::BadField("tensor data length"))
        );
    }

    #[test]
    fn zero_dims_and_zero_rank_rejected() {
        for (dims, data) in [(vec![0u32, 4], vec![0.0f32; 0]), (vec![], vec![])] {
            let bytes = Frame::Request {
                id: 1,
                deadline_ms: 0,
                route: 0,
                sample: 0,
                variant: 0,
                dims,
                data,
            }
            .encode();
            assert!(Frame::decode(&bytes).is_err());
        }
    }

    #[test]
    fn long_error_messages_are_clamped_not_lost() {
        let frame = Frame::Error {
            id: 1,
            code: WireErrorCode::Internal,
            message: "x".repeat(90_000),
        };
        let bytes = frame.encode();
        match Frame::decode(&bytes).unwrap() {
            Frame::Error { message, .. } => assert_eq!(message.len(), u16::MAX as usize),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_short_payload_is_truncated() {
        let bytes = Frame::Hello { tenant: 1, key: 2 }.encode();
        let payload = &bytes[HEADER_LEN..bytes.len() - 1];
        assert_eq!(
            Frame::decode_body(1, payload, crc32(payload)),
            Err(FrameError::Truncated { have: 4, need: 5 })
        );
    }
}
