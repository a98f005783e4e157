//! The versioned artifact envelope.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   "ADVSTOR1"   8 bytes
//! version u32          currently 1
//! length  u64          payload byte count
//! crc32   u32          CRC32 of the payload
//! payload [u8; length]
//! ```
//!
//! Validation is strict: wrong magic, unknown version, a length that does
//! not match the file, trailing bytes after the payload, or a CRC mismatch
//! all reject the file. Combined with the atomic writer this means a stored
//! artifact is either exactly what was written or detectably corrupt.

use crate::codec::{DecodeError, Reader, Writer};
use crate::crc::crc32;
use crate::obs;

/// The envelope magic.
pub const ENVELOPE_MAGIC: &[u8; 8] = b"ADVSTOR1";

/// Envelope format version this build writes and accepts.
const VERSION: u32 = 1;

/// Bytes the envelope adds on top of the payload.
pub const ENVELOPE_OVERHEAD: usize = 8 + 4 + 8 + 4;

/// Wraps `payload` in a sealed envelope.
pub fn seal_envelope(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(ENVELOPE_OVERHEAD + payload.len());
    w.bytes(ENVELOPE_MAGIC)
        .u32(VERSION)
        .usize(payload.len())
        .u32(crc32(payload))
        .bytes(payload);
    w.into_vec()
}

/// Validates an envelope and returns a view of the payload.
///
/// # Errors
///
/// A [`DecodeError`] naming the rejected field; CRC mismatches additionally
/// bump the `store.crc_failures` counter. The error is path-free:
/// [`crate::load_artifact`] folds it into [`crate::StoreError::Corrupt`]
/// together with the file path.
pub fn open_envelope(data: &[u8]) -> Result<&[u8], DecodeError> {
    let mut r = Reader::new(data);
    r.magic(ENVELOPE_MAGIC, "envelope magic ADVSTOR1")?;
    if r.u32()? != VERSION {
        return Err(r.fail("envelope version 1"));
    }
    let length = r.u64()?;
    let stored_crc = r.u32()?;
    if r.remaining() as u64 != length {
        return Err(r.fail("a payload of the header's length"));
    }
    let payload = r.bytes(r.remaining())?;
    if crc32(payload) != stored_crc {
        obs::bump(crate::metric_names::CRC_FAILURES);
        return Err(r.fail("a payload matching the header's crc32"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for payload in [&b""[..], b"x", b"a longer payload with content"] {
            let sealed = seal_envelope(payload);
            assert_eq!(open_envelope(&sealed).unwrap(), payload);
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut sealed = seal_envelope(b"abc");
        sealed[0] = b'X';
        assert!(open_envelope(&sealed)
            .unwrap_err()
            .expected
            .contains("magic"));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut sealed = seal_envelope(b"abc");
        sealed[8] = 9;
        assert!(open_envelope(&sealed)
            .unwrap_err()
            .expected
            .contains("version"));
    }

    #[test]
    fn truncation_and_extension_rejected() {
        let sealed = seal_envelope(b"some payload");
        let short = &sealed[..sealed.len() - 1];
        assert!(open_envelope(short)
            .unwrap_err()
            .expected
            .contains("length"));
        let mut long = sealed.clone();
        long.push(0);
        assert!(open_envelope(&long)
            .unwrap_err()
            .expected
            .contains("length"));
    }

    #[test]
    fn payload_corruption_rejected() {
        let mut sealed = seal_envelope(b"some payload");
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert!(open_envelope(&sealed).unwrap_err().expected.contains("crc"));
    }

    #[test]
    fn sealed_bytes_are_pinned() {
        let hash = crate::codec::fnv64(&seal_envelope(b"pinned payload \x00\xff"));
        assert_eq!(hash, 0x70ed_7f30_ff2d_cb9f, "{hash:#018x}");
    }
}
