//! adv-store: the crash-safe artifact layer under the experiment pipeline.
//!
//! Every table and figure of the reproduction depends on cached trained
//! models (`ADVNN001`) and attack corpora (`ADVATK01`) — artifacts that take
//! minutes to hours to regenerate. A bare `fs::write` makes each of them a
//! liability: a kill mid-write leaves a torn file that the next run may
//! half-trust. This crate makes every artifact **either bit-for-bit valid
//! or detectably corrupt**:
//!
//! * [`codec`] — the little-endian [`codec::Writer`] and bounds-checked
//!   [`codec::Reader`] every binary format of the workspace encodes and
//!   decodes through, with one typed [`codec::DecodeError`].
//! * [`envelope`] — a versioned envelope (`ADVSTOR1`) carrying a CRC32 of
//!   the payload. One flipped bit anywhere in the file is caught on load.
//! * [`atomic`] — the classic durable-write sequence: write a temp file in
//!   the destination directory, `fsync` it, rename over the target, `fsync`
//!   the directory. A crash leaves either the old file or the new one,
//!   never a hybrid.
//! * [`save_artifact`] / [`load_artifact`] — the two combined. Corrupt
//!   files are **quarantined** (renamed to `<name>.corrupt`) so callers
//!   regenerate instead of repeatedly tripping over them, and every
//!   detection is visible in the `store.*` metrics.
//! * [`Journal`] — an append-only, CRC-framed record log for long sweeps: a
//!   killed attack run replays the valid prefix and resumes at the first
//!   uncrafted sample. Torn tails are truncated, never trusted.
//! * [`RunManifest`] — a journal of completed pipeline stages, letting
//!   `reproduce_all` skip finished stages on rerun.
//! * [`faults`] — an injectable I/O fault hook (torn write, bit flip,
//!   transient error) used by `adv-chaos` to prove, under seeded fault
//!   schedules, that no injected corruption goes undetected.
//!
//! The crate has no dependencies beyond `adv-profile` and performs no clock
//! reads; the fault-hook check costs each write one uncontended read lock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod atomic;
pub mod codec;
pub mod envelope;
pub mod faults;
pub mod journal;
pub mod manifest;

mod crc;

pub use atomic::atomic_write;
pub use crc::crc32;
pub use envelope::{open_envelope, seal_envelope, ENVELOPE_MAGIC, ENVELOPE_OVERHEAD};
pub use faults::{install_fault_hook, FaultHookGuard, IoFaultHook, WriteFault};
pub use journal::Journal;
pub use manifest::RunManifest;

use std::path::{Path, PathBuf};

/// Metric names this crate (and the callers it serves) publish through
/// [`adv_profile::count`]. Exported so CI schema checks and tests can grep
/// for them, and so the crates that own a counter's semantics (e.g.
/// `store.resumes` in the training loop) report through the same names.
pub mod metric_names {
    /// Successful atomic temp-write-fsync-rename sequences.
    pub const ATOMIC_RENAMES: &str = "store.atomic_renames";
    /// Envelope payloads rejected by CRC32 mismatch.
    pub const CRC_FAILURES: &str = "store.crc_failures";
    /// Corrupt files moved aside to `<name>.corrupt`.
    pub const QUARANTINED: &str = "store.quarantined";
    /// Interrupted runs resumed from a checkpoint or journal.
    pub const RESUMES: &str = "store.resumes";
    /// Pipeline stages skipped because a run manifest recorded them done.
    pub const STAGES_SKIPPED: &str = "store.stages_skipped";
    /// Cache entries rejected on load (corrupt, undecodable or mismatched).
    pub const CACHE_REJECTS: &str = "store.cache_rejects";
}

/// Errors surfaced by the artifact store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file failed envelope validation (bad magic, bad version, length
    /// mismatch or CRC32 mismatch) or its payload was undecodable.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What validation rejected.
        reason: String,
    },
    /// A deliberately injected transient write fault (see [`faults`]).
    InjectedWriteFault {
        /// The write target the fault hit.
        path: PathBuf,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt artifact {}: {reason}", path.display())
            }
            StoreError::InjectedWriteFault { path } => {
                write!(f, "injected transient write fault at {}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl StoreError {
    /// `true` when the error means the file simply does not exist.
    pub fn is_not_found(&self) -> bool {
        matches!(self, StoreError::Io(e) if e.kind() == std::io::ErrorKind::NotFound)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Recovers the guard from a poisoned lock. The store's only shared state
/// (the fault-hook slot) is a plain pointer swap that is never left
/// mid-update, so a panic elsewhere cannot have corrupted it.
fn unpoison<G>(r: std::result::Result<G, std::sync::PoisonError<G>>) -> G {
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Seals `payload` in a CRC-checked envelope and writes it atomically to
/// `path` (creating parent directories).
///
/// # Errors
///
/// Filesystem errors, or [`StoreError::InjectedWriteFault`] when a fault
/// hook injects a transient error.
pub fn save_artifact(path: impl AsRef<Path>, payload: &[u8]) -> Result<()> {
    atomic_write(path.as_ref(), &seal_envelope(payload))
}

/// Loads and validates an artifact written by [`save_artifact`].
///
/// On validation failure the file is quarantined to `<name>.corrupt`
/// (`store.quarantined`) so the caller's next run regenerates it instead of
/// tripping over the same bytes again.
///
/// # Errors
///
/// [`StoreError::Io`] (including `NotFound` — check
/// [`StoreError::is_not_found`]) and [`StoreError::Corrupt`] after
/// quarantine.
pub fn load_artifact(path: impl AsRef<Path>) -> Result<Vec<u8>> {
    let path = path.as_ref();
    let data = std::fs::read(path)?;
    match open_envelope(&data) {
        Ok(payload) => Ok(payload.to_vec()),
        Err(e) => {
            quarantine(path);
            Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                reason: e.to_string(),
            })
        }
    }
}

/// Moves a bad file aside to `<file name>.corrupt` (best effort) and bumps
/// the quarantine counter. Exposed for callers whose payload *decoders*
/// reject a CRC-valid file (e.g. a format-version drift): such files are
/// just as unusable and should not be re-read every run.
pub fn quarantine(path: &Path) {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".corrupt");
    let target = path.with_file_name(name);
    if std::fs::rename(path, &target).is_ok() {
        adv_profile::count(metric_names::QUARANTINED, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adv_store_lib_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmp("roundtrip");
        let path = dir.join("a/b/artifact.bin");
        let payload = b"the quick brown fox".to_vec();
        save_artifact(&path, &payload).unwrap();
        assert_eq!(load_artifact(&path).unwrap(), payload);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_not_found() {
        let err = load_artifact(tmp("missing").join("nope.bin")).unwrap_err();
        assert!(err.is_not_found());
    }

    #[test]
    fn bit_flip_is_detected_and_quarantined() {
        let dir = tmp("bitflip");
        let path = dir.join("artifact.bin");
        save_artifact(&path, b"payload bytes under test").unwrap();
        // Flip one bit in every byte position in turn; every single one
        // must be detected (magic, version, length, CRC or payload CRC).
        let pristine = std::fs::read(&path).unwrap();
        for pos in 0..pristine.len() {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            let err = load_artifact(&path).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt { .. }),
                "flip at byte {pos} not detected"
            );
            // The bad file was moved aside.
            assert!(!path.exists(), "flip at {pos}: file not quarantined");
            assert!(path.with_file_name("artifact.bin.corrupt").exists());
            std::fs::remove_file(path.with_file_name("artifact.bin.corrupt")).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        let dir = tmp("prefix");
        let path = dir.join("artifact.bin");
        save_artifact(&path, b"0123456789abcdef0123456789").unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            assert!(
                open_envelope(&full[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly validated"
            );
        }
        assert!(codec::single_bit_flips(&full).all(|bad| open_envelope(&bad).is_err()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_type_is_well_behaved() {
        fn assert_error<T: std::error::Error + Send + Sync>() {}
        assert_error::<StoreError>();
    }
}
