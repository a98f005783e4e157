//! The durable write sequence.
//!
//! `atomic_write` commits bytes with the classic four-step dance:
//!
//! 1. write the full image to a uniquely-named temp file **in the target's
//!    directory** (same filesystem, so the rename below is atomic),
//! 2. `fsync` the temp file (data reaches the platter before the name),
//! 3. `rename` it over the target (POSIX rename is atomic: readers see the
//!    old file or the new one, never a mix),
//! 4. `fsync` the directory (the rename itself is durable).
//!
//! A crash at any point leaves either the previous artifact or the new one
//! plus at worst an orphaned `.tmp-*` file, which the next successful write
//! of the same artifact cleans up.

use crate::faults::{self, WriteFault};
use crate::obs;
use crate::{metric_names, Result, StoreError};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone suffix so concurrent writers in one process never collide on a
/// temp name.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces `path` with `bytes`, creating parent directories.
///
/// # Errors
///
/// Filesystem errors, or [`StoreError::InjectedWriteFault`] when an
/// installed fault hook injects a transient error. Torn-write and bit-flip
/// faults are *silent* by design (they simulate corruption the writer never
/// observed); they are what envelope validation exists to catch.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => {
            fs::create_dir_all(parent)?;
            parent.to_path_buf()
        }
        _ => std::path::PathBuf::from("."),
    };
    let fault = faults::decide(path, bytes.len());
    if fault == WriteFault::TransientError {
        return Err(StoreError::InjectedWriteFault {
            path: path.to_path_buf(),
        });
    }
    let image = faults::corrupt_image(bytes, fault);
    let image: &[u8] = image.as_deref().unwrap_or(bytes);

    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let tmp = dir.join(format!(".tmp-{}-{seq}-{file_name}", std::process::id()));

    let result = (|| -> Result<()> {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(image)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        // Make the rename itself durable. Directories cannot be fsync'd on
        // every platform; failure to open or sync is not a correctness
        // problem (the data file itself is already synced), so best-effort.
        if let Ok(d) = File::open(&dir) {
            d.sync_all().ok();
        }
        Ok(())
    })();
    match result {
        Ok(()) => {
            obs::bump(metric_names::ATOMIC_RENAMES);
            Ok(())
        }
        Err(e) => {
            fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adv_store_atomic_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = tmp("replace");
        let path = dir.join("f.bin");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        atomic_write(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        // No temp litter after successful writes.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    struct FixedFault(WriteFault);
    impl crate::IoFaultHook for FixedFault {
        fn on_write(&self, _path: &Path, _len: usize) -> WriteFault {
            self.0
        }
    }

    #[test]
    fn transient_fault_leaves_previous_file_intact() {
        let dir = tmp("transient");
        let path = dir.join("f.bin");
        atomic_write(&path, b"stable").unwrap();
        let hook =
            crate::install_fault_hook(&dir, Arc::new(FixedFault(WriteFault::TransientError)));
        let err = atomic_write(&path, b"doomed").unwrap_err();
        drop(hook);
        assert!(matches!(err, StoreError::InjectedWriteFault { .. }));
        assert_eq!(std::fs::read(&path).unwrap(), b"stable");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_is_caught_by_the_envelope() {
        let dir = tmp("torn");
        let path = dir.join("f.bin");
        let hook = crate::install_fault_hook(&dir, Arc::new(FixedFault(WriteFault::TornWrite(10))));
        crate::save_artifact(&path, b"a payload long enough to tear").unwrap();
        drop(hook);
        assert!(matches!(
            crate::load_artifact(&path),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
