//! Injectable I/O faults for durability testing.
//!
//! The store's crash-safety claims are only worth what they survive, so the
//! write paths consult the [`IoFaultHook`]s installed for the directory
//! they write under before committing bytes. `adv-chaos` implements the
//! hook with seeded, deterministic fault schedules; production runs never
//! install one.
//!
//! Each hook is scoped to a directory and lives as long as the
//! [`FaultHookGuard`] that [`install_fault_hook`] returns. A write outside
//! every installed directory is never faulted, so tests that inject faults
//! into their own scratch directories can run in parallel with each other
//! and with tests that inject none.
//!
//! The three faults model the failure classes the envelope must catch:
//!
//! * [`WriteFault::TornWrite`] — only the first `k` bytes reach the disk
//!   (a kill or power cut mid-write, or filesystem truncation).
//! * [`WriteFault::BitFlip`] — one bit of the written image is flipped
//!   (media corruption past the filesystem's own checks).
//! * [`WriteFault::TransientError`] — the write fails with an error the
//!   caller sees immediately (ENOSPC-style transients).
//!
//! Torn writes and bit flips are *silent*: the writer reports success and
//! detection is the job of envelope validation on the next load. That is
//! deliberate — it simulates corruption the writing process never saw.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// What a fault hook decided for one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Write normally.
    None,
    /// Persist only the first `k` bytes (`k` < payload length) and report
    /// success.
    TornWrite(usize),
    /// Flip bit `b` (counting over the whole byte image) and report
    /// success.
    BitFlip(usize),
    /// Fail the write with [`crate::StoreError::InjectedWriteFault`]
    /// without touching the file.
    TransientError,
}

/// A source of write faults. Implemented by `adv-chaos`'s seeded plans.
pub trait IoFaultHook: Send + Sync {
    /// The fault to apply to a `len`-byte write of `path`.
    fn on_write(&self, path: &Path, len: usize) -> WriteFault;
}

/// A hook and the directory it is installed for.
struct Scoped {
    id: u64,
    dir: PathBuf,
    hook: Arc<dyn IoFaultHook>,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(0);
static HOOKS: RwLock<Vec<Scoped>> = RwLock::new(Vec::new());

/// Installs `hook` for every write under `dir` until the returned guard is
/// dropped. Hooks for other directories stay installed; where two
/// directories nest, the hook installed last decides.
#[must_use = "the hook is removed when the guard is dropped"]
pub fn install_fault_hook(dir: impl Into<PathBuf>, hook: Arc<dyn IoFaultHook>) -> FaultHookGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let mut hooks = crate::unpoison(HOOKS.write());
    hooks.push(Scoped {
        id,
        dir: dir.into(),
        hook,
    });
    FaultHookGuard { id }
}

/// Keeps one hook of [`install_fault_hook`] installed; dropping it removes
/// that hook.
#[derive(Debug)]
pub struct FaultHookGuard {
    id: u64,
}

impl Drop for FaultHookGuard {
    fn drop(&mut self) {
        crate::unpoison(HOOKS.write()).retain(|s| s.id != self.id);
    }
}

/// The fault decision for one write: [`WriteFault::None`] unless a hook is
/// installed for a directory that contains `path`.
pub(crate) fn decide(path: &Path, len: usize) -> WriteFault {
    let hooks = crate::unpoison(HOOKS.read());
    match hooks.iter().rev().find(|s| path.starts_with(&s.dir)) {
        Some(s) => s.hook.on_write(path, len),
        None => WriteFault::None,
    }
}

/// Applies a silent fault to the byte image about to be written.
pub(crate) fn corrupt_image(bytes: &[u8], fault: WriteFault) -> Option<Vec<u8>> {
    match fault {
        WriteFault::TornWrite(k) => Some(bytes.get(..k.min(bytes.len())).unwrap_or(&[]).to_vec()),
        WriteFault::BitFlip(bit) => {
            let mut out = bytes.to_vec();
            if out.is_empty() {
                return Some(out);
            }
            let byte = (bit / 8) % out.len();
            if let Some(b) = out.get_mut(byte) {
                *b ^= 1 << (bit % 8);
            }
            Some(out)
        }
        WriteFault::None | WriteFault::TransientError => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct CountingHook(AtomicUsize);
    impl IoFaultHook for CountingHook {
        fn on_write(&self, _path: &Path, _len: usize) -> WriteFault {
            self.0.fetch_add(1, Ordering::Relaxed);
            WriteFault::None
        }
    }

    #[test]
    fn hook_sees_only_writes_under_its_directory_while_installed() {
        let dir = std::env::temp_dir().join("adv_store_faults_lifecycle");
        let hook = Arc::new(CountingHook(AtomicUsize::new(0)));
        let guard = install_fault_hook(&dir, hook.clone());
        decide(&dir.join("x"), 4);
        decide(&dir.join("sub").join("y"), 4);
        decide(Path::new("x"), 4);
        decide(&std::env::temp_dir().join("elsewhere"), 4);
        assert_eq!(hook.0.load(Ordering::Relaxed), 2);
        drop(guard);
        decide(&dir.join("x"), 4);
        assert_eq!(hook.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn nested_directories_go_to_the_hook_installed_last() {
        let outer = std::env::temp_dir().join("adv_store_faults_outer");
        let (a, b) = (
            Arc::new(CountingHook(AtomicUsize::new(0))),
            Arc::new(CountingHook(AtomicUsize::new(0))),
        );
        let _outer = install_fault_hook(&outer, a.clone());
        let inner = install_fault_hook(outer.join("inner"), b.clone());
        decide(&outer.join("inner").join("f"), 4);
        decide(&outer.join("f"), 4);
        assert_eq!(
            (a.0.load(Ordering::Relaxed), b.0.load(Ordering::Relaxed)),
            (1, 1)
        );
        drop(inner);
        decide(&outer.join("inner").join("f"), 4);
        assert_eq!(a.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn corrupt_image_shapes() {
        let bytes = vec![0xFFu8; 8];
        assert_eq!(corrupt_image(&bytes, WriteFault::None), None);
        assert_eq!(corrupt_image(&bytes, WriteFault::TransientError), None);
        assert_eq!(
            corrupt_image(&bytes, WriteFault::TornWrite(3))
                .unwrap()
                .len(),
            3
        );
        // Torn length is clamped to the image.
        assert_eq!(
            corrupt_image(&bytes, WriteFault::TornWrite(99))
                .unwrap()
                .len(),
            8
        );
        let flipped = corrupt_image(&bytes, WriteFault::BitFlip(13)).unwrap();
        assert_eq!(flipped.len(), 8);
        let diff: u32 = flipped
            .iter()
            .zip(&bytes)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit must differ");
    }
}
