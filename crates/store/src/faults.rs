//! Injectable I/O faults for durability testing, and the seeded draw every
//! fault plan of the workspace decides with.
//!
//! The store's crash-safety claims are only worth what they survive, so the
//! write paths consult the [`IoFaultHook`]s installed for the directory
//! they write under before committing bytes. [`IoFaultPlan`] implements the
//! hook with a seeded, deterministic fault schedule; production runs never
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
//!
//! The seeded draw — [`unit()`], [`site_hash`], [`pick`] and
//! [`clamp_rates`] — is shared with the serving injector in `adv-serve` and
//! the socket plan in `adv-net`. Every decision is a pure function of
//! `(seed, site, hit index)`, so a seed replays the same fault schedule
//! regardless of thread interleaving.

#![deny(clippy::indexing_slicing)]

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

/// A source of write faults. Implemented by [`IoFaultPlan`].
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

/// SplitMix64 finalizer — one multiply-xor avalanche pass.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic unit draw for `(seed, site, n)`, uniform in `[0, 1)`.
/// `site` is a [`site_hash`].
pub fn unit(seed: u64, site: u64, n: u64) -> f64 {
    let mixed = splitmix(seed ^ splitmix(site.wrapping_add(n.wrapping_mul(0x2545_f491_4f6c_dd1d))));
    (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a hash of a site name; mixed into the per-hit decision stream so
/// sites draw independent sequences from the same seed.
pub fn site_hash(site: &str) -> u64 {
    crate::codec::fnv64(site.as_bytes())
}

/// The fault kind a unit `draw` lands on: the index of the first rate whose
/// running sum, added left to right, exceeds `draw`, or `None` past them all.
pub fn pick(draw: f64, rates: &[f64]) -> Option<usize> {
    let mut threshold = 0.0;
    rates.iter().position(|rate| {
        threshold += rate;
        draw < threshold
    })
}

/// Clamps each rate to `[0, 1]` (a non-finite rate becomes `0`) and scales
/// them all down so that their sum is at most `1`.
pub fn clamp_rates<const N: usize>(rates: [f64; N]) -> [f64; N] {
    let clamped = rates.map(|r| {
        if r.is_finite() {
            r.clamp(0.0, 1.0)
        } else {
            0.0
        }
    });
    let total = clamped.iter().fold(0.0, |sum, r| sum + r);
    if total > 1.0 {
        clamped.map(|r| r / total)
    } else {
        clamped
    }
}

/// A snapshot of what an [`IoFaultPlan`] has injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoFaultStats {
    /// Writes the plan saw.
    pub writes: u64,
    /// Writes torn at a byte offset.
    pub torn: u64,
    /// Writes with one bit flipped.
    pub bit_flips: u64,
    /// Writes failed with a transient error.
    pub transient_errors: u64,
}

impl IoFaultStats {
    /// Total injected faults of any kind.
    pub fn injected(&self) -> u64 {
        self.torn + self.bit_flips + self.transient_errors
    }
}

/// A deterministic write-fault schedule: installed with
/// [`install_fault_hook`] for a directory, it decides for every store write
/// under it whether the bytes land intact, torn at a byte offset, with one
/// bit flipped, or not at all. The decision for the `n`-th write is a pure
/// function of `(seed, n)`.
#[derive(Debug)]
pub struct IoFaultPlan {
    seed: u64,
    /// Torn, bit-flip and transient-error rates, in [`pick`] order.
    rates: [f64; 3],
    hits: AtomicU64,
    torn: AtomicU64,
    flips: AtomicU64,
    errors: AtomicU64,
}

impl IoFaultPlan {
    /// A quiet plan under `seed`; add fault rates with
    /// [`rates`](Self::rates).
    pub fn new(seed: u64) -> IoFaultPlan {
        IoFaultPlan {
            seed,
            rates: [0.0; 3],
            hits: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            flips: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// Sets the per-write probabilities of a torn write, a bit flip, and a
    /// transient error. Rates are clamped to `[0, 1]` and their sum to `1`.
    #[must_use]
    pub fn rates(mut self, torn: f64, flip: f64, error: f64) -> IoFaultPlan {
        self.rates = clamp_rates([torn, flip, error]);
        self
    }

    /// What the plan has injected so far.
    pub fn stats(&self) -> IoFaultStats {
        IoFaultStats {
            writes: self.hits.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
            bit_flips: self.flips.load(Ordering::Relaxed),
            transient_errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

impl IoFaultHook for IoFaultPlan {
    fn on_write(&self, _path: &Path, len: usize) -> WriteFault {
        let n = self.hits.fetch_add(1, Ordering::Relaxed);
        let draw = unit(self.seed, site_hash("store/write"), n);
        let aux = unit(self.seed, site_hash("store/write-aux"), n);
        match pick(draw, &self.rates) {
            Some(0) => {
                self.torn.fetch_add(1, Ordering::Relaxed);
                // Tear strictly inside the image so something is always missing.
                let k = (aux * len as f64) as usize;
                WriteFault::TornWrite(k.min(len.saturating_sub(1)))
            }
            Some(1) => {
                self.flips.fetch_add(1, Ordering::Relaxed);
                WriteFault::BitFlip((aux * (len.max(1) * 8) as f64) as usize)
            }
            Some(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                WriteFault::TransientError
            }
            None => WriteFault::None,
        }
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

    #[test]
    fn site_hash_distinguishes_names() {
        assert_ne!(site_hash("magnet/detect"), site_hash("magnet/reform"));
        assert_eq!(site_hash("x"), site_hash("x"));
    }

    #[test]
    fn schedule_is_seed_deterministic() {
        let mk = || IoFaultPlan::new(99).rates(0.2, 0.2, 0.2);
        let a = mk();
        let b = mk();
        let faults_a: Vec<WriteFault> = (0..200)
            .map(|_| a.on_write(Path::new("/x/file"), 64))
            .collect();
        let faults_b: Vec<WriteFault> = (0..200)
            .map(|_| b.on_write(Path::new("/x/file"), 64))
            .collect();
        assert_eq!(faults_a, faults_b);
        assert!(a.stats().injected() > 0, "rates of 0.6 must inject");
        assert_eq!(a.stats().writes, 200);
    }

    #[test]
    fn torn_offset_is_strictly_short() {
        let plan = IoFaultPlan::new(7).rates(1.0, 0.0, 0.0);
        for len in [1usize, 2, 24, 1000] {
            match plan.on_write(Path::new("/f"), len) {
                WriteFault::TornWrite(k) => assert!(k < len, "k={k} len={len}"),
                other => panic!("expected torn write, got {other:?}"),
            }
        }
    }

    #[test]
    fn rates_are_normalized() {
        let plan = IoFaultPlan::new(3).rates(2.0, 1.0, 1.0);
        // Every write faults, split between the three kinds.
        for _ in 0..100 {
            assert_ne!(plan.on_write(Path::new("/f"), 32), WriteFault::None);
        }
        let s = plan.stats();
        assert_eq!(s.injected(), 100);
        assert!(s.torn > 0 && (s.bit_flips > 0 || s.transient_errors > 0));
    }
}
