//! Seeded I/O fault plans for the durable artifact store.
//!
//! [`IoFaultPlan`] implements [`adv_store::IoFaultHook`]: installed via
//! [`adv_store::install_fault_hook`] for a directory, it decides for every
//! store write under it whether the bytes land intact, torn at a byte
//! offset, with one bit flipped, or not at all (a transient write error the
//! caller sees). As
//! with the serving-side [`crate::FaultInjector`], every decision is a pure
//! function of `(seed, hit index)`, so a seed replays the exact same fault
//! schedule — the soak test's requirement for byte-identical reruns.

use crate::plan::site_hash;
use adv_store::{IoFaultHook, WriteFault};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// A deterministic write-fault schedule. See the module docs.
#[derive(Debug)]
pub struct IoFaultPlan {
    seed: u64,
    torn_rate: f64,
    flip_rate: f64,
    error_rate: f64,
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
            torn_rate: 0.0,
            flip_rate: 0.0,
            error_rate: 0.0,
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
        let clamp = |r: f64| {
            if r.is_finite() {
                r.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        self.torn_rate = clamp(torn);
        self.flip_rate = clamp(flip);
        self.error_rate = clamp(error);
        let total = self.torn_rate + self.flip_rate + self.error_rate;
        if total > 1.0 {
            self.torn_rate /= total;
            self.flip_rate /= total;
            self.error_rate /= total;
        }
        self
    }

    /// What the plan has injected so far.
    pub fn stats(&self) -> IoFaultStats {
        let (writes, torn, bit_flips, transient_errors) = (
            self.hits.load(Ordering::Relaxed),
            self.torn.load(Ordering::Relaxed),
            self.flips.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        );
        IoFaultStats {
            writes,
            torn,
            bit_flips,
            transient_errors,
        }
    }
}

impl IoFaultHook for IoFaultPlan {
    fn on_write(&self, _path: &Path, len: usize) -> WriteFault {
        let n = self.hits.fetch_add(1, Ordering::Relaxed);
        let draw = crate::inject::unit(self.seed, site_hash("store/write"), n);
        let aux = crate::inject::unit(self.seed, site_hash("store/write-aux"), n);
        if draw < self.torn_rate {
            self.torn.fetch_add(1, Ordering::Relaxed);
            // Tear strictly inside the image so something is always missing.
            let k = (aux * len as f64) as usize;
            WriteFault::TornWrite(k.min(len.saturating_sub(1)))
        } else if draw < self.torn_rate + self.flip_rate {
            self.flips.fetch_add(1, Ordering::Relaxed);
            WriteFault::BitFlip((aux * (len.max(1) * 8) as f64) as usize)
        } else if draw < self.torn_rate + self.flip_rate + self.error_rate {
            self.errors.fetch_add(1, Ordering::Relaxed);
            WriteFault::TransientError
        } else {
            WriteFault::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
