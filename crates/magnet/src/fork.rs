//! Fork-join over the host's cores, under one process-wide core budget.
//!
//! [`CoreClaim`] hands out cores from a count of the threads that are
//! running passes, callers included, so a pass on one engine worker or
//! zoo shard never adds helper threads while the others already keep
//! every core busy. A pass that starts while a split pass runs still runs,
//! on its own thread, beside the split pass's helpers.
//! [`fork_join`] runs one item on the calling thread and the others on
//! scoped helper threads at the same time.

use crate::defense::STAGE_CHUNK;
use adv_profile::sync::lock_unpoisoned;
use adv_profile::StageScope;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Threads currently running passes under a claim, callers included.
/// Only ever `fetch_add`ed and `fetch_sub`ed: it publishes no data, so
/// `Relaxed` suffices.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// The core budget: `available_parallelism()`, read once (it consults the
/// cgroup quota on every call).
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Between 1 and `want` cores of the budget, the calling thread's own
/// included, held until dropped (also when the holder unwinds).
#[derive(Debug)]
#[must_use = "the cores return to the budget when the claim is dropped"]
pub struct CoreClaim {
    granted: usize,
}

impl CoreClaim {
    /// Claims `min(want, free)` cores, and always at least one: the calling
    /// thread runs its pass whether or not a core is free, so it counts, and
    /// a pass that runs unsplit keeps concurrent passes from splitting onto
    /// its core. A claim of more than one core therefore never lifts the
    /// count above [`cores`]. The add-then-return step may briefly inflate
    /// the count a concurrent claimer sees, which can only make that claimer
    /// take less.
    pub fn take(want: usize) -> CoreClaim {
        let want = want.max(1);
        let busy = BUSY.fetch_add(want, Ordering::Relaxed);
        let granted = want.min(cores().saturating_sub(busy)).max(1);
        if granted < want {
            BUSY.fetch_sub(want - granted, Ordering::Relaxed);
        }
        CoreClaim { granted }
    }

    /// Cores this claim holds, the caller's included (1 when the budget was
    /// exhausted: the pass runs unsplit).
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for CoreClaim {
    fn drop(&mut self) {
        BUSY.fetch_sub(self.granted, Ordering::Relaxed);
    }
}

/// Applies `f` to every item at once: the first on the calling thread, each
/// other on a scoped helper thread, and returns the results in item order.
///
/// Each helper runs inside a [`STAGE_CHUNK`] [`StageScope`] and records
/// into the caller's active trace, so its kernels join the caller's span
/// tree. A helper that cannot be spawned runs its item on the calling
/// thread instead. A panic in any item unwinds the calling thread once
/// every helper has finished.
pub fn fork_join<T: Send, R: Send>(items: &mut [T], f: impl Fn(&mut T) -> R + Sync) -> Vec<R> {
    let Some((first, rest)) = items.split_first_mut() else {
        return Vec::new();
    };
    if rest.is_empty() {
        return vec![f(first)];
    }
    let trace = adv_profile::active_trace();
    let f = &f;
    // Each helper borrows its item through a cell, so an item whose helper
    // fails to spawn is still there for the calling thread to run.
    let cells: Vec<Mutex<&mut T>> = rest.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = cells
            .iter()
            .map(|cell| {
                std::thread::Builder::new()
                    .spawn_scoped(s, move || {
                        // The profiler flushes a thread's buffers when it
                        // exits, which `join` waits for.
                        let _trace = adv_profile::record_into(trace);
                        let _chunk = StageScope::enter(STAGE_CHUNK);
                        f(&mut lock_unpoisoned(cell))
                    })
                    .ok()
            })
            .collect();
        let mut out = Vec::with_capacity(cells.len() + 1);
        out.push(f(first));
        for (cell, helper) in cells.iter().zip(helpers) {
            out.push(match helper {
                Some(handle) => handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
                None => f(&mut lock_unpoisoned(cell)),
            });
        }
        out
    })
}
