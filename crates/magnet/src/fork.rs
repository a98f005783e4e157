//! Fork-join over the host's cores, under one process-wide core budget.
//!
//! [`CoreClaim`] hands out cores from a count of the threads that are
//! running passes, callers included, so a pass on one engine worker or
//! zoo shard never adds helper threads while the others already keep
//! every core busy. A pass that starts while a split pass runs still runs,
//! on its own thread, beside the split pass's helpers.
//! [`fork_stages`] runs a pass's stages over several items: one on the
//! calling thread and each other on a helper thread, spawned once per pass,
//! that runs its item's stages in step with the calling thread.

use crate::defense::STAGE_CHUNK;
use adv_profile::sync::lock_unpoisoned;
use adv_profile::StageScope;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, OnceLock};
use std::thread::ScopedJoinHandle;

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

/// Runs `drive` on the calling thread with a [`Crew`] over `items`: the
/// first item stays with the calling thread, and each other gets a scoped
/// helper thread, spawned once for the whole pass. Each [`Crew::run`]
/// call is one stage: it applies `work` to every item at once and returns
/// the results in item order. Between two calls the helpers wait, so
/// whatever `drive` does between stages (a fault hook, an early return)
/// happens before any item enters the next stage. When `drive` returns,
/// the helpers are stopped and joined before `fork_stages` returns.
/// [`Crew::run_here`] runs a stage on the calling thread alone.
///
/// Each helper records into the caller's active trace and runs each stage
/// inside a [`STAGE_CHUNK`] [`StageScope`], so its kernels join the
/// caller's span tree. A helper that cannot be spawned has its item run on
/// the calling thread instead. A panic in any item unwinds the calling
/// thread once every helper has finished its stage.
pub fn fork_stages<T: Send, S: Copy + Send, R: Send, O>(
    items: &mut [T],
    work: impl Fn(S, &mut T) -> R + Sync,
    drive: impl FnOnce(&mut Crew<'_, '_, T, S, R>) -> O,
) -> O {
    let work: &(dyn Fn(S, &mut T) -> R + Sync) = &work;
    let (first, rest) = match items.split_first_mut() {
        Some((first, rest)) if !rest.is_empty() => (first, rest),
        alone => {
            return drive(&mut Crew {
                first: alone.map(|(first, _)| first),
                work,
                helpers: Vec::new(),
            })
        }
    };
    let trace = adv_profile::active_trace();
    // Each helper borrows its item through a cell, so an item whose helper
    // fails to spawn is still there for the calling thread to run.
    let cells: Vec<Mutex<&mut T>> = rest.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|s| {
        let helpers = cells
            .iter()
            .map(|cell| {
                let (to, stages) = channel::<S>();
                let (done, from) = channel::<R>();
                let thread = std::thread::Builder::new()
                    .spawn_scoped(s, move || {
                        // The profiler flushes a thread's buffers when it
                        // exits, which `join` waits for.
                        let _trace = adv_profile::record_into(trace);
                        for stage in stages {
                            let out = {
                                let _chunk = StageScope::enter(STAGE_CHUNK);
                                work(stage, &mut lock_unpoisoned(cell))
                            };
                            if done.send(out).is_err() {
                                break;
                            }
                        }
                    })
                    .ok()
                    .map(|handle| Thread { to, from, handle });
                Helper { cell, thread }
            })
            .collect();
        let mut crew = Crew {
            first: Some(first),
            work,
            helpers,
        };
        let out = drive(&mut crew);
        for helper in crew.helpers {
            if let Some(Thread { to, handle, .. }) = helper.thread {
                drop(to);
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
        out
    })
}

/// The threads of one [`fork_stages`] pass, as `drive` sees them.
pub struct Crew<'a, 'scope, T, S, R> {
    first: Option<&'a mut T>,
    work: &'a (dyn Fn(S, &mut T) -> R + Sync),
    helpers: Vec<Helper<'a, 'scope, T, S, R>>,
}

/// An item beyond the first, and the thread that runs it (`None`: the
/// calling thread does).
struct Helper<'a, 'scope, T, S, R> {
    cell: &'a Mutex<&'a mut T>,
    thread: Option<Thread<'scope, S, R>>,
}

/// A helper thread and its two channels: stages in, results out.
struct Thread<'scope, S, R> {
    to: Sender<S>,
    from: Receiver<R>,
    handle: ScopedJoinHandle<'scope, ()>,
}

impl<T, S: Copy, R> Crew<'_, '_, T, S, R> {
    /// Runs `stage` on every item at once, the first on the calling thread,
    /// and returns the results in item order.
    pub fn run(&mut self, stage: S) -> Vec<R> {
        for thread in self.helpers.iter().filter_map(|h| h.thread.as_ref()) {
            // A helper that is gone has panicked; `recv` below finds out.
            let _ = thread.to.send(stage);
        }
        let mut out = Vec::with_capacity(self.helpers.len() + 1);
        if let Some(first) = self.first.as_deref_mut() {
            out.push((self.work)(stage, first));
        }
        for helper in &mut self.helpers {
            if let Some(r) = helper.thread.as_ref().and_then(|t| t.from.recv().ok()) {
                out.push(r);
                continue;
            }
            // The helper hung up, which it does only by panicking: resume
            // its panic here. Were it to end cleanly instead, its item runs
            // on this thread from now on.
            if let Some(Thread { handle, .. }) = helper.thread.take() {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            out.push((self.work)(stage, &mut lock_unpoisoned(helper.cell)));
        }
        out
    }

    /// Runs `stage` on every item on the calling thread, in item order, and
    /// returns the results: for a stage too small to pay for waking the
    /// helpers, which stay parked.
    pub fn run_here(&mut self, stage: S) -> Vec<R> {
        let mut out = Vec::with_capacity(self.helpers.len() + 1);
        if let Some(first) = self.first.as_deref_mut() {
            out.push((self.work)(stage, first));
        }
        for helper in &self.helpers {
            out.push((self.work)(stage, &mut lock_unpoisoned(helper.cell)));
        }
        out
    }
}
