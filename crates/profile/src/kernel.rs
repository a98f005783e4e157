//! Scopes: RAII guards on one per-thread frame stack, aggregated into
//! process-wide per-kernel slots, a collapsed-stack profile and the span
//! sink.
//!
//! [`StageScope::enter`] and [`KernelScope::enter`] push a frame on the
//! current thread's stack; dropping the guard attributes the frame's *self
//! time* (total minus time inside child scopes) to its collapsed call path
//! and, for a kernel, to its [`KernelKind`] slot. A stage frame always
//! lands as a [`TraceSpan`] in the span sink; a kernel frame does only
//! while a request trace is active on the thread (see
//! [`crate::trace::record_into`]), so the event stream stays at stage
//! granularity outside traced requests.
//!
//! Aggregation is drop-not-block: per-kind counters are plain relaxed
//! atomics (never contended on a lock), while collapsed stacks and spans
//! buffer per-thread and merge into global sinks under `try_lock` — a
//! contended flush retries later and, past a hard cap, drops (and counts)
//! rather than stalls the worker. Explicit flushes and thread exit wait
//! for the lock, so a joined thread's tail is never lost.

use crate::sync::lock_unpoisoned;
use crate::trace::TraceSpan;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::Instant;

/// The fixed set of accounted kernels. Each variant owns one process-wide
/// accumulator slot, so recording is branch-free fetch-adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum KernelKind {
    /// `C = A·B` dense matmul.
    MatMul = 0,
    /// `C = Aᵀ·B` (weight-gradient product).
    MatMulAtB = 1,
    /// `C = A·Bᵀ` (dense input-gradient product).
    MatMulABt = 2,
    /// Convolution patch extraction.
    Im2col = 3,
    /// Patch scatter-accumulate (conv backward).
    Col2im = 4,
    /// Full conv2d forward: a direct convolution with no child kernels.
    Conv2d = 5,
    /// Conv2d backward. The input gradient is computed directly in this
    /// frame; training's weight gradient adds im2col and matmul_at_b
    /// children.
    Conv2dBackward = 6,
    /// Row-wise softmax (with or without temperature).
    Softmax = 7,
    /// Row-wise log-softmax.
    LogSoftmax = 8,
    /// Pointwise map/zip kernels (add, mul, activations, clamp, …).
    Elementwise = 9,
    /// Reductions (sum, mean, min/max, argmax, dot, norms).
    Reduction = 10,
    /// Pure data movement (stack, concat, slice extraction).
    Memcpy = 11,
    /// Per-item reconstruction-error distances (MagNet detectors).
    DetectorDistance = 12,
    /// Jensen–Shannon divergence rows (JSD detectors).
    Jsd = 13,
    /// Spatial resampling: average/max pooling, nearest upsampling and
    /// their backward passes.
    Pool2d = 14,
}

/// Number of kernel kinds ([`KernelKind::ALL`]'s length).
pub const KERNEL_KINDS: usize = 15;

impl KernelKind {
    /// Every kind, in slot order.
    pub const ALL: [KernelKind; KERNEL_KINDS] = [
        KernelKind::MatMul,
        KernelKind::MatMulAtB,
        KernelKind::MatMulABt,
        KernelKind::Im2col,
        KernelKind::Col2im,
        KernelKind::Conv2d,
        KernelKind::Conv2dBackward,
        KernelKind::Softmax,
        KernelKind::LogSoftmax,
        KernelKind::Elementwise,
        KernelKind::Reduction,
        KernelKind::Memcpy,
        KernelKind::DetectorDistance,
        KernelKind::Jsd,
        KernelKind::Pool2d,
    ];

    /// Stable display name (also the collapsed-stack frame name).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::MatMul => "matmul",
            KernelKind::MatMulAtB => "matmul_at_b",
            KernelKind::MatMulABt => "matmul_a_bt",
            KernelKind::Im2col => "im2col",
            KernelKind::Col2im => "col2im",
            KernelKind::Conv2d => "conv2d",
            KernelKind::Conv2dBackward => "conv2d_backward",
            KernelKind::Softmax => "softmax",
            KernelKind::LogSoftmax => "log_softmax",
            KernelKind::Elementwise => "elementwise",
            KernelKind::Reduction => "reduction",
            KernelKind::Memcpy => "memcpy",
            KernelKind::DetectorDistance => "detector_distance",
            KernelKind::Jsd => "jsd",
            KernelKind::Pool2d => "pool2d",
        }
    }
}

/// The arithmetic/data volume one kernel invocation declares, from which
/// the report derives achieved GFLOP/s and GB/s. Constructors encode the
/// standard cost models so call sites stay one-liners.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Output elements produced.
    pub elems: u64,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Bytes read plus written (useful-traffic model, not cache traffic).
    pub bytes: u64,
}

impl Work {
    /// Explicit volumes for kernels without a stock cost model.
    pub fn custom(elems: u64, flops: u64, bytes: u64) -> Work {
        Work {
            elems,
            flops,
            bytes,
        }
    }

    /// `[m,k]·[k,n]`: `2mkn` FLOPs, reads A and B once, writes C.
    pub fn matmul(m: usize, k: usize, n: usize) -> Work {
        let (m, k, n) = (m as u64, k as u64, n as u64);
        Work {
            elems: m * n,
            flops: 2 * m * k * n,
            bytes: 4 * (m * k + k * n + m * n),
        }
    }

    /// Unary pointwise kernel over `n` elements (1 FLOP, read + write).
    pub fn map(n: usize) -> Work {
        Work {
            elems: n as u64,
            flops: n as u64,
            bytes: 8 * n as u64,
        }
    }

    /// Binary pointwise kernel over `n` elements (1 FLOP, 2 reads + write).
    pub fn zip(n: usize) -> Work {
        Work {
            elems: n as u64,
            flops: n as u64,
            bytes: 12 * n as u64,
        }
    }

    /// Reduction of `n` elements to a scalar-ish result.
    pub fn reduce(n: usize) -> Work {
        Work {
            elems: n as u64,
            flops: n as u64,
            bytes: 4 * n as u64,
        }
    }

    /// Pure copy of `n` elements (no FLOPs, read + write).
    pub fn copy(n: usize) -> Work {
        Work {
            elems: n as u64,
            flops: 0,
            bytes: 8 * n as u64,
        }
    }

    /// Row-wise softmax: max, subtract+exp, sum, divide ≈ 4 FLOPs/element.
    pub fn softmax(rows: usize, cols: usize) -> Work {
        let n = (rows * cols) as u64;
        Work {
            elems: n,
            flops: 4 * n,
            bytes: 8 * n,
        }
    }
}

/// One process-wide accumulator; every field is an independent relaxed
/// counter (snapshot readers tolerate torn cross-field reads).
#[derive(Debug, Default)]
pub(crate) struct KindSlot {
    pub(crate) calls: AtomicU64,
    pub(crate) wall_ns: AtomicU64,
    pub(crate) self_ns: AtomicU64,
    pub(crate) elems: AtomicU64,
    pub(crate) flops: AtomicU64,
    pub(crate) bytes: AtomicU64,
}

pub(crate) fn slots() -> &'static [KindSlot] {
    static SLOTS: OnceLock<Vec<KindSlot>> = OnceLock::new();
    SLOTS.get_or_init(|| (0..KERNEL_KINDS).map(|_| KindSlot::default()).collect())
}

/// One call path's accumulated accounting in the collapsed-stack profile.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PathStat {
    /// Completed frames ending at this path.
    pub(crate) calls: u64,
    /// Their summed self time (ns).
    pub(crate) self_ns: u64,
}

impl PathStat {
    fn add(&mut self, other: PathStat) {
        self.calls = self.calls.saturating_add(other.calls);
        self.self_ns = self.self_ns.saturating_add(other.self_ns);
    }
}

/// Collapsed-stack map: call path → accumulated [`PathStat`].
pub(crate) type StackMap = HashMap<Box<[&'static str]>, PathStat>;

/// The global collapsed-stack profile.
pub(crate) struct StackSink {
    pub(crate) stacks: Mutex<StackMap>,
    pub(crate) dropped: AtomicU64,
}

pub(crate) fn stack_sink() -> &'static StackSink {
    static SINK: OnceLock<StackSink> = OnceLock::new();
    SINK.get_or_init(|| StackSink {
        stacks: Mutex::new(HashMap::new()),
        dropped: AtomicU64::new(0),
    })
}

/// The instant all span offsets are measured from (first use wins).
#[expect(
    clippy::disallowed_methods,
    reason = "reached only from frame entry/exit and record_event, all behind the trace_enabled() gate; profiling timestamps are the feature."
)]
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Locks `mutex`: waiting when `wait`, otherwise only if uncontended
/// (poison is recovered either way, see `crate::sync`).
pub(crate) fn acquire<T>(mutex: &Mutex<T>, wait: bool) -> Option<MutexGuard<'_, T>> {
    if wait {
        return Some(lock_unpoisoned(mutex));
    }
    match mutex.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

struct Frame {
    name: &'static str,
    kind: Option<KernelKind>,
    start: Instant,
    child_ns: u64,
    work: Work,
}

/// Local stack entries a thread accumulates before flushing to the sink.
const STACK_FLUSH_THRESHOLD: usize = 128;
/// Hard cap on a thread's local stack map under sink contention; beyond
/// it, entries are dropped (and counted) instead of growing unboundedly.
const STACK_LOCAL_CAP: usize = 4096;
/// Pending spans a thread buffers before flushing.
const SPAN_FLUSH_THRESHOLD: usize = 512;

struct ThreadProf {
    /// Dense per-process thread index stamped on spans (not the OS id).
    thread: u64,
    frames: Vec<Frame>,
    /// Scratch key for collapsed-stack lookups (avoids an alloc per drop).
    path: Vec<&'static str>,
    stacks: StackMap,
    spans: Vec<TraceSpan>,
    /// Trace id scope drops record spans into (0 = none active).
    trace: u64,
}

impl ThreadProf {
    fn new() -> ThreadProf {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
        ThreadProf {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            frames: Vec::new(),
            path: Vec::new(),
            stacks: HashMap::new(),
            spans: Vec::new(),
            trace: 0,
        }
    }

    /// Merges the thread's buffers into the global sinks. With `wait`
    /// false a contended sink is skipped (retried at the next flush), so
    /// the hot path never blocks; explicit flushes and thread exit wait.
    fn flush(&mut self, wait: bool) {
        if !self.stacks.is_empty() {
            let sink = stack_sink();
            match acquire(&sink.stacks, wait) {
                Some(mut global) => {
                    for (path, stat) in self.stacks.drain() {
                        global.entry(path).or_default().add(stat);
                    }
                }
                None => {
                    if self.stacks.len() > STACK_LOCAL_CAP {
                        // Drop-not-block: a worker never stalls on the
                        // profile sink; losses are visible in `dropped`.
                        // lint-ok(ordering-justified): independent overflow
                        // counter; readers only report it.
                        sink.dropped
                            .fetch_add(self.stacks.len() as u64, Ordering::Relaxed);
                        self.stacks.clear();
                    }
                }
            }
        }
        if !self.spans.is_empty() {
            crate::trace::flush_spans(&mut self.spans, wait);
        }
    }

    fn push_span(&mut self, span: TraceSpan) {
        self.spans.push(span);
        if self.spans.len() >= SPAN_FLUSH_THRESHOLD {
            self.flush(false);
        }
    }
}

impl Drop for ThreadProf {
    fn drop(&mut self) {
        self.flush(true);
    }
}

thread_local! {
    static THREAD_PROF: RefCell<ThreadProf> = RefCell::new(ThreadProf::new());
}

/// Pushes a frame; returns `false` when the thread-local is unavailable
/// (thread teardown) so the guard stays inert.
#[inline(never)]
#[expect(
    clippy::disallowed_methods,
    reason = "behind the trace_enabled() gate at every scope entry; frame timing IS the feature here."
)]
fn enter_frame(name: &'static str, kind: Option<KernelKind>, work: Work) -> bool {
    THREAD_PROF
        .try_with(|tp| {
            let mut tp = tp.borrow_mut();
            // Force the epoch before the first frame so offsets are valid.
            let _ = epoch();
            tp.frames.push(Frame {
                name,
                kind,
                start: Instant::now(),
                child_ns: 0,
                work,
            });
        })
        .is_ok()
}

#[inline(never)]
fn exit_frame() {
    let _ = THREAD_PROF.try_with(|tp| {
        let mut tp = tp.borrow_mut();
        let Some(frame) = tp.frames.pop() else {
            return;
        };
        let total_ns = frame.start.elapsed().as_nanos() as u64;
        let self_ns = total_ns.saturating_sub(frame.child_ns);
        if let Some(parent) = tp.frames.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(total_ns);
        }

        // Six independent monotone counters: snapshot readers tolerate any
        // interleaving and no other memory is published through them, so
        // every fetch_add below is free to be Relaxed.
        if let Some(kind) = frame.kind {
            if let Some(slot) = slots().get(kind as usize) {
                slot.calls.fetch_add(1, Ordering::Relaxed); // lint-ok(ordering-justified): independent monotone counter, see block comment
                slot.wall_ns.fetch_add(total_ns, Ordering::Relaxed); // lint-ok(ordering-justified): independent monotone counter, see block comment
                slot.self_ns.fetch_add(self_ns, Ordering::Relaxed); // lint-ok(ordering-justified): independent monotone counter, see block comment
                slot.elems.fetch_add(frame.work.elems, Ordering::Relaxed); // lint-ok(ordering-justified): independent monotone counter, see block comment
                slot.flops.fetch_add(frame.work.flops, Ordering::Relaxed); // lint-ok(ordering-justified): independent monotone counter, see block comment
                slot.bytes.fetch_add(frame.work.bytes, Ordering::Relaxed); // lint-ok(ordering-justified): independent monotone counter, see block comment
            }
        }

        // Collapsed stack: ancestors still on the stack, then this frame.
        let ThreadProf {
            frames,
            path,
            stacks,
            ..
        } = &mut *tp;
        path.clear();
        path.extend(frames.iter().map(|f| f.name));
        path.push(frame.name);
        let stat = PathStat { calls: 1, self_ns };
        match stacks.get_mut(path.as_slice()) {
            Some(acc) => acc.add(stat),
            None => {
                stacks.insert(path.clone().into_boxed_slice(), stat);
            }
        }

        // Stage frames always become spans; kernel frames only inside an
        // active request trace.
        if frame.kind.is_none() || tp.trace != 0 {
            let span = TraceSpan {
                trace: tp.trace,
                name: frame.name,
                thread: tp.thread,
                depth: tp.frames.len() as u16,
                start_ns: frame.start.duration_since(epoch()).as_nanos() as u64,
                dur_ns: total_ns,
            };
            tp.push_span(span);
        }

        if tp.frames.is_empty() && tp.stacks.len() >= STACK_FLUSH_THRESHOLD {
            tp.flush(false);
        }
    });
}

/// Sets the calling thread's active trace id, returning the previous one.
pub(crate) fn swap_thread_trace(trace: u64) -> u64 {
    THREAD_PROF
        .try_with(|tp| {
            let mut tp = tp.borrow_mut();
            std::mem::replace(&mut tp.trace, trace)
        })
        .unwrap_or(0)
}

/// The calling thread's active trace id (0 = none).
pub(crate) fn thread_trace() -> u64 {
    THREAD_PROF.try_with(|tp| tp.borrow().trace).unwrap_or(0)
}

/// Buffers one explicit span (e.g. a queue-wait event) on the thread,
/// stamping the thread index.
pub(crate) fn push_span(mut span: TraceSpan) {
    let _ = THREAD_PROF.try_with(|tp| {
        let mut tp = tp.borrow_mut();
        span.thread = tp.thread;
        tp.push_span(span);
    });
}

/// Flushes the calling thread's buffered stacks and spans into the global
/// sinks, waiting for the locks. Threads flush automatically at buffer
/// thresholds, whenever the frame stack unwinds to empty with enough
/// pending entries, and on thread exit; call this before reading a report
/// on the thread that did the work (e.g. `main`).
pub fn flush_current_thread() {
    let _ = THREAD_PROF.try_with(|tp| tp.borrow_mut().flush(true));
}

/// Clears the kernel slots and the collapsed-stack sink (tests/probes).
pub(crate) fn reset_kernels() {
    // Test/probe-only reset of independent counters; no ordering
    // relationship is required for any of the stores below.
    for slot in slots() {
        slot.calls.store(0, Ordering::Relaxed); // lint-ok(ordering-justified): reset of independent counter, see loop comment
        slot.wall_ns.store(0, Ordering::Relaxed); // lint-ok(ordering-justified): reset of independent counter, see loop comment
        slot.self_ns.store(0, Ordering::Relaxed); // lint-ok(ordering-justified): reset of independent counter, see loop comment
        slot.elems.store(0, Ordering::Relaxed); // lint-ok(ordering-justified): reset of independent counter, see loop comment
        slot.flops.store(0, Ordering::Relaxed); // lint-ok(ordering-justified): reset of independent counter, see loop comment
        slot.bytes.store(0, Ordering::Relaxed); // lint-ok(ordering-justified): reset of independent counter, see loop comment
    }
    let sink = stack_sink();
    lock_unpoisoned(&sink.stacks).clear();
    // lint-ok(ordering-justified): see above — reset of an independent
    // counter.
    sink.dropped.store(0, Ordering::Relaxed);
}

/// Entries dropped because the stack sink stayed contended past the
/// local-buffer cap.
pub fn dropped_stacks() -> u64 {
    // lint-ok(ordering-justified): reporting-only read of an independent
    // counter; staleness is fine.
    stack_sink().dropped.load(Ordering::Relaxed)
}

/// RAII guard accounting one kernel invocation; see the module docs.
///
/// The `work` closure is evaluated only when recording is enabled, so the
/// disabled path never computes volumes:
///
/// ```
/// use adv_profile::{KernelKind, KernelScope, Work};
/// let _scope = KernelScope::enter(KernelKind::MatMul, || Work::matmul(8, 8, 8));
/// // ... run the kernel ...
/// ```
#[derive(Debug)]
#[must_use = "the kernel is accounted when the guard is dropped"]
pub struct KernelScope {
    active: bool,
}

impl KernelScope {
    /// Opens a kernel scope; a no-op (one relaxed load) below
    /// [`crate::ObsLevel::Trace`].
    #[inline]
    pub fn enter(kind: KernelKind, work: impl FnOnce() -> Work) -> KernelScope {
        if !crate::trace_enabled() {
            return KernelScope { active: false };
        }
        KernelScope {
            active: enter_frame(kind.name(), Some(kind), work()),
        }
    }
}

impl Drop for KernelScope {
    fn drop(&mut self) {
        if self.active {
            exit_frame();
        }
    }
}

/// RAII guard for a named stage (an attack iteration, a training batch, a
/// defense stage, batch formation): the span primitive of the stack. It
/// shapes the collapsed stacks, lands as a [`TraceSpan`] in the span sink
/// and the frame summary, and owns no kernel slot.
///
/// ```
/// use adv_profile::StageScope;
/// let _stage = StageScope::enter("ead/ista_iter");
/// // ... run the stage ...
/// ```
#[derive(Debug)]
#[must_use = "the stage ends when the guard is dropped"]
pub struct StageScope {
    active: bool,
}

impl StageScope {
    /// Opens a stage frame; a no-op (one relaxed load) below
    /// [`crate::ObsLevel::Trace`].
    #[inline]
    pub fn enter(name: &'static str) -> StageScope {
        if !crate::trace_enabled() {
            return StageScope { active: false };
        }
        StageScope {
            active: enter_frame(name, None, Work::default()),
        }
    }
}

impl Drop for StageScope {
    fn drop(&mut self) {
        if self.active {
            exit_frame();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_enabled_lock;
    use std::time::Duration;

    fn slot_of(kind: KernelKind) -> &'static KindSlot {
        slots().get(kind as usize).unwrap()
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _guard = test_enabled_lock();
        // Disabling wins over a trace level set by `ADV_OBS` or `--obs`.
        crate::set_level(crate::ObsLevel::Trace);
        crate::set_enabled(false);
        crate::reset();
        {
            let _stage = StageScope::enter("off/stage");
            let _s = KernelScope::enter(KernelKind::MatMul, || Work::matmul(4, 4, 4));
            let _rec = crate::record_into(crate::next_trace_id());
        }
        assert_eq!(slot_of(KernelKind::MatMul).calls.load(Ordering::Relaxed), 0);
        assert!(crate::report::collapsed().is_empty());
        assert!(crate::frame_summaries().is_empty());
        assert!(crate::take_spans().is_empty());
        assert!(crate::next_trace_id().is_none());
    }

    #[test]
    fn kernel_scope_accumulates_work_and_time() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        for _ in 0..3 {
            let _s = KernelScope::enter(KernelKind::MatMul, || Work::matmul(2, 3, 4));
            std::thread::sleep(Duration::from_millis(1));
        }
        crate::set_enabled(false);
        flush_current_thread();
        let slot = slot_of(KernelKind::MatMul);
        assert_eq!(slot.calls.load(Ordering::Relaxed), 3);
        assert_eq!(slot.flops.load(Ordering::Relaxed), 3 * 2 * 2 * 3 * 4);
        assert_eq!(slot.elems.load(Ordering::Relaxed), 3 * 8);
        assert!(slot.wall_ns.load(Ordering::Relaxed) >= 3_000_000);
        assert!(
            slot.self_ns.load(Ordering::Relaxed) <= slot.wall_ns.load(Ordering::Relaxed),
            "self never exceeds wall"
        );
    }

    #[test]
    fn nested_scopes_split_self_time_and_fold_paths() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _outer = KernelScope::enter(KernelKind::Conv2d, || Work::custom(1, 0, 0));
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = KernelScope::enter(KernelKind::Im2col, || Work::copy(64));
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        crate::set_enabled(false);
        flush_current_thread();
        let conv = slot_of(KernelKind::Conv2d);
        let im2col = slot_of(KernelKind::Im2col);
        let conv_wall = conv.wall_ns.load(Ordering::Relaxed);
        let conv_self = conv.self_ns.load(Ordering::Relaxed);
        let im_wall = im2col.wall_ns.load(Ordering::Relaxed);
        assert!(conv_wall >= im_wall, "parent wall covers child");
        assert!(
            conv_self <= conv_wall - im_wall + 1_000_000,
            "parent self excludes child: self {conv_self}, wall {conv_wall}, child {im_wall}"
        );
        let folded = crate::report::collapsed();
        assert!(folded.contains("conv2d;im2col "), "{folded}");
        let conv_line = folded
            .lines()
            .find(|l| l.starts_with("conv2d ") || l.starts_with("conv2d\t"))
            .unwrap_or("");
        assert!(!conv_line.is_empty(), "top-level conv2d line in {folded}");
    }

    #[test]
    fn stage_scopes_shape_stacks_without_kernel_slots() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _stage = StageScope::enter("serve/batch");
            let _k = KernelScope::enter(KernelKind::Softmax, || Work::softmax(4, 10));
        }
        crate::set_enabled(false);
        flush_current_thread();
        let folded = crate::report::collapsed();
        assert!(folded.contains("serve/batch;softmax "), "{folded}");
        assert_eq!(
            slot_of(KernelKind::Softmax).calls.load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        let t = std::thread::spawn(|| {
            let _s = KernelScope::enter(KernelKind::Reduction, || Work::reduce(100));
        });
        t.join().ok();
        crate::set_enabled(false);
        let folded = crate::report::collapsed();
        assert!(folded.contains("reduction "), "{folded}");
    }
}
