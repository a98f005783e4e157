//! The span sink, and causal request traces threaded through it.
//!
//! Every stage frame, and every kernel frame inside an active request
//! trace, lands as a [`TraceSpan`] in one bounded process-wide buffer (see
//! [`crate::kernel`]). When the buffer is full the oldest spans are
//! evicted and counted in [`dropped_spans`]. [`take_spans`] drains it as
//! the `trace.jsonl` event stream ([`spans_to_jsonl`]).
//!
//! The serving engine mints one id per request ([`next_trace_id`]) and one
//! per executed batch; [`link`] ties each request to the batch that served
//! it. The worker activates the batch id on its thread with
//! [`record_into`], so every [`KernelScope`](crate::KernelScope) /
//! [`StageScope`](crate::StageScope) drop during the batch carries that id.
//! Request-level events that happen outside the worker — queue wait, total
//! latency — are recorded explicitly with [`record_event`].
//!
//! [`observe_latency`] keeps one exemplar trace id per latency-histogram
//! bucket (last writer wins), so "what does a 16–32 ms request look like?"
//! resolves to a concrete span tree via [`spans_for`]/[`render_trace`]
//! instead of a bucket count.

use adv_obs::sync::lock_unpoisoned;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Hard cap on spans held in the sink; older spans are evicted (and
/// counted as dropped).
pub const MAX_TRACE_SPANS: usize = 1 << 20;

/// Pending spans a thread keeps while the sink is contended; beyond it
/// they are dropped (and counted) instead of growing unboundedly.
const SPAN_LOCAL_CAP: usize = 4096;

/// Hard cap on request→batch links held; older links are evicted.
pub const MAX_TRACE_LINKS: usize = 1 << 14;

/// A causal trace identity. `0` is the null id ("not traced"): minting is
/// gated on [`crate::enabled`], so untraced deployments pay one relaxed
/// load per submit and every id stays 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(u64);

impl TraceId {
    /// The null id: not traced.
    pub const NONE: TraceId = TraceId(0);

    /// Rebuilds an id from its raw value (e.g. off a telemetry row).
    pub fn from_u64(raw: u64) -> TraceId {
        TraceId(raw)
    }

    /// The raw value (0 = none) — what rides on `ServedRecord` and
    /// telemetry rows.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// `true` for the null id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// One recorded interval: a completed frame or an explicit event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Owning trace id (a request's or a batch's; 0 = outside any trace).
    pub trace: u64,
    /// Frame name (kernel name, stage name, or an explicit event name).
    pub name: &'static str,
    /// Dense per-process index of the recording thread (not the OS id).
    pub thread: u64,
    /// Nesting depth at entry (0 = top level on its thread).
    pub depth: u16,
    /// Start offset in nanoseconds from the process profile epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Mints a fresh trace id, or [`TraceId::NONE`] while profiling is off.
#[inline]
pub fn next_trace_id() -> TraceId {
    if !crate::enabled() {
        return TraceId::NONE;
    }
    static NEXT: AtomicU64 = AtomicU64::new(1);
    TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
}

struct TraceSink {
    spans: Mutex<VecDeque<TraceSpan>>,
    links: Mutex<VecDeque<(u64, u64)>>,
    dropped: AtomicU64,
}

fn sink() -> &'static TraceSink {
    static SINK: OnceLock<TraceSink> = OnceLock::new();
    SINK.get_or_init(|| TraceSink {
        spans: Mutex::new(VecDeque::new()),
        links: Mutex::new(VecDeque::new()),
        dropped: AtomicU64::new(0),
    })
}

/// Merges a thread's pending spans into the sink, evicting (and counting)
/// the oldest past [`MAX_TRACE_SPANS`]. Without `wait` a contended sink
/// leaves them pending for the next flush, dropping (and counting) them
/// only past a local cap. The overflow is dropped before the merge, and
/// growth is clamped to the cap, so the buffer never holds or reserves
/// more than [`MAX_TRACE_SPANS`] spans.
pub(crate) fn flush_spans(pending: &mut Vec<TraceSpan>, wait: bool) {
    let sink = sink();
    let Some(mut ring) = crate::kernel::acquire(&sink.spans, wait) else {
        if pending.len() > SPAN_LOCAL_CAP {
            // lint-ok(ordering-justified): independent overflow counter;
            // readers only report it.
            sink.dropped
                .fetch_add(pending.len() as u64, Ordering::Relaxed);
            pending.clear();
        }
        return;
    };
    let overflow = (ring.len() + pending.len()).saturating_sub(MAX_TRACE_SPANS);
    if overflow > 0 {
        // lint-ok(ordering-justified): independent overflow counter;
        // readers only report it.
        sink.dropped.fetch_add(overflow as u64, Ordering::Relaxed);
        let from_ring = overflow.min(ring.len());
        ring.drain(..from_ring);
        pending.drain(..overflow - from_ring);
    }
    let need = ring.len() + pending.len();
    if need > ring.capacity() {
        let target = (ring.capacity() * 2).clamp(need, MAX_TRACE_SPANS);
        let additional = target - ring.len();
        ring.reserve_exact(additional);
    }
    ring.extend(pending.drain(..));
}

/// Spans dropped at the sink: evicted past [`MAX_TRACE_SPANS`] or lost
/// to prolonged contention.
pub fn dropped_spans() -> u64 {
    // lint-ok(ordering-justified): reporting-only read of an independent
    // counter; staleness is fine.
    sink().dropped.load(Ordering::Relaxed)
}

/// Ties a request trace to the batch trace that served it. No-op for null
/// ids; drop-not-block under contention.
pub fn link(request: TraceId, batch: TraceId) {
    if request.is_none() || batch.is_none() {
        return;
    }
    if let Ok(mut links) = sink().links.try_lock() {
        if links.len() >= MAX_TRACE_LINKS {
            links.pop_front();
        }
        links.push_back((request.0, batch.0));
    }
}

/// Records one explicit event of `dur_ns` ending roughly now (e.g. a
/// request's queue wait) into `trace`. No-op for the null id.
pub fn record_event(trace: TraceId, name: &'static str, dur_ns: u64) {
    if trace.is_none() || !crate::enabled() {
        return;
    }
    let now_ns = crate::kernel::epoch().elapsed().as_nanos() as u64;
    crate::kernel::push_span(TraceSpan {
        trace: trace.0,
        name,
        thread: 0,
        depth: 0,
        start_ns: now_ns.saturating_sub(dur_ns),
        dur_ns,
    });
}

/// RAII guard scoping the calling thread's active trace; see
/// [`record_into`].
#[derive(Debug)]
#[must_use = "the trace deactivates when the guard is dropped"]
pub struct TraceGuard {
    previous: u64,
    active: bool,
}

/// Activates `trace` on the calling thread: until the guard drops, every
/// kernel/stage scope completing on this thread is also recorded as a
/// [`TraceSpan`] of `trace`. Null ids (or profiling off) activate nothing.
pub fn record_into(trace: TraceId) -> TraceGuard {
    if trace.is_none() || !crate::enabled() {
        return TraceGuard {
            previous: 0,
            active: false,
        };
    }
    TraceGuard {
        previous: crate::kernel::swap_thread_trace(trace.0),
        active: true,
    }
}

/// The trace [`record_into`] activated on the calling thread, or
/// [`TraceId::NONE`] (also while profiling is off). Work forked onto
/// helper threads passes it to their own [`record_into`], so their spans
/// join the caller's trace.
pub fn active_trace() -> TraceId {
    if !crate::enabled() {
        return TraceId::NONE;
    }
    TraceId(crate::kernel::thread_trace())
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.active {
            let _ = crate::kernel::swap_thread_trace(self.previous);
        }
    }
}

fn exemplar_slots() -> &'static [AtomicU64] {
    static SLOTS: OnceLock<Vec<AtomicU64>> = OnceLock::new();
    SLOTS.get_or_init(|| {
        (0..=adv_obs::DURATION_BOUNDS_NS.len())
            .map(|_| AtomicU64::new(0))
            .collect()
    })
}

/// Stamps `trace` as the exemplar for the latency-histogram bucket
/// `latency_ns` falls in (the same `DURATION_BOUNDS_NS` buckets the serve
/// metrics histogram uses). Last writer wins; null ids are ignored.
pub fn observe_latency(latency_ns: u64, trace: TraceId) {
    if trace.is_none() {
        return;
    }
    let v = latency_ns as f64;
    let idx = adv_obs::DURATION_BOUNDS_NS.partition_point(|&b| b < v);
    if let Some(slot) = exemplar_slots().get(idx) {
        // lint-ok(ordering-justified): last-writer-wins exemplar cell; the
        // id is self-contained and readers tolerate any published value.
        slot.store(trace.0, Ordering::Relaxed);
    }
}

/// The per-bucket latency exemplars recorded so far: `(upper_bound_ns,
/// trace_id)` for every bucket that has one (the last bucket reports
/// `f64::INFINITY`).
pub fn latency_exemplars() -> Vec<(f64, u64)> {
    exemplar_slots()
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| {
            // lint-ok(ordering-justified): reporting-only read of a
            // last-writer-wins cell.
            let id = slot.load(Ordering::Relaxed);
            if id == 0 {
                return None;
            }
            let le = adv_obs::DURATION_BOUNDS_NS
                .get(i)
                .copied()
                .unwrap_or(f64::INFINITY);
            Some((le, id))
        })
        .collect()
}

/// Every recorded span belonging to `trace` — including spans of batch
/// traces [`link`]ed from it — sorted by start time. Flushes the calling
/// thread first; worker threads flush at buffer thresholds and when their
/// frame stacks unwind.
pub fn spans_for(trace: TraceId) -> Vec<TraceSpan> {
    if trace.is_none() {
        return Vec::new();
    }
    crate::kernel::flush_current_thread();
    let sink = sink();
    let batches: Vec<u64> = lock_unpoisoned(&sink.links)
        .iter()
        .filter(|(req, _)| *req == trace.0)
        .map(|(_, batch)| *batch)
        .collect();
    let mut spans: Vec<TraceSpan> = lock_unpoisoned(&sink.spans)
        .iter()
        .filter(|s| s.trace == trace.0 || batches.contains(&s.trace))
        .copied()
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.depth));
    spans
}

/// Renders `trace`'s span tree as indented text (one line per span,
/// depth-indented, with start offset and duration) — the exemplar drill
/// -down view the probes print for slow requests. Spans are grouped by
/// the thread that ran them: first the thread whose span starts first
/// (the worker), then each other thread (e.g. a split pass's helpers)
/// under a `thread <index>` header, since depths only nest within one
/// thread.
pub fn render_trace(trace: TraceId) -> String {
    render_spans(trace, &spans_for(trace))
}

/// [`render_trace`] over `spans`, sorted by start time.
fn render_spans(trace: TraceId, spans: &[TraceSpan]) -> String {
    let mut threads: Vec<u64> = Vec::new();
    for s in spans {
        if !threads.contains(&s.thread) {
            threads.push(s.thread);
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "trace {} ({} spans)", trace.as_u64(), spans.len());
    for (i, &thread) in threads.iter().enumerate() {
        let base = if i == 0 {
            1
        } else {
            let _ = writeln!(out, "  thread {thread}");
            2
        };
        for s in spans.iter().filter(|s| s.thread == thread) {
            let indent = "  ".repeat(usize::from(s.depth) + base);
            let origin = if s.trace == trace.as_u64() {
                ""
            } else {
                " [batch]"
            };
            let _ = writeln!(
                out,
                "{indent}{} +{:.3}ms {:.3}ms{origin}",
                s.name,
                s.start_ns as f64 / 1e6,
                s.dur_ns as f64 / 1e6,
            );
        }
    }
    out
}

/// Takes every span out of the sink, sorted by start time — the
/// `trace.jsonl` export. Flushes the calling thread first; other threads'
/// tails land once they flush or exit.
pub fn take_spans() -> Vec<TraceSpan> {
    crate::kernel::flush_current_thread();
    let mut spans = Vec::from(std::mem::take(&mut *lock_unpoisoned(&sink().spans)));
    spans.sort_by_key(|s| s.start_ns);
    spans
}

/// Serializes spans as JSON lines, one object per span.
pub fn spans_to_jsonl(spans: &[TraceSpan]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":{},\"trace\":{},\"thread\":{},\"depth\":{},\"start_ns\":{},\"duration_ns\":{}}}",
            adv_obs::registry::json_string(s.name),
            s.trace,
            s.thread,
            s.depth,
            s.start_ns,
            s.dur_ns
        );
    }
    out
}

/// Clears spans, links, exemplars and the drop counter (tests/probes).
pub(crate) fn reset_traces() {
    let sink = sink();
    lock_unpoisoned(&sink.spans).clear();
    lock_unpoisoned(&sink.links).clear();
    // lint-ok(ordering-justified): test/probe-only reset of an independent
    // counter.
    sink.dropped.store(0, Ordering::Relaxed);
    for slot in exemplar_slots() {
        // lint-ok(ordering-justified): test/probe-only reset of a
        // last-writer-wins cell.
        slot.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelScope, StageScope};
    use crate::test_enabled_lock;
    use crate::{KernelKind, Work};

    #[test]
    fn disabled_minting_yields_none() {
        let _guard = test_enabled_lock();
        crate::set_enabled(false);
        assert!(next_trace_id().is_none());
    }

    #[test]
    fn ids_are_unique_when_enabled() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        let a = next_trace_id();
        let b = next_trace_id();
        crate::set_enabled(false);
        assert!(!a.is_none());
        assert_ne!(a, b);
    }

    #[test]
    fn recorded_scopes_land_in_the_trace() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        let request = next_trace_id();
        let batch = next_trace_id();
        link(request, batch);
        record_event(request, "queue_wait", 1234);
        {
            let _rec = record_into(batch);
            let _stage = StageScope::enter("serve/batch");
            let _k = KernelScope::enter(KernelKind::MatMul, || Work::matmul(2, 2, 2));
        }
        crate::set_enabled(false);
        let spans = spans_for(request);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"queue_wait"), "{names:?}");
        assert!(names.contains(&"serve/batch"), "{names:?}");
        assert!(names.contains(&"matmul"), "{names:?}");
        let rendered = render_trace(request);
        assert!(rendered.contains("matmul"), "{rendered}");
        assert!(rendered.contains("[batch]"), "{rendered}");
    }

    #[test]
    fn trace_guard_restores_previous_trace() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        let outer = next_trace_id();
        let inner = next_trace_id();
        {
            let _a = record_into(outer);
            {
                let _b = record_into(inner);
                assert_eq!(active_trace(), inner);
                let _k = KernelScope::enter(KernelKind::Jsd, || Work::custom(1, 1, 1));
            }
            assert_eq!(active_trace(), outer);
            let _k = KernelScope::enter(KernelKind::Softmax, || Work::softmax(1, 2));
        }
        assert_eq!(active_trace(), TraceId::NONE);
        crate::set_enabled(false);
        let inner_spans = spans_for(inner);
        let outer_spans = spans_for(outer);
        assert!(inner_spans.iter().any(|s| s.name == "jsd"));
        assert!(inner_spans.iter().all(|s| s.name != "softmax"));
        assert!(outer_spans.iter().any(|s| s.name == "softmax"));
    }

    #[test]
    fn exemplars_keep_one_trace_per_bucket() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        let a = next_trace_id();
        let b = next_trace_id();
        crate::set_enabled(false);
        observe_latency(300, a); // 256..512 bucket
        observe_latency(100_000_000, b); // ~100ms bucket
        observe_latency(0, TraceId::NONE); // ignored
        let ex = latency_exemplars();
        assert_eq!(ex.len(), 2, "{ex:?}");
        assert!(ex.iter().any(|&(le, id)| le == 512.0 && id == a.as_u64()));
        assert!(ex.iter().any(|&(_, id)| id == b.as_u64()));
    }

    fn fill(start_ns: u64) -> TraceSpan {
        TraceSpan {
            trace: 7,
            name: "fill",
            thread: 0,
            depth: 0,
            start_ns,
            dur_ns: 1,
        }
    }

    #[test]
    fn span_ring_evicts_oldest() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        let mut pending: Vec<TraceSpan> = (0..MAX_TRACE_SPANS as u64 + 10).map(fill).collect();
        flush_spans(&mut pending, true);
        // A full sink takes a further batch by evicting, not by growing.
        let end = MAX_TRACE_SPANS as u64 + 10;
        let mut pending: Vec<TraceSpan> = (end..end + 5).map(fill).collect();
        flush_spans(&mut pending, true);
        assert!(pending.is_empty());
        let capacity = lock_unpoisoned(&sink().spans).capacity();
        assert!(capacity <= MAX_TRACE_SPANS, "capacity {capacity}");
        crate::set_enabled(false);
        let spans = spans_for(TraceId::from_u64(7));
        assert_eq!(spans.len(), MAX_TRACE_SPANS);
        assert_eq!(spans.first().map(|s| s.start_ns), Some(15));
        assert_eq!(spans.last().map(|s| s.start_ns), Some(end + 4));
        assert_eq!(dropped_spans(), 15);
        crate::reset();
    }

    #[test]
    fn sink_cap_counts_drops() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        let mut pending: Vec<TraceSpan> = (0..MAX_TRACE_SPANS as u64).map(fill).collect();
        flush_spans(&mut pending, true);
        {
            let _s = StageScope::enter("over/cap");
        }
        crate::kernel::flush_current_thread();
        crate::set_enabled(false);
        assert_eq!(dropped_spans(), 1);
        let spans = take_spans();
        assert_eq!(spans.len(), MAX_TRACE_SPANS);
        assert!(
            spans.iter().any(|s| s.name == "over/cap"),
            "newest span kept"
        );
        crate::reset();
    }

    #[test]
    fn stage_frames_outside_traces_are_exported_and_kernel_frames_are_not() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _stage = StageScope::enter("probe/stage");
            let _k = KernelScope::enter(KernelKind::MatMul, || Work::matmul(2, 2, 2));
        }
        crate::set_enabled(false);
        let spans = take_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["probe/stage"]);
        assert_eq!(spans.first().map(|s| s.trace), Some(0));
        let jsonl = spans_to_jsonl(&spans);
        assert!(jsonl.contains("\"name\":\"probe/stage\""), "{jsonl}");
        assert!(!jsonl.contains("matmul"), "{jsonl}");
        assert!(take_spans().is_empty(), "taking drains the sink");
    }

    #[test]
    fn spans_from_joined_threads_are_drained() {
        let _guard = test_enabled_lock();
        crate::set_enabled(true);
        crate::reset();
        let threads: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = StageScope::enter("worker/span");
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker thread panicked");
        }
        crate::set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 3);
        let threads_seen: std::collections::HashSet<u64> = spans.iter().map(|s| s.thread).collect();
        assert_eq!(threads_seen.len(), 3, "one thread index per worker");
        let summary = crate::frame_summaries();
        let worker = summary.iter().find(|s| s.name == "worker/span");
        assert_eq!(worker.map(|s| s.count), Some(3));
    }

    #[test]
    fn a_two_thread_trace_renders_each_thread_contiguously() {
        let span = |name, thread, depth, start_ns| TraceSpan {
            trace: 5,
            name,
            thread,
            depth,
            start_ns,
            dur_ns: 1,
        };
        // A split pass: the worker's detect kernels (depth 3) interleave in
        // time with a helper's chunk (depth 0) and its kernels.
        let spans = [
            span("magnet/detect", 4, 2, 10),
            span("conv2d", 4, 3, 11),
            span("magnet/chunk", 9, 0, 12),
            span("conv2d", 9, 1, 13),
            span("matmul", 4, 3, 14),
            span("matmul", 9, 1, 15),
        ];
        let rendered = render_spans(TraceId(5), &spans);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(
            lines,
            [
                "trace 5 (6 spans)",
                "      magnet/detect +0.000ms 0.000ms",
                "        conv2d +0.000ms 0.000ms",
                "        matmul +0.000ms 0.000ms",
                "  thread 9",
                "    magnet/chunk +0.000ms 0.000ms",
                "      conv2d +0.000ms 0.000ms",
                "      matmul +0.000ms 0.000ms",
            ],
            "{rendered}"
        );
    }

    #[test]
    fn jsonl_serialization_is_one_object_per_line() {
        let spans = [
            TraceSpan {
                trace: 0,
                name: "a/b",
                thread: 0,
                depth: 0,
                start_ns: 5,
                dur_ns: 10,
            },
            TraceSpan {
                trace: 9,
                name: "c",
                thread: 1,
                depth: 2,
                start_ns: 7,
                dur_ns: 1,
            },
        ];
        let jsonl = spans_to_jsonl(&spans);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines.first().copied(),
            Some(
                "{\"name\":\"a/b\",\"trace\":0,\"thread\":0,\"depth\":0,\"start_ns\":5,\"duration_ns\":10}"
            )
        );
    }
}
