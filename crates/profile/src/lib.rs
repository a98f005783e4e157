//! adv-profile: the one observability crate of the reproduction stack.
//!
//! Dependency-free (std only), always compiled into release binaries, and
//! runtime-gated by one process-wide level. It holds everything that
//! decides and records what the process observes:
//!
//! * the **level** — [`ObsLevel`], read by [`metrics_enabled`] and
//!   [`trace_enabled`], the two gates every instrumentation point checks.
//! * [`registry`] — a lock-light **metrics registry**: named [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s behind an [`Arc<Registry>`].
//!   Handles are plain atomics; the registry mutex is touched only at
//!   registration and snapshot time. A [`Snapshot`] exports as Prometheus
//!   text format or JSON. [`count`] is the gated one-line counter bump on
//!   the process-wide [`global`] registry.
//! * [`kernel`] — **scopes**: [`StageScope`] marks a named stage (an EAD
//!   ISTA iteration, a training batch, a MagNet defense stage, a serving
//!   batch); [`KernelScope`] wraps every hot kernel in `adv-tensor`
//!   (matmul, im2col/conv, elementwise, reductions), `adv-nn` (softmax)
//!   and `adv-magnet` (detector-distance loops, JSD) and also records the
//!   kernel's declared FLOP/byte volume, so a profile reports *achieved
//!   GFLOP/s per kernel*. Scopes nest on one per-thread frame stack; self
//!   time is total time minus time inside child scopes, so every
//!   nanosecond lands in exactly one frame.
//! * [`trace`] — **the span sink**: every stage frame, and every kernel
//!   frame inside an active request trace, lands as a [`TraceSpan`] in one
//!   bounded buffer. A [`TraceId`] minted at `submit` time rides through
//!   queue wait, batch formation, defense stages and kernel scopes;
//!   latency exemplars map each latency histogram bucket to the most
//!   recent trace that landed in it, so a slow request resolves to a full
//!   span tree instead of a bucket count. The same buffer exports as the
//!   `trace.jsonl` event stream.
//! * [`report`] — exports: a per-kernel table, a per-frame
//!   self/total/count summary, a collapsed-stack (flamegraph-compatible)
//!   text dump, and gauges published into a [`Registry`].
//! * [`sync`] — poison-tolerant locking, shared by every crate that keeps
//!   observability state behind a mutex.
//!
//! The crate keeps the profiler's name: the benchmark harness (`perfbench/`)
//! builds against `adv-profile` at `crates/profile` and reads the kernel
//! table through it, so the metrics registry and the level moved in here
//! rather than the profiler moving out.
//!
//! # Enabling telemetry
//!
//! * [`ObsLevel::Off`] (default) — every instrumentation point is a no-op:
//!   one relaxed byte load and a predictable branch, pinned by
//!   `examples/obs_overhead.rs`.
//! * [`ObsLevel::Metrics`] — counters, gauges and histograms record;
//!   scopes are no-ops.
//! * [`ObsLevel::Trace`] — metrics plus stage spans, kernel accounting and
//!   request traces.
//!
//! The level comes from the `ADV_OBS` environment variable
//! (`off|metrics|trace`, read once on first use), from [`set_level`] (the
//! experiment binaries' `--obs` flag raises it to `trace`), or from
//! [`set_enabled`], the probes' on/off switch for scopes. Recording never
//! changes numerical results; it only reads clocks and bumps atomics.
//!
//! [`Arc<Registry>`]: std::sync::Arc

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod kernel;
pub mod registry;
pub mod report;
pub mod sync;
pub mod trace;

pub use kernel::{dropped_stacks, flush_current_thread, KernelKind, KernelScope, StageScope, Work};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, DURATION_BOUNDS_NS,
    SCORE_BOUNDS,
};
pub use report::{
    collapsed, frame_summaries, kernel_reports, kernel_table, publish_to, render_summary,
    total_kernel_self_ns, FrameSummary, KernelReport,
};
pub use trace::{
    active_trace, dropped_spans, latency_exemplars, link, next_trace_id, observe_latency,
    record_event, record_into, render_trace, spans_for, spans_to_jsonl, take_spans, TraceGuard,
    TraceId, TraceSpan,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// How much telemetry the process records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsLevel {
    /// No telemetry; every instrumentation point is a no-op.
    Off = 0,
    /// Counters, gauges and histograms record; scopes are no-ops.
    Metrics = 1,
    /// Metrics plus spans, kernel accounting and request traces.
    Trace = 2,
}

impl ObsLevel {
    /// Parses `"off"`, `"metrics"` or `"trace"` (case-insensitive).
    pub fn from_name(name: &str) -> Option<ObsLevel> {
        match name.to_ascii_lowercase().as_str() {
            "off" | "0" | "false" => Some(ObsLevel::Off),
            "metrics" | "1" => Some(ObsLevel::Metrics),
            "trace" | "2" => Some(ObsLevel::Trace),
            _ => None,
        }
    }
}

/// Sentinel meaning "not yet initialised from `ADV_OBS`".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn decode(v: u8) -> ObsLevel {
    match v {
        1 => ObsLevel::Metrics,
        2 => ObsLevel::Trace,
        _ => ObsLevel::Off,
    }
}

#[cold]
fn init_level_from_env() -> ObsLevel {
    let from_env = std::env::var("ADV_OBS")
        .ok()
        .and_then(|v| ObsLevel::from_name(&v))
        .unwrap_or(ObsLevel::Off);
    // Keep an explicit `set_level` that raced ahead of us.
    // lint-ok(ordering-justified): the level byte is self-contained state;
    // the CAS only needs atomicity and the follow-up load only needs to see
    // *a* committed value — both orderings are free to be Relaxed.
    let _ = LEVEL.compare_exchange(
        LEVEL_UNSET,
        from_env as u8,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    // lint-ok(ordering-justified): see the CAS above; any committed level
    // byte is a valid answer here.
    decode(LEVEL.load(Ordering::Relaxed))
}

/// The current telemetry level (initialised from `ADV_OBS` on first call).
#[inline]
pub fn level() -> ObsLevel {
    // lint-ok(ordering-justified): a momentarily stale level only delays
    // when instrumentation switches on/off; no data is guarded by it.
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => init_level_from_env(),
        v => decode(v),
    }
}

/// Overrides the telemetry level for the whole process.
pub fn set_level(level: ObsLevel) {
    // lint-ok(ordering-justified): last-writer-wins flag; readers tolerate
    // observing the change late (see `level`).
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// `true` when counters/gauges/histograms should record.
///
/// Compares the cached level byte directly — one relaxed load and one
/// branch on the off path, no decode — so the gate costs the same whether
/// or not it is taken (`examples/obs_overhead.rs` pins this).
#[inline]
pub fn metrics_enabled() -> bool {
    // lint-ok(ordering-justified): a momentarily stale level only delays
    // when instrumentation switches on/off; no data is guarded by it.
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => init_level_from_env() >= ObsLevel::Metrics,
        v => v >= ObsLevel::Metrics as u8,
    }
}

/// `true` at [`ObsLevel::Trace`]: scopes, spans and trace ids record.
///
/// The hot-path gate of every [`StageScope`] and [`KernelScope`], with the
/// same single-byte fast path as [`metrics_enabled`]: the common scope-off
/// case is one relaxed load and one equality compare.
#[inline]
pub fn trace_enabled() -> bool {
    // lint-ok(ordering-justified): a momentarily stale level only delays
    // when instrumentation switches on/off; no data is guarded by it.
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => init_level_from_env() >= ObsLevel::Trace,
        v => v == ObsLevel::Trace as u8,
    }
}

/// Turns recording on or off for the whole process (the probes'
/// programmatic switch). `true` raises the level to [`ObsLevel::Trace`];
/// `false` lowers it to at most [`ObsLevel::Metrics`], so every scope goes
/// inert whatever `ADV_OBS` said.
pub fn set_enabled(on: bool) {
    if on {
        set_level(ObsLevel::Trace);
    } else if level() > ObsLevel::Metrics {
        set_level(ObsLevel::Metrics);
    }
}

/// The process-wide registry shared by all instrumented crates.
///
/// Instrumentation points write here when [`metrics_enabled`]; subsystems
/// that always need metrics regardless of level (e.g. the serving engine)
/// create their own [`Registry`] instead.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// Adds `n` to the [`global`] counter `name` when metrics record; one
/// relaxed load otherwise.
#[inline]
pub fn count(name: &str, n: u64) {
    if metrics_enabled() {
        global().counter(name).add(n);
    }
}

/// Clears every accumulated profile: kernel slots, collapsed stacks,
/// trace spans, links, exemplars, and drop counters. Flushes the calling
/// thread first; other threads' unflushed tails are picked up once they
/// flush or exit (tests and probes).
pub fn reset() {
    kernel::flush_current_thread();
    kernel::reset_kernels();
    trace::reset_traces();
}

/// Serializes the unit tests that change the process level: they share
/// one test binary, and one test's level would leak into another's gates.
#[cfg(test)]
pub(crate) fn test_enabled_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_parse() {
        assert_eq!(ObsLevel::from_name("off"), Some(ObsLevel::Off));
        assert_eq!(ObsLevel::from_name("Metrics"), Some(ObsLevel::Metrics));
        assert_eq!(ObsLevel::from_name("TRACE"), Some(ObsLevel::Trace));
        assert_eq!(ObsLevel::from_name("verbose"), None);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(ObsLevel::Off < ObsLevel::Metrics);
        assert!(ObsLevel::Metrics < ObsLevel::Trace);
    }

    #[test]
    fn set_level_controls_gates() {
        let _guard = test_enabled_lock();
        let before = level();
        set_level(ObsLevel::Off);
        assert!(!metrics_enabled() && !trace_enabled());
        set_level(ObsLevel::Metrics);
        assert!(metrics_enabled() && !trace_enabled());
        set_level(ObsLevel::Trace);
        assert!(metrics_enabled() && trace_enabled());
        set_level(before);
    }

    #[test]
    fn global_registry_is_shared() {
        assert!(Arc::ptr_eq(global(), global()));
    }

    #[test]
    fn count_records_only_when_metrics_are_on() {
        let _guard = test_enabled_lock();
        let before = level();
        let counter = global().counter("test.count");
        set_level(ObsLevel::Off);
        count("test.count", 3);
        assert_eq!(counter.get(), 0);
        set_level(ObsLevel::Metrics);
        count("test.count", 3);
        count("test.count", 1);
        assert_eq!(counter.get(), 4);
        set_level(before);
    }

    #[test]
    fn set_enabled_controls_gate() {
        let _guard = test_enabled_lock();
        let before = level();
        set_enabled(false);
        assert!(!trace_enabled());
        set_enabled(true);
        assert!(trace_enabled());
        assert_eq!(level(), ObsLevel::Trace);
        set_level(before);
    }

    #[test]
    fn disabling_lowers_the_level_to_metrics_at_most() {
        let _guard = test_enabled_lock();
        let before = level();
        set_level(ObsLevel::Trace);
        set_enabled(false);
        assert_eq!(level(), ObsLevel::Metrics);
        set_level(ObsLevel::Off);
        set_enabled(false);
        assert_eq!(level(), ObsLevel::Off, "never raises the level");
        set_level(before);
    }
}
