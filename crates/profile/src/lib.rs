//! adv-profile: the instrumentation primitive of the reproduction stack.
//!
//! The crate is dependency-free (std plus `adv-obs` for the level gate and
//! the registry export), always compiled into release binaries, and
//! runtime-gated. One per-thread frame stack serves every kind of scope:
//!
//! * [`kernel`] — **scopes**: [`StageScope`] marks a named stage (an EAD
//!   ISTA iteration, a training batch, a MagNet defense stage, a serving
//!   batch); [`KernelScope`] wraps every hot kernel in `adv-tensor`
//!   (matmul, im2col/conv, elementwise, reductions), `adv-nn` (softmax)
//!   and `adv-magnet` (detector-distance loops, JSD) and also records the
//!   kernel's declared FLOP/byte volume, so a profile reports *achieved
//!   GFLOP/s per kernel*. Scopes nest; self time is total time minus time
//!   inside child scopes, so every nanosecond lands in exactly one frame.
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
//!   text dump, and gauges published into an `adv-obs`
//!   [`Registry`](adv_obs::Registry).
//!
//! # Enabling
//!
//! The gate is `adv-obs`'s process-wide level: scopes record only at
//! [`adv_obs::ObsLevel::Trace`] (`ADV_OBS=trace`, the binaries' `--obs`
//! flag, or [`set_enabled`]). Below it every scope is one relaxed byte load
//! and a predictable branch, pinned by the `obs_overhead` bench. Recording
//! never changes numerical results; it only reads clocks and bumps
//! counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod report;
pub mod trace;

pub use kernel::{dropped_stacks, flush_current_thread, KernelKind, KernelScope, StageScope, Work};
pub use report::{
    collapsed, frame_summaries, kernel_reports, kernel_table, publish_to, render_summary,
    total_kernel_self_ns, FrameSummary, KernelReport,
};
pub use trace::{
    dropped_spans, latency_exemplars, link, next_trace_id, observe_latency, record_event,
    record_into, render_trace, spans_for, spans_to_jsonl, take_spans, TraceGuard, TraceId,
    TraceSpan,
};

use adv_obs::ObsLevel;

/// `true` when scopes record: the process level is
/// [`ObsLevel::Trace`]. This is the hot-path gate — one relaxed load and a
/// compare.
#[inline]
pub fn enabled() -> bool {
    adv_obs::trace_enabled()
}

/// Turns recording on or off for the whole process (the probes'
/// programmatic switch). `true` raises the level to [`ObsLevel::Trace`];
/// `false` lowers it to at most [`ObsLevel::Metrics`], so every scope goes
/// inert whatever `ADV_OBS` said.
pub fn set_enabled(on: bool) {
    if on {
        adv_obs::set_level(ObsLevel::Trace);
    } else if adv_obs::level() > ObsLevel::Metrics {
        adv_obs::set_level(ObsLevel::Metrics);
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

#[cfg(test)]
pub(crate) fn test_enabled_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_controls_gate() {
        let _guard = test_enabled_lock();
        let before = adv_obs::level();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        assert_eq!(adv_obs::level(), ObsLevel::Trace);
        adv_obs::set_level(before);
    }

    #[test]
    fn disabling_lowers_the_level_to_metrics_at_most() {
        let _guard = test_enabled_lock();
        let before = adv_obs::level();
        adv_obs::set_level(ObsLevel::Trace);
        set_enabled(false);
        assert_eq!(adv_obs::level(), ObsLevel::Metrics);
        adv_obs::set_level(ObsLevel::Off);
        set_enabled(false);
        assert_eq!(adv_obs::level(), ObsLevel::Off, "never raises the level");
        adv_obs::set_level(before);
    }
}
