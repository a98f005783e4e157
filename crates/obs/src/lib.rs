//! adv-obs: structured observability for the whole reproduction stack.
//!
//! Dependency-free and safe to leave compiled into release binaries, the
//! crate holds two things every instrumented crate shares:
//!
//! * [`registry`] — a lock-light **metrics registry**: named [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s behind an [`Arc<Registry>`].
//!   Handles are plain atomics; the registry mutex is touched only at
//!   registration and snapshot time. A [`Snapshot`] can be exported as
//!   Prometheus text format or JSON.
//! * the process-wide **level** — the one gate for all telemetry. Spans,
//!   kernel accounting and request traces live in `adv-profile`, whose
//!   scopes record only at [`ObsLevel::Trace`].
//!
//! # Enabling telemetry
//!
//! * [`ObsLevel::Off`] (default) — every instrumentation point is a no-op:
//!   one relaxed atomic load and a predictable branch, verified by
//!   `adv-profile`'s `obs_overhead` example. Numerical results are never
//!   affected at any level; instrumentation only reads clocks and bumps
//!   atomics.
//! * [`ObsLevel::Metrics`] — counters/gauges/histograms record.
//! * [`ObsLevel::Trace`] — metrics plus spans, kernel accounting and
//!   request traces.
//!
//! The level comes from the `ADV_OBS` environment variable
//! (`off|metrics|trace`, read once on first use) so library users can turn
//! telemetry on without plumbing flags, or programmatically via
//! [`set_level`] (the experiment binaries' `--obs` flag does this).
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

pub mod registry;
pub mod sync;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, DURATION_BOUNDS_NS,
    SCORE_BOUNDS,
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
/// or not it is taken (`adv-profile`'s `obs_overhead` example pins this).
#[inline]
pub fn metrics_enabled() -> bool {
    // lint-ok(ordering-justified): a momentarily stale level only delays
    // when instrumentation switches on/off; no data is guarded by it.
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => init_level_from_env() >= ObsLevel::Metrics,
        v => v >= ObsLevel::Metrics as u8,
    }
}

/// `true` at [`ObsLevel::Trace`]: `adv-profile`'s scopes record.
///
/// Same single-byte fast path as [`metrics_enabled`]: the common
/// scope-off case is one relaxed load and one equality compare.
#[inline]
pub fn trace_enabled() -> bool {
    // lint-ok(ordering-justified): a momentarily stale level only delays
    // when instrumentation switches on/off; no data is guarded by it.
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => init_level_from_env() >= ObsLevel::Trace,
        v => v == ObsLevel::Trace as u8,
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
        // The only test in this crate that changes the level.
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
}
