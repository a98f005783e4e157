//! Engine health and worker restart policy.
//!
//! The supervisor escalates health monotonically within a degradation
//! window: `Healthy → Degraded` on a worker restart or an open circuit
//! breaker, `Degraded → Failed` when the restart budget is exhausted (or a
//! respawn itself fails). `Failed` is terminal; `Degraded` decays back to
//! `Healthy` only after the window expires *and* the breaker has closed, so
//! within one window the reported sequence can only move forward.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The engine's coarse health, reported by `ServeEngine::health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EngineHealth {
    /// All workers live, breaker closed, no recent restarts.
    Healthy,
    /// The engine is serving, but a worker was recently respawned or the
    /// pipeline is running a reduced defense scheme.
    Degraded,
    /// A graceful shutdown is in progress: the queue is closed, already
    /// accepted requests are still being answered, and new submissions are
    /// refused. Front ends (e.g. `adv-net`'s listener) use this to refuse
    /// new connects instead of racing the queue close.
    Draining,
    /// The restart budget is exhausted; the queue is closed and every
    /// unanswered request has been failed. Terminal.
    Failed,
}

impl std::fmt::Display for EngineHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineHealth::Healthy => write!(f, "healthy"),
            EngineHealth::Degraded => write!(f, "degraded"),
            EngineHealth::Draining => write!(f, "draining"),
            EngineHealth::Failed => write!(f, "failed"),
        }
    }
}

/// How the supervisor handles worker deaths.
#[derive(Debug, Clone)]
pub struct RestartPolicy {
    /// Restarts tolerated within [`window`](Self::window) before the engine
    /// enters [`EngineHealth::Failed`] and stops.
    pub max_restarts: usize,
    /// Sliding window the restart budget applies to (also how long a
    /// restart keeps the engine reporting [`EngineHealth::Degraded`]).
    pub window: Duration,
    /// Backoff before the first respawn; doubles per restart currently in
    /// the window.
    pub backoff_base: Duration,
    /// Upper bound on the respawn backoff.
    pub backoff_max: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 8,
            window: Duration::from_secs(10),
            backoff_base: Duration::from_micros(500),
            backoff_max: Duration::from_millis(50),
        }
    }
}

impl RestartPolicy {
    /// Exponential backoff for a respawn with `prior` restarts already in
    /// the window, capped at [`backoff_max`](Self::backoff_max).
    pub fn backoff(&self, prior: usize) -> Duration {
        let shift = prior.min(16) as u32;
        self.backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.backoff_max)
    }
}

/// Shared health flags, written by the supervisor and read by callers.
#[derive(Debug)]
pub(crate) struct HealthState {
    epoch: Instant,
    failed: AtomicBool,
    draining: AtomicBool,
    degraded_until_ns: AtomicU64,
}

impl HealthState {
    #[expect(
        clippy::disallowed_methods,
        reason = "the epoch anchors the degradation window and breaker probe timers — health timing is the feature of this module."
    )]
    pub(crate) fn new() -> HealthState {
        HealthState {
            epoch: Instant::now(),
            failed: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            degraded_until_ns: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the engine started; the time base every health and
    /// breaker timestamp uses (fits u64 for ~584 years of uptime).
    #[expect(
        clippy::disallowed_methods,
        reason = "see `new` — window timing is the feature."
    )]
    pub(crate) fn now_ns(&self) -> u64 {
        Instant::now().duration_since(self.epoch).as_nanos() as u64
    }

    /// Keeps the engine reporting `Degraded` for at least `window` from now.
    pub(crate) fn mark_degraded(&self, window: Duration) {
        let until = self.now_ns().saturating_add(window.as_nanos() as u64);
        self.degraded_until_ns.fetch_max(until, Ordering::Relaxed);
    }

    /// Marks the engine terminally failed.
    pub(crate) fn set_failed(&self) {
        // lint-ok(ordering-justified): one-way latch; readers that see it
        // late only report Degraded for one extra poll.
        self.failed.store(true, Ordering::Relaxed);
    }

    pub(crate) fn is_failed(&self) -> bool {
        // lint-ok(ordering-justified): see `set_failed` — one-way latch.
        self.failed.load(Ordering::Relaxed)
    }

    /// Marks a graceful drain as in progress. One-way: `Draining` is only
    /// superseded by `Failed`.
    pub(crate) fn set_draining(&self) {
        // lint-ok(ordering-justified): one-way latch; a reader that sees it
        // late submits one more request and gets ShuttingDown from the
        // closed queue — the same refusal, one hop later.
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Folds the flags (plus the breaker's state) into one health value.
    pub(crate) fn health(&self, breaker_open: bool) -> EngineHealth {
        if self.is_failed() {
            return EngineHealth::Failed;
        }
        // lint-ok(ordering-justified): see `set_draining` — one-way latch.
        if self.draining.load(Ordering::Relaxed) {
            return EngineHealth::Draining;
        }
        let degraded_until = self.degraded_until_ns.load(Ordering::Relaxed);
        if breaker_open || self.now_ns() < degraded_until {
            EngineHealth::Degraded
        } else {
            EngineHealth::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_escalates_and_is_terminal_on_failure() {
        let h = HealthState::new();
        assert_eq!(h.health(false), EngineHealth::Healthy);
        h.mark_degraded(Duration::from_secs(60));
        assert_eq!(h.health(false), EngineHealth::Degraded);
        h.set_failed();
        assert_eq!(h.health(false), EngineHealth::Failed);
        // Failed wins over everything, forever.
        assert_eq!(h.health(true), EngineHealth::Failed);
    }

    #[test]
    fn degradation_window_expires() {
        let h = HealthState::new();
        h.mark_degraded(Duration::ZERO);
        // A zero window is already over by the next read.
        assert_eq!(h.health(false), EngineHealth::Healthy);
    }

    #[test]
    fn open_breaker_reports_degraded() {
        let h = HealthState::new();
        assert_eq!(h.health(true), EngineHealth::Degraded);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RestartPolicy {
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(6),
            ..RestartPolicy::default()
        };
        assert_eq!(p.backoff(0), Duration::from_millis(1));
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(2), Duration::from_millis(4));
        assert_eq!(p.backoff(3), Duration::from_millis(6));
        assert_eq!(p.backoff(40), Duration::from_millis(6));
    }

    #[test]
    fn health_is_ordered_for_monotonicity_checks() {
        assert!(EngineHealth::Healthy < EngineHealth::Degraded);
        assert!(EngineHealth::Degraded < EngineHealth::Draining);
        assert!(EngineHealth::Draining < EngineHealth::Failed);
        assert_eq!(EngineHealth::Degraded.to_string(), "degraded");
        assert_eq!(EngineHealth::Draining.to_string(), "draining");
    }

    #[test]
    fn draining_overrides_degraded_but_not_failed() {
        let h = HealthState::new();
        h.mark_degraded(Duration::from_secs(60));
        h.set_draining();
        assert_eq!(h.health(false), EngineHealth::Draining);
        assert_eq!(h.health(true), EngineHealth::Draining);
        h.set_failed();
        assert_eq!(h.health(false), EngineHealth::Failed);
    }
}
