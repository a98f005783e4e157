//! Clean fixture: every rule's pattern appears here in compliant or
//! allowlisted form, so the linter must report zero findings. The
//! `#[expect(clippy::..)]` suppressions count toward the allow total.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static TICKS: AtomicU64 = AtomicU64::new(0);
static LEVEL: AtomicU64 = AtomicU64::new(0);

/// The crate's typed error.
#[derive(Debug)]
pub enum CleanError {
    /// The input was empty.
    Empty,
}

/// Fallible API on the crate error type (compliant with
/// `crate-error-types`).
pub fn first(values: &[u64]) -> Result<u64, CleanError> {
    values.first().copied().ok_or(CleanError::Empty)
}

/// A proven Relaxed counter needs NO justification comment: every access
/// to `TICKS` is Relaxed and within the counter op set, so the workspace
/// analysis exempts it (compliant with `ordering-justified` v2).
pub fn tick() -> u64 {
    TICKS.fetch_add(1, Ordering::Relaxed)
}

/// Counter reads are exempt too.
pub fn ticks() -> u64 {
    TICKS.load(Ordering::Relaxed)
}

/// A store disqualifies `LEVEL` from the counter exemption, so this site
/// carries a live justification (compliant, and NOT stale).
pub fn set_level(v: u64) {
    // lint-ok(ordering-justified): level value; readers tolerate staleness
    LEVEL.store(v, Ordering::Relaxed);
}

/// A clock read suppressed the clippy way: timing is this function's
/// documented purpose.
pub fn measure<F: FnOnce()>(f: F) -> std::time::Duration {
    #[expect(
        clippy::disallowed_methods,
        reason = "measuring wall time is the feature here"
    )]
    let start = Instant::now();
    f();
    start.elapsed()
}

/// A suppressed unwrap: the value is checked before it is unwrapped.
#[expect(clippy::unwrap_used, reason = "is_none checked directly above")]
pub fn double_checked(v: Option<u64>) -> u64 {
    if v.is_none() {
        return 0;
    }
    v.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn everything_still_works() {
        assert_eq!(super::first(&[7]).unwrap(), 7);
        assert_eq!(super::double_checked(Some(3)), 3);
    }
}
