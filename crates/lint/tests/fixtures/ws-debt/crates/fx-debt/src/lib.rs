//! Fixture: exactly one `lint-debt` violation — the committed baseline
//! budgets no `clippy::disallowed_methods` suppressions, and this crate has
//! one.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static LEVEL: AtomicU64 = AtomicU64::new(0);

/// The expectation below is well-formed; the unbudgeted debt is the
/// violation.
pub fn measure() -> Instant {
    #[expect(
        clippy::disallowed_methods,
        reason = "timing is this fixture's feature"
    )]
    let now = Instant::now();
    now
}

/// Budgeted debt (the baseline allows one `clippy::unwrap_used`); must NOT
/// be a finding.
#[expect(clippy::unwrap_used, reason = "fixture exercises the budgeted path")]
pub fn budgeted(v: Option<u64>) -> u64 {
    v.unwrap()
}

/// Budgeted debt (the baseline allows one `ordering-justified`); must NOT
/// be a finding.
pub fn set_level(v: u64) {
    // lint-ok(ordering-justified): level value; readers tolerate staleness
    LEVEL.store(v, Ordering::Relaxed);
}
