//! adv-chaos: deterministic fault injection for the serving stack.
//!
//! Carlini & Wagner's break of MagNet (arXiv:1711.08478) made the case that
//! a defense's robustness claims are only as good as the adversarial
//! conditions they are tested under. This crate applies the same discipline
//! to the *serving layer*: instead of hoping the engine survives worker
//! panics, pipeline errors, and stalls, we inject them — deterministically,
//! from a seed — and assert the engine's contracts (exactly-once responses,
//! supervised respawn, graceful degradation) under thousands of randomized
//! fault schedules.
//!
//! The crate has three pieces:
//!
//! * [`FaultPlan`] — a seeded, declarative description of *what* to inject
//!   *where*: per named site, a panic/error/delay probability, the delay
//!   duration, and an optional cap on total injected faults.
//! * [`FaultInjector`] — the runtime evaluator. Each call to
//!   [`FaultInjector::decide`] at a site draws the site's next decision;
//!   decisions are a pure function of `(seed, site, hit index)`, so the
//!   multiset of injected faults is reproducible regardless of thread
//!   interleaving. [`FaultInjector::disabled`] is the zero-cost default the
//!   serving engine runs with in production: no sites, no drawing, a single
//!   branch on an `Option`.
//! * [`FaultyDefense`] — an [`adv_magnet::DefensePipeline`] wrapper around
//!   [`adv_magnet::MagnetDefense`] exposing per-stage injection points
//!   (detector scoring, reformer, classifier). With a no-op injector its
//!   verdicts are bit-identical to the unwrapped defense.
//! * [`IoFaultPlan`] — the same discipline for the durable artifact store:
//!   an [`adv_store::IoFaultHook`] injecting torn writes, bit flips, and
//!   transient write errors into `adv-store`'s write paths, scoped to a
//!   directory and fully determined by its seed.
//! * [`NetFaultPlan`] — the wire-level variant for the TCP front door:
//!   per-socket-operation decisions (torn frames, bit flips, stalled reads,
//!   mid-request disconnects) consumed by `adv-net`'s stream wrapper.
//!
//! Injected panics carry the [`PANIC_MARKER`] prefix so supervision code
//! and test assertions can tell a planned fault from a real bug.

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

mod faulty;
mod inject;
mod io;
mod net;
mod plan;

pub use faulty::{FaultyDefense, SITE_CLASSIFY, SITE_DETECT, SITE_REFORM};
pub use inject::{FaultAction, FaultInjector, FaultStats};
pub use io::{IoFaultPlan, IoFaultStats};
pub use net::{NetFault, NetFaultPlan, NetFaultStats};
pub use plan::{FaultPlan, SiteFaults};

/// Prefix of every panic payload this crate injects.
pub const PANIC_MARKER: &str = "adv-chaos: injected panic";

/// Errors surfaced by the fault-injection layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A deliberately injected fault (the injector's `Error` action).
    Injected {
        /// The site that drew the fault.
        site: String,
        /// The site's 0-based hit index that drew it.
        hit: u64,
    },
    /// A [`FaultPlan`] with out-of-range or over-committed probabilities.
    InvalidPlan {
        /// The offending site.
        site: String,
        /// What is wrong with it.
        message: String,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Injected { site, hit } => {
                write!(f, "injected fault at {site} (hit {hit})")
            }
            FaultError::InvalidPlan { site, message } => {
                write!(f, "invalid fault plan for site {site}: {message}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FaultError>;
