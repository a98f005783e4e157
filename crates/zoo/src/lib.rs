//! adv-zoo: sharded multi-variant serving with fault-hardened blue-green
//! hot swap.
//!
//! The paper evaluates MagNet across several defense variants (default,
//! extra-JSD detector, 256-filter AE, MAE-trained AE); this crate serves
//! all of them concurrently from one process:
//!
//! * **Immutable, shared weights** — [`WeightBlob`]s are `Arc`-shared
//!   byte payloads sealed in adv-store CRC envelopes ([`BlobStore`]):
//!   loading re-verifies the CRC and quarantines corrupt files, so a bad
//!   blob can never be built into a shard, let alone go live.
//! * **Per-variant isolation** — every variant gets its own
//!   [`adv_serve::ServeEngine`] shard with its own worker pool, circuit
//!   breaker, restart budget, and [`adv_serve::EngineHealth`]; one
//!   variant panicking or degrading (Full → DetectorOnly → None) never
//!   contaminates another's verdict stream.
//! * **Blue-green hot swap** — [`ModelZoo::promote`] walks a journaled
//!   Staged → Warming → Live → Retired state machine: the candidate warms
//!   on shadow traffic with a verdict-parity probe against the live
//!   shard, the routing table flips as one epoch-counted `Arc` swap
//!   (in-flight requests finish on the old version; a successful flip
//!   drops zero requests), and any health or parity regression rolls the
//!   promotion back automatically. Every transition fsyncs through
//!   [`adv_store::Journal`] before taking effect, so kill -9 at any point
//!   resumes or cleanly aborts — a half-promoted variant is
//!   unrepresentable.
//! * **Routing** — the zoo implements [`adv_serve::VariantRouter`], the
//!   same seam `adv-net`'s front door and the probes drive, so a bare
//!   engine and a full zoo are interchangeable behind the wire protocol.
//!
//! `zoo.*` metrics (promotions, rollbacks, shadow mismatches, blob
//! rejects, routing epoch) live on a private `adv-profile` registry; per-
//! request serving counters stay on each shard's own `serve.*` registry,
//! and per-variant accounting identities survive hot swaps via retired-
//! shard totals ([`adv_serve::VariantRouter::variant_metrics`]).

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

mod blob;
mod journal;
mod metrics;
mod registry;

pub use blob::{BlobStore, WeightBlob};
pub use journal::{PromotionLog, PromotionRecord, PromotionStage};
pub use metrics::ZooStats;
pub use registry::{
    ModelZoo, NullLoader, PipelineLoader, PromotionReport, RollbackReason, ZooConfig, SITE_FLIP,
    SITE_STAGE, SITE_WARM,
};

use adv_serve::ServeError;
use adv_store::StoreError;

/// Errors surfaced by the model zoo.
#[derive(Debug)]
pub enum ZooError {
    /// Durable storage (journal or blob store) failed.
    Store(StoreError),
    /// A shard engine refused to start or accept work.
    Serve(ServeError),
    /// A weight blob was missing or failed CRC validation (corrupt blobs
    /// are quarantined to `<name>.corrupt` before this error returns).
    BlobRejected {
        /// Variant the blob belongs to.
        variant: u32,
        /// Version that was requested.
        version: u32,
        /// Underlying store error, for the log line.
        detail: String,
    },
    /// The promotion journal holds CRC-valid records that do not parse as
    /// promotion records — a foreign schema; refuse rather than guess.
    JournalSchema {
        /// What failed to parse.
        detail: String,
    },
    /// A promotion was automatically rolled back; the previous version
    /// keeps serving with its verdict stream untouched.
    RolledBack {
        /// Variant whose promotion failed.
        variant: u32,
        /// Candidate version that was rolled back.
        version: u32,
        /// Why the promotion was aborted.
        reason: RollbackReason,
    },
    /// The zoo is draining and no longer accepts installs or promotions.
    Draining,
}

impl std::fmt::Display for ZooError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZooError::Store(e) => write!(f, "store failure: {e}"),
            ZooError::Serve(e) => write!(f, "shard engine failure: {e}"),
            ZooError::BlobRejected {
                variant,
                version,
                detail,
            } => write!(
                f,
                "weight blob for variant {variant} v{version} rejected: {detail}"
            ),
            ZooError::JournalSchema { detail } => {
                write!(f, "promotion journal schema mismatch: {detail}")
            }
            ZooError::RolledBack {
                variant,
                version,
                reason,
            } => write!(
                f,
                "promotion of variant {variant} to v{version} rolled back: {reason}"
            ),
            ZooError::Draining => write!(f, "zoo is draining"),
        }
    }
}

impl std::error::Error for ZooError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ZooError::Store(e) => Some(e),
            ZooError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ZooError {
    fn from(e: StoreError) -> ZooError {
        ZooError::Store(e)
    }
}

impl From<ServeError> for ZooError {
    fn from(e: ServeError) -> ZooError {
        ZooError::Serve(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ZooError>;
