//! adv-telemetry: a columnar request-telemetry store for the serving stack.
//!
//! The serving engine answers a request and forgets it. This crate is the
//! memory: one [`TelemetryRow`] per served request — timestamp tick,
//! tenant/route key, per-detector scores, verdict, degraded flag, defense
//! scheme, queue and inference latency — recorded into an append-only
//! **columnar chunk store** and queryable by time range long after the
//! traffic is gone. That is what makes drift detection ("did detector score
//! distributions shift this hour?"), attack forensics ("what did the
//! campaign that tripped the breaker look like?"), and replay-before-promote
//! ("would the candidate config have flipped yesterday's verdicts?")
//! possible at all.
//!
//! * [`chunk`] — fixed-capacity struct-of-arrays chunks: every row field is
//!   a contiguous column, with per-column min/max stats for query pruning.
//! * [`store`] — [`ChunkStore`] (writer) seals full chunks through
//!   `adv-store`'s atomic-write + `ADVSTOR1` CRC envelope and records each
//!   sealed chunk's stats in a CRC-framed manifest journal; a `kill -9`
//!   loses at most the open chunk's tail. [`ChunkReader`] replays the
//!   manifest read-only; chunks that fail CRC or decode are quarantined
//!   with a logged reason, never silently skipped and never trusted.
//! * [`recorder`] — [`TelemetryRecorder`] puts a bounded, non-blocking
//!   channel in front of the writer. A full buffer **drops** rows (counted
//!   in `telemetry.rows_dropped`); recording must never backpressure
//!   serving, so a response pays one row build and one `try_send`.
//!   [`TelemetrySink`] implements `adv_serve::ResponseObserver`, so
//!   plugging telemetry into a `ServeEngine` is one config field.
//! * [`query`] — time-indexed range queries with chunk pruning via column
//!   stats, plus streaming windowed aggregation ([`drift_windows`]): row
//!   counts, detected/degraded rates, and fixed-bucket quantile sketches of
//!   detector scores per window.
//! * [`replay`] — feeds a recorded time range back through any
//!   `adv_magnet::DefensePipeline` under two schemes and reports verdict
//!   flips and attack success rates ([`replay_range`]) — the A/B gate to
//!   run before promoting a defense config.
//!
//! The chunk/bucket/query shape follows the columnar time-series stores in
//! the rerun ecosystem (`re_arrow_store`'s bucketed columns and
//! `re_query_cache`'s range views), without Arrow itself: the row schema is
//! fixed, so plain typed columns beat a generic array layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod chunk;
pub mod query;
pub mod recorder;
pub mod replay;
pub mod row;
pub mod store;

mod obs;

pub use chunk::{Chunk, ChunkStats};
pub use query::{drift_windows, query, QueryResult, RowFilter, ScoreSketch, WindowAggregate};
pub use recorder::{RecorderConfig, TelemetryRecorder, TelemetrySink};
pub use replay::{replay_range, ReplayReport, SampleProvider, SchemeOutcome, VecSamples};
pub use row::{TelemetryRow, MAX_DETECTORS};
pub use store::{ChunkReader, ChunkStore, ManifestEntry};

use std::path::PathBuf;

/// Metric names this crate publishes through `adv-obs`. Exported so CI
/// schema checks and tests can grep for them.
pub mod metric_names {
    /// Rows appended to the open chunk by the writer.
    pub const ROWS_RECORDED: &str = "telemetry.rows_recorded";
    /// Rows dropped because the recording buffer was full (or the writer
    /// was gone). Drop-not-block is the recording contract.
    pub const ROWS_DROPPED: &str = "telemetry.rows_dropped";
    /// Chunks sealed to disk and entered into the manifest.
    pub const CHUNKS_SEALED: &str = "telemetry.chunks_sealed";
    /// Chunk or manifest payloads rejected on read (CRC or decode); every
    /// rejection is also quarantined through `adv-store`.
    pub const CRC_FAILURES: &str = "telemetry.crc_failures";
    /// Chunks a range query skipped entirely via column-stats pruning.
    pub const QUERY_CHUNKS_PRUNED: &str = "telemetry.query_chunks_pruned";
}

/// Errors surfaced by the telemetry store.
#[derive(Debug)]
pub enum TelemetryError {
    /// An underlying artifact-store operation failed.
    Store(adv_store::StoreError),
    /// A telemetry file failed validation after CRC passed (format drift or
    /// garbage); the file has been quarantined.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What the decoder rejected.
        reason: String,
    },
    /// A replayed batch failed in the defense pipeline.
    Pipeline(String),
    /// The recorder's background writer failed or is gone.
    Recorder(String),
    /// Rejected configuration (zero-sized chunks, inverted time ranges…).
    InvalidConfig(String),
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::Store(e) => write!(f, "store error: {e}"),
            TelemetryError::Corrupt { path, reason } => {
                write!(f, "corrupt telemetry file {}: {reason}", path.display())
            }
            TelemetryError::Pipeline(msg) => write!(f, "replay pipeline failed: {msg}"),
            TelemetryError::Recorder(msg) => write!(f, "telemetry recorder failed: {msg}"),
            TelemetryError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for TelemetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TelemetryError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<adv_store::StoreError> for TelemetryError {
    fn from(e: adv_store::StoreError) -> Self {
        TelemetryError::Store(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TelemetryError>;
