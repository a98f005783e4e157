//! adv-serve: batched inference serving for the MagNet defense pipeline.
//!
//! The attack-evaluation crates drive [`adv_magnet::MagnetDefense`] one
//! batch at a time from a single thread. This crate wraps the same pipeline
//! in a small serving engine for throughput experiments:
//!
//! * [`ServeEngine::submit`] accepts single inputs on a bounded MPMC queue
//!   and returns a [`PendingVerdict`] future-like handle; a full queue
//!   rejects the request ([`ServeError::QueueFull`]) so callers see
//!   backpressure instead of unbounded latency.
//! * Worker threads coalesce requests into micro-batches by Nagle's rule —
//!   a worker waits for more requests only while another worker's pass is
//!   running, and at most until `max_batch` or `max_wait` — and run the
//!   shared defense through its `&self` inference path, so one calibrated
//!   defense behind an `Arc` serves all workers with no locking around the
//!   model.
//! * Each [`ServeResponse`] carries the verdict plus the batch's per-stage
//!   [`adv_magnet::StageTimings`] and queue wait; engine-wide counters
//!   (throughput, rejects, p50/p99 latency, queue depth) come from
//!   [`ServeEngine::metrics`]. The counters live on a private `adv-profile`
//!   registry, so [`ServeEngine::metrics_prometheus`] /
//!   [`ServeEngine::metrics_json`] export them through the same pipeline
//!   the training and attack telemetry uses; with `ADV_OBS=trace` the
//!   workers additionally emit `serve/poll`, `serve/batch`, `serve/stack`
//!   and `serve/pipeline` spans.
//! * [`ServeEngine::shutdown`] (or drop) closes the queue, drains every
//!   already-accepted request, and joins the workers.
//! * The engine is fault tolerant: batches run under `catch_unwind` with a
//!   supervisor respawning panicked workers ([`RestartPolicy`]), requests
//!   may carry server-side deadlines
//!   ([`ServeEngine::submit_with_deadline`]), transient pipeline failures
//!   are retried with bounded backoff, and a circuit breaker
//!   ([`DegradePolicy`]) degrades the defense scheme one
//!   [`adv_magnet::DefenseScheme::fallback`] step at a time instead of
//!   failing outright. [`ServeEngine::health`] summarises all of it as
//!   Healthy / Degraded / Failed, and a seeded [`FaultInjector`] (the
//!   [`fault`] module) can be plumbed in via [`ServeConfig::injector`] to
//!   exercise every one of these paths deterministically.
//!
//! Batching is exact, not approximate: a batch of `N` requests yields
//! bit-identical verdicts to `N` serial
//! [`adv_magnet::MagnetDefense::classify`] calls, because every per-item
//! computation in the pipeline is independent of its batch neighbours (the
//! equivalence tests pin this down).

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

mod breaker;
mod engine;
pub mod fault;
mod health;
mod metrics;
pub mod observe;
pub mod queue;
pub mod router;

pub use breaker::DegradePolicy;
pub use engine::{PendingVerdict, ServeConfig, ServeEngine, ServeResponse, SITE_POLL};
pub use fault::{
    FaultAction, FaultError, FaultInjector, FaultPlan, FaultStats, FaultyDefense, SiteFaults,
    PANIC_MARKER, SITE_CLASSIFY, SITE_DETECT, SITE_REFORM,
};
pub use health::{EngineHealth, RestartPolicy};
pub use metrics::MetricsSnapshot;
pub use observe::{RequestTag, ResponseObserver, ServedRecord};
pub use router::{RouteInfo, VariantRouter, DEFAULT_VARIANT};

/// Errors surfaced by the serving engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request queue is at capacity; retry later or shed load.
    QueueFull,
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The defense pipeline failed while executing the request's batch.
    Pipeline(String),
    /// The engine died without answering (worker panic).
    Disconnected,
    /// The request's batch was aborted by a worker panic; the worker is
    /// respawned under the engine's restart policy, but this batch's
    /// results are gone.
    WorkerPanic(String),
    /// A wait with a deadline expired before the verdict arrived (either
    /// the caller's `wait_timeout` or the server-side request deadline).
    Timeout,
    /// Rejected engine configuration.
    InvalidConfig(String),
    /// The OS refused to start a worker thread.
    WorkerSpawn(String),
    /// The requested variant is not in the live routing table (unknown id,
    /// retired, or its shard has failed). Carries the variant id.
    VariantUnavailable(u32),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Pipeline(msg) => write!(f, "defense pipeline failed: {msg}"),
            ServeError::Disconnected => write!(f, "engine terminated without responding"),
            ServeError::WorkerPanic(msg) => {
                write!(f, "worker panicked while executing the batch: {msg}")
            }
            ServeError::Timeout => write!(f, "timed out waiting for a verdict"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ServeError::WorkerSpawn(msg) => write!(f, "cannot spawn worker thread: {msg}"),
            ServeError::VariantUnavailable(v) => {
                write!(f, "variant {v} is not in the live routing table")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
