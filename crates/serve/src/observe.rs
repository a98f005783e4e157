//! Response observation: a per-request tap the engine calls after every
//! served verdict.
//!
//! The engine itself keeps only aggregate counters; an observer (e.g.
//! `adv-telemetry`'s recorder) receives one [`ServedRecord`] per request
//! and owns whatever durable recording happens next. The contract is
//! strictly fire-and-forget: `on_response` runs on the worker thread
//! between batches, so implementations must never block — hand the record
//! to a bounded channel and drop it when the channel is full.

use adv_magnet::{DefenseScheme, Verdict};

/// Caller-supplied identity of a request: which tenant and route submitted
/// it, which corpus sample it carries, and which defense variant served
/// it. The engine never interprets these — they ride along to the observer
/// so recorded traffic can be filtered and replayed (including per-variant
/// A/B replay). Untagged submissions carry all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestTag {
    /// Tenant key of the submitting client.
    pub tenant: u32,
    /// Route key (endpoint / corpus the input came from).
    pub route: u32,
    /// Sample id, resolvable back to the input at replay time.
    pub sample: u32,
    /// Defense variant the request was routed to (`DEFAULT_VARIANT` for a
    /// single-pipeline engine).
    pub variant: u32,
}

impl RequestTag {
    /// A tag with the three caller keys set and the default variant.
    pub fn new(tenant: u32, route: u32, sample: u32) -> RequestTag {
        RequestTag {
            tenant,
            route,
            sample,
            variant: crate::router::DEFAULT_VARIANT,
        }
    }

    /// The same tag routed to `variant`.
    pub fn with_variant(mut self, variant: u32) -> RequestTag {
        self.variant = variant;
        self
    }
}

/// Everything the engine knows about one served request at response time.
#[derive(Debug, Clone, Copy)]
pub struct ServedRecord<'a> {
    /// The tag the submitter attached (zeros when untagged).
    pub tag: RequestTag,
    /// The pipeline's decision.
    pub verdict: Verdict,
    /// Scheme the batch actually ran under (after any breaker fallback).
    pub scheme: DefenseScheme,
    /// `true` when the breaker had degraded the configured scheme.
    pub degraded: bool,
    /// Time the request waited in the queue, nanoseconds.
    pub queue_ns: u64,
    /// Pipeline execution time of the request's batch, nanoseconds.
    pub infer_ns: u64,
    /// Response timestamp on the engine's monotonic `now_ns` time base.
    pub tick_ns: u64,
    /// The request's causal trace id (`adv_profile::TraceId` raw value; 0
    /// when profiling is off). Joins telemetry rows with span trees.
    pub trace_id: u64,
    /// Per-detector anomaly scores for this input, in the defense's
    /// detector order. Empty when the pipeline does not expose scores.
    pub scores: &'a [f32],
}

/// A per-response tap. Implementations must be non-blocking; see the
/// module docs.
pub trait ResponseObserver: Send + Sync + std::fmt::Debug {
    /// Called once per served request, on the worker thread that ran the
    /// batch. Requests that error (queue rejection, panic, timeout) are
    /// not observed.
    fn on_response(&self, record: &ServedRecord<'_>);
}
