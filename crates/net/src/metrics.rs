//! Front-door metrics on a private `adv-profile` registry, mirroring the
//! engine's `ServeMetrics` discipline: always recorded (they back the
//! server's own snapshot API), never shared between two servers in one
//! process.
//!
//! The counters encode the admission accounting identity the net-chaos
//! soak asserts:
//!
//! ```text
//! accepted = answered + shed_expired + abandoned
//! ```
//!
//! where `accepted` counts requests admitted into the serving engine,
//! `answered` counts replies (verdicts *or* typed pipeline errors)
//! delivered to the client, `shed_expired` counts deadline-expired replies
//! delivered, and `abandoned` counts replies that could not be delivered
//! because the connection died first. Refusals — `Busy` frames, auth
//! failures, malformed frames — never enter the engine and sit outside the
//! identity.

use adv_profile::{Counter, Gauge, Registry, Snapshot};
use std::sync::Arc;

/// Point-in-time view of the front door's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetMetricsSnapshot {
    /// Connections accepted and handed to a handler thread.
    pub connections_accepted: u64,
    /// Connections refused at the door (connection cap or draining).
    pub connections_refused: u64,
    /// `Hello` frames rejected for an unknown tenant or wrong key.
    pub auth_failures: u64,
    /// Client frames rejected by the codec (truncated, corrupt, oversized).
    pub frame_errors: u64,
    /// `Request` frames read off the wire.
    pub requests: u64,
    /// Requests admitted into the serving engine.
    pub accepted: u64,
    /// Replies (verdicts or typed errors) delivered to the client.
    pub answered: u64,
    /// Deadline-expired replies delivered to the client.
    pub shed_expired: u64,
    /// Accepted requests whose reply could not be delivered because the
    /// connection died first.
    pub abandoned: u64,
    /// `Busy` frames sent (all admission refusals).
    pub busy: u64,
    /// `Busy` frames sent specifically for token-bucket exhaustion.
    pub rate_limited: u64,
    /// Server-side retries of transient pipeline failures.
    pub retries: u64,
    /// Connections evicted for dribbling a frame past the frame timeout
    /// (slow-loris defense).
    pub evicted_slow: u64,
    /// Connections currently being served.
    pub active_connections: u64,
}

impl NetMetricsSnapshot {
    /// `true` when the admission accounting identity holds. Call this only
    /// at quiescence (no in-flight requests); mid-flight the identity can
    /// transiently lag by the requests currently in the engine.
    pub fn accounting_holds(&self) -> bool {
        self.accepted == self.answered + self.shed_expired + self.abandoned
    }
}

/// Shared counters updated by the accept loop and handler threads, living
/// on a private `adv-profile` [`Registry`].
#[derive(Debug)]
pub struct NetMetrics {
    registry: Arc<Registry>,
    connections_accepted: Arc<Counter>,
    connections_refused: Arc<Counter>,
    auth_failures: Arc<Counter>,
    frame_errors: Arc<Counter>,
    requests: Arc<Counter>,
    accepted: Arc<Counter>,
    answered: Arc<Counter>,
    shed_expired: Arc<Counter>,
    abandoned: Arc<Counter>,
    busy: Arc<Counter>,
    rate_limited: Arc<Counter>,
    retries: Arc<Counter>,
    evicted_slow: Arc<Counter>,
    active_connections: Arc<Gauge>,
}

impl Default for NetMetrics {
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        NetMetrics {
            connections_accepted: registry.counter("net.connections_accepted"),
            connections_refused: registry.counter("net.connections_refused"),
            auth_failures: registry.counter("net.auth_failures"),
            frame_errors: registry.counter("net.frame_errors"),
            requests: registry.counter("net.requests"),
            accepted: registry.counter("net.accepted"),
            answered: registry.counter("net.answered"),
            shed_expired: registry.counter("net.shed_expired"),
            abandoned: registry.counter("net.abandoned"),
            busy: registry.counter("net.busy"),
            rate_limited: registry.counter("net.rate_limited"),
            retries: registry.counter("net.retries"),
            evicted_slow: registry.counter("net.evicted_slow"),
            active_connections: registry.gauge("net.active_connections"),
            registry,
        }
    }
}

impl NetMetrics {
    pub(crate) fn record_connection_accepted(&self) {
        self.connections_accepted.incr();
    }

    pub(crate) fn record_connection_refused(&self) {
        self.connections_refused.incr();
    }

    pub(crate) fn record_auth_failure(&self) {
        self.auth_failures.incr();
    }

    pub(crate) fn record_frame_error(&self) {
        self.frame_errors.incr();
    }

    pub(crate) fn record_request(&self) {
        self.requests.incr();
    }

    pub(crate) fn record_accepted(&self) {
        self.accepted.incr();
    }

    pub(crate) fn record_answered(&self) {
        self.answered.incr();
    }

    pub(crate) fn record_shed_expired(&self) {
        self.shed_expired.incr();
    }

    pub(crate) fn record_abandoned(&self) {
        self.abandoned.incr();
    }

    pub(crate) fn record_busy(&self, rate_limited: bool) {
        self.busy.incr();
        if rate_limited {
            self.rate_limited.incr();
        }
    }

    pub(crate) fn record_retry(&self) {
        self.retries.incr();
    }

    pub(crate) fn record_evicted_slow(&self) {
        self.evicted_slow.incr();
    }

    pub(crate) fn set_active_connections(&self, n: usize) {
        self.active_connections.set(n as f64);
    }

    /// Raw `adv-profile` snapshot of the server registry, for the Prometheus
    /// and JSON exporters.
    pub fn obs_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Current counter snapshot.
    pub fn snapshot(&self) -> NetMetricsSnapshot {
        NetMetricsSnapshot {
            connections_accepted: self.connections_accepted.get(),
            connections_refused: self.connections_refused.get(),
            auth_failures: self.auth_failures.get(),
            frame_errors: self.frame_errors.get(),
            requests: self.requests.get(),
            accepted: self.accepted.get(),
            answered: self.answered.get(),
            shed_expired: self.shed_expired.get(),
            abandoned: self.abandoned.get(),
            busy: self.busy.get(),
            rate_limited: self.rate_limited.get(),
            retries: self.retries.get(),
            evicted_slow: self.evicted_slow.get(),
            active_connections: self.active_connections.get() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates_counters_and_identity_holds() {
        let m = NetMetrics::default();
        m.record_connection_accepted();
        m.record_request();
        m.record_request();
        m.record_request();
        m.record_accepted();
        m.record_accepted();
        m.record_accepted();
        m.record_answered();
        m.record_shed_expired();
        m.record_abandoned();
        m.record_busy(true);
        m.record_busy(false);
        m.record_retry();
        m.record_evicted_slow();
        m.set_active_connections(4);
        let s = m.snapshot();
        assert_eq!(s.requests, 3);
        assert_eq!(s.accepted, 3);
        assert!(s.accounting_holds(), "{s:?}");
        assert_eq!(s.busy, 2);
        assert_eq!(s.rate_limited, 1);
        assert_eq!(s.active_connections, 4);
    }

    #[test]
    fn identity_detects_a_lost_reply() {
        let m = NetMetrics::default();
        m.record_accepted();
        assert!(!m.snapshot().accounting_holds());
        m.record_answered();
        assert!(m.snapshot().accounting_holds());
    }

    #[test]
    fn obs_snapshot_exports_net_metrics() {
        let m = NetMetrics::default();
        m.record_connection_accepted();
        m.record_auth_failure();
        m.record_frame_error();
        let snap = m.obs_snapshot();
        assert_eq!(snap.counter("net.connections_accepted"), Some(1));
        let prom = snap.to_prometheus();
        assert!(prom.contains("net_auth_failures 1"), "{prom}");
        assert!(prom.contains("net_frame_errors 1"), "{prom}");
    }
}
