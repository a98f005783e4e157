//! Serving metrics on the shared `adv-profile` registry: atomic counters on the
//! hot path, one fixed-bucket histogram sample per completed request.
//!
//! The engine owns a private [`Registry`] (so two engines in one process
//! never cross-count) and always records into it regardless of the global
//! `adv-profile` level — these counters back the engine's own
//! [`MetricsSnapshot`] API, they are not optional telemetry. Latency
//! percentiles come from the registry histogram's nearest-rank quantiles:
//! accurate to one power-of-two bucket, exact at the observed extremes.

use adv_profile::{Counter, Gauge, Histogram, Registry, Snapshot};
use std::sync::Arc;
use std::time::Duration;

/// Point-in-time view of the engine's counters, from
/// [`ServeEngine::metrics`](crate::ServeEngine::metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted onto the queue.
    pub submitted: u64,
    /// Requests refused because the queue was full (backpressure).
    pub rejected: u64,
    /// Requests answered with a verdict.
    pub completed: u64,
    /// Requests answered with a pipeline error.
    pub failed: u64,
    /// Batches executed by the worker pool.
    pub batches: u64,
    /// Highest queue depth observed at submission time.
    pub max_queue_depth: u64,
    /// Mean executed batch size (`0.0` before the first batch).
    pub mean_batch_size: f64,
    /// Median submit-to-response latency (bucket-quantized; see module doc).
    pub p50_latency: Duration,
    /// 99th-percentile submit-to-response latency (bucket-quantized).
    pub p99_latency: Duration,
    /// Cumulative wall-clock time in detector scoring across all batches.
    pub detect_time: Duration,
    /// Cumulative wall-clock time in the reformer across all batches.
    pub reform_time: Duration,
    /// Cumulative wall-clock time in the classifier across all batches.
    pub classify_time: Duration,
    /// Requests shed because their server-side deadline expired in the
    /// queue (answered with [`crate::ServeError::Timeout`], never silently
    /// dropped).
    pub shed_expired: u64,
    /// Batch executions retried after a transient pipeline failure.
    pub batch_retries: u64,
    /// Worker panics caught by the supervision wrapper.
    pub worker_panics: u64,
    /// Workers respawned by the supervisor.
    pub worker_restarts: u64,
    /// Responses that could not be delivered because the caller dropped its
    /// [`crate::PendingVerdict`] receiver.
    pub responses_abandoned: u64,
    /// Responses served under a reduced defense scheme (breaker open).
    pub degraded_responses: u64,
    /// Circuit-breaker open (or further-degrade) transitions.
    pub breaker_opened: u64,
    /// Circuit-breaker close transitions (successful probes).
    pub breaker_closed: u64,
}

/// Shared counters updated by submitters and workers, living on a private
/// `adv-profile` [`Registry`].
#[derive(Debug)]
pub(crate) struct ServeMetrics {
    registry: Arc<Registry>,
    submitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    batches: Arc<Counter>,
    max_queue_depth: Arc<Gauge>,
    latency: Arc<Histogram>,
    detect_ns: Arc<Counter>,
    reform_ns: Arc<Counter>,
    classify_ns: Arc<Counter>,
    shed_expired: Arc<Counter>,
    batch_retries: Arc<Counter>,
    worker_panics: Arc<Counter>,
    worker_restarts: Arc<Counter>,
    responses_abandoned: Arc<Counter>,
    degraded_responses: Arc<Counter>,
    breaker_opened: Arc<Counter>,
    breaker_closed: Arc<Counter>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        ServeMetrics {
            submitted: registry.counter("serve.submitted"),
            rejected: registry.counter("serve.rejected"),
            completed: registry.counter("serve.completed"),
            failed: registry.counter("serve.failed"),
            batches: registry.counter("serve.batches"),
            max_queue_depth: registry.gauge("serve.max_queue_depth"),
            latency: registry.histogram("serve.latency_ns"),
            detect_ns: registry.counter("serve.detect_ns"),
            reform_ns: registry.counter("serve.reform_ns"),
            classify_ns: registry.counter("serve.classify_ns"),
            shed_expired: registry.counter("serve.shed_expired"),
            batch_retries: registry.counter("serve.batch_retries"),
            worker_panics: registry.counter("serve.worker_panics"),
            worker_restarts: registry.counter("serve.worker_restarts"),
            responses_abandoned: registry.counter("serve.responses_abandoned"),
            degraded_responses: registry.counter("serve.degraded_responses"),
            breaker_opened: registry.counter("serve.breaker_opened"),
            breaker_closed: registry.counter("serve.breaker_closed"),
            registry,
        }
    }
}

impl ServeMetrics {
    /// Records an accepted request and the queue depth it observed.
    ///
    /// `queue_depth` is sampled at push time, *before* this metric update,
    /// so under concurrent submitters the recorded maximum can briefly lag
    /// the true instantaneous peak (submitter A pushes, B pushes and records
    /// depth 2, then A records depth 1). The `set_max` compare-and-swap
    /// keeps the gauge *monotone non-decreasing* regardless of that
    /// interleaving: a stale smaller sample can never overwrite a larger
    /// one, so the reported high-water mark is exact over the samples taken.
    pub fn record_submitted(&self, queue_depth: usize) {
        self.submitted.incr();
        self.max_queue_depth.set_max(queue_depth as f64);
    }

    pub fn record_rejected(&self) {
        self.rejected.incr();
    }

    pub fn record_batch(&self, detect: Duration, reform: Duration, classify: Duration) {
        self.batches.incr();
        self.detect_ns.add(detect.as_nanos() as u64);
        self.reform_ns.add(reform.as_nanos() as u64);
        self.classify_ns.add(classify.as_nanos() as u64);
    }

    pub fn record_completed(&self, latency: Duration) {
        self.completed.incr();
        self.latency.record_duration(latency);
    }

    pub fn record_failed(&self) {
        self.failed.incr();
    }

    /// Records a request answered with `Timeout` because its server-side
    /// deadline expired before a worker picked it up.
    pub fn record_shed_expired(&self) {
        self.shed_expired.incr();
    }

    pub fn record_batch_retry(&self) {
        self.batch_retries.incr();
    }

    pub fn record_worker_panic(&self) {
        self.worker_panics.incr();
    }

    pub fn record_worker_restart(&self) {
        self.worker_restarts.incr();
    }

    pub fn record_response_abandoned(&self) {
        self.responses_abandoned.incr();
    }

    pub fn record_degraded_response(&self) {
        self.degraded_responses.incr();
    }

    pub fn record_breaker_opened(&self) {
        self.breaker_opened.incr();
    }

    pub fn record_breaker_closed(&self) {
        self.breaker_closed.incr();
    }

    /// Raw `adv-profile` snapshot of the engine registry, for the Prometheus and
    /// JSON exporters.
    pub fn obs_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let completed = self.completed.get();
        let batches = self.batches.get();
        let latency = self.latency.snapshot();
        MetricsSnapshot {
            submitted: self.submitted.get(),
            rejected: self.rejected.get(),
            completed,
            failed: self.failed.get(),
            batches,
            max_queue_depth: self.max_queue_depth.get() as u64,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                completed as f64 / batches as f64
            },
            p50_latency: Duration::from_nanos(latency.quantile(0.50) as u64),
            p99_latency: Duration::from_nanos(latency.quantile(0.99) as u64),
            detect_time: Duration::from_nanos(self.detect_ns.get()),
            reform_time: Duration::from_nanos(self.reform_ns.get()),
            classify_time: Duration::from_nanos(self.classify_ns.get()),
            shed_expired: self.shed_expired.get(),
            batch_retries: self.batch_retries.get(),
            worker_panics: self.worker_panics.get(),
            worker_restarts: self.worker_restarts.get(),
            responses_abandoned: self.responses_abandoned.get(),
            degraded_responses: self.degraded_responses.get(),
            breaker_opened: self.breaker_opened.get(),
            breaker_closed: self.breaker_closed.get(),
        }
    }
}

/// Model check for the documented queue-depth race (see
/// [`ServeMetrics::record_submitted`]): the depth is sampled inside the
/// queue's critical section but recorded *outside* it, so a submitter can
/// record a stale (smaller) sample after a later, larger one. The check
/// drives real pushes through [`BoundedQueue`](crate::queue::BoundedQueue)
/// under perturbed schedules and asserts the gauge always lands on the
/// maximum of the sampled depths — i.e. the race can delay the high-water
/// mark but never lose it, which is exactly the "benign" claim in the doc.
#[cfg(all(loom, test))]
mod loom_checks {
    use super::*;
    use crate::queue::BoundedQueue;

    #[test]
    fn queue_depth_gauge_race_is_benign() {
        loom::model(|| {
            let queue = Arc::new(BoundedQueue::new(64));
            let metrics = Arc::new(ServeMetrics::default());
            let handles: Vec<_> = (0..3)
                .map(|producer| {
                    let queue = queue.clone();
                    let metrics = metrics.clone();
                    loom::thread::spawn(move || {
                        let mut sampled = Vec::new();
                        for i in 0..4u64 {
                            if let Ok(depth) = queue.try_push(producer * 10 + i) {
                                metrics.record_submitted(depth);
                                sampled.push(depth as u64);
                            }
                        }
                        sampled
                    })
                })
                .collect();
            let mut all_sampled = Vec::new();
            for handle in handles {
                all_sampled.extend(handle.join().expect("producer panicked"));
            }
            let snapshot = metrics.snapshot();
            let expected_max = all_sampled.iter().copied().max().unwrap_or(0);
            assert_eq!(
                snapshot.max_queue_depth, expected_max,
                "a stale depth sample overwrote a larger one (sampled {all_sampled:?})"
            );
            assert_eq!(snapshot.submitted, all_sampled.len() as u64);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates_counters() {
        let m = ServeMetrics::default();
        m.record_submitted(3);
        m.record_submitted(5);
        m.record_rejected();
        m.record_batch(
            Duration::from_nanos(10),
            Duration::from_nanos(20),
            Duration::from_nanos(30),
        );
        m.record_completed(Duration::from_micros(7));
        m.record_completed(Duration::from_micros(9));
        let s = m.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.completed, 2);
        assert_eq!(s.batches, 1);
        assert_eq!(s.max_queue_depth, 5);
        assert_eq!(s.mean_batch_size, 2.0);
        assert_eq!(s.detect_time, Duration::from_nanos(10));
        // Histogram quantiles are bucket-quantized: p50 lands inside the
        // sample range (within one 2× bucket of the true median), p99 clamps
        // to the observed maximum exactly.
        assert!(
            s.p50_latency >= Duration::from_micros(7) && s.p50_latency <= Duration::from_micros(9),
            "p50 {:?}",
            s.p50_latency
        );
        assert_eq!(s.p99_latency, Duration::from_micros(9));
    }

    #[test]
    fn fault_tolerance_counters_flow_into_the_snapshot() {
        let m = ServeMetrics::default();
        m.record_shed_expired();
        m.record_batch_retry();
        m.record_batch_retry();
        m.record_worker_panic();
        m.record_worker_restart();
        m.record_response_abandoned();
        m.record_degraded_response();
        m.record_breaker_opened();
        m.record_breaker_closed();
        let s = m.snapshot();
        assert_eq!(s.shed_expired, 1);
        assert_eq!(s.batch_retries, 2);
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.worker_restarts, 1);
        assert_eq!(s.responses_abandoned, 1);
        assert_eq!(s.degraded_responses, 1);
        assert_eq!(s.breaker_opened, 1);
        assert_eq!(s.breaker_closed, 1);
        let prom = m.obs_snapshot().to_prometheus();
        assert!(prom.contains("serve_worker_panics 1"), "{prom}");
        assert!(prom.contains("serve_breaker_opened 1"), "{prom}");
    }

    #[test]
    fn empty_metrics_report_zero_latencies() {
        let s = ServeMetrics::default().snapshot();
        assert_eq!(s.p50_latency, Duration::ZERO);
        assert_eq!(s.p99_latency, Duration::ZERO);
        assert_eq!(s.mean_batch_size, 0.0);
    }

    #[test]
    fn max_queue_depth_is_monotone_under_concurrent_submitters() {
        let m = Arc::new(ServeMetrics::default());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    // Interleaved rising and falling depth samples; the max
                    // must come out exact whatever the schedule.
                    for depth in 0..1000usize {
                        m.record_submitted(if t % 2 == 0 { depth } else { 999 - depth });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.submitted, 8000);
        assert_eq!(s.max_queue_depth, 999);
    }

    #[test]
    fn obs_snapshot_exports_engine_metrics() {
        let m = ServeMetrics::default();
        m.record_submitted(1);
        m.record_completed(Duration::from_micros(5));
        let snap = m.obs_snapshot();
        assert_eq!(snap.counter("serve.submitted"), Some(1));
        assert_eq!(snap.histogram("serve.latency_ns").unwrap().count, 1);
        let prom = snap.to_prometheus();
        assert!(prom.contains("serve_submitted 1"), "{prom}");
        assert!(prom.contains("serve_latency_ns_bucket"), "{prom}");
    }
}
