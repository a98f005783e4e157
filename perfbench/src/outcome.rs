//! What one measured phase of a workload produced.

use crate::host;
use crate::stats::Latencies;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Output mismatches kept for the report; the count is always exact.
const KEEP_MISMATCHES: usize = 8;

#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or crafts) sent.
    pub attempted: usize,
    /// Answered successfully.
    pub completed: usize,
    /// Failed or refused.
    pub failed: usize,
    /// Start and wall time of the measured phase.
    pub started: Option<Instant>,
    pub elapsed: Duration,
    /// When each completed unit finished.
    pub done: Vec<Instant>,
    /// One sample per attempted request; failures are missed limits.
    pub latencies: Latencies,
    /// Wrong outputs found by the checks.
    pub mismatches: usize,
    /// The first few wrong outputs, described.
    pub examples: Vec<String>,
    /// In-run readings of the reference kernel (milliseconds), taken on
    /// the thread doing the work.
    pub readings: Vec<f64>,
    /// Share of the phase's wanted CPU time the hypervisor took
    /// ([`host::stolen_share`]).
    pub stolen: f64,
    /// Workload-specific layer figures (counts, means) by metric name.
    pub extra: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.examples.len() < KEEP_MISMATCHES {
            self.examples.push(what);
        }
    }

    /// Completed units per second: the median rate over the slices of the
    /// measured phase (see [`crate::stats::slice_rate`]).
    pub fn throughput(&self) -> f64 {
        self.started.map_or(0.0, |t0| {
            crate::stats::slice_rate(t0, &self.done, crate::stats::SLICES)
        })
    }

    /// How much slower than the reference host each of `n` units ran: the
    /// in-run readings' slowdown over its stretch of the run, and the time
    /// the hypervisor took from the whole phase, which the readings (CPU
    /// time) cannot see.
    fn slowdowns(&self, n: usize) -> Vec<f64> {
        let given = 1.0 - host::clamp_stolen(self.stolen);
        host::slowdowns(&self.readings, n)
            .into_iter()
            .map(|s| s / given)
            .collect()
    }

    /// [`Outcome::throughput`] at the reference host's speed: each slice's
    /// rate times the host slowdown over that slice.
    pub fn scaled_throughput(&self) -> f64 {
        self.started.map_or(0.0, |t0| {
            let slow = self.slowdowns(self.done.len());
            crate::stats::scaled_slice_rate(t0, &self.done, crate::stats::SLICES, &slow)
        })
    }

    /// The latencies at the reference host's speed: each request's time
    /// divided by the host slowdown over its stretch of the run.
    pub fn scaled_latencies(&self) -> Latencies {
        self.latencies.scaled(&self.slowdowns(self.latencies.len()))
    }
}
