//! Lock-light metrics registry: named counters, gauges and fixed-bucket
//! histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are plain atomics shared
//! behind `Arc`s; the registry's mutex is touched only when a metric is
//! first registered and when a [`Snapshot`] is taken, never on the record
//! path. Histograms use fixed bucket bounds, so recording is one atomic
//! increment per sample and quantiles are nearest-rank over bucket counts —
//! approximate to one bucket's width, exact at the observed extremes
//! (results are clamped to the recorded min/max).

use crate::sync::lock_unpoisoned;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default histogram bounds for durations in nanoseconds: powers of two
/// from 256 ns to ~18 minutes. One relative bucket width (2×) is plenty for
/// latency attribution while keeping 34 buckets total.
pub const DURATION_BOUNDS_NS: &[f64] = &[
    256.0,
    512.0,
    1024.0,
    2048.0,
    4096.0,
    8192.0,
    16384.0,
    32768.0,
    65536.0,
    131072.0,
    262144.0,
    524288.0,
    1048576.0,
    2097152.0,
    4194304.0,
    8388608.0,
    16777216.0,
    33554432.0,
    67108864.0,
    134217728.0,
    268435456.0,
    536870912.0,
    1073741824.0,
    2147483648.0,
    4294967296.0,
    8589934592.0,
    17179869184.0,
    34359738368.0,
    68719476736.0,
    137438953472.0,
    274877906944.0,
    549755813888.0,
    1099511627776.0,
];

/// Default bounds for detector scores and other small non-negative values:
/// a 1–2–5 decade ladder from 1e-6 to 1e3.
pub const SCORE_BOUNDS: &[f64] = &[
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
];

/// A monotonically non-decreasing count. Saturates at `u64::MAX` instead of
/// wrapping, so a long-lived process can never report a small count after an
/// overflow.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        // lint-ok(ordering-justified): independent monotone counter; no
        // other memory is published through it and snapshot readers
        // tolerate any interleaving of concurrent adds.
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // lint-ok(ordering-justified): reading a monotone counter; staleness
        // is acceptable and no dependent data is read afterwards.
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-written-wins floating-point value (plus a monotone `set_max`).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        // lint-ok(ordering-justified): last-writer-wins value; the bits are
        // self-contained, nothing else is synchronized by this store.
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger; never lowers it. The
    /// compare-and-swap loop makes the result monotone under concurrent
    /// callers regardless of interleaving.
    #[inline]
    pub fn set_max(&self, v: f64) {
        // lint-ok(ordering-justified): the CAS loop's correctness (monotone
        // maximum) depends only on atomicity of the exchange, not on the
        // ordering of surrounding memory; loom's obs model check pins this.
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                if v > f64::from_bits(bits) {
                    Some(v.to_bits())
                } else {
                    None
                }
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // lint-ok(ordering-justified): reading a self-contained value; no
        // dependent non-atomic data is guarded by this load.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram over `f64` samples.
///
/// Bounds are inclusive upper bounds in ascending order; samples above the
/// last bound land in an implicit overflow bucket. NaN samples are ignored.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given bucket upper bounds. Non-finite
    /// bounds are dropped, the rest sorted and deduplicated; an empty list
    /// falls back to [`DURATION_BOUNDS_NS`].
    pub fn with_bounds(bounds: &[f64]) -> Histogram {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.total_cmp(b));
        bounds.dedup();
        if bounds.is_empty() {
            bounds = DURATION_BOUNDS_NS.to_vec();
        }
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| v > b);
        // `partition_point` is at most `bounds.len()` and `counts` has
        // `bounds.len() + 1` entries, so the lookup cannot miss; `get`
        // keeps the hot path free of panic machinery regardless.
        if let Some(bucket) = self.counts.get(idx) {
            // lint-ok(ordering-justified): bucket counts are mutually
            // independent; snapshot consistency across buckets/sum/min/max
            // is explicitly approximate (see module docs).
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        // lint-ok(ordering-justified): sum/min/max are independent CAS
        // loops; only atomicity matters, cross-field skew is documented.
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
        // lint-ok(ordering-justified): same contract as the sum CAS above.
        let _ = self
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v < f64::from_bits(bits)).then(|| v.to_bits())
            });
        // lint-ok(ordering-justified): same contract as the sum CAS above.
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos() as f64);
    }

    /// Point-in-time copy of this histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // lint-ok(ordering-justified): snapshots are explicitly
        // point-in-time-approximate; each bucket load is independent and
        // no non-atomic data hangs off these counters.
        let mut buckets: Vec<(f64, u64)> = self
            .bounds
            .iter()
            .zip(&self.counts)
            .map(|(&b, c)| (b, c.load(Ordering::Relaxed)))
            .collect();
        if let Some(overflow) = self.counts.last() {
            // lint-ok(ordering-justified): same contract as the bucket
            // loads above; `counts` is never empty (bounds.len() + 1).
            buckets.push((f64::INFINITY, overflow.load(Ordering::Relaxed)));
        }
        let count = buckets.iter().map(|&(_, c)| c).sum();
        let (min, max) = if count == 0 {
            (0.0, 0.0)
        } else {
            // lint-ok(ordering-justified): min/max lag their bucket count
            // at worst one sample under concurrency; documented skew.
            (
                f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            )
        };
        HistogramSnapshot {
            count,
            // lint-ok(ordering-justified): approximate-snapshot contract,
            // as for the bucket loads above.
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min,
            max,
            buckets,
        }
    }
}

/// Frozen histogram state with nearest-rank quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (`0.0` when empty).
    pub min: f64,
    /// Largest sample (`0.0` when empty).
    pub max: f64,
    /// `(inclusive upper bound, samples in bucket)` pairs in ascending
    /// order; the last bound is `f64::INFINITY` (the overflow bucket).
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile: the upper bound of the bucket holding the
    /// `⌈q·N⌉`-th sample, clamped to the observed `[min, max]` (so a
    /// single-sample histogram reports that sample exactly). Returns `0.0`
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(bound, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bound.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean sample value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// The kind of a registered metric, for [`MetricError`] diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotone [`Counter`].
    Counter,
    /// A last-writer-wins [`Gauge`].
    Gauge,
    /// A bucketed [`Histogram`].
    Histogram,
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricKind::Counter => f.write_str("counter"),
            MetricKind::Gauge => f.write_str("gauge"),
            MetricKind::Histogram => f.write_str("histogram"),
        }
    }
}

/// A metric name was requested as one kind but already registered as
/// another — a programming error surfaced as data instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricError {
    /// The contested metric name.
    pub name: String,
    /// The kind the name is already registered as.
    pub registered: MetricKind,
    /// The kind this call asked for.
    pub requested: MetricKind,
}

impl std::fmt::Display for MetricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "metric '{}' already registered as a {} (requested {})",
            self.name, self.registered, self.requested
        )
    }
}

impl std::error::Error for MetricError {}

/// A named collection of metrics.
///
/// `counter`/`gauge`/`histogram` get-or-create: the first call for a name
/// registers the metric, later calls return the same handle. Requesting a
/// name that is already registered as a different kind is a programming
/// error; the `try_*` variants report it as a [`MetricError`], while the
/// infallible variants keep the caller's hot path alive by handing back a
/// detached (unregistered) metric and bumping [`Registry::kind_mismatches`]
/// — any test that snapshots the registry sees the mismatch count.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    kind_mismatches: Counter,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-create the counter `name`.
    ///
    /// # Errors
    ///
    /// [`MetricError`] if `name` is already registered as another kind.
    pub fn try_counter(&self, name: &str) -> Result<Arc<Counter>, MetricError> {
        let mut map = lock_unpoisoned(&self.metrics);
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Ok(c.clone()),
            other => Err(MetricError {
                name: name.to_string(),
                registered: other.kind(),
                requested: MetricKind::Counter,
            }),
        }
    }

    /// Get-or-create the counter `name`; on a kind mismatch returns a
    /// detached counter and bumps [`Registry::kind_mismatches`].
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.try_counter(name).unwrap_or_else(|_| {
            self.kind_mismatches.incr();
            Arc::new(Counter::default())
        })
    }

    /// Get-or-create the gauge `name`.
    ///
    /// # Errors
    ///
    /// [`MetricError`] if `name` is already registered as another kind.
    pub fn try_gauge(&self, name: &str) -> Result<Arc<Gauge>, MetricError> {
        let mut map = lock_unpoisoned(&self.metrics);
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Ok(g.clone()),
            other => Err(MetricError {
                name: name.to_string(),
                registered: other.kind(),
                requested: MetricKind::Gauge,
            }),
        }
    }

    /// Get-or-create the gauge `name`; on a kind mismatch returns a
    /// detached gauge and bumps [`Registry::kind_mismatches`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.try_gauge(name).unwrap_or_else(|_| {
            self.kind_mismatches.incr();
            Arc::new(Gauge::default())
        })
    }

    /// Get-or-create the histogram `name` with [`DURATION_BOUNDS_NS`]; on a
    /// kind mismatch returns a detached histogram and bumps
    /// [`Registry::kind_mismatches`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, DURATION_BOUNDS_NS)
    }

    /// Get-or-create the histogram `name`; `bounds` apply only on first
    /// registration.
    ///
    /// # Errors
    ///
    /// [`MetricError`] if `name` is already registered as another kind.
    pub fn try_histogram_with(
        &self,
        name: &str,
        bounds: &[f64],
    ) -> Result<Arc<Histogram>, MetricError> {
        let mut map = lock_unpoisoned(&self.metrics);
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::with_bounds(bounds))))
        {
            Metric::Histogram(h) => Ok(h.clone()),
            other => Err(MetricError {
                name: name.to_string(),
                registered: other.kind(),
                requested: MetricKind::Histogram,
            }),
        }
    }

    /// Get-or-create the histogram `name`; `bounds` apply only on first
    /// registration. On a kind mismatch returns a detached histogram and
    /// bumps [`Registry::kind_mismatches`].
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.try_histogram_with(name, bounds).unwrap_or_else(|_| {
            self.kind_mismatches.incr();
            Arc::new(Histogram::with_bounds(bounds))
        })
    }

    /// How many infallible lookups hit a kind mismatch and fell back to a
    /// detached metric. Non-zero means a programming error somewhere.
    pub fn kind_mismatches(&self) -> u64 {
        self.kind_mismatches.get()
    }

    /// Point-in-time view of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let map = lock_unpoisoned(&self.metrics);
        let mut snapshot = Snapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => snapshot.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snapshot.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snapshot.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snapshot
    }
}

/// Point-in-time view of a [`Registry`], exportable as Prometheus text
/// format or JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serializes the snapshot as a single JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{..}}`. Histograms
    /// carry count/sum/min/max/mean, p50/p90/p99, and the per-bucket counts
    /// (`le` is a string; the overflow bucket is `"+Inf"`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), json_number(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                json_string(name),
                h.count,
                json_number(h.sum),
                json_number(h.min),
                json_number(h.max),
                json_number(h.mean()),
                json_number(h.quantile(0.50)),
                json_number(h.quantile(0.90)),
                json_number(h.quantile(0.99)),
            );
            for (j, &(bound, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"le\":{},\"count\":{}}}",
                    json_string(&le_label(bound)),
                    c
                );
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Serializes the snapshot in the Prometheus text exposition format.
    /// Metric names are sanitized to `[a-zA-Z_:][a-zA-Z0-9_:]*`; histogram
    /// buckets are cumulative with `le` labels, plus `_sum` and `_count`
    /// series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", prom_number(*v));
        }
        for (name, h) in &self.histograms {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for &(bound, c) in &h.buckets {
                cumulative += c;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    escape_label_value(&le_label(bound))
                );
            }
            let _ = writeln!(out, "{name}_sum {}", prom_number(h.sum));
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

/// Formats a bucket bound as a `le` label value (`"+Inf"` for the overflow
/// bucket).
fn le_label(bound: f64) -> String {
    if bound.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{bound}")
    }
}

/// JSON-escapes and quotes a string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number; non-finite values become `0`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Formats an `f64` for the Prometheus text format (`+Inf`/`-Inf`/`NaN`
/// spellings).
fn prom_number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Maps a metric name onto the Prometheus charset: every character outside
/// `[a-zA-Z0-9_:]` becomes `_`, and a leading digit gets a `_` prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escapes a Prometheus label value: backslash, double quote, and newline
/// per the text exposition format.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_saturates_at_u64_max() {
        let c = Counter::default();
        c.add(7);
        c.incr();
        assert_eq!(c.get(), 8);
        c.add(u64::MAX - 3);
        assert_eq!(c.get(), u64::MAX, "must saturate, not wrap");
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_set_and_monotone_max() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0);
        g.set(3.5);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
        g.set_max(4.0);
        g.set_max(2.0);
        assert_eq!(g.get(), 4.0, "set_max never lowers");
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::with_bounds(DURATION_BOUNDS_NS);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.quantile(0.99), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn single_sample_p99_is_exact() {
        let h = Histogram::with_bounds(DURATION_BOUNDS_NS);
        h.record(7000.0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        // Quantiles clamp to [min, max], so one sample reports itself.
        assert_eq!(s.quantile(0.99), 7000.0);
        assert_eq!(s.quantile(0.0), 7000.0);
        assert_eq!(s.min, 7000.0);
        assert_eq!(s.max, 7000.0);
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let h = Histogram::with_bounds(DURATION_BOUNDS_NS);
        for v in 1..=1000 {
            h.record(v as f64 * 1000.0); // 1µs..1ms
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let p50 = s.quantile(0.5);
        // True p50 is 500µs; bucketed answer may be up to one 2× bucket above.
        assert!(
            (500_000.0..=1_048_576.0).contains(&p50),
            "p50 out of bucket tolerance: {p50}"
        );
        assert!(s.quantile(0.99) >= p50);
        assert_eq!(s.quantile(1.0), 1_000_000.0, "p100 clamps to max");
        assert!((s.mean() - 500_500.0).abs() < 1.0);
    }

    #[test]
    fn overflow_bucket_catches_huge_samples() {
        let h = Histogram::with_bounds(&[10.0, 100.0]);
        h.record(1e18);
        h.record(5.0);
        let s = h.snapshot();
        assert_eq!(s.buckets.last().unwrap().1, 1);
        assert_eq!(s.quantile(0.99), 1e18, "overflow quantile uses max");
    }

    #[test]
    fn nan_samples_are_ignored() {
        let h = Histogram::with_bounds(&[1.0]);
        h.record(f64::NAN);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn degenerate_bounds_fall_back() {
        let h = Histogram::with_bounds(&[f64::INFINITY, f64::NAN]);
        h.record(1.0);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn registry_get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(2);
        assert_eq!(r.snapshot().counter("x"), Some(2));
    }

    #[test]
    fn kind_mismatch_is_reported_not_panicked() {
        let r = Registry::new();
        let real = r.counter("dual");
        let err = r.try_gauge("dual").expect_err("kinds must not alias");
        assert_eq!(err.name, "dual");
        assert_eq!(err.registered, MetricKind::Counter);
        assert_eq!(err.requested, MetricKind::Gauge);
        assert!(err.to_string().contains("already registered as a counter"));

        // The infallible path stays alive: detached handle, mismatch counted.
        assert_eq!(r.kind_mismatches(), 0);
        let detached = r.gauge("dual");
        detached.set(1.5);
        assert_eq!(r.kind_mismatches(), 1);
        real.add(2);
        assert_eq!(r.snapshot().counter("dual"), Some(2));
        assert_eq!(r.snapshot().gauge("dual"), None);

        let detached_hist = r.histogram("dual");
        detached_hist.record(1.0);
        assert_eq!(r.kind_mismatches(), 2);
        let detached_counter = r.counter("other");
        drop(detached_counter);
        assert_eq!(r.kind_mismatches(), 2, "matching kinds never count");
    }

    #[test]
    fn snapshot_json_has_expected_shape() {
        let r = Registry::new();
        r.counter("reqs").add(3);
        r.gauge("loss").set(0.25);
        r.histogram("lat").record_duration(Duration::from_micros(7));
        let json = r.snapshot().to_json();
        assert!(json.contains("\"counters\":{\"reqs\":3}"), "{json}");
        assert!(json.contains("\"loss\":0.25"), "{json}");
        assert!(json.contains("\"lat\":{\"count\":1"), "{json}");
        assert!(json.contains("\"le\":\"+Inf\""), "{json}");
    }

    #[test]
    fn json_escapes_names() {
        let r = Registry::new();
        r.counter("weird\"name\\with\nstuff").incr();
        let json = r.snapshot().to_json();
        assert!(
            json.contains("\"weird\\\"name\\\\with\\nstuff\":1"),
            "{json}"
        );
    }

    #[test]
    fn prometheus_format_and_escaping() {
        let r = Registry::new();
        r.counter("ead.ista_iters").add(5);
        r.gauge("train.loss").set(0.5);
        let h = r.histogram_with("serve.latency", &[1000.0, 2000.0]);
        h.record(500.0);
        h.record(1500.0);
        h.record(9999.0);
        let text = r.snapshot().to_prometheus();
        // Dots sanitized to underscores.
        assert!(text.contains("# TYPE ead_ista_iters counter"), "{text}");
        assert!(text.contains("ead_ista_iters 5"), "{text}");
        assert!(text.contains("train_loss 0.5"), "{text}");
        // Cumulative buckets.
        assert!(
            text.contains("serve_latency_bucket{le=\"1000\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("serve_latency_bucket{le=\"2000\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("serve_latency_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("serve_latency_count 3"), "{text}");
    }

    #[test]
    fn metric_name_sanitization() {
        assert_eq!(sanitize_metric_name("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn label_value_escaping() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("line\nbreak"), "line\\nbreak");
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let c = r.counter("hits");
                    let h = r.histogram_with("vals", SCORE_BOUNDS);
                    for i in 0..1000 {
                        c.incr();
                        h.record((t * 1000 + i) as f64 / 1000.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.counter("hits"), Some(4000));
        assert_eq!(s.histogram("vals").unwrap().count, 4000);
    }
}
