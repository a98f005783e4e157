//! Time-indexed range queries and windowed drift aggregation.
//!
//! Both entry points run off a [`ChunkReader`]'s manifest: chunks whose
//! column statistics prove they cannot contain a matching row are skipped
//! without being opened (`telemetry.query_chunks_pruned`), the rest are
//! decoded and scanned. Chunks that fail validation on load have already
//! been quarantined and logged by the store layer; queries count them
//! ([`QueryResult::chunks_rejected`]) and keep going — a forensics query
//! should degrade, not die, on one bad file.

use crate::chunk::ChunkStats;
use crate::row::scheme_code;
use crate::store::ChunkReader;
use crate::{metric_names, Result, TelemetryError, TelemetryRow, MAX_DETECTORS};
use adv_magnet::{DefenseScheme, Verdict};
use std::ops::Range;

/// Column predicates of a range query; `None` fields match everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowFilter {
    /// Match only this tenant key.
    pub tenant: Option<u32>,
    /// Match only this route key.
    pub route: Option<u32>,
    /// Match only rows served by this model-zoo variant (the A/B axis of
    /// replay comparisons).
    pub variant: Option<u32>,
    /// Match only rows served under this scheme.
    pub scheme: Option<DefenseScheme>,
    /// Match only rows with this degraded flag.
    pub degraded: Option<bool>,
    /// Match only detected (`true`) or classified (`false`) rows.
    pub detected: Option<bool>,
}

impl RowFilter {
    /// `true` when `row` satisfies every set predicate.
    pub fn matches(&self, row: &TelemetryRow) -> bool {
        self.tenant.is_none_or(|t| row.tenant == t)
            && self.route.is_none_or(|r| row.route == r)
            && self.variant.is_none_or(|v| row.variant == v)
            && self.scheme.is_none_or(|s| row.scheme == s)
            && self.degraded.is_none_or(|d| row.degraded == d)
            && self
                .detected
                .is_none_or(|d| (row.verdict == Verdict::Detected) == d)
    }

    /// `true` when `stats` prove the chunk holds no row matching both this
    /// filter and the tick `range` — the pruning test.
    pub fn prunes(&self, stats: &ChunkStats, range: &Range<u64>) -> bool {
        if stats.rows == 0 || stats.tick_max < range.start || stats.tick_min >= range.end {
            return true;
        }
        if let Some(t) = self.tenant {
            if t < stats.tenant_min || t > stats.tenant_max {
                return true;
            }
        }
        if let Some(r) = self.route {
            if r < stats.route_min || r > stats.route_max {
                return true;
            }
        }
        if let Some(v) = self.variant {
            if v < stats.variant_min || v > stats.variant_max {
                return true;
            }
        }
        if let Some(s) = self.scheme {
            let bit = 1u8.checked_shl(u32::from(scheme_code(s))).unwrap_or(0);
            if stats.scheme_mask & bit == 0 {
                return true;
            }
        }
        match self.degraded {
            Some(true) if !stats.any_degraded => return true,
            Some(false) if stats.all_degraded => return true,
            _ => {}
        }
        match self.detected {
            Some(true) if !stats.any_detected => return true,
            Some(false) if stats.all_detected => return true,
            _ => {}
        }
        false
    }
}

/// The rows a range query matched, plus how the chunk index behaved.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Matching rows in chunk-seal order (ascending tick for a single
    /// recorder, whose ticks are monotonic).
    pub rows: Vec<TelemetryRow>,
    /// Chunks opened and scanned.
    pub chunks_scanned: usize,
    /// Chunks skipped entirely via column statistics.
    pub chunks_pruned: usize,
    /// Chunks that failed validation on load (already quarantined and
    /// logged by the store layer).
    pub chunks_rejected: usize,
}

/// Scans `[range.start, range.end)` of the tick index for rows matching
/// `filter`.
///
/// # Errors
///
/// I/O errors reading healthy files; corrupt chunks are counted in
/// [`QueryResult::chunks_rejected`] rather than failing the query.
pub fn query(reader: &ChunkReader, range: Range<u64>, filter: &RowFilter) -> Result<QueryResult> {
    let mut out = QueryResult::default();
    scan(reader, &range, filter, &mut out, |row, out| {
        out.rows.push(*row);
    })?;
    Ok(out)
}

/// The shared chunk loop under [`query`] and [`drift_windows`]: prune via
/// stats, load, scan, hand matching rows to `visit`.
fn scan<F>(
    reader: &ChunkReader,
    range: &Range<u64>,
    filter: &RowFilter,
    out: &mut QueryResult,
    mut visit: F,
) -> Result<()>
where
    F: FnMut(&TelemetryRow, &mut QueryResult),
{
    for entry in reader.entries() {
        if filter.prunes(&entry.stats, range) {
            out.chunks_pruned += 1;
            adv_profile::count(metric_names::QUERY_CHUNKS_PRUNED, 1);
            continue;
        }
        let chunk = match reader.load_chunk(entry) {
            Ok(chunk) => chunk,
            Err(
                TelemetryError::Corrupt { .. }
                | TelemetryError::Store(adv_store::StoreError::Corrupt { .. }),
            ) => {
                out.chunks_rejected += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        out.chunks_scanned += 1;
        for row in chunk.rows() {
            if range.contains(&row.tick) && filter.matches(&row) {
                visit(&row, out);
            }
        }
    }
    Ok(())
}

/// A fixed-bucket quantile sketch of detector scores on `adv-profile`'s 1–2–5
/// decade ladder ([`adv_profile::SCORE_BOUNDS`]). Nearest-rank quantiles come
/// back as the upper bound of the selected bucket, clamped to the observed
/// min/max — the same contract as the obs histograms, cheap enough to keep
/// one per window per detector.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreSketch {
    counts: Vec<u64>,
    total: u64,
    min: f32,
    max: f32,
}

impl Default for ScoreSketch {
    fn default() -> ScoreSketch {
        ScoreSketch {
            counts: vec![0; adv_profile::SCORE_BOUNDS.len() + 1],
            total: 0,
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
        }
    }
}

impl ScoreSketch {
    /// Records one score.
    pub fn record(&mut self, score: f32) {
        let bucket = adv_profile::SCORE_BOUNDS
            .iter()
            .position(|&b| f64::from(score) <= b)
            .unwrap_or(adv_profile::SCORE_BOUNDS.len());
        if let Some(slot) = self.counts.get_mut(bucket) {
            *slot += 1;
        }
        self.total += 1;
        self.min = self.min.min(score);
        self.max = self.max.max(score);
    }

    /// Scores recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded score (`None` when empty).
    pub fn observed_min(&self) -> Option<f32> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded score (`None` when empty).
    pub fn observed_max(&self) -> Option<f32> {
        (self.total > 0).then_some(self.max)
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 1]`; `None` when the
    /// sketch is empty.
    pub fn quantile(&self, q: f64) -> Option<f32> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = adv_profile::SCORE_BOUNDS
                    .get(i)
                    .copied()
                    .unwrap_or(f64::from(self.max)) as f32;
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

/// Aggregates for one time window of a [`drift_windows`] sweep.
#[derive(Debug, Clone, Default)]
pub struct WindowAggregate {
    /// Window start tick (inclusive).
    pub start_tick: u64,
    /// Window end tick (exclusive).
    pub end_tick: u64,
    /// Matching rows that fell in the window.
    pub rows: u64,
    /// Rows whose verdict was Detected.
    pub detected: u64,
    /// Rows served degraded.
    pub degraded: u64,
    /// Per-detector score sketches (index = detector position).
    pub sketches: Vec<ScoreSketch>,
}

impl WindowAggregate {
    /// Fraction of the window's rows flagged Detected.
    pub fn detected_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.detected as f64 / self.rows as f64
        }
    }

    /// Fraction of the window's rows served degraded.
    pub fn degraded_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.degraded as f64 / self.rows as f64
        }
    }
}

/// Splits `range` into `windows` equal windows and streams every matching
/// row into per-window counts and per-detector score sketches — the drift
/// query ("did score distributions move this hour?") as one pass over the
/// store.
///
/// # Errors
///
/// [`TelemetryError::InvalidConfig`] for zero/absurd window counts or an
/// empty range; I/O errors as in [`query`].
pub fn drift_windows(
    reader: &ChunkReader,
    range: Range<u64>,
    windows: usize,
    filter: &RowFilter,
) -> Result<Vec<WindowAggregate>> {
    if windows == 0 || windows > 65_536 {
        return Err(TelemetryError::InvalidConfig(format!(
            "window count {windows} outside 1..=65536"
        )));
    }
    if range.end <= range.start {
        return Err(TelemetryError::InvalidConfig(format!(
            "empty tick range {}..{}",
            range.start, range.end
        )));
    }
    let span = range.end - range.start;
    let width = span.div_ceil(windows as u64).max(1);
    let mut out: Vec<WindowAggregate> = (0..windows as u64)
        .map(|w| WindowAggregate {
            start_tick: range.start.saturating_add(w * width),
            end_tick: range.start.saturating_add((w + 1) * width).min(range.end),
            sketches: vec![ScoreSketch::default(); MAX_DETECTORS],
            ..WindowAggregate::default()
        })
        .collect();
    let mut stats = QueryResult::default();
    scan(reader, &range, filter, &mut stats, |row, _| {
        let idx = ((row.tick - range.start) / width) as usize;
        let Some(window) = out.get_mut(idx) else {
            return;
        };
        window.rows += 1;
        if row.verdict == Verdict::Detected {
            window.detected += 1;
        }
        if row.degraded {
            window.degraded += 1;
        }
        for (sketch, &score) in window.sketches.iter_mut().zip(row.live_scores()) {
            sketch.record(score);
        }
    })?;
    Ok(out)
}
