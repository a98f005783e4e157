//! Fixed-capacity columnar chunks: struct-of-arrays row storage with
//! per-column min/max statistics.
//!
//! A chunk holds every row field as its own contiguous column, so a range
//! query touching two of twelve columns reads two arrays, and the stats let
//! the query layer skip whole chunks without opening them. Sealed layout
//! (the payload inside `adv-store`'s `ADVSTOR1` envelope, little-endian):
//!
//! ```text
//! magic   "ADVTCHK1"  8 bytes
//! version u32         currently 3 (v2 added trace, v3 the variant column)
//! rows    u32
//! tick    rows × u64      verdict   rows × i32
//! tenant  rows × u32      queue_ns  rows × u64
//! route   rows × u32      infer_ns  rows × u64
//! sample  rows × u32      trace     rows × u64
//! variant rows × u32      nscores   rows × u8
//! scheme  rows × u8       score[k]  rows × f32, k = 0..MAX_DETECTORS
//! degraded rows × u8
//! ```
//!
//! Validation is strict: wrong magic/version, a row count that does not
//! match the byte length, trailing bytes, or an unknown scheme code all
//! reject the chunk (the store layer then quarantines it). Strictness
//! includes the version: v1/v2 chunks (no trace / no variant column) are
//! rejected, landing in quarantine like any other unreadable payload.

use crate::row::{scheme_code, scheme_from_code, verdict_code, verdict_from_code};
use crate::{TelemetryRow, MAX_DETECTORS};
use adv_store::codec::{DecodeError, Reader, Writer};

/// Magic prefix of a sealed chunk payload.
pub const CHUNK_MAGIC: &[u8; 8] = b"ADVTCHK1";

/// Chunk format version this build writes and accepts.
const VERSION: u32 = 3;

/// Header bytes before the columns.
const HEADER_LEN: usize = 8 + 4 + 4;

/// Bytes one row occupies across all columns.
const ROW_BYTES: usize = 8 + 4 + 4 + 4 + 4 + 1 + 1 + 4 + 8 + 8 + 8 + 1 + 4 * MAX_DETECTORS;

/// Per-column min/max statistics of a sealed chunk — everything the query
/// layer needs to prune a chunk without reading it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStats {
    /// Rows in the chunk.
    pub rows: u32,
    /// Smallest timestamp tick.
    pub tick_min: u64,
    /// Largest timestamp tick.
    pub tick_max: u64,
    /// Smallest tenant key.
    pub tenant_min: u32,
    /// Largest tenant key.
    pub tenant_max: u32,
    /// Smallest route key.
    pub route_min: u32,
    /// Largest route key.
    pub route_max: u32,
    /// Smallest serving-variant id.
    pub variant_min: u32,
    /// Largest serving-variant id.
    pub variant_max: u32,
    /// Bitmask of scheme codes present (`1 << scheme_code`).
    pub scheme_mask: u8,
    /// Any row served degraded.
    pub any_degraded: bool,
    /// Every row served degraded.
    pub all_degraded: bool,
    /// Any row's verdict was Detected.
    pub any_detected: bool,
    /// Every row's verdict was Detected.
    pub all_detected: bool,
    /// Per-score-column minima.
    pub score_min: [f32; MAX_DETECTORS],
    /// Per-score-column maxima.
    pub score_max: [f32; MAX_DETECTORS],
}

/// Serialized size of [`ChunkStats`] in a manifest record.
pub(crate) const STATS_BYTES: usize = 4 + 8 + 8 + 4 + 4 + 4 + 4 + 4 + 4 + 1 + 1 + 8 * MAX_DETECTORS;

impl ChunkStats {
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        let flags = u8::from(self.any_degraded)
            | u8::from(self.all_degraded) << 1
            | u8::from(self.any_detected) << 2
            | u8::from(self.all_detected) << 3;
        w.u32(self.rows)
            .u64(self.tick_min)
            .u64(self.tick_max)
            .u32(self.tenant_min)
            .u32(self.tenant_max)
            .u32(self.route_min)
            .u32(self.route_max)
            .u32(self.variant_min)
            .u32(self.variant_max)
            .u8(self.scheme_mask)
            .u8(flags)
            .f32s(&self.score_min)
            .f32s(&self.score_max);
    }

    /// Reads the [`STATS_BYTES`] written by `encode_into`.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<ChunkStats, DecodeError> {
        let mut stats = ChunkStats {
            rows: r.u32()?,
            tick_min: r.u64()?,
            tick_max: r.u64()?,
            tenant_min: r.u32()?,
            tenant_max: r.u32()?,
            route_min: r.u32()?,
            route_max: r.u32()?,
            variant_min: r.u32()?,
            variant_max: r.u32()?,
            scheme_mask: r.u8()?,
            any_degraded: false,
            all_degraded: false,
            any_detected: false,
            all_detected: false,
            score_min: [0.0; MAX_DETECTORS],
            score_max: [0.0; MAX_DETECTORS],
        };
        let flags = r.u8()?;
        stats.any_degraded = flags & 1 != 0;
        stats.all_degraded = flags & 2 != 0;
        stats.any_detected = flags & 4 != 0;
        stats.all_detected = flags & 8 != 0;
        stats.score_min.copy_from_slice(&r.f32s(MAX_DETECTORS)?);
        stats.score_max.copy_from_slice(&r.f32s(MAX_DETECTORS)?);
        Ok(stats)
    }
}

/// A columnar chunk: the in-memory open chunk of the writer, and the
/// decoded form of a sealed chunk on the read path.
#[derive(Debug, Clone, Default)]
pub struct Chunk {
    tick: Vec<u64>,
    tenant: Vec<u32>,
    route: Vec<u32>,
    sample: Vec<u32>,
    variant: Vec<u32>,
    scheme: Vec<u8>,
    degraded: Vec<u8>,
    verdict: Vec<i32>,
    queue_ns: Vec<u64>,
    infer_ns: Vec<u64>,
    trace: Vec<u64>,
    nscores: Vec<u8>,
    scores: [Vec<f32>; MAX_DETECTORS],
}

impl Chunk {
    /// An empty chunk with column capacity reserved for `capacity` rows.
    pub fn with_capacity(capacity: usize) -> Chunk {
        Chunk {
            tick: Vec::with_capacity(capacity),
            tenant: Vec::with_capacity(capacity),
            route: Vec::with_capacity(capacity),
            sample: Vec::with_capacity(capacity),
            variant: Vec::with_capacity(capacity),
            scheme: Vec::with_capacity(capacity),
            degraded: Vec::with_capacity(capacity),
            verdict: Vec::with_capacity(capacity),
            queue_ns: Vec::with_capacity(capacity),
            infer_ns: Vec::with_capacity(capacity),
            trace: Vec::with_capacity(capacity),
            nscores: Vec::with_capacity(capacity),
            scores: std::array::from_fn(|_| Vec::with_capacity(capacity)),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.tick.len()
    }

    /// `true` when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.tick.is_empty()
    }

    /// Appends one row (column-wise).
    pub fn push(&mut self, row: &TelemetryRow) {
        self.tick.push(row.tick);
        self.tenant.push(row.tenant);
        self.route.push(row.route);
        self.sample.push(row.sample);
        self.variant.push(row.variant);
        self.scheme.push(scheme_code(row.scheme));
        self.degraded.push(u8::from(row.degraded));
        self.verdict.push(verdict_code(row.verdict));
        self.queue_ns.push(row.queue_ns);
        self.infer_ns.push(row.infer_ns);
        self.trace.push(row.trace);
        let n = (row.nscores as usize).min(MAX_DETECTORS);
        self.nscores.push(n as u8);
        for (k, col) in self.scores.iter_mut().enumerate() {
            col.push(row.scores.get(k).copied().unwrap_or(0.0));
        }
    }

    /// Reassembles row `i`, or `None` past the end (or on a scheme code the
    /// decoder should already have rejected).
    pub fn row(&self, i: usize) -> Option<TelemetryRow> {
        let mut scores = [0f32; MAX_DETECTORS];
        for (slot, col) in scores.iter_mut().zip(self.scores.iter()) {
            *slot = col.get(i).copied()?;
        }
        Some(TelemetryRow {
            tick: self.tick.get(i).copied()?,
            tenant: self.tenant.get(i).copied()?,
            route: self.route.get(i).copied()?,
            sample: self.sample.get(i).copied()?,
            variant: self.variant.get(i).copied()?,
            scheme: scheme_from_code(self.scheme.get(i).copied()?)?,
            degraded: self.degraded.get(i).copied()? != 0,
            verdict: verdict_from_code(self.verdict.get(i).copied()?),
            queue_ns: self.queue_ns.get(i).copied()?,
            infer_ns: self.infer_ns.get(i).copied()?,
            trace: self.trace.get(i).copied()?,
            nscores: self.nscores.get(i).copied()?,
            scores,
        })
    }

    /// Iterates the chunk's rows in append order.
    pub fn rows(&self) -> impl Iterator<Item = TelemetryRow> + '_ {
        (0..self.len()).filter_map(|i| self.row(i))
    }

    /// Direct view of the tick column (the time index).
    pub fn ticks(&self) -> &[u64] {
        &self.tick
    }

    /// Per-column min/max statistics over the current rows.
    pub fn stats(&self) -> ChunkStats {
        let mut stats = ChunkStats {
            rows: self.len() as u32,
            tick_min: u64::MAX,
            tick_max: 0,
            tenant_min: u32::MAX,
            tenant_max: 0,
            route_min: u32::MAX,
            route_max: 0,
            variant_min: u32::MAX,
            variant_max: 0,
            scheme_mask: 0,
            any_degraded: false,
            all_degraded: !self.is_empty(),
            any_detected: false,
            all_detected: !self.is_empty(),
            score_min: [f32::INFINITY; MAX_DETECTORS],
            score_max: [f32::NEG_INFINITY; MAX_DETECTORS],
        };
        for &t in &self.tick {
            stats.tick_min = stats.tick_min.min(t);
            stats.tick_max = stats.tick_max.max(t);
        }
        for &t in &self.tenant {
            stats.tenant_min = stats.tenant_min.min(t);
            stats.tenant_max = stats.tenant_max.max(t);
        }
        for &r in &self.route {
            stats.route_min = stats.route_min.min(r);
            stats.route_max = stats.route_max.max(r);
        }
        for &v in &self.variant {
            stats.variant_min = stats.variant_min.min(v);
            stats.variant_max = stats.variant_max.max(v);
        }
        for &s in &self.scheme {
            stats.scheme_mask |= 1u8.checked_shl(u32::from(s)).unwrap_or(0);
        }
        for &d in &self.degraded {
            stats.any_degraded |= d != 0;
            stats.all_degraded &= d != 0;
        }
        for &v in &self.verdict {
            stats.any_detected |= v < 0;
            stats.all_detected &= v < 0;
        }
        for (k, col) in self.scores.iter().enumerate() {
            for (&s, &n) in col.iter().zip(&self.nscores) {
                if usize::from(n) > k {
                    stats.score_min[k] = stats.score_min[k].min(s);
                    stats.score_max[k] = stats.score_max[k].max(s);
                }
            }
        }
        stats
    }

    /// Serializes the chunk as an `ADVTCHK1` payload (see module docs).
    pub fn encode(&self) -> Vec<u8> {
        let rows = self.len();
        let mut w = Writer::with_capacity(HEADER_LEN + rows * ROW_BYTES);
        w.bytes(CHUNK_MAGIC)
            .u32(VERSION)
            .u32(rows as u32)
            .u64s(&self.tick)
            .u32s(&self.tenant)
            .u32s(&self.route)
            .u32s(&self.sample)
            .u32s(&self.variant)
            .bytes(&self.scheme)
            .bytes(&self.degraded)
            .i32s(&self.verdict)
            .u64s(&self.queue_ns)
            .u64s(&self.infer_ns)
            .u64s(&self.trace)
            .bytes(&self.nscores);
        for col in &self.scores {
            w.f32s(col);
        }
        w.into_vec()
    }

    /// Decodes a sealed payload, validating magic, version, row count,
    /// exact length, and every scheme code.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the rejected field; the caller wraps it in
    /// `TelemetryError::Corrupt` with the source path and quarantines the
    /// file.
    pub fn decode(payload: &[u8]) -> Result<Chunk, DecodeError> {
        let mut r = Reader::new(payload);
        r.magic(CHUNK_MAGIC, "chunk magic ADVTCHK1")?;
        if r.u32()? != VERSION {
            return Err(r.fail("chunk version 3"));
        }
        let rows = r.u32()? as usize;
        if rows.checked_mul(ROW_BYTES) != Some(r.remaining()) {
            return Err(r.fail("a payload length matching the row count"));
        }
        let mut chunk = Chunk {
            tick: r.u64s(rows)?,
            tenant: r.u32s(rows)?,
            route: r.u32s(rows)?,
            sample: r.u32s(rows)?,
            variant: r.u32s(rows)?,
            scheme: r.bytes(rows)?.to_vec(),
            degraded: r.bytes(rows)?.to_vec(),
            verdict: r.i32s(rows)?,
            queue_ns: r.u64s(rows)?,
            infer_ns: r.u64s(rows)?,
            trace: r.u64s(rows)?,
            nscores: r.bytes(rows)?.to_vec(),
            scores: Default::default(),
        };
        for col in &mut chunk.scores {
            *col = r.f32s(rows)?;
        }
        r.finish()?;
        // The scheme column follows the u64 tick and four u32 columns; the
        // degraded column follows it.
        let scheme_at = HEADER_LEN + rows * (8 + 4 * 4);
        if let Some(i) = chunk
            .scheme
            .iter()
            .position(|&c| scheme_from_code(c).is_none())
        {
            return Err(DecodeError {
                offset: scheme_at + i,
                expected: "a known scheme code",
            });
        }
        if let Some(i) = chunk.degraded.iter().position(|&d| d > 1) {
            return Err(DecodeError {
                offset: scheme_at + rows + i,
                expected: "a boolean degraded byte",
            });
        }
        Ok(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_magnet::{DefenseScheme, Verdict};

    pub(crate) fn sample_row(i: usize) -> TelemetryRow {
        TelemetryRow::new(
            1000 + i as u64 * 10,
            (i % 3) as u32,
            (i % 2) as u32,
            i as u32,
            DefenseScheme::ALL[i % 4],
            i.is_multiple_of(5),
            if i.is_multiple_of(4) {
                Verdict::Detected
            } else {
                Verdict::Classified(i % 10)
            },
            50 + i as u64,
            200 + i as u64,
            i as u64 + 1,
            &[i as f32 * 0.5, 1.0 / (i as f32 + 1.0), -0.25, 3.0],
        )
        .with_variant((i % 2) as u32 + 1)
    }

    fn filled(n: usize) -> Chunk {
        let mut c = Chunk::with_capacity(n);
        for i in 0..n {
            c.push(&sample_row(i));
        }
        c
    }

    #[test]
    fn encode_decode_roundtrip() {
        for n in [0usize, 1, 7, 64] {
            let chunk = filled(n);
            let decoded = Chunk::decode(&chunk.encode()).unwrap();
            assert_eq!(decoded.len(), n);
            for i in 0..n {
                assert_eq!(decoded.row(i).unwrap(), sample_row(i), "row {i}");
            }
        }
    }

    #[test]
    fn every_strict_prefix_and_extension_rejected() {
        let bytes = filled(5).encode();
        for cut in 0..bytes.len() {
            assert!(Chunk::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(Chunk::decode(&long).is_err());
        for bad in adv_store::codec::single_bit_flips(&bytes) {
            let _ = Chunk::decode(&bad);
        }
    }

    #[test]
    fn bad_magic_version_and_scheme_rejected() {
        let good = filled(3).encode();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(Chunk::decode(&bad).unwrap_err().expected.contains("magic"));
        let mut bad = good.clone();
        bad[8] = 7;
        assert!(Chunk::decode(&bad)
            .unwrap_err()
            .expected
            .contains("version"));
        // Corrupt the first scheme byte to an unknown code.
        let scheme_off = HEADER_LEN + 3 * (8 + 4 + 4 + 4 + 4);
        let mut bad = good.clone();
        bad[scheme_off] = 200;
        let err = Chunk::decode(&bad).unwrap_err();
        assert!(err.expected.contains("scheme"), "{err}");
        assert_eq!(err.offset, scheme_off);
    }

    #[test]
    fn stats_cover_all_columns() {
        let chunk = filled(20);
        let s = chunk.stats();
        assert_eq!(s.rows, 20);
        assert_eq!(s.tick_min, 1000);
        assert_eq!(s.tick_max, 1190);
        assert_eq!((s.tenant_min, s.tenant_max), (0, 2));
        assert_eq!((s.route_min, s.route_max), (0, 1));
        assert_eq!((s.variant_min, s.variant_max), (1, 2));
        assert_eq!(s.scheme_mask, 0b1111);
        assert!(s.any_degraded && !s.all_degraded);
        assert!(s.any_detected && !s.all_detected);
        assert_eq!(s.score_min[0], 0.0);
        assert_eq!(s.score_max[0], 19.0 * 0.5);
        // Column 3 is constant.
        assert_eq!((s.score_min[3], s.score_max[3]), (3.0, 3.0));
    }

    #[test]
    fn stats_encode_roundtrip() {
        let stats = filled(9).stats();
        let mut w = Writer::new();
        stats.encode_into(&mut w);
        let buf = w.into_vec();
        assert_eq!(buf.len(), STATS_BYTES);
        let mut r = Reader::new(&buf);
        assert_eq!(ChunkStats::decode(&mut r).unwrap(), stats);
        r.finish().unwrap();
        assert!(ChunkStats::decode(&mut Reader::new(&buf[..buf.len() - 1])).is_err());
    }

    #[test]
    fn rows_iterates_in_append_order() {
        let chunk = filled(6);
        let ticks: Vec<u64> = chunk.rows().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![1000, 1010, 1020, 1030, 1040, 1050]);
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        let chunk = filled(5);
        let mut w = Writer::new();
        w.bytes(&chunk.encode());
        chunk.stats().encode_into(&mut w);
        let hash = adv_store::codec::fnv64(&w.into_vec());
        assert_eq!(hash, 0x60ff_f5de_682a_041a, "{hash:#018x}");
    }
}
