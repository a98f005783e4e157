//! The on-disk chunk store: a sealing writer and a read-only reader.
//!
//! Layout under the store directory:
//!
//! ```text
//! chunk-<seq>.tchk   sealed chunk (ADVTCHK1 payload in an ADVSTOR1 envelope)
//! manifest.jrnl      CRC-framed journal; one record per sealed chunk:
//!                    seq u64 | ChunkStats
//! ```
//!
//! Crash contract: rows live in the open in-memory chunk until it fills (or
//! [`ChunkStore::flush`] is called); sealing writes the chunk file through
//! `adv-store`'s atomic write first and appends the manifest record second.
//! A `kill -9` therefore loses at most the open chunk's tail; the worst
//! torn state is an orphan chunk file with no manifest record, which the
//! reader simply never consults. Readers replay the manifest without taking
//! append access, so queries run against a live writer's directory.
//!
//! Rejection is never silent: a chunk that fails CRC is quarantined by
//! `adv-store` itself, and a CRC-valid chunk the decoder rejects (format
//! drift, garbage, stats mismatch) is quarantined here with a logged
//! reason — both paths bump `telemetry.crc_failures`.

use crate::chunk::{Chunk, ChunkStats, STATS_BYTES};
use crate::row::TelemetryRow;
use crate::{metric_names, obs, Result, TelemetryError};
use adv_store::codec::{DecodeError, Reader, Writer};
use adv_store::Journal;
use std::path::{Path, PathBuf};

/// Context fingerprint for the manifest journal: ties the records to this
/// crate's manifest format so a foreign journal at the same path is reset
/// (writer) or read as empty (reader) instead of misparsed.
fn manifest_context() -> u64 {
    u64::from(adv_store::crc32(b"adv-telemetry-manifest-v1"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.jrnl")
}

fn chunk_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("chunk-{seq}.tchk"))
}

/// One manifest record: a sealed chunk's sequence number and its
/// per-column statistics (everything pruning needs, no file opens).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManifestEntry {
    /// Sequence number; the chunk file is `chunk-<seq>.tchk`.
    pub seq: u64,
    /// Column statistics captured at seal time.
    pub stats: ChunkStats,
}

impl ManifestEntry {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(8 + STATS_BYTES);
        w.u64(self.seq);
        self.stats.encode_into(&mut w);
        w.into_vec()
    }

    fn decode(record: &[u8]) -> std::result::Result<ManifestEntry, DecodeError> {
        let mut r = Reader::new(record);
        let entry = ManifestEntry {
            seq: r.u64()?,
            stats: ChunkStats::decode(&mut r)?,
        };
        r.finish()?;
        Ok(entry)
    }
}

/// Decodes manifest records, skipping (never trusting) undecodable ones
/// with a logged reason and a `telemetry.crc_failures` bump.
fn decode_manifest(records: &[Vec<u8>], path: &Path) -> Vec<ManifestEntry> {
    let mut entries = Vec::with_capacity(records.len());
    for (i, record) in records.iter().enumerate() {
        match ManifestEntry::decode(record) {
            Ok(entry) => entries.push(entry),
            Err(reason) => {
                obs::bump(metric_names::CRC_FAILURES);
                eprintln!(
                    "[adv-telemetry] rejecting manifest record {i} in {}: {reason}",
                    path.display()
                );
            }
        }
    }
    entries
}

/// The sealing writer: accumulates rows in an open columnar chunk and
/// persists full chunks crash-safely. Single-owner; the concurrent front
/// door is [`crate::TelemetryRecorder`].
#[derive(Debug)]
pub struct ChunkStore {
    dir: PathBuf,
    chunk_rows: usize,
    manifest: Journal,
    next_seq: u64,
    open: Chunk,
    sealed: u64,
}

impl ChunkStore {
    /// Opens (or creates) the store in `dir`, sealing `chunk_rows` rows per
    /// chunk. An existing manifest is replayed and appending resumes at the
    /// next sequence number.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::InvalidConfig`] on a zero chunk size; store errors
    /// from the manifest journal.
    pub fn open(dir: impl AsRef<Path>, chunk_rows: usize) -> Result<ChunkStore> {
        if chunk_rows == 0 {
            return Err(TelemetryError::InvalidConfig(
                "chunk_rows must be at least 1".into(),
            ));
        }
        let dir = dir.as_ref().to_path_buf();
        let manifest = Journal::open(manifest_path(&dir), manifest_context())?;
        let entries = decode_manifest(manifest.records(), manifest.path());
        let next_seq = entries.iter().map(|e| e.seq + 1).max().unwrap_or(0);
        Ok(ChunkStore {
            dir,
            chunk_rows,
            manifest,
            next_seq,
            open: Chunk::with_capacity(chunk_rows),
            sealed: entries.len() as u64,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Rows buffered in the open (unsealed) chunk.
    pub fn open_rows(&self) -> usize {
        self.open.len()
    }

    /// Chunks sealed over the store's lifetime (replayed ones included).
    pub fn sealed_chunks(&self) -> u64 {
        self.sealed
    }

    /// Appends one row, sealing the open chunk when it reaches capacity.
    ///
    /// # Errors
    ///
    /// Seal-path store errors. The row itself is always retained in the
    /// open chunk — on error the caller may simply retry later via
    /// [`flush`](Self::flush); see [`crate::TelemetryRecorder`] for the
    /// bounded-retry policy.
    pub fn append(&mut self, row: &TelemetryRow) -> Result<()> {
        self.open.push(row);
        obs::bump(metric_names::ROWS_RECORDED);
        if self.open.len() >= self.chunk_rows {
            self.seal()?;
        }
        Ok(())
    }

    /// Seals the open chunk (if non-empty): chunk file first, manifest
    /// record second. Returns the sealed sequence number.
    ///
    /// On error the open chunk is kept intact so the seal can be retried;
    /// a chunk file orphaned by a failure between the two writes is
    /// harmlessly overwritten by the retry.
    ///
    /// # Errors
    ///
    /// Store errors from the chunk write or the manifest append.
    pub fn seal(&mut self) -> Result<Option<u64>> {
        if self.open.is_empty() {
            return Ok(None);
        }
        let seq = self.next_seq;
        adv_store::save_artifact(chunk_path(&self.dir, seq), &self.open.encode())?;
        let entry = ManifestEntry {
            seq,
            stats: self.open.stats(),
        };
        self.manifest.append(&entry.encode())?;
        self.next_seq = seq + 1;
        self.sealed += 1;
        self.open = Chunk::with_capacity(self.chunk_rows);
        obs::bump(metric_names::CHUNKS_SEALED);
        Ok(Some(seq))
    }

    /// Drops the open chunk's rows without sealing them, returning how many
    /// were discarded. The recorder's last resort when repeated seal
    /// failures would otherwise grow the open chunk without bound — callers
    /// must count the loss (`telemetry.rows_dropped`).
    pub fn discard_open(&mut self) -> usize {
        let n = self.open.len();
        self.open = Chunk::with_capacity(self.chunk_rows);
        n
    }

    /// Seals any partial open chunk — call before querying a live store or
    /// at shutdown.
    ///
    /// # Errors
    ///
    /// Same as [`seal`](Self::seal).
    pub fn flush(&mut self) -> Result<()> {
        self.seal().map(|_| ())
    }
}

/// The read-only side: replays the manifest without contending for append
/// access and loads sealed chunks on demand.
#[derive(Debug)]
pub struct ChunkReader {
    dir: PathBuf,
    entries: Vec<ManifestEntry>,
}

impl ChunkReader {
    /// Opens a reader over `dir`, replaying the manifest's valid prefix. A
    /// missing or foreign manifest reads as an empty store.
    ///
    /// # Errors
    ///
    /// Filesystem errors from reading the manifest.
    pub fn open(dir: impl AsRef<Path>) -> Result<ChunkReader> {
        let dir = dir.as_ref().to_path_buf();
        let path = manifest_path(&dir);
        let records = Journal::read_records(&path, manifest_context())?;
        let entries = decode_manifest(&records, &path);
        Ok(ChunkReader { dir, entries })
    }

    /// The manifest entries, oldest first.
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Loads and validates the sealed chunk behind `entry`.
    ///
    /// A CRC failure is quarantined by `adv-store`; a CRC-valid payload the
    /// decoder rejects — or one whose row count / tick range contradicts
    /// the manifest stats — is quarantined here. Both bump
    /// `telemetry.crc_failures` and log the reason; neither is ever
    /// silently skipped.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::Store`] (missing or CRC-corrupt file) or
    /// [`TelemetryError::Corrupt`] (decode/stats rejection, after
    /// quarantine).
    pub fn load_chunk(&self, entry: &ManifestEntry) -> Result<Chunk> {
        let path = chunk_path(&self.dir, entry.seq);
        let payload = adv_store::load_artifact(&path).map_err(|e| {
            if matches!(e, adv_store::StoreError::Corrupt { .. }) {
                obs::bump(metric_names::CRC_FAILURES);
                eprintln!(
                    "[adv-telemetry] chunk {} failed envelope validation: {e}",
                    path.display()
                );
            }
            TelemetryError::Store(e)
        })?;
        let reject = |reason: String| {
            obs::bump(metric_names::CRC_FAILURES);
            adv_store::quarantine(&path);
            eprintln!(
                "[adv-telemetry] quarantining undecodable chunk {}: {reason}",
                path.display()
            );
            TelemetryError::Corrupt {
                path: path.clone(),
                reason,
            }
        };
        let chunk = Chunk::decode(&payload).map_err(|e| reject(e.to_string()))?;
        let stats = chunk.stats();
        if stats.rows != entry.stats.rows
            || stats.tick_min != entry.stats.tick_min
            || stats.tick_max != entry.stats.tick_max
        {
            return Err(reject(format!(
                "chunk contradicts manifest stats: {} rows ticks [{}, {}], manifest says {} rows ticks [{}, {}]",
                stats.rows,
                stats.tick_min,
                stats.tick_max,
                entry.stats.rows,
                entry.stats.tick_min,
                entry.stats.tick_max,
            )));
        }
        Ok(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::TelemetryRow;
    use adv_magnet::{DefenseScheme, Verdict};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adv_telemetry_store_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn row(i: u64) -> TelemetryRow {
        TelemetryRow::new(
            i * 100,
            0,
            0,
            i as u32,
            DefenseScheme::Full,
            false,
            Verdict::Classified(i as usize % 10),
            1,
            2,
            i,
            &[i as f32, 0.5],
        )
    }

    #[test]
    fn seal_resume_and_read_back() {
        let dir = tmp("roundtrip");
        let mut store = ChunkStore::open(&dir, 4).unwrap();
        for i in 0..10 {
            store.append(&row(i)).unwrap();
        }
        assert_eq!(store.sealed_chunks(), 2);
        assert_eq!(store.open_rows(), 2);
        store.flush().unwrap();
        drop(store);

        // Reopen: sequence numbering resumes past the sealed chunks.
        let mut store = ChunkStore::open(&dir, 4).unwrap();
        assert_eq!(store.sealed_chunks(), 3);
        store.append(&row(10)).unwrap();
        store.flush().unwrap();

        let reader = ChunkReader::open(&dir).unwrap();
        assert_eq!(reader.entries().len(), 4);
        let mut all: Vec<TelemetryRow> = Vec::new();
        for entry in reader.entries() {
            all.extend(reader.load_chunk(entry).unwrap().rows());
        }
        assert_eq!(all.len(), 11);
        for (i, r) in all.iter().enumerate() {
            assert_eq!(*r, row(i as u64));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_on_missing_dir_is_empty() {
        let reader = ChunkReader::open(tmp("missing")).unwrap();
        assert!(reader.entries().is_empty());
    }

    #[test]
    fn corrupt_chunk_is_quarantined_not_trusted() {
        let dir = tmp("corrupt");
        let mut store = ChunkStore::open(&dir, 2).unwrap();
        for i in 0..2 {
            store.append(&row(i)).unwrap();
        }
        let path = chunk_path(&dir, 0);
        // Flip a payload bit: CRC catches it, store quarantines it.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let reader = ChunkReader::open(&dir).unwrap();
        let err = reader.load_chunk(&reader.entries()[0]).unwrap_err();
        assert!(matches!(err, TelemetryError::Store(_)), "{err}");
        assert!(!path.exists(), "corrupt chunk left in place");
        assert!(path.with_file_name("chunk-0.tchk.corrupt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_contradiction_is_rejected() {
        let dir = tmp("swap");
        let mut store = ChunkStore::open(&dir, 2).unwrap();
        for i in 0..4 {
            store.append(&row(i)).unwrap();
        }
        // Swap chunk 1's file for a copy of chunk 0: envelope and decode
        // both pass, but the manifest stats contradict the contents.
        std::fs::copy(chunk_path(&dir, 0), chunk_path(&dir, 1)).unwrap();
        let reader = ChunkReader::open(&dir).unwrap();
        let err = reader.load_chunk(&reader.entries()[1]).unwrap_err();
        assert!(matches!(err, TelemetryError::Corrupt { .. }), "{err}");
        assert!(!chunk_path(&dir, 1).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_works_against_live_writer() {
        let dir = tmp("live");
        let mut store = ChunkStore::open(&dir, 3).unwrap();
        for i in 0..7 {
            store.append(&row(i)).unwrap();
        }
        // Writer still open (one partial chunk in memory); reader sees the
        // two sealed chunks and nothing torn.
        let reader = ChunkReader::open(&dir).unwrap();
        assert_eq!(reader.entries().len(), 2);
        for entry in reader.entries() {
            reader.load_chunk(entry).unwrap();
        }
        store.flush().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_entry_bytes_are_pinned_and_every_prefix_is_rejected() {
        let mut chunk = Chunk::with_capacity(4);
        (0..4).for_each(|i| chunk.push(&row(i)));
        let stats = chunk.stats();
        let bytes = ManifestEntry { seq: 7, stats }.encode();
        let hash = adv_store::codec::fnv64(&bytes);
        assert_eq!(hash, 0xcf0f_5f92_af5d_e9f5, "{hash:#018x}");
        assert_eq!(
            ManifestEntry::decode(&bytes),
            Ok(ManifestEntry { seq: 7, stats })
        );
        for cut in 0..bytes.len() {
            assert!(ManifestEntry::decode(&bytes[..cut]).is_err(), "{cut}");
        }
        assert!(ManifestEntry::decode(&[&bytes[..], &[0]].concat()).is_err());
        for bad in adv_store::codec::single_bit_flips(&bytes) {
            let _ = ManifestEntry::decode(&bad);
        }
    }
}
