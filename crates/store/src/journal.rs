//! Append-only, CRC-framed record journals.
//!
//! A journal makes a long sequential computation resumable at record
//! granularity: each completed unit of work (one crafted adversarial
//! sample, one finished pipeline stage) is appended as a framed record and
//! fsync'd. A killed process leaves a valid prefix plus at most one torn
//! frame; [`Journal::open`] replays the prefix, truncates the tear, and the
//! caller resumes at the first missing record.
//!
//! Layout (little-endian):
//!
//! ```text
//! header:  magic "ADVJRNL1" (8) | version u32 | context u64
//! record:  length u32 | crc32 u32 (of payload) | payload
//! ```
//!
//! The `context` is a caller-supplied fingerprint of whatever the records
//! depend on (scale parameters, attack configuration, input data). Opening
//! a journal whose context differs resets it — records crafted against a
//! different configuration must never be replayed into the current one.

use crate::codec::{DecodeError, Reader, Writer};
use crate::crc::crc32;
use crate::faults::{self, WriteFault};
use crate::{Result, StoreError};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"ADVJRNL1";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 8 + 4 + 8;
const FRAME_HEADER_LEN: usize = 4 + 4;
/// Upper bound on a single record; larger length fields mark a torn or
/// corrupt frame.
const MAX_RECORD_LEN: u32 = 1 << 30;

/// An append-only record log with crash recovery. See the module docs.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    records: Vec<Vec<u8>>,
    recovered: usize,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for `context`, replaying
    /// every valid record and truncating any torn tail. A context mismatch
    /// or an unreadable header resets the journal to empty.
    ///
    /// # Errors
    ///
    /// Filesystem errors only — corruption is handled by recovery, not
    /// reported as an error.
    pub fn open(path: impl AsRef<Path>, context: u64) -> Result<Journal> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let existing = match std::fs::read(&path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(StoreError::Io(e)),
        };
        let (records, valid_len) = match existing {
            Some(bytes) if header_matches(&bytes, context) => parse_records(&bytes),
            _ => (Vec::new(), 0),
        };
        if valid_len == 0 {
            // Fresh or reset journal: write a clean header.
            let mut header = Writer::with_capacity(HEADER_LEN);
            header.bytes(MAGIC).u32(VERSION).u64(context);
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)?;
            f.write_all(&header.into_vec())?;
            f.sync_all()?;
            drop(f);
        } else {
            // Drop any torn tail so appends extend a valid prefix.
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_len as u64)?;
            f.sync_all()?;
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        let recovered = records.len();
        Ok(Journal {
            path,
            file,
            records,
            recovered,
        })
    }

    /// Discards any existing journal at `path` and opens an empty one —
    /// for callers that replay records, find them semantically stale (e.g.
    /// out of sequence after a format change), and must start over.
    ///
    /// # Errors
    ///
    /// Filesystem errors only.
    pub fn open_fresh(path: impl AsRef<Path>, context: u64) -> Result<Journal> {
        let path = path.as_ref();
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
        Journal::open(path, context)
    }

    /// Reads the valid record prefix of the journal at `path` without
    /// opening it for append: no header rewrite, no tail truncation, no
    /// file locks — safe while another handle is actively appending. A
    /// missing file, header mismatch, or foreign context yields an empty
    /// list (there is nothing valid to replay), matching [`Journal::open`]'s
    /// recovery semantics.
    ///
    /// # Errors
    ///
    /// Filesystem errors other than `NotFound`.
    pub fn read_records(path: impl AsRef<Path>, context: u64) -> Result<Vec<Vec<u8>>> {
        let bytes = match std::fs::read(path.as_ref()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::Io(e)),
        };
        if !header_matches(&bytes, context) {
            return Ok(Vec::new());
        }
        Ok(parse_records(&bytes).0)
    }

    /// The records currently in the journal, oldest first.
    pub fn records(&self) -> &[Vec<u8>] {
        &self.records
    }

    /// Number of records replayed from disk at open time — the resume
    /// point of an interrupted run.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// Number of records, replayed plus appended.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record durably (write, flush, fsync).
    ///
    /// # Errors
    ///
    /// Filesystem errors and injected transient write faults.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let mut w = Writer::with_capacity(FRAME_HEADER_LEN + payload.len());
        w.u32(payload.len() as u32)
            .u32(crc32(payload))
            .bytes(payload);
        let frame = w.into_vec();
        let fault = faults::decide(&self.path, frame.len());
        if fault == WriteFault::TransientError {
            return Err(StoreError::InjectedWriteFault {
                path: self.path.clone(),
            });
        }
        let image = faults::corrupt_image(&frame, fault);
        let image: &[u8] = image.as_deref().unwrap_or(&frame);
        self.file.write_all(image)?;
        self.file.flush()?;
        self.file.sync_all()?;
        self.records.push(payload.to_vec());
        Ok(())
    }

    /// Deletes the journal file — call when the computation it guarded has
    /// been committed to its final artifact.
    ///
    /// # Errors
    ///
    /// Filesystem errors (a missing file is fine).
    pub fn remove(self) -> Result<()> {
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::Io(e)),
        }
    }
}

fn header_matches(bytes: &[u8], context: u64) -> bool {
    let mut r = Reader::new(bytes);
    r.magic(MAGIC, "journal magic ADVJRNL1").is_ok()
        && r.u32() == Ok(VERSION)
        && r.u64() == Ok(context)
}

/// Parses the valid record prefix; returns the records and the byte length
/// of the valid region (header included).
fn parse_records(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut records = Vec::new();
    let mut r = Reader::new(bytes);
    if r.bytes(HEADER_LEN).is_err() {
        return (records, 0);
    }
    let mut valid = r.offset();
    while let Ok(payload) = next_record(&mut r) {
        records.push(payload.to_vec());
        valid = r.offset();
    }
    (records, valid)
}

/// Reads one frame; any error marks the torn or corrupt tail.
fn next_record<'a>(r: &mut Reader<'a>) -> std::result::Result<&'a [u8], DecodeError> {
    let len = r.u32()?;
    let stored_crc = r.u32()?;
    if len > MAX_RECORD_LEN {
        return Err(r.fail("a record length within the bound"));
    }
    let payload = r.bytes(len as usize)?;
    if crc32(payload) != stored_crc {
        return Err(r.fail("a record matching its crc32"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adv_store_journal_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir.join("j.jrnl")
    }

    #[test]
    fn append_and_replay() {
        let path = tmp("replay");
        let mut j = Journal::open(&path, 7).unwrap();
        assert_eq!(j.recovered(), 0);
        j.append(b"alpha").unwrap();
        j.append(b"beta").unwrap();
        drop(j);
        let j = Journal::open(&path, 7).unwrap();
        assert_eq!(j.recovered(), 2);
        assert_eq!(j.records(), &[b"alpha".to_vec(), b"beta".to_vec()]);
        j.remove().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn read_records_is_nondestructive() {
        let path = tmp("readonly");
        let mut j = Journal::open(&path, 11).unwrap();
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        // Read while the writer still holds the journal open for append.
        let records = Journal::read_records(&path, 11).unwrap();
        assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec()]);
        // Wrong context reads as empty, and never resets the real journal.
        assert!(Journal::read_records(&path, 12).unwrap().is_empty());
        j.append(b"three").unwrap();
        drop(j);
        // A torn tail is ignored by the reader but left on disk untouched.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 2]).unwrap();
        assert_eq!(Journal::read_records(&path, 11).unwrap().len(), 2);
        assert_eq!(std::fs::read(&path).unwrap().len(), full.len() - 2);
        // Missing file reads as empty.
        assert!(Journal::read_records(tmp("readonly-none"), 1)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn context_mismatch_resets() {
        let path = tmp("context");
        let mut j = Journal::open(&path, 1).unwrap();
        j.append(b"stale").unwrap();
        drop(j);
        let j = Journal::open(&path, 2).unwrap();
        assert!(j.is_empty(), "different context must discard records");
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut() {
        let path = tmp("torn");
        let mut j = Journal::open(&path, 3).unwrap();
        j.append(b"record-one").unwrap();
        j.append(b"record-two").unwrap();
        j.append(b"record-three").unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Every strict prefix of the file must recover a (possibly shorter)
        // valid record prefix — never garbage, never a panic.
        let r1_end = HEADER_LEN + FRAME_HEADER_LEN + 10;
        let r2_end = r1_end + FRAME_HEADER_LEN + 10;
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let j = Journal::open(&path, 3).unwrap();
            let expect = if cut >= r2_end + FRAME_HEADER_LEN + 12 {
                3
            } else if cut >= r2_end {
                2
            } else if cut >= r1_end {
                1
            } else {
                0
            };
            assert_eq!(j.len(), expect, "cut at {cut}");
            for (i, rec) in j.records().iter().enumerate() {
                let want: &[u8] = [&b"record-one"[..], b"record-two", b"record-three"][i];
                assert_eq!(rec, want, "cut at {cut}, record {i}");
            }
        }
    }

    #[test]
    fn mid_stream_corruption_truncates_there() {
        let path = tmp("midflip");
        let mut j = Journal::open(&path, 4).unwrap();
        j.append(b"good").unwrap();
        j.append(b"later").unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the first record's payload.
        bytes[HEADER_LEN + FRAME_HEADER_LEN + 1] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut j = Journal::open(&path, 4).unwrap();
        assert_eq!(j.len(), 0, "corruption in record 0 drops it and the tail");
        // And the journal is usable again.
        j.append(b"fresh").unwrap();
        drop(j);
        let j = Journal::open(&path, 4).unwrap();
        assert_eq!(j.records(), &[b"fresh".to_vec()]);
    }

    #[test]
    fn appends_resume_after_recovery() {
        let path = tmp("resume");
        let mut j = Journal::open(&path, 5).unwrap();
        j.append(b"one").unwrap();
        drop(j);
        let mut j = Journal::open(&path, 5).unwrap();
        j.append(b"two").unwrap();
        drop(j);
        let j = Journal::open(&path, 5).unwrap();
        assert_eq!(j.records(), &[b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn file_bytes_are_pinned_and_no_corruption_reads_past_it() {
        let (path, context) = (tmp("pinned"), 0x0123_4567_89ab_cdef);
        let written = [b"alpha".to_vec(), Vec::new(), b"gamma\x00\xff".to_vec()];
        let mut j = Journal::open(&path, context).unwrap();
        for record in &written {
            j.append(record).unwrap();
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();
        let hash = crate::codec::fnv64(&full);
        assert_eq!(hash, 0x686e_8d1f_3a61_9876, "{hash:#018x}");
        let read = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            Journal::read_records(&path, context).unwrap()
        };
        assert!((0..=HEADER_LEN).all(|cut| read(&full[..cut]).is_empty()));
        for bad in crate::codec::single_bit_flips(&full) {
            let records = read(&bad);
            assert!(records.len() < written.len() && written.starts_with(&records));
        }
    }
}
