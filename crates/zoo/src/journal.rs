//! The promotion journal: every blue-green state transition, durably
//! framed through adv-store's CRC journal.
//!
//! One fixed-width record per transition. A promotion that dies (kill -9)
//! between records leaves an unfinished machine in the journal; recovery
//! ([`ModelZoo::open`](crate::ModelZoo::open)) replays the valid prefix —
//! adv-store truncates any torn tail — and either aborts the promotion
//! (no `Live` record: the flip never happened, the old version stays) or
//! completes the retirement (a `Live` record without `Retired`: the flip
//! is authoritative, the new version serves). There is no journal state
//! from which a half-promoted variant can be reconstructed.

use std::path::{Path, PathBuf};

use adv_store::codec::{DecodeError, Reader, Writer};
use adv_store::Journal;

use crate::{Result, ZooError};

/// Journal context id: ties records to this schema ("ZPROM1" + version).
const JOURNAL_CONTEXT: u64 = 0x5a50_524f_4d31_0001;

/// Fixed record width: kind u8 + variant u32 + version u32 + crc u32.
const RECORD_BYTES: usize = 13;

/// The promotion state machine's stages, in order. `Aborted` is the
/// terminal stage of a rolled-back or resumed-and-cancelled promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PromotionStage {
    /// Blob loaded and CRC-verified; the promotion is on record.
    Staged,
    /// The candidate shard is up and replaying shadow traffic.
    Warming,
    /// The routing table flipped: the candidate serves live traffic.
    Live,
    /// The previous live shard has fully drained out.
    Retired,
    /// The promotion was rolled back before `Live` (or cancelled by
    /// recovery after a crash).
    Aborted,
}

impl PromotionStage {
    /// Stable wire tag.
    fn to_wire(self) -> u8 {
        match self {
            PromotionStage::Staged => 1,
            PromotionStage::Warming => 2,
            PromotionStage::Live => 3,
            PromotionStage::Retired => 4,
            PromotionStage::Aborted => 5,
        }
    }

    fn from_wire(tag: u8) -> Option<PromotionStage> {
        match tag {
            1 => Some(PromotionStage::Staged),
            2 => Some(PromotionStage::Warming),
            3 => Some(PromotionStage::Live),
            4 => Some(PromotionStage::Retired),
            5 => Some(PromotionStage::Aborted),
            _ => None,
        }
    }

    /// Display name, as it appears in probe output and journal dumps.
    pub fn name(self) -> &'static str {
        match self {
            PromotionStage::Staged => "staged",
            PromotionStage::Warming => "warming",
            PromotionStage::Live => "live",
            PromotionStage::Retired => "retired",
            PromotionStage::Aborted => "aborted",
        }
    }
}

impl std::fmt::Display for PromotionStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One journaled transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionRecord {
    /// The stage entered.
    pub stage: PromotionStage,
    /// Variant being promoted.
    pub variant: u32,
    /// Candidate version (for `Retired`: the version being retired).
    pub version: u32,
    /// CRC32 of the candidate blob (0 for direct installs and `Retired`).
    pub crc: u32,
}

impl PromotionRecord {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(RECORD_BYTES);
        w.u8(self.stage.to_wire())
            .u32(self.variant)
            .u32(self.version)
            .u32(self.crc);
        w.into_vec()
    }

    fn decode(bytes: &[u8]) -> std::result::Result<PromotionRecord, DecodeError> {
        let mut r = Reader::new(bytes);
        let stage = PromotionStage::from_wire(r.u8()?).ok_or(r.fail("a promotion stage tag"))?;
        let record = PromotionRecord {
            stage,
            variant: r.u32()?,
            version: r.u32()?,
            crc: r.u32()?,
        };
        r.finish()?;
        Ok(record)
    }
}

/// The durable promotion log. All appends fsync through adv-store's
/// journal framing, so a record that `append` returned `Ok` for survives
/// kill -9.
#[derive(Debug)]
pub struct PromotionLog {
    journal: Journal,
}

impl PromotionLog {
    /// The journal path under a zoo root.
    pub fn path_under(root: &Path) -> PathBuf {
        root.join("promotions.journal")
    }

    /// Opens (or creates) the log, replaying the valid record prefix.
    ///
    /// # Errors
    ///
    /// [`ZooError::Store`] on I/O failure.
    pub fn open(root: &Path) -> Result<PromotionLog> {
        let journal = Journal::open(Self::path_under(root), JOURNAL_CONTEXT)?;
        Ok(PromotionLog { journal })
    }

    /// Appends one transition durably.
    ///
    /// # Errors
    ///
    /// [`ZooError::Store`] on I/O failure.
    pub fn append(&mut self, record: PromotionRecord) -> Result<()> {
        self.journal.append(&record.encode())?;
        Ok(())
    }

    /// Every decodable record currently in the log, in append order.
    /// Undecodable payloads (foreign schema) surface as an error rather
    /// than being silently skipped.
    ///
    /// # Errors
    ///
    /// [`ZooError::JournalSchema`] when a CRC-valid record does not parse
    /// as a promotion record.
    pub fn records(&self) -> Result<Vec<PromotionRecord>> {
        self.journal
            .records()
            .iter()
            .map(|raw| {
                PromotionRecord::decode(raw).map_err(|e| ZooError::JournalSchema {
                    detail: format!("unparseable {}-byte record: {e}", raw.len()),
                })
            })
            .collect()
    }

    /// Number of records replayed from disk at open time.
    pub fn recovered(&self) -> usize {
        self.journal.recovered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adv_zoo_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn rec(stage: PromotionStage, variant: u32, version: u32) -> PromotionRecord {
        PromotionRecord {
            stage,
            variant,
            version,
            crc: 0xABCD_1234,
        }
    }

    #[test]
    fn records_roundtrip_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let written = vec![
            rec(PromotionStage::Staged, 1, 2),
            rec(PromotionStage::Warming, 1, 2),
            rec(PromotionStage::Live, 1, 2),
            rec(PromotionStage::Retired, 1, 1),
        ];
        {
            let mut log = PromotionLog::open(&dir).expect("open");
            for r in &written {
                log.append(*r).expect("append");
            }
        }
        let log = PromotionLog::open(&dir).expect("reopen");
        assert_eq!(log.recovered(), 4);
        assert_eq!(log.records().expect("decode"), written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_stage_tag_roundtrips() {
        let mut bytes = Vec::new();
        for stage in [
            PromotionStage::Staged,
            PromotionStage::Warming,
            PromotionStage::Live,
            PromotionStage::Retired,
            PromotionStage::Aborted,
        ] {
            let r = rec(stage, 7, 0x0102_0304);
            let encoded = r.encode();
            assert_eq!(PromotionRecord::decode(&encoded), Ok(r));
            for cut in 0..encoded.len() {
                assert!(PromotionRecord::decode(&encoded[..cut]).is_err());
            }
            for bad in adv_store::codec::single_bit_flips(&encoded) {
                let _ = PromotionRecord::decode(&bad);
            }
            bytes.extend(encoded);
        }
        let hash = adv_store::codec::fnv64(&bytes);
        assert_eq!(hash, 0xccb2_105a_d4b9_a791, "{hash:#018x}");
    }

    #[test]
    fn foreign_bytes_do_not_decode() {
        assert!(PromotionRecord::decode(&[0u8; RECORD_BYTES]).is_err());
        assert!(PromotionRecord::decode(&[1u8; RECORD_BYTES - 1]).is_err());
        assert!(PromotionRecord::decode(&[99u8; RECORD_BYTES]).is_err());
    }

    #[test]
    fn torn_tail_is_dropped_on_reopen() {
        let dir = tmp_dir("torn");
        {
            let mut log = PromotionLog::open(&dir).expect("open");
            log.append(rec(PromotionStage::Staged, 1, 1)).expect("a");
            log.append(rec(PromotionStage::Live, 1, 1)).expect("b");
        }
        let path = PromotionLog::path_under(&dir);
        let bytes = std::fs::read(&path).expect("read journal");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear tail");
        let log = PromotionLog::open(&dir).expect("reopen");
        assert_eq!(log.recovered(), 1, "torn record must be dropped");
        assert_eq!(
            log.records().expect("decode")[0].stage,
            PromotionStage::Staged
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
