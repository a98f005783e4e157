//! Epoch-granular training checkpoints.
//!
//! A checkpoint freezes everything a killed training run needs to continue
//! bit-identically: the model weights, the optimizer's accumulated state
//! (momentum buffers, Adam moments and step count) and the epoch history.
//! The RNG needs no saved position — the training loop derives each epoch's
//! RNG from `(seed, epoch)`, so "resume at epoch k" *is* the RNG position.
//!
//! Checkpoints are artifacts like any other: sealed in the `ADVSTOR1`
//! envelope and committed atomically, so a kill mid-checkpoint leaves the
//! previous checkpoint intact. The payload layout (little-endian):
//!
//! ```text
//! magic "ADVCKPT1" (8)
//! digest u64          — fingerprint of the train config (epochs excluded)
//! epochs_done u64
//! model_len u64   | model bytes (ADVNN001)
//! opt_len u64     | optimizer state bytes
//! history count u32, per epoch: epoch u64 | loss f32 | has_acc u8 | acc f32
//! ```
//!
//! The digest deliberately excludes the epoch count: training to 3 epochs
//! and later asking for 6 must resume at 3, not restart. Everything else
//! that shapes the trajectory (batch size, seed, smoothing, data size,
//! corruption model) is folded in, so a checkpoint from a different
//! configuration is ignored rather than resumed into.

use crate::train::EpochStats;
use crate::{NnError, Result};
use adv_store::codec::{fnv64, Reader, Writer};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"ADVCKPT1";

/// Where and how often a training loop checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointCfg {
    /// Checkpoint file path (conventionally `<model>.ckpt`).
    pub path: PathBuf,
    /// Save every `every` epochs (clamped to at least 1). The final epoch
    /// is always saved so a later run with a higher epoch target resumes
    /// instead of retraining.
    pub every: usize,
}

impl CheckpointCfg {
    /// Checkpoint every epoch at `path`.
    pub fn every_epoch(path: impl Into<PathBuf>) -> Self {
        CheckpointCfg {
            path: path.into(),
            every: 1,
        }
    }
}

/// A deserialized training checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct TrainCheckpoint {
    pub digest: u64,
    pub epochs_done: usize,
    pub model: Vec<u8>,
    pub optimizer: Vec<u8>,
    pub history: Vec<EpochStats>,
}

/// FNV-1a over a list of config words — the checkpoint digest.
pub(crate) fn digest_parts(parts: &[u64]) -> u64 {
    let mut w = Writer::with_capacity(parts.len() * 8);
    w.u64s(parts);
    fnv64(&w.into_vec())
}

fn encode(ckpt: &TrainCheckpoint) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(MAGIC)
        .u64(ckpt.digest)
        .usize(ckpt.epochs_done)
        .usize(ckpt.model.len())
        .bytes(&ckpt.model)
        .usize(ckpt.optimizer.len())
        .bytes(&ckpt.optimizer)
        .u32(ckpt.history.len() as u32);
    for s in &ckpt.history {
        w.usize(s.epoch)
            .f32(s.loss)
            .u8(u8::from(s.accuracy.is_some()))
            .f32(s.accuracy.unwrap_or(0.0));
    }
    w.into_vec()
}

fn decode(data: &[u8]) -> Result<TrainCheckpoint> {
    let mut r = Reader::new(data);
    r.magic(MAGIC, "checkpoint magic ADVCKPT1")?;
    let digest = r.u64()?;
    let epochs_done = r.usize()?;
    let len = r.usize()?;
    let model = r.bytes(len)?.to_vec();
    let len = r.usize()?;
    let optimizer = r.bytes(len)?.to_vec();
    let count = r.u32()?;
    if count > 1_000_000 {
        return Err(r.fail("a history of at most 1000000 epochs").into());
    }
    let history = (0..count)
        .map(|_| {
            let epoch = r.usize()?;
            let loss = r.f32()?;
            let has_acc = r.u8()?;
            let acc = r.f32()?;
            Ok(EpochStats {
                epoch,
                loss,
                accuracy: (has_acc == 1).then_some(acc),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    r.finish()?;
    Ok(TrainCheckpoint {
        digest,
        epochs_done,
        model,
        optimizer,
        history,
    })
}

/// Durably saves a checkpoint (envelope + atomic rename).
pub(crate) fn save(path: &Path, ckpt: &TrainCheckpoint) -> Result<()> {
    adv_store::save_artifact(path, &encode(ckpt))?;
    Ok(())
}

/// Loads the checkpoint at `path` if it exists, validates, and matches
/// `digest`. Corrupt files are quarantined (by the store, or here when the
/// CRC-valid payload fails to decode) and reported as absent — a checkpoint
/// is an optimisation, never a hard dependency. A digest mismatch (stale
/// config) also reads as absent; the next save overwrites it.
///
/// # Errors
///
/// Only unexpected I/O failures (permissions, etc.).
pub(crate) fn load_matching(path: &Path, digest: u64) -> Result<Option<TrainCheckpoint>> {
    let payload = match adv_store::load_artifact(path) {
        Ok(p) => p,
        Err(e) if e.is_not_found() => return Ok(None),
        Err(adv_store::StoreError::Corrupt { .. }) => return Ok(None),
        Err(e) => return Err(NnError::Store(e)),
    };
    match decode(&payload) {
        Ok(ckpt) if ckpt.digest == digest => Ok(Some(ckpt)),
        Ok(_) => Ok(None),
        Err(_) => {
            adv_store::quarantine(path);
            Ok(None)
        }
    }
}

/// Removes a checkpoint file — for callers to invoke once the final model
/// artifact has been durably saved and the checkpoint is dead weight.
///
/// # Errors
///
/// Filesystem errors (a missing file is fine).
pub fn clear_checkpoint(path: impl AsRef<Path>) -> Result<()> {
    match std::fs::remove_file(path.as_ref()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(NnError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            digest: 0xDEAD_BEEF,
            epochs_done: 3,
            model: vec![1, 2, 3, 4, 5],
            optimizer: vec![9, 8, 7],
            history: vec![
                EpochStats {
                    epoch: 0,
                    loss: 0.5,
                    accuracy: Some(0.8),
                },
                EpochStats {
                    epoch: 1,
                    loss: 0.25,
                    accuracy: None,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ckpt = sample();
        let decoded = decode(&encode(&ckpt)).unwrap();
        assert_eq!(decoded.digest, ckpt.digest);
        assert_eq!(decoded.epochs_done, ckpt.epochs_done);
        assert_eq!(decoded.model, ckpt.model);
        assert_eq!(decoded.optimizer, ckpt.optimizer);
        assert_eq!(decoded.history, ckpt.history);
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} parsed");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode(&padded).is_err(), "trailing byte accepted");
        for bad in adv_store::codec::single_bit_flips(&bytes) {
            let _ = decode(&bad);
        }
    }

    #[test]
    fn save_load_matching_filters_by_digest() {
        let dir = std::env::temp_dir().join("adv_nn_checkpoint_digest");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("model.ckpt");
        let ckpt = sample();
        save(&path, &ckpt).unwrap();
        assert!(load_matching(&path, ckpt.digest).unwrap().is_some());
        assert!(load_matching(&path, ckpt.digest ^ 1).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_reads_as_absent_and_quarantines() {
        let dir = std::env::temp_dir().join("adv_nn_checkpoint_corrupt");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let ckpt = sample();
        save(&path, &ckpt).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_matching(&path, ckpt.digest).unwrap().is_none());
        assert!(!path.exists(), "corrupt checkpoint should be quarantined");
        assert!(dir.join("model.ckpt.corrupt").exists());
        // Missing file is also absent, not an error.
        assert!(load_matching(&path, ckpt.digest).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(digest_parts(&[1, 2]), digest_parts(&[2, 1]));
        assert_ne!(digest_parts(&[]), digest_parts(&[0]));
    }

    #[test]
    fn encoded_bytes_and_digest_are_pinned() {
        let hash = adv_store::codec::fnv64(&encode(&sample()));
        assert_eq!(hash, 0x3796_c075_dccc_c016, "{hash:#018x}");
        let digest = digest_parts(&[1, 2, u64::MAX]);
        assert_eq!(digest, 0x2759_b163_7a57_8d9e, "{digest:#018x}");
    }
}
