//! On-disk cache of attack results.
//!
//! Crafting adversarial examples is by far the most expensive step, and the
//! same (attack config, κ, scenario) pair appears in several tables and
//! figures. Because attack sets are regenerated deterministically from the
//! scale seed, a cache entry only needs the adversarial tensor and success
//! flags; distortions are recomputed against the fresh originals on load.
//!
//! Format (little-endian): magic `ADVATK01`, rank (u32), dims (u64 each),
//! tensor data (f32), success flags (u8).

use crate::{EvalError, Result};
use adv_attacks::AttackOutcome;
use adv_store::codec::{fnv64, DecodeError, Reader, Writer};
use adv_tensor::{Shape, Tensor};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"ADVATK01";

/// Sanitizes an attack name (or any label) into a filesystem-safe slug.
pub fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// A cheap content fingerprint of the attacked image batch (FNV-1a over the
/// tensor's shape *and* raw bits). Embedded in cache file names so that
/// entries computed against a *different* attack set (e.g. after a
/// data-generator change) can never be mistaken for current ones.
///
/// The dimensions are mixed in first: two batches with the same values in a
/// different arrangement (`[2, 8]` vs `[4, 4]`, or a transposed layout that
/// happens to serialize identically) must not collide.
pub fn content_fingerprint(images: &Tensor) -> u64 {
    let dims = images.shape().dims();
    let mut w = Writer::with_capacity(1 + dims.len() * 8 + images.len() * 4);
    w.u8(dims.len() as u8).usizes(dims).f32s(images.as_slice());
    fnv64(&w.into_vec())
}

/// The cache file path for an attack run.
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per component of the cache key"
)]
pub fn attack_cache_path(
    dir: impl AsRef<Path>,
    scenario: &str,
    attack_name: &str,
    n: usize,
    iterations: usize,
    bs_steps: usize,
    initial_c: f32,
    lr: f32,
    seed: u64,
    fingerprint: u64,
) -> PathBuf {
    dir.as_ref().join(format!(
        "{scenario}_{}_n{n}_i{iterations}_b{bs_steps}_c{initial_c}_lr{lr}_s{seed}_h{fingerprint:016x}.atk",
        slug(attack_name)
    ))
}

/// Serializes an attack outcome's adversarial tensor and success flags.
pub fn encode_outcome(outcome: &AttackOutcome) -> Vec<u8> {
    let t = &outcome.adversarial;
    let mut w = Writer::with_capacity(16 + t.len() * 4 + outcome.success.len());
    w.bytes(MAGIC)
        .u32(t.shape().rank() as u32)
        .usizes(t.shape().dims())
        .f32s(t.as_slice());
    for &s in &outcome.success {
        w.u8(u8::from(s));
    }
    w.into_vec()
}

/// Decodes a cache entry back into `(adversarial, success)`.
///
/// # Errors
///
/// Returns [`EvalError::InvalidConfig`] for malformed or truncated entries.
pub fn decode_outcome(data: &[u8]) -> Result<(Tensor, Vec<bool>)> {
    let (shape, values, success) =
        read_outcome(data).map_err(|e| EvalError::InvalidConfig(format!("attack cache: {e}")))?;
    Ok((Tensor::from_vec(values, shape)?, success))
}

fn read_outcome(data: &[u8]) -> std::result::Result<(Shape, Vec<f32>, Vec<bool>), DecodeError> {
    let mut r = Reader::new(data);
    r.magic(MAGIC, "cache magic ADVATK01")?;
    let rank = r.u32()? as usize;
    if rank > 8 {
        return Err(r.fail("a rank of at most 8"));
    }
    let shape = Shape::new(r.dims(rank)?);
    let values = r.f32s(shape.volume())?;
    let n = shape.dims().first().copied().unwrap_or(0);
    let success = r.bytes(n)?.iter().map(|&b| b != 0).collect();
    r.finish()?;
    Ok((shape, values, success))
}

/// Records a rejected cache entry: bumps `store.cache_rejects` and logs the
/// reason, so a silent recraft is always explainable from the run log.
fn reject_cache(path: &Path, reason: &str) {
    adv_profile::count(adv_store::metric_names::CACHE_REJECTS, 1);
    eprintln!(
        "attack cache: rejecting {} ({reason}); recrafting",
        path.display()
    );
}

/// Loads a cached outcome, recomputing distortions against `original`.
/// Returns `None` — with the reject counted and logged, never silently —
/// when the entry is missing, fails envelope validation (quarantined by the
/// store), does not decode, or does not match the original batch.
pub fn load_outcome(path: &Path, original: &Tensor) -> Option<AttackOutcome> {
    let payload = match adv_store::load_artifact(path) {
        Ok(p) => p,
        Err(e) if e.is_not_found() => return None,
        Err(e) => {
            reject_cache(path, &e.to_string());
            return None;
        }
    };
    let (adversarial, success) = match decode_outcome(&payload) {
        Ok(entry) => entry,
        Err(e) => {
            // CRC-valid but undecodable: quarantine like any corrupt file.
            adv_store::quarantine(path);
            reject_cache(path, &e.to_string());
            return None;
        }
    };
    if adversarial.shape() != original.shape() || success.len() != original.shape().dim(0) {
        reject_cache(
            path,
            &format!(
                "entry shape {} does not match attack set {}",
                adversarial.shape(),
                original.shape()
            ),
        );
        return None;
    }
    match AttackOutcome::from_images(original, adversarial, success) {
        Ok(outcome) => Some(outcome),
        Err(e) => {
            reject_cache(path, &e.to_string());
            None
        }
    }
}

/// Stores an outcome at `path` (creating parent directories) through the
/// artifact store: enveloped, CRC-checked, atomically renamed.
///
/// # Errors
///
/// Returns filesystem errors.
pub fn store_outcome(path: &Path, outcome: &AttackOutcome) -> Result<()> {
    adv_store::save_artifact(path, &encode_outcome(outcome))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> (Tensor, AttackOutcome) {
        let orig = Tensor::from_fn(Shape::nchw(3, 1, 2, 2), |i| (i % 7) as f32 / 7.0);
        let mut adv = orig.clone();
        adv.as_mut_slice()[0] += 0.5;
        let outcome = AttackOutcome::from_images(&orig, adv, vec![true, false, true]).unwrap();
        (orig, outcome)
    }

    #[test]
    fn roundtrip_preserves_outcome() {
        let (orig, outcome) = sample_outcome();
        let bytes = encode_outcome(&outcome);
        let (adv, success) = decode_outcome(&bytes).unwrap();
        assert_eq!(adv, outcome.adversarial);
        assert_eq!(success, outcome.success);
        let restored = AttackOutcome::from_images(&orig, adv, success).unwrap();
        assert_eq!(restored.l1, outcome.l1);
        assert_eq!(restored.l2, outcome.l2);
    }

    #[test]
    fn file_roundtrip_and_mismatch_rejection() {
        let dir = std::env::temp_dir().join("adv_eval_cache_test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("x.atk");
        let (orig, outcome) = sample_outcome();
        store_outcome(&path, &outcome).unwrap();
        let loaded = load_outcome(&path, &orig).unwrap();
        assert_eq!(loaded.success, outcome.success);
        // A different original shape must refuse the cache entry.
        let other = Tensor::zeros(Shape::nchw(2, 1, 2, 2));
        assert!(load_outcome(&path, &other).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_none() {
        let path = std::env::temp_dir().join("adv_eval_cache_missing.atk");
        let orig = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(load_outcome(&path, &orig).is_none());
    }

    #[test]
    fn corrupted_entries_rejected() {
        let (_, outcome) = sample_outcome();
        let bytes = encode_outcome(&outcome);
        assert!(decode_outcome(b"NOTMAGIC1234").is_err());
        for cut in 0..bytes.len() {
            assert!(decode_outcome(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        for bad in adv_store::codec::single_bit_flips(&bytes) {
            let _ = decode_outcome(&bad);
        }
    }

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(slug("C&W(L2, kappa=15)"), "c_w_l2__kappa_15_");
        assert_eq!(slug("EAD(EN, beta=0.01)"), "ead_en__beta_0.01_");
        assert!(slug("a/b\\c:d")
            .chars()
            .all(|c| c != '/' && c != '\\' && c != ':'));
    }

    #[test]
    fn cache_path_encodes_parameters() {
        let p = attack_cache_path(
            "/tmp/x", "mnist", "EAD(EN)", 32, 60, 4, 0.1, 0.02, 2018, 0xDEAD,
        );
        let s = p.to_string_lossy();
        assert!(s.contains("mnist"));
        assert!(s.contains("n32"));
        assert!(s.contains("i60"));
        assert!(s.contains("b4"));
        assert!(s.contains("s2018"));
        assert!(s.contains("000000000000dead"));
    }

    #[test]
    fn fingerprint_differs_on_content_change() {
        let a = Tensor::from_fn(Shape::nchw(1, 1, 3, 3), |i| i as f32);
        let mut b = a.clone();
        b.as_mut_slice()[4] += 1e-3;
        assert_ne!(content_fingerprint(&a), content_fingerprint(&b));
        assert_eq!(content_fingerprint(&a), content_fingerprint(&a.clone()));
    }

    #[test]
    fn fingerprint_differs_on_shape_rearrangement() {
        // Same 16 values, different arrangement: these serialized identically
        // before dims were mixed into the hash.
        let values: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
        let a = Tensor::from_vec(values.clone(), Shape::new(vec![2, 8])).unwrap();
        let b = Tensor::from_vec(values.clone(), Shape::new(vec![4, 4])).unwrap();
        let c = Tensor::from_vec(values, Shape::new(vec![16])).unwrap();
        assert_ne!(content_fingerprint(&a), content_fingerprint(&b));
        assert_ne!(content_fingerprint(&a), content_fingerprint(&c));
        assert_ne!(content_fingerprint(&b), content_fingerprint(&c));
    }

    #[test]
    fn corrupt_cache_file_is_quarantined_and_rejected() {
        let dir = std::env::temp_dir().join("adv_eval_cache_corrupt_test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("x.atk");
        let (orig, outcome) = sample_outcome();
        store_outcome(&path, &outcome).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_outcome(&path, &orig).is_none());
        assert!(!path.exists(), "corrupt entry should be moved aside");
        assert!(dir.join("x.atk.corrupt").exists());
        // A fresh store_outcome repopulates and loads cleanly again.
        store_outcome(&path, &outcome).unwrap();
        assert!(load_outcome(&path, &orig).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_strict_prefix_of_cache_file_is_rejected() {
        let dir = std::env::temp_dir().join("adv_eval_cache_prefix_test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("x.atk");
        let (orig, outcome) = sample_outcome();
        store_outcome(&path, &outcome).unwrap();
        let full = std::fs::read(&path).unwrap();
        let trunc = dir.join("trunc.atk");
        for cut in 0..full.len() {
            std::fs::write(&trunc, &full[..cut]).unwrap();
            assert!(
                load_outcome(&trunc, &orig).is_none(),
                "prefix of {cut}/{} bytes must not load",
                full.len()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encoded_bytes_and_fingerprint_are_pinned() {
        let (orig, outcome) = sample_outcome();
        let hash = adv_store::codec::fnv64(&encode_outcome(&outcome));
        assert_eq!(hash, 0xbc78_9d73_33b6_ed7e, "{hash:#018x}");
        let fingerprint = content_fingerprint(&orig);
        assert_eq!(fingerprint, 0x84a3_dd86_d7f9_ac0b, "{fingerprint:#018x}");
    }

    /// A rank-`dims.len()` cache header with no data behind it.
    fn crafted_entry(dims: &[u64]) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC).u32(dims.len() as u32).u64s(dims);
        w.into_vec()
    }

    #[test]
    fn a_tensor_header_past_the_input_is_rejected() {
        assert!(decode_outcome(&crafted_entry(&[1 << 62])).is_err());
        let err = decode_outcome(&crafted_entry(&[1 << 32, 1 << 32])).unwrap_err();
        assert!(err.to_string().contains("dims"), "{err}");
    }
}
