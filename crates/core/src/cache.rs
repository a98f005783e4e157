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
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    };
    mix(images.shape().rank() as u8);
    for &d in images.shape().dims() {
        for b in (d as u64).to_le_bytes() {
            mix(b);
        }
    }
    for &v in images.as_slice() {
        for b in v.to_le_bytes() {
            mix(b);
        }
    }
    hash
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
    let mut buf = Vec::with_capacity(16 + t.len() * 4 + outcome.success.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(t.shape().rank() as u32).to_le_bytes());
    for &d in t.shape().dims() {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for &v in t.as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.extend(outcome.success.iter().map(|&s| s as u8));
    buf
}

/// Decodes a cache entry back into `(adversarial, success)`.
///
/// # Errors
///
/// Returns [`EvalError::InvalidConfig`] for malformed or truncated entries.
pub fn decode_outcome(data: &[u8]) -> Result<(Tensor, Vec<bool>)> {
    let fail = |msg: &str| EvalError::InvalidConfig(format!("attack cache: {msg}"));
    if data.len() < 12 || &data[..8] != MAGIC {
        return Err(fail("bad magic"));
    }
    let rank = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes")) as usize;
    if rank > 8 {
        return Err(fail("implausible rank"));
    }
    let mut off = 12;
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let bytes: [u8; 8] = data
            .get(off..off + 8)
            .ok_or_else(|| fail("truncated dims"))?
            .try_into()
            .expect("8 bytes");
        dims.push(u64::from_le_bytes(bytes) as usize);
        off += 8;
    }
    let shape = Shape::new(dims);
    let vol = shape.volume();
    let n = shape.dims().first().copied().unwrap_or(0);
    if data.len() != off + vol * 4 + n {
        return Err(fail("length mismatch"));
    }
    let mut values = Vec::with_capacity(vol);
    for chunk in data[off..off + vol * 4].chunks_exact(4) {
        values.push(f32::from_le_bytes(chunk.try_into().expect("4 bytes")));
    }
    let success = data[off + vol * 4..].iter().map(|&b| b != 0).collect();
    Ok((Tensor::from_vec(values, shape)?, success))
}

/// Records a rejected cache entry: bumps `store.cache_rejects` and logs the
/// reason, so a silent recraft is always explainable from the run log.
fn reject_cache(path: &Path, reason: &str) {
    adv_store::bump_counter(adv_store::metric_names::CACHE_REJECTS);
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
        assert!(decode_outcome(&bytes[..10]).is_err());
        assert!(decode_outcome(b"NOTMAGIC1234").is_err());
        let mut truncated = bytes.clone();
        truncated.pop();
        assert!(decode_outcome(&truncated).is_err());
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
}
