//! The `ADVNN001` model format, encoded through `adv_store::codec`.
//!
//! The format stores the architecture ([`LayerSpec`] list), the construction
//! seed, and every parameter tensor, little-endian:
//!
//! ```text
//! magic "ADVNN001" (8 bytes)
//! seed: u64
//! spec_count: u32, then per spec: tag u8 + payload
//! param_count: u32, then per param: rank u32, dims (u64 each), values (f32)
//! ```
//!
//! Models round-trip exactly (bit-for-bit f32), which the evaluation harness
//! relies on to cache trained classifiers and MagNet auto-encoders between
//! runs.

use crate::layers::Activation;
use crate::{LayerSpec, NnError, Result, Sequential};
use adv_store::codec::{Reader, Writer};
use adv_tensor::ops::Conv2dSpec;
use adv_tensor::{Shape, Tensor};
use std::path::Path;

const MAGIC: &[u8; 8] = b"ADVNN001";

fn put_spec(w: &mut Writer, spec: &LayerSpec) {
    match spec {
        LayerSpec::Dense { inputs, outputs } => w.u8(0).usize(*inputs).usize(*outputs),
        LayerSpec::Conv2d(c) => w
            .u8(1)
            .usize(c.in_channels)
            .usize(c.out_channels)
            .usize(c.kh)
            .usize(c.kw)
            .usize(c.stride)
            .usize(c.padding),
        LayerSpec::Activation(a) => w.u8(2).u8(match a {
            Activation::Relu => 0,
            Activation::Sigmoid => 1,
            Activation::Tanh => 2,
        }),
        LayerSpec::MaxPool2d { k } => w.u8(3).usize(*k),
        LayerSpec::AvgPool2d { k } => w.u8(4).usize(*k),
        LayerSpec::Upsample2d { factor } => w.u8(5).usize(*factor),
        LayerSpec::Flatten => w.u8(6),
        LayerSpec::Reshape { item_shape } => w.u8(7).usize(item_shape.len()).usizes(item_shape),
        LayerSpec::Dropout { p } => w.u8(8).f32(*p),
    };
}

fn get_spec(r: &mut Reader<'_>) -> Result<LayerSpec> {
    Ok(match r.u8()? {
        0 => LayerSpec::Dense {
            inputs: r.usize()?,
            outputs: r.usize()?,
        },
        1 => LayerSpec::Conv2d(Conv2dSpec {
            in_channels: r.usize()?,
            out_channels: r.usize()?,
            kh: r.usize()?,
            kw: r.usize()?,
            stride: r.usize()?,
            padding: r.usize()?,
        }),
        2 => LayerSpec::Activation(match r.u8()? {
            0 => Activation::Relu,
            1 => Activation::Sigmoid,
            2 => Activation::Tanh,
            _ => return Err(r.fail("an activation tag 0..=2").into()),
        }),
        3 => LayerSpec::MaxPool2d { k: r.usize()? },
        4 => LayerSpec::AvgPool2d { k: r.usize()? },
        5 => LayerSpec::Upsample2d { factor: r.usize()? },
        6 => LayerSpec::Flatten,
        7 => {
            let n = r.usize()?;
            if n > 16 {
                return Err(r.fail("a reshape rank of at most 16").into());
            }
            LayerSpec::Reshape {
                item_shape: r.dims(n)?,
            }
        }
        8 => LayerSpec::Dropout { p: r.f32()? },
        _ => return Err(r.fail("a layer tag 0..=8").into()),
    })
}

/// Parameter values `spec` allocates; `None` when the count overflows.
fn param_values(spec: &LayerSpec) -> Option<usize> {
    match spec {
        LayerSpec::Dense { inputs, outputs } => inputs.checked_mul(*outputs)?.checked_add(*outputs),
        LayerSpec::Conv2d(c) => [c.in_channels, c.kh, c.kw]
            .iter()
            .try_fold(c.out_channels, |n, &d| n.checked_mul(d))?
            .checked_add(c.out_channels),
        _ => Some(0),
    }
}

pub(crate) fn put_tensor(w: &mut Writer, t: &Tensor) {
    let dims = t.shape().dims();
    w.u32(dims.len() as u32).usizes(dims).f32s(t.as_slice());
}

pub(crate) fn get_tensor(r: &mut Reader<'_>) -> Result<Tensor> {
    let rank = r.u32()? as usize;
    if rank > 8 {
        return Err(r.fail("a tensor rank of at most 8").into());
    }
    let shape = Shape::new(r.dims(rank)?);
    let data = r.f32s(shape.volume())?;
    Tensor::from_vec(data, shape).map_err(NnError::Tensor)
}

/// Serializes a network (architecture + weights) to bytes.
pub fn model_to_bytes(net: &Sequential) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(MAGIC).u64(net.seed()).u32(net.specs().len() as u32);
    for spec in net.specs() {
        put_spec(&mut w, spec);
    }
    let params = net.params();
    w.u32(params.len() as u32);
    for p in params {
        put_tensor(&mut w, &p.value);
    }
    w.into_vec()
}

/// Reconstructs a network from bytes produced by [`model_to_bytes`].
///
/// # Errors
///
/// Returns [`NnError::Serialization`] on truncated or corrupted input, or
/// when the stored parameter tensors disagree with the architecture.
pub fn model_from_bytes(data: &[u8]) -> Result<Sequential> {
    let mut r = Reader::new(data);
    r.magic(MAGIC, "model magic ADVNN001")?;
    let seed = r.u64()?;
    let spec_count = r.u32()? as usize;
    if spec_count > 10_000 {
        return Err(r.fail("a layer count of at most 10000").into());
    }
    let specs = (0..spec_count)
        .map(|_| get_spec(&mut r))
        .collect::<Result<Vec<_>>>()?;
    // The parameters the specs would allocate must be backed by the bytes
    // that remain, so a corrupt size cannot make `from_specs` allocate what
    // the file does not hold.
    let values = specs
        .iter()
        .try_fold(0usize, |n, spec| n.checked_add(param_values(spec)?));
    if values
        .and_then(|n| n.checked_mul(4))
        .is_none_or(|b| b > r.remaining())
    {
        return Err(r.fail("parameters for the layer specs").into());
    }
    let mut net = Sequential::from_specs(&specs, seed)?;
    let param_count = r.u32()? as usize;
    {
        let mut params = net.params_mut();
        if params.len() != param_count {
            return Err(NnError::Serialization(format!(
                "architecture has {} parameters, file has {param_count}",
                params.len()
            )));
        }
        for p in params.iter_mut() {
            let t = get_tensor(&mut r)?;
            if t.shape() != p.value.shape() {
                return Err(NnError::Serialization(format!(
                    "parameter shape {} does not match architecture {}",
                    t.shape(),
                    p.value.shape()
                )));
            }
            p.value = t;
        }
    }
    // A valid model file ends exactly at the last parameter value. Trailing
    // bytes mean the file was not produced by `model_to_bytes` (appended
    // garbage, a concatenation accident, or corruption the checksum layer
    // did not cover) — reject rather than silently ignore them.
    r.finish()?;
    Ok(net)
}

/// Writes a network to `path` through the artifact store: the `ADVNN001`
/// image is sealed in a CRC-checked envelope and committed with the atomic
/// temp-write/fsync/rename sequence, so a crash mid-save leaves the previous
/// model (or nothing), never a torn file.
///
/// # Errors
///
/// Returns I/O errors from the filesystem (as [`NnError::Store`]).
pub fn save_model(net: &Sequential, path: impl AsRef<Path>) -> Result<()> {
    adv_store::save_artifact(path, &model_to_bytes(net))?;
    Ok(())
}

/// Reads a network from `path`, validating the store envelope before
/// decoding. A file that fails validation — or that validates but does not
/// decode as a model — is quarantined to `<name>.corrupt` so the caller's
/// next run regenerates it instead of re-reading the same bad bytes.
///
/// # Errors
///
/// Returns [`NnError::Store`] for missing or corrupt files (check
/// [`adv_store::StoreError::is_not_found`]) and [`NnError::Serialization`]
/// for CRC-valid payloads that are not a model.
pub fn load_model(path: impl AsRef<Path>) -> Result<Sequential> {
    let path = path.as_ref();
    let payload = adv_store::load_artifact(path)?;
    match model_from_bytes(&payload) {
        Ok(net) => Ok(net),
        Err(e) => {
            // CRC-valid but undecodable (format drift, foreign file): just
            // as unusable as a corrupt one.
            adv_store::quarantine(path);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    fn sample_net() -> Sequential {
        Sequential::from_specs(
            &[
                LayerSpec::Conv2d(Conv2dSpec::same(1, 3, 3)),
                LayerSpec::Activation(Activation::Sigmoid),
                LayerSpec::AvgPool2d { k: 2 },
                LayerSpec::Flatten,
                LayerSpec::Dense {
                    inputs: 3 * 2 * 2,
                    outputs: 4,
                },
                LayerSpec::Dropout { p: 0.25 },
            ],
            99,
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let net = sample_net();
        let bytes = model_to_bytes(&net);
        let restored = model_from_bytes(&bytes).unwrap();
        assert_eq!(restored.specs(), net.specs());
        assert_eq!(restored.seed(), net.seed());
        for (a, b) in net.params().iter().zip(restored.params()) {
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        let mut net = sample_net();
        let mut restored = model_from_bytes(&model_to_bytes(&net)).unwrap();
        let x = Tensor::from_fn(Shape::nchw(2, 1, 4, 4), |i| (i % 13) as f32 * 0.07);
        let ya = net.forward(&x, Mode::Eval).unwrap();
        let yb = restored.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ya, yb);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            model_from_bytes(b"NOTMODEL"),
            Err(NnError::Serialization(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("adv_nn_serialize_test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("model.advnn");
        let net = sample_net();
        save_model(&net, &path).unwrap();
        let restored = load_model(&path).unwrap();
        assert_eq!(restored.specs(), net.specs());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trailing_garbage_rejected() {
        let net = sample_net();
        let bytes = model_to_bytes(&net);
        assert!(model_from_bytes(&bytes).is_ok());
        // Any appended tail — even a single byte — must fail decode.
        for extra in [1usize, 4, 64] {
            let mut padded = bytes.clone();
            padded.extend(std::iter::repeat_n(0xAB, extra));
            let err = model_from_bytes(&padded).unwrap_err();
            assert!(
                matches!(err, NnError::Serialization(ref m) if m.contains("trailing")),
                "{extra} extra bytes: {err}"
            );
        }
        // A duplicated file (concatenation accident) also fails.
        let doubled: Vec<u8> = bytes.iter().chain(bytes.iter()).copied().collect();
        assert!(model_from_bytes(&doubled).is_err());
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        // Truncation fuzz: a kill mid-write can leave any prefix of the
        // image; every single one must error — never panic, never "parse".
        let bytes = model_to_bytes(&sample_net());
        for cut in 0..bytes.len() {
            assert!(
                model_from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes unexpectedly parsed",
                bytes.len()
            );
        }
        // Nor may any single-bit corruption panic it.
        for bad in adv_store::codec::single_bit_flips(&bytes) {
            let _ = model_from_bytes(&bad);
        }
    }

    #[test]
    fn legacy_unenveloped_file_is_quarantined() {
        // Files written by the pre-store `fs::write` path carry no envelope;
        // the strict loader must reject and quarantine them so callers
        // retrain instead of looping on the same bytes.
        let dir = std::env::temp_dir().join("adv_nn_serialize_legacy");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.advnn");
        std::fs::write(&path, model_to_bytes(&sample_net())).unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(matches!(
            err,
            NnError::Store(adv_store::StoreError::Corrupt { .. })
        ));
        assert!(!path.exists(), "legacy file should be moved aside");
        assert!(dir.join("legacy.advnn.corrupt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn valid_envelope_bad_payload_is_quarantined() {
        let dir = std::env::temp_dir().join("adv_nn_serialize_badpayload");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.advnn");
        // CRC-valid envelope around bytes that are not a model.
        adv_store::save_artifact(&path, b"not a model at all").unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(matches!(err, NnError::Serialization(_)), "{err}");
        assert!(!path.exists());
        assert!(dir.join("model.advnn.corrupt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_tag_rejected() {
        let mut bytes = model_to_bytes(&sample_net());
        // First spec tag sits right after magic(8) + seed(8) + count(4).
        bytes[20] = 250;
        assert!(model_from_bytes(&bytes).is_err());
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // Parameters are overwritten with fixed values so the pin does not
        // depend on the host's libm through the random initializer.
        let mut net = sample_net();
        for (k, p) in net.params_mut().into_iter().enumerate() {
            for (i, v) in p.value.as_mut_slice().iter_mut().enumerate() {
                *v = (k * 31 + i) as f32 / 64.0 - 1.0;
            }
        }
        let bytes = model_to_bytes(&net);
        let hash = adv_store::codec::fnv64(&bytes);
        assert_eq!(hash, 0xc00b_6ef1_ab56_287a, "{hash:#018x}");
    }

    #[test]
    fn a_tensor_header_past_the_input_is_rejected() {
        let dense = |inputs, outputs| {
            let mut w = Writer::new();
            w.bytes(MAGIC).u64(7).u32(1);
            put_spec(&mut w, &LayerSpec::Dense { inputs, outputs });
            w.u32(2);
            w
        };
        // A parameter of rank 1 and dim 2^62, with no values behind it.
        let mut w = dense(1, 1);
        w.u32(1).u64(1 << 62);
        let err = model_from_bytes(&w.into_vec()).unwrap_err();
        assert!(matches!(err, NnError::Serialization(_)), "{err}");
        // Specs whose parameters the input cannot hold are not built.
        let err = model_from_bytes(&dense(1 << 40, 1 << 20).into_vec()).unwrap_err();
        assert!(err.to_string().contains("parameters"), "{err}");
    }
}
