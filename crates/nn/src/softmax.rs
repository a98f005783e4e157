//! Numerically stable softmax utilities.
//!
//! Used by the cross-entropy loss, by attack success checks, and by MagNet's
//! JSD detector — which compares `softmax(logit/T)` of an image and its
//! auto-encoded reconstruction.

use crate::{NnError, Result};
use adv_profile::{KernelKind, KernelScope, Work};
use adv_tensor::{Shape, Tensor};

/// Row-wise softmax of a `[batch, classes]` logit matrix.
///
/// Each row is shifted by its max before exponentiation for stability.
///
/// # Errors
///
/// Returns a rank error when `logits` is not rank 2.
pub fn softmax_rows(logits: &Tensor) -> Result<Tensor> {
    let probs = softmax_rows_with_temperature(logits, 1.0)?;
    Ok(probs)
}

/// Row-wise softmax of `logits / temperature`.
///
/// Temperature `T > 1` flattens the distribution; MagNet's JSD detectors use
/// `T = 10` and `T = 40`.
///
/// # Errors
///
/// Returns a rank error for non-matrix input and
/// [`NnError::InvalidArgument`] for non-positive temperature.
pub fn softmax_rows_with_temperature(logits: &Tensor, temperature: f32) -> Result<Tensor> {
    if logits.shape().rank() != 2 {
        return Err(NnError::Tensor(adv_tensor::TensorError::RankMismatch {
            expected: 2,
            actual: logits.shape().rank(),
        }));
    }
    if temperature <= 0.0 {
        return Err(NnError::InvalidArgument(format!(
            "temperature {temperature} must be positive"
        )));
    }
    let (n, k) = (logits.shape().dim(0), logits.shape().dim(1));
    let _prof = KernelScope::enter(KernelKind::Softmax, || Work::softmax(n, k));
    let mut out = vec![0.0f32; n * k];
    for (row_in, row_out) in logits
        .as_slice()
        .chunks_exact(k)
        .zip(out.chunks_exact_mut(k))
    {
        let max = row_in.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &v) in row_out.iter_mut().zip(row_in.iter()) {
            let e = ((v - max) / temperature).exp();
            *o = e;
            sum += e;
        }
        for o in row_out.iter_mut() {
            *o /= sum;
        }
    }
    Ok(Tensor::from_vec(out, Shape::matrix(n, k))?)
}

/// Row-wise log-softmax (stable `log(softmax(x))`).
///
/// # Errors
///
/// Returns a rank error when `logits` is not rank 2.
pub fn log_softmax_rows(logits: &Tensor) -> Result<Tensor> {
    if logits.shape().rank() != 2 {
        return Err(NnError::Tensor(adv_tensor::TensorError::RankMismatch {
            expected: 2,
            actual: logits.shape().rank(),
        }));
    }
    let (n, k) = (logits.shape().dim(0), logits.shape().dim(1));
    let _prof = KernelScope::enter(KernelKind::LogSoftmax, || Work::softmax(n, k));
    let mut out = vec![0.0f32; n * k];
    for (row_in, row_out) in logits
        .as_slice()
        .chunks_exact(k)
        .zip(out.chunks_exact_mut(k))
    {
        let max = row_in.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row_in.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
        for (o, &v) in row_out.iter_mut().zip(row_in.iter()) {
            *o = v - max - log_sum;
        }
    }
    Ok(Tensor::from_vec(out, Shape::matrix(n, k))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let l = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], Shape::matrix(2, 3)).unwrap();
        let p = softmax_rows(&l).unwrap();
        for row in p.as_slice().chunks_exact(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], Shape::matrix(1, 3)).unwrap();
        let b = a.add_scalar(100.0);
        let pa = softmax_rows(&a).unwrap();
        let pb = softmax_rows(&b).unwrap();
        for (x, y) in pa.as_slice().iter().zip(pb.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let l = Tensor::from_vec(vec![1000.0, 999.0], Shape::matrix(1, 2)).unwrap();
        let p = softmax_rows(&l).unwrap();
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        assert!(p.as_slice()[0] > p.as_slice()[1]);
    }

    #[test]
    fn high_temperature_flattens() {
        let l = Tensor::from_vec(vec![0.0, 5.0], Shape::matrix(1, 2)).unwrap();
        let sharp = softmax_rows_with_temperature(&l, 1.0).unwrap();
        let flat = softmax_rows_with_temperature(&l, 40.0).unwrap();
        assert!(flat.as_slice()[0] > sharp.as_slice()[0]);
        assert!((flat.as_slice()[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let l = Tensor::from_vec(vec![0.5, -1.0, 2.0], Shape::matrix(1, 3)).unwrap();
        let ls = log_softmax_rows(&l).unwrap();
        let p = softmax_rows(&l).unwrap();
        for (a, b) in ls.as_slice().iter().zip(p.as_slice()) {
            assert!((a - b.ln()).abs() < 1e-5);
        }
    }

    /// Each row-wise kernel run on a whole batch equals, bit for bit and
    /// row for row, the kernel run on that row alone, at the JSD
    /// detectors' temperatures too.
    #[test]
    fn row_kernels_are_batch_invariant() {
        let (n, k) = (6, 10);
        let logits = Tensor::from_fn(Shape::matrix(n, k), |i| {
            ((i * 7919 % 211) as f32 - 105.0) * 0.07
        });
        let kernels = |l: &Tensor| {
            vec![
                softmax_rows(l).unwrap(),
                softmax_rows_with_temperature(l, 10.0).unwrap(),
                softmax_rows_with_temperature(l, 40.0).unwrap(),
                log_softmax_rows(l).unwrap(),
            ]
        };
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let batch = kernels(&logits);
        for r in 0..n {
            let row = |t: &Tensor| t.slice_axis0(r, r + 1).unwrap();
            for (i, (whole, alone)) in batch.iter().zip(kernels(&row(&logits))).enumerate() {
                assert_eq!(bits(&row(whole)), bits(&alone), "kernel {i}, row {r}");
            }
        }
    }

    #[test]
    fn rejects_bad_temperature_and_rank() {
        let l = Tensor::zeros(Shape::matrix(1, 2));
        assert!(softmax_rows_with_temperature(&l, 0.0).is_err());
        assert!(softmax_rows(&Tensor::zeros(Shape::vector(2))).is_err());
    }
}
