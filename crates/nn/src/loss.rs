//! Loss functions.
//!
//! Every loss returns `(value, gradient)` where the gradient is with respect
//! to the first argument (predictions / logits), averaged over the batch.
//! The MSE/MAE pair matters to the paper: MagNet's default auto-encoders are
//! trained with mean squared error, and Figures 12–13 compare that against
//! mean absolute error to show the weakness to L1 attacks is not an artifact
//! of the L2 reconstruction loss.

use crate::softmax::{log_softmax_rows, softmax_rows};
use crate::{NnError, Result};
use adv_tensor::Tensor;

/// Which reconstruction loss an auto-encoder trains with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconstructionLoss {
    /// Mean squared error — MagNet's default.
    MeanSquaredError,
    /// Mean absolute error — the variant in paper Figures 12–13.
    MeanAbsoluteError,
}

impl ReconstructionLoss {
    /// Computes the loss value and gradient for this variant.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `pred` and `target` disagree.
    pub fn compute(self, pred: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
        match self {
            ReconstructionLoss::MeanSquaredError => mse(pred, target),
            ReconstructionLoss::MeanAbsoluteError => mae(pred, target),
        }
    }
}

/// Mean squared error `mean((pred − target)²)` with gradient
/// `2(pred − target)/N`.
///
/// # Errors
///
/// Returns a shape error when the operands disagree.
pub fn mse(pred: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
    let diff = pred.sub(target)?;
    let n = diff.len().max(1) as f32;
    let loss = diff.map(|v| v * v).sum() / n;
    let grad = diff.scale(2.0 / n);
    Ok((loss, grad))
}

/// Mean absolute error `mean(|pred − target|)` with (sub)gradient
/// `sign(pred − target)/N`.
///
/// # Errors
///
/// Returns a shape error when the operands disagree.
pub fn mae(pred: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
    let diff = pred.sub(target)?;
    let n = diff.len().max(1) as f32;
    let loss = diff.map(f32::abs).sum() / n;
    let grad = diff.map(|v| {
        if v > 0.0 {
            1.0
        } else if v < 0.0 {
            -1.0
        } else {
            0.0
        }
    });
    Ok((loss, grad.scale(1.0 / n)))
}

/// Softmax cross-entropy over `[batch, classes]` logits against integer
/// labels, averaged over the batch. The gradient uses the standard
/// `(softmax − one_hot)/batch` form.
///
/// # Errors
///
/// Returns a rank error for non-matrix logits, a length error when the label
/// count differs from the batch, and [`NnError::InvalidLabel`] for labels
/// outside the class range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    if logits.shape().rank() != 2 {
        return Err(NnError::Tensor(adv_tensor::TensorError::RankMismatch {
            expected: 2,
            actual: logits.shape().rank(),
        }));
    }
    let (n, k) = (logits.shape().dim(0), logits.shape().dim(1));
    if labels.len() != n {
        return Err(NnError::Tensor(adv_tensor::TensorError::LengthMismatch {
            expected: n,
            actual: labels.len(),
        }));
    }
    for &label in labels {
        if label >= k {
            return Err(NnError::InvalidLabel { label, classes: k });
        }
    }
    let log_probs = log_softmax_rows(logits)?;
    let mut loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        loss -= log_probs.as_slice()[i * k + label];
    }
    loss /= n as f32;

    let mut grad = softmax_rows(logits)?;
    let g = grad.as_mut_slice();
    for (i, &label) in labels.iter().enumerate() {
        g[i * k + label] -= 1.0;
    }
    let grad = grad.scale(1.0 / n as f32);
    Ok((loss, grad))
}

/// Softmax cross-entropy with **label smoothing**: the target distribution
/// puts `1 − ε` on the true class and `ε/(K−1)` on the rest.
///
/// Smoothing caps the logit margins a classifier can earn, which keeps its
/// confidence in the regime where confidence-κ attack sweeps are meaningful
/// (an over-confident victim needs enormous perturbations at moderate κ and
/// distorts the paper's defense curves).
///
/// # Errors
///
/// Same as [`softmax_cross_entropy`], plus [`NnError::InvalidArgument`] when
/// `epsilon` is outside `[0, 1)`.
pub fn softmax_cross_entropy_smoothed(
    logits: &Tensor,
    labels: &[usize],
    epsilon: f32,
) -> Result<(f32, Tensor)> {
    if !(0.0..1.0).contains(&epsilon) {
        return Err(NnError::InvalidArgument(format!(
            "label smoothing {epsilon} outside [0, 1)"
        )));
    }
    if epsilon == 0.0 {
        return softmax_cross_entropy(logits, labels);
    }
    if logits.shape().rank() != 2 {
        return Err(NnError::Tensor(adv_tensor::TensorError::RankMismatch {
            expected: 2,
            actual: logits.shape().rank(),
        }));
    }
    let (n, k) = (logits.shape().dim(0), logits.shape().dim(1));
    if labels.len() != n {
        return Err(NnError::Tensor(adv_tensor::TensorError::LengthMismatch {
            expected: n,
            actual: labels.len(),
        }));
    }
    for &label in labels {
        if label >= k {
            return Err(NnError::InvalidLabel { label, classes: k });
        }
    }
    let off = epsilon / (k - 1).max(1) as f32;
    let on = 1.0 - epsilon;
    let log_probs = log_softmax_rows(logits)?;
    let mut loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        for j in 0..k {
            let target = if j == label { on } else { off };
            loss -= target * log_probs.as_slice()[i * k + j];
        }
    }
    loss /= n as f32;

    let mut grad = softmax_rows(logits)?;
    let g = grad.as_mut_slice();
    for (i, &label) in labels.iter().enumerate() {
        for j in 0..k {
            let target = if j == label { on } else { off };
            g[i * k + j] -= target;
        }
    }
    let grad = grad.scale(1.0 / n as f32);
    Ok((loss, grad))
}

/// Classification accuracy of logits against labels (fraction correct).
///
/// # Errors
///
/// Returns a rank error for non-matrix logits or mismatched label counts.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let preds = logits.argmax_rows().map_err(NnError::Tensor)?;
    if preds.len() != labels.len() {
        return Err(NnError::Tensor(adv_tensor::TensorError::LengthMismatch {
            expected: preds.len(),
            actual: labels.len(),
        }));
    }
    if preds.is_empty() {
        return Ok(0.0);
    }
    let correct = preds
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    Ok(correct as f32 / labels.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_tensor::Shape;

    fn t(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), Shape::matrix(r, c)).unwrap()
    }

    #[test]
    fn mse_known_value() {
        let p = t(&[1.0, 2.0], 1, 2);
        let y = t(&[0.0, 0.0], 1, 2);
        let (loss, grad) = mse(&p, &y).unwrap();
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn mae_known_value() {
        let p = t(&[1.0, -2.0], 1, 2);
        let y = t(&[0.0, 0.0], 1, 2);
        let (loss, grad) = mae(&p, &y).unwrap();
        assert!((loss - 1.5).abs() < 1e-6);
        assert_eq!(grad.as_slice(), &[0.5, -0.5]);
    }

    #[test]
    fn mse_zero_at_target() {
        let p = t(&[0.3, 0.7], 1, 2);
        let (loss, grad) = mse(&p, &p).unwrap();
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let good = t(&[10.0, 0.0], 1, 2);
        let bad = t(&[0.0, 10.0], 1, 2);
        let (l_good, _) = softmax_cross_entropy(&good, &[0]).unwrap();
        let (l_bad, _) = softmax_cross_entropy(&bad, &[0]).unwrap();
        assert!(l_good < l_bad);
        assert!(l_good < 0.01);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let logits = t(&[0.5, -0.3, 1.2, -1.0, 0.7, 0.1], 2, 3);
        let labels = [2usize, 1usize];
        let (_, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels).unwrap();
            let (fm, _) = softmax_cross_entropy(&lm, &labels).unwrap();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - grad.as_slice()[i]).abs() < 1e-2,
                "grad[{i}]: {fd} vs {}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn cross_entropy_rejects_bad_labels() {
        let logits = t(&[0.0, 0.0], 1, 2);
        assert!(matches!(
            softmax_cross_entropy(&logits, &[5]),
            Err(NnError::InvalidLabel { .. })
        ));
        assert!(softmax_cross_entropy(&logits, &[0, 1]).is_err());
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = t(&[0.9, 0.1, 0.2, 0.8], 2, 2);
        assert_eq!(accuracy(&logits, &[0, 1]).unwrap(), 1.0);
        assert_eq!(accuracy(&logits, &[1, 0]).unwrap(), 0.0);
        assert_eq!(accuracy(&logits, &[0, 0]).unwrap(), 0.5);
    }

    #[test]
    fn smoothed_loss_matches_unsmoothed_at_zero() {
        let logits = t(&[0.5, -0.3, 1.2], 1, 3);
        let (a, ga) = softmax_cross_entropy(&logits, &[2]).unwrap();
        let (b, gb) = softmax_cross_entropy_smoothed(&logits, &[2], 0.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(ga, gb);
    }

    #[test]
    fn smoothed_gradient_matches_finite_differences() {
        let logits = t(&[0.5, -0.3, 1.2, -1.0, 0.7, 0.1], 2, 3);
        let labels = [2usize, 1usize];
        let eps_smooth = 0.1;
        let (_, grad) = softmax_cross_entropy_smoothed(&logits, &labels, eps_smooth).unwrap();
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let (fp, _) = softmax_cross_entropy_smoothed(&lp, &labels, eps_smooth).unwrap();
            let (fm, _) = softmax_cross_entropy_smoothed(&lm, &labels, eps_smooth).unwrap();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - grad.as_slice()[i]).abs() < 1e-2,
                "grad[{i}]: {fd} vs {}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn smoothing_bounds_the_optimal_margin() {
        // With smoothing, pushing the true logit to infinity *increases*
        // loss beyond a point — the gradient on the true class flips sign.
        let small = t(&[2.0, 0.0], 1, 2);
        let huge = t(&[50.0, 0.0], 1, 2);
        let (_, g_small) = softmax_cross_entropy_smoothed(&small, &[0], 0.1).unwrap();
        let (_, g_huge) = softmax_cross_entropy_smoothed(&huge, &[0], 0.1).unwrap();
        assert!(g_small.as_slice()[0] < 0.0); // still wants to grow
        assert!(g_huge.as_slice()[0] > 0.0); // over-confident: pushed back
    }

    #[test]
    fn smoothed_loss_validates_epsilon() {
        let logits = t(&[0.0, 0.0], 1, 2);
        assert!(softmax_cross_entropy_smoothed(&logits, &[0], 1.0).is_err());
        assert!(softmax_cross_entropy_smoothed(&logits, &[0], -0.1).is_err());
    }

    #[test]
    fn reconstruction_loss_dispatch() {
        let p = t(&[1.0], 1, 1);
        let y = t(&[0.0], 1, 1);
        let (l2, _) = ReconstructionLoss::MeanSquaredError
            .compute(&p, &y)
            .unwrap();
        let (l1, _) = ReconstructionLoss::MeanAbsoluteError
            .compute(&p, &y)
            .unwrap();
        assert_eq!(l2, 1.0);
        assert_eq!(l1, 1.0);
    }
}
