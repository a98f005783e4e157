use crate::Result;
use adv_nn::Differentiable;
use adv_tensor::{norms, Tensor};

/// The result of attacking a batch.
///
/// For every failed example, `adversarial` holds the *original* image, so
/// the tensor is always safe to feed onward; consumers must consult
/// `success` before counting an example as adversarial.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Best adversarial examples found, `[n, …]` (original image where the
    /// attack failed).
    pub adversarial: Tensor,
    /// Per-example success (margin ≥ κ on the attacked model).
    pub success: Vec<bool>,
    /// Per-example L1 distortion of the returned image.
    pub l1: Vec<f32>,
    /// Per-example L2 distortion of the returned image.
    pub l2: Vec<f32>,
    /// Per-example L∞ distortion of the returned image.
    pub linf: Vec<f32>,
}

impl AttackOutcome {
    /// Assembles an outcome, computing distortions of `adversarial` against
    /// `original` item by item.
    ///
    /// # Errors
    ///
    /// Returns shape errors when the tensors disagree.
    pub fn from_images(original: &Tensor, adversarial: Tensor, success: Vec<bool>) -> Result<Self> {
        let n = original.shape().dim(0);
        let mut l1 = Vec::with_capacity(n);
        let mut l2 = Vec::with_capacity(n);
        let mut linf = Vec::with_capacity(n);
        for i in 0..n {
            let a = original.index_axis0(i)?;
            let b = adversarial.index_axis0(i)?;
            l1.push(norms::l1_dist(&a, &b)?);
            l2.push(norms::l2_dist(&a, &b)?);
            linf.push(norms::linf_dist(&a, &b)?);
        }
        Ok(AttackOutcome {
            adversarial,
            success,
            l1,
            l2,
            linf,
        })
    }

    /// Attack success rate in `[0, 1]`.
    pub fn success_rate(&self) -> f32 {
        if self.success.is_empty() {
            return 0.0;
        }
        self.success.iter().filter(|&&s| s).count() as f32 / self.success.len() as f32
    }

    /// Mean L1 distortion over *successful* examples (the statistic Table I
    /// reports), or `None` when no attack succeeded.
    pub fn mean_l1_successful(&self) -> Option<f32> {
        mean_over(&self.l1, &self.success)
    }

    /// Mean L2 distortion over successful examples.
    pub fn mean_l2_successful(&self) -> Option<f32> {
        mean_over(&self.l2, &self.success)
    }
}

fn mean_over(values: &[f32], mask: &[bool]) -> Option<f32> {
    let selected: Vec<f32> = values
        .iter()
        .zip(mask)
        .filter(|(_, &m)| m)
        .map(|(&v, _)| v)
        .collect();
    if selected.is_empty() {
        None
    } else {
        Some(selected.iter().sum::<f32>() / selected.len() as f32)
    }
}

/// A batched, untargeted adversarial attack against a differentiable model.
///
/// `labels` are the *true* labels of `x`; the attack tries to move each
/// example to any other class with its configured confidence margin.
pub trait Attack {
    /// Display name including salient hyperparameters
    /// (e.g. `"EAD(EN, beta=0.01, kappa=15)"`).
    fn name(&self) -> String;

    /// Attacks the batch and returns per-example results.
    ///
    /// # Errors
    ///
    /// Returns label/shape errors for inconsistent inputs and propagates
    /// model errors.
    fn run(
        &self,
        model: &mut dyn Differentiable,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<AttackOutcome>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_tensor::Shape;

    #[test]
    fn outcome_statistics() {
        let orig = Tensor::zeros(Shape::matrix(3, 2));
        let mut adv = orig.clone();
        adv.as_mut_slice()[0] = 3.0;
        adv.as_mut_slice()[1] = 4.0; // example 0: L2 = 5, L1 = 7
        adv.as_mut_slice()[4] = 1.0; // example 2: L1 = L2 = 1
        let outcome = AttackOutcome::from_images(&orig, adv, vec![true, false, true]).unwrap();
        assert!((outcome.success_rate() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(outcome.mean_l1_successful(), Some(4.0));
        assert_eq!(outcome.mean_l2_successful(), Some(3.0));
        assert_eq!(outcome.l2[1], 0.0);
    }

    #[test]
    fn no_success_means_no_mean() {
        let orig = Tensor::zeros(Shape::matrix(2, 2));
        let outcome = AttackOutcome::from_images(&orig, orig.clone(), vec![false, false]).unwrap();
        assert_eq!(outcome.mean_l1_successful(), None);
        assert_eq!(outcome.success_rate(), 0.0);
    }

    #[test]
    fn empty_batch() {
        let orig = Tensor::zeros(Shape::matrix(0, 4));
        let outcome = AttackOutcome::from_images(&orig, orig.clone(), vec![]).unwrap();
        assert_eq!(outcome.success_rate(), 0.0);
    }
}
