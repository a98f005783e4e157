//! Gray-box composition: attacking *through* the reformer.
//!
//! The paper's threat model is **oblivious** — the attacker differentiates
//! only the undefended classifier. The contrasting gray-box model of
//! Carlini & Wagner (arXiv:1711.08478), discussed in the paper's §I, assumes
//! the attacker knows an auto-encoder guards the classifier and therefore
//! optimizes against the composition `classifier(AE(x))`.
//!
//! [`ReformedModel`] implements that composition as a
//! [`Differentiable`], so every attack in `adv-attacks` can be pointed at it
//! unchanged — giving the repository both threat models the paper discusses.

use crate::autoencoder::Autoencoder;
use adv_nn::{Differentiable, Mode, NnError, Sequential};
use adv_tensor::Tensor;

/// The gray-box target `F(AE(x))`: forward runs the reformer then the
/// classifier; backward chains both Jacobians back to the input image.
#[derive(Debug, Clone)]
pub struct ReformedModel {
    reformer: Autoencoder,
    classifier: Sequential,
}

impl ReformedModel {
    /// Composes a reformer and a classifier.
    pub fn new(reformer: Autoencoder, classifier: Sequential) -> Self {
        ReformedModel {
            reformer,
            classifier,
        }
    }

    /// The wrapped reformer.
    pub fn reformer(&self) -> &Autoencoder {
        &self.reformer
    }

    /// The wrapped classifier.
    pub fn classifier(&self) -> &Sequential {
        &self.classifier
    }
}

impl Differentiable for ReformedModel {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let reformed = self.reformer.network_mut().forward(input, Mode::Eval)?;
        self.classifier.forward(&reformed, Mode::Eval)
    }

    fn backward_input(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let d_reformed = self.classifier.backward_input(grad_output)?;
        self.reformer.network_mut().backward_input(&d_reformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{mnist_ae_two, mnist_classifier};
    use adv_nn::loss::ReconstructionLoss;
    use adv_tensor::Shape;

    fn model() -> ReformedModel {
        let ae = Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanSquaredError,
            0.0,
            1,
        )
        .unwrap();
        let clf = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 2).unwrap();
        ReformedModel::new(ae, clf)
    }

    #[test]
    fn forward_produces_logits() {
        let mut m = model();
        let x = Tensor::zeros(Shape::nchw(2, 1, 8, 8));
        let y = m.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn composed_gradient_matches_finite_differences() {
        let mut m = model();
        let x = Tensor::from_fn(Shape::nchw(1, 1, 8, 8), |i| {
            ((i as u64).wrapping_mul(2_654_435_761) % 89) as f32 / 89.0
        });
        let y = m.forward(&x).unwrap();
        let dy = Tensor::ones(y.shape().clone());
        let dx = m.backward_input(&dy).unwrap();

        let eps = 1e-2f32;
        for i in (0..x.len()).step_by(7) {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let mut probe = model();
            let fp = probe.forward(&xp).unwrap().sum();
            let fm = probe.forward(&xm).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            let got = dx.as_slice()[i];
            assert!(
                (fd - got).abs() < 0.05 * (1.0 + fd.abs()),
                "dx[{i}]: fd {fd} vs analytic {got}"
            );
        }
    }

    #[test]
    fn backward_input_writes_no_parameter_gradient() {
        let mut m = model();
        let x = Tensor::from_fn(Shape::nchw(1, 1, 8, 8), |i| (i % 9) as f32 / 9.0);
        let y = m.forward(&x).unwrap();
        m.backward_input(&Tensor::ones(y.shape().clone())).unwrap();
        let nets = [m.classifier(), m.reformer().network()];
        let grads = nets.into_iter().flat_map(|n| n.params());
        assert!(grads.flat_map(|p| p.grad.as_slice()).all(|&g| g == 0.0));
    }

    #[test]
    fn attacking_reformed_model_differs_from_plain() {
        // The composed model's gradient direction generally differs from the
        // plain classifier's — the AE Jacobian reshapes it.
        let mut composed = model();
        let mut plain = composed.classifier().clone();
        let x = Tensor::from_fn(Shape::nchw(1, 1, 8, 8), |i| (i % 9) as f32 / 9.0);
        let y1 = composed.forward(&x).unwrap();
        let g1 = composed
            .backward_input(&Tensor::ones(y1.shape().clone()))
            .unwrap();
        let y2 = Differentiable::forward(&mut plain, &x).unwrap();
        let g2 = plain
            .backward_input(&Tensor::ones(y2.shape().clone()))
            .unwrap();
        assert_ne!(g1.as_slice(), g2.as_slice());
    }
}
