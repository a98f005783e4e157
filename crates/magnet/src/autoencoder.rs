use crate::Result;
use adv_nn::loss::ReconstructionLoss;
use adv_nn::optim::Adam;
use adv_nn::train::{fit_autoencoder_with, Corruption, TrainConfig};
use adv_nn::{LayerSpec, Sequential};
use adv_tensor::Tensor;

/// A defensive auto-encoder: the building block of both MagNet stages.
///
/// Wraps a [`Sequential`] network together with the reconstruction loss it
/// was (or will be) trained with. MagNet trains auto-encoders on
/// noise-corrupted inputs against clean targets, so the learned map
/// contracts toward the data manifold — reconstruction error then measures
/// manifold distance (detector), and the output itself is the projection
/// (reformer).
#[derive(Debug, Clone)]
pub struct Autoencoder {
    net: Sequential,
    loss: ReconstructionLoss,
    corruption: Corruption,
}

impl Autoencoder {
    /// Builds an untrained auto-encoder from an architecture.
    ///
    /// `noise_std` is the standard deviation of the Gaussian input
    /// corruption used during training (MagNet uses 0.1 on MNIST).
    ///
    /// # Errors
    ///
    /// Returns construction errors from the layer specs.
    pub fn new(
        specs: &[LayerSpec],
        loss: ReconstructionLoss,
        noise_std: f32,
        seed: u64,
    ) -> Result<Self> {
        let net = Sequential::from_specs(specs, seed)?;
        Ok(Autoencoder::from_network(net, loss, noise_std))
    }

    /// Overrides the training-input corruption model (see [`Corruption`]).
    pub fn set_corruption(&mut self, corruption: Corruption) {
        self.corruption = corruption;
    }

    /// Wraps an already-trained network (e.g. loaded from disk).
    pub fn from_network(net: Sequential, loss: ReconstructionLoss, noise_std: f32) -> Self {
        Autoencoder {
            net,
            loss,
            corruption: if noise_std > 0.0 {
                Corruption::Gaussian(noise_std)
            } else {
                Corruption::None
            },
        }
    }

    /// The wrapped network.
    pub fn network(&self) -> &Sequential {
        &self.net
    }

    /// Mutable access to the wrapped network (needed to run backward passes
    /// through the auto-encoder in gray-box attacks).
    pub fn network_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// The reconstruction loss this auto-encoder trains with.
    pub fn loss(&self) -> ReconstructionLoss {
        self.loss
    }

    /// Trains on `images` (NCHW, `[0,1]`) for the given epochs.
    ///
    /// # Errors
    ///
    /// Propagates training errors (shape mismatches, degenerate configs).
    pub fn train(
        &mut self,
        images: &Tensor,
        epochs: usize,
        batch_size: usize,
        lr: f32,
        seed: u64,
    ) -> Result<f32> {
        self.train_checkpointed(images, epochs, batch_size, lr, seed, None)
    }

    /// [`Autoencoder::train`] with optional crash-safe checkpointing: when
    /// `checkpoint` is set, training saves epoch-granular state there and a
    /// rerun after a kill resumes bit-identically instead of restarting.
    ///
    /// # Errors
    ///
    /// Propagates training errors (shape mismatches, degenerate configs).
    pub fn train_checkpointed(
        &mut self,
        images: &Tensor,
        epochs: usize,
        batch_size: usize,
        lr: f32,
        seed: u64,
        checkpoint: Option<adv_nn::CheckpointCfg>,
    ) -> Result<f32> {
        let mut opt = Adam::with_defaults(lr);
        let cfg = TrainConfig {
            epochs,
            batch_size,
            seed,
            label_smoothing: 0.0,
            verbose: false,
            checkpoint,
        };
        let history = fit_autoencoder_with(
            &mut self.net,
            &mut opt,
            images,
            self.loss,
            self.corruption,
            &cfg,
        )?;
        Ok(history.last().map(|s| s.loss).unwrap_or(f32::NAN))
    }

    /// Reconstructs a batch: `AE(x)`.
    ///
    /// Runs through the cache-free inference path, so concurrent callers can
    /// share one auto-encoder behind an `Arc`.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `x` does not match the architecture.
    pub fn reconstruct(&self, x: &Tensor) -> Result<Tensor> {
        Ok(self.net.infer(x)?)
    }

    /// Per-item Lᵖ error between a batch and an already-computed
    /// reconstruction of it (`p` = 1 or 2).
    ///
    /// Taking the reconstruction as an argument lets the pipeline reuse one
    /// `AE(x)` pass across several detectors and the reformer.
    pub fn errors_against(x: &Tensor, recon: &Tensor, p: u8) -> Vec<f32> {
        let n = x.shape().dim(0);
        let item = x.shape().volume() / n.max(1);
        let xs = x.as_slice();
        let rs = recon.as_slice();
        let mut out = Vec::with_capacity(n);
        let _prof =
            adv_profile::KernelScope::enter(adv_profile::KernelKind::DetectorDistance, || {
                adv_profile::Work::custom(x.len() as u64, 3 * x.len() as u64, 8 * x.len() as u64)
            });
        for i in 0..n {
            let a = &xs[i * item..(i + 1) * item];
            let b = &rs[i * item..(i + 1) * item];
            let err = match p {
                1 => a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).sum::<f32>(),
                _ => a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| (x - y) * (x - y))
                    .sum::<f32>()
                    .sqrt(),
            };
            // lint-ok(no-alloc-in-kernel): pre-sized with_capacity(n) above — push never reallocates
            out.push(err);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::mnist_ae_two;
    use adv_tensor::Shape;

    fn toy_images(n: usize) -> Tensor {
        // Smooth blobs — easy for a tiny AE to learn.
        Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| {
            let p = i % 64;
            let (y, x) = (p / 8, p % 8);
            let d = ((y as f32 - 4.0).powi(2) + (x as f32 - 4.0).powi(2)).sqrt();
            (1.0 - d / 6.0).clamp(0.0, 1.0)
        })
    }

    fn errors(ae: &Autoencoder, x: &Tensor, p: u8) -> Vec<f32> {
        Autoencoder::errors_against(x, &ae.reconstruct(x).unwrap(), p)
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let mut ae = Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanSquaredError,
            0.05,
            1,
        )
        .unwrap();
        let images = toy_images(32);
        let before: f32 = errors(&ae, &images, 2).iter().sum();
        ae.train(&images, 20, 8, 0.01, 2).unwrap();
        let after: f32 = errors(&ae, &images, 2).iter().sum();
        assert!(after < before, "recon error {after} not below {before}");
    }

    #[test]
    fn reconstruction_shape_matches_input() {
        let ae = Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanSquaredError,
            0.0,
            3,
        )
        .unwrap();
        let x = toy_images(4);
        let y = ae.reconstruct(&x).unwrap();
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn l1_and_l2_errors_ordered() {
        // ‖v‖₂ ≤ ‖v‖₁ per item.
        let ae = Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanSquaredError,
            0.0,
            4,
        )
        .unwrap();
        let x = toy_images(3);
        let l1 = errors(&ae, &x, 1);
        let l2 = errors(&ae, &x, 2);
        for (a, b) in l1.iter().zip(l2.iter()) {
            assert!(a + 1e-5 >= *b);
        }
    }

    #[test]
    fn clone_preserves_weights() {
        let ae = Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanAbsoluteError,
            0.1,
            5,
        )
        .unwrap();
        let copy = ae.clone();
        for (a, b) in ae.network().params().iter().zip(copy.network().params()) {
            assert_eq!(a.value, b.value);
        }
        assert_eq!(copy.loss(), ReconstructionLoss::MeanAbsoluteError);
    }
}
