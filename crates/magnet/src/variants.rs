//! Builders for the defense variants the paper evaluates.
//!
//! MNIST (paper §III-B1/B2):
//! - **Default (D):** two reconstruction-error detectors — L2 on AE-I and
//!   L1 on AE-II — plus the AE-I reformer.
//! - **D+JSD:** adds two JSD detectors (T = 10 and T = 40) on AE-I.
//! - **D+256 / D+256+JSD:** the same, with the auto-encoder filter count
//!   raised (256 in the paper; configurable here).
//!
//! CIFAR-10 (paper §III-B3/B4):
//! - **Default (D):** L1 + L2 reconstruction detectors *and* the two JSD
//!   detectors on a single AE, plus that AE as reformer.
//! - **D+256:** same with wider auto-encoders.
//!
//! Figures 12–13 additionally swap the AE training loss from MSE to MAE —
//! expressed here through [`TrainSpec::loss`].

use crate::arch::{cifar_ae, mnist_ae_one, mnist_ae_two};
use crate::autoencoder::Autoencoder;
use crate::defense::MagnetDefense;
use crate::detector::{Detector, JsdDetector, ReconstructionDetector, ReconstructionNorm};
use crate::Result;
use adv_nn::loss::ReconstructionLoss;
use adv_nn::Sequential;
use adv_tensor::Tensor;
use std::sync::Arc;

/// Hyperparameters for training defensive auto-encoders.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Hidden convolution width (3 default; the paper's robust variants use
    /// 256 — scale it to your compute budget).
    pub filters: usize,
    /// Reconstruction loss (MSE default, MAE for the Figures 12–13 ablation).
    pub loss: ReconstructionLoss,
    /// Gaussian input-corruption σ during AE training (MagNet uses 0.1).
    pub noise_std: f32,
    /// σ of an additional smooth low-frequency corruption field (0 = none).
    /// Teaches the auto-encoder to remove spread-out, C&W-like deviations;
    /// see [`adv_nn::train::Corruption`].
    pub smooth_noise_std: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed for weights and shuffling.
    pub seed: u64,
}

impl Default for TrainSpec {
    fn default() -> Self {
        TrainSpec {
            filters: 3,
            loss: ReconstructionLoss::MeanSquaredError,
            noise_std: 0.1,
            smooth_noise_std: 0.0,
            epochs: 10,
            batch_size: 64,
            lr: 0.003,
            seed: 17,
        }
    }
}

fn apply_corruption(ae: &mut Autoencoder, spec: &TrainSpec) {
    if spec.smooth_noise_std > 0.0 {
        ae.set_corruption(adv_nn::train::Corruption::GaussianPlusSmooth {
            gaussian: spec.noise_std,
            smooth: spec.smooth_noise_std,
        });
    }
}

/// The two trained auto-encoders MagNet uses on MNIST.
#[derive(Debug, Clone)]
pub struct MnistAutoencoders {
    /// AE-I: detector I and the reformer (has a 2× bottleneck stage).
    pub ae_one: Autoencoder,
    /// AE-II: detector II (no spatial bottleneck).
    pub ae_two: Autoencoder,
}

/// Trains MagNet's two MNIST auto-encoders on clean training images.
///
/// # Errors
///
/// Propagates construction and training errors.
pub fn train_mnist_autoencoders(
    channels: usize,
    spec: &TrainSpec,
    train_images: &Tensor,
) -> Result<MnistAutoencoders> {
    train_mnist_autoencoders_checkpointed(channels, spec, train_images, None)
}

/// [`train_mnist_autoencoders`] with crash-safe checkpointing: when
/// `checkpoint_dir` is set, each auto-encoder saves epoch-granular training
/// state under it (`mnist_ae1.ckpt` / `mnist_ae2.ckpt`) and a rerun after a
/// kill resumes bit-identically instead of retraining from scratch.
///
/// # Errors
///
/// Propagates construction and training errors.
pub fn train_mnist_autoencoders_checkpointed(
    channels: usize,
    spec: &TrainSpec,
    train_images: &Tensor,
    checkpoint_dir: Option<&std::path::Path>,
) -> Result<MnistAutoencoders> {
    let ckpt =
        |name: &str| checkpoint_dir.map(|d| adv_nn::CheckpointCfg::every_epoch(d.join(name)));
    let mut ae_one = Autoencoder::new(
        &mnist_ae_one(channels, spec.filters),
        spec.loss,
        spec.noise_std,
        spec.seed,
    )?;
    apply_corruption(&mut ae_one, spec);
    ae_one.train_checkpointed(
        train_images,
        spec.epochs,
        spec.batch_size,
        spec.lr,
        spec.seed ^ 0xA11C_E5ED,
        ckpt("mnist_ae1.ckpt"),
    )?;
    let mut ae_two = Autoencoder::new(
        &mnist_ae_two(channels, spec.filters),
        spec.loss,
        spec.noise_std,
        spec.seed.wrapping_add(1),
    )?;
    apply_corruption(&mut ae_two, spec);
    ae_two.train_checkpointed(
        train_images,
        spec.epochs,
        spec.batch_size,
        spec.lr,
        spec.seed ^ 0xB0B5_1ED5,
        ckpt("mnist_ae2.ckpt"),
    )?;
    Ok(MnistAutoencoders { ae_one, ae_two })
}

/// Trains MagNet's single CIFAR auto-encoder.
///
/// # Errors
///
/// Propagates construction and training errors.
pub fn train_cifar_autoencoder(
    channels: usize,
    spec: &TrainSpec,
    train_images: &Tensor,
) -> Result<Autoencoder> {
    train_cifar_autoencoder_checkpointed(channels, spec, train_images, None)
}

/// [`train_cifar_autoencoder`] with crash-safe checkpointing under
/// `checkpoint_dir` (`cifar_ae.ckpt`); see
/// [`train_mnist_autoencoders_checkpointed`].
///
/// # Errors
///
/// Propagates construction and training errors.
pub fn train_cifar_autoencoder_checkpointed(
    channels: usize,
    spec: &TrainSpec,
    train_images: &Tensor,
    checkpoint_dir: Option<&std::path::Path>,
) -> Result<Autoencoder> {
    let mut ae = Autoencoder::new(
        &cifar_ae(channels, spec.filters),
        spec.loss,
        spec.noise_std,
        spec.seed,
    )?;
    apply_corruption(&mut ae, spec);
    ae.train_checkpointed(
        train_images,
        spec.epochs,
        spec.batch_size,
        spec.lr,
        spec.seed ^ 0xC1FA_0AE5,
        checkpoint_dir.map(|d| adv_nn::CheckpointCfg::every_epoch(d.join("cifar_ae.ckpt"))),
    )?;
    Ok(ae)
}

/// Assembles (and calibrates) a MNIST MagNet from trained auto-encoders.
///
/// `jsd_temperatures` is empty for the default variant and `[10, 40]` for
/// the `+JSD` variants. `fpr` is the per-detector false-positive budget on
/// the clean validation set. Each model is copied once and shared by every
/// role that runs it, so a pass computes each of its results once.
///
/// # Errors
///
/// Propagates calibration errors (empty validation set, bad fpr).
pub fn assemble_mnist_defense(
    name: impl Into<String>,
    aes: &MnistAutoencoders,
    classifier: &Sequential,
    jsd_temperatures: &[f32],
    valid_images: &Tensor,
    fpr: f32,
) -> Result<MagnetDefense> {
    let ae_one = Arc::new(aes.ae_one.clone());
    let classifier = Arc::new(classifier.clone());
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(ReconstructionDetector::new(
            Arc::clone(&ae_one),
            ReconstructionNorm::L2,
        )),
        Box::new(ReconstructionDetector::new(
            Arc::new(aes.ae_two.clone()),
            ReconstructionNorm::L1,
        )),
    ];
    for &t in jsd_temperatures {
        detectors.push(Box::new(JsdDetector::new(
            Arc::clone(&ae_one),
            Arc::clone(&classifier),
            t,
        )?));
    }
    let mut defense = MagnetDefense::new(name, detectors, ae_one, classifier);
    defense.calibrate_detectors(valid_images, fpr)?;
    Ok(defense)
}

/// Assembles (and calibrates) a CIFAR MagNet from one trained auto-encoder.
///
/// The paper's CIFAR default already includes the JSD detectors, so
/// `jsd_temperatures` defaults to `[10, 40]` at call sites. As in
/// [`assemble_mnist_defense`], every role shares one copy of each model.
///
/// # Errors
///
/// Propagates calibration errors.
pub fn assemble_cifar_defense(
    name: impl Into<String>,
    ae: &Autoencoder,
    classifier: &Sequential,
    jsd_temperatures: &[f32],
    valid_images: &Tensor,
    fpr: f32,
) -> Result<MagnetDefense> {
    let ae = Arc::new(ae.clone());
    let classifier = Arc::new(classifier.clone());
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(ReconstructionDetector::new(
            Arc::clone(&ae),
            ReconstructionNorm::L1,
        )),
        Box::new(ReconstructionDetector::new(
            Arc::clone(&ae),
            ReconstructionNorm::L2,
        )),
    ];
    for &t in jsd_temperatures {
        detectors.push(Box::new(JsdDetector::new(
            Arc::clone(&ae),
            Arc::clone(&classifier),
            t,
        )?));
    }
    let mut defense = MagnetDefense::new(name, detectors, ae, classifier);
    defense.calibrate_detectors(valid_images, fpr)?;
    Ok(defense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::mnist_classifier;
    use crate::DefenseScheme;
    use adv_tensor::Shape;

    fn tiny_spec() -> TrainSpec {
        TrainSpec {
            filters: 2,
            epochs: 2,
            batch_size: 16,
            lr: 0.01,
            ..TrainSpec::default()
        }
    }

    fn toy_images(n: usize, c: usize, side: usize) -> Tensor {
        Tensor::from_fn(Shape::nchw(n, c, side, side), |i| {
            ((i * 13) % 17) as f32 / 17.0
        })
    }

    #[test]
    fn mnist_pipeline_assembles_default() {
        let train = toy_images(48, 1, 8);
        let aes = train_mnist_autoencoders(1, &tiny_spec(), &train).unwrap();
        let classifier = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 3).unwrap();
        let defense =
            assemble_mnist_defense("default", &aes, &classifier, &[], &train, 0.05).unwrap();
        assert_eq!(defense.num_detectors(), 2);
        assert_eq!(defense.name(), "default");
    }

    #[test]
    fn mnist_pipeline_assembles_jsd_variant() {
        let train = toy_images(48, 1, 8);
        let aes = train_mnist_autoencoders(1, &tiny_spec(), &train).unwrap();
        let classifier = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 3).unwrap();
        let defense =
            assemble_mnist_defense("D+JSD", &aes, &classifier, &[10.0, 40.0], &train, 0.05)
                .unwrap();
        assert_eq!(defense.num_detectors(), 4);
    }

    #[test]
    fn cifar_pipeline_assembles_with_jsd() {
        let train = toy_images(48, 3, 8);
        let ae = train_cifar_autoencoder(3, &tiny_spec(), &train).unwrap();
        let classifier = Sequential::from_specs(&mnist_classifier(8, 3, 2, 4, 8, 10), 3).unwrap();
        let defense =
            assemble_cifar_defense("default", &ae, &classifier, &[10.0, 40.0], &train, 0.05)
                .unwrap();
        assert_eq!(defense.num_detectors(), 4);
    }

    #[test]
    fn assembled_defense_classifies() {
        let train = toy_images(48, 1, 8);
        let aes = train_mnist_autoencoders(1, &tiny_spec(), &train).unwrap();
        let classifier = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 3).unwrap();
        let defense =
            assemble_mnist_defense("default", &aes, &classifier, &[], &train, 0.05).unwrap();
        let verdicts = defense
            .classify(&toy_images(4, 1, 8), DefenseScheme::Full)
            .unwrap();
        assert_eq!(verdicts.len(), 4);
    }

    #[test]
    fn assemblies_share_each_model_between_its_roles() {
        let train = toy_images(48, 1, 8);
        let aes = train_mnist_autoencoders(1, &tiny_spec(), &train).unwrap();
        let classifier = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 3).unwrap();
        let defense =
            assemble_mnist_defense("D+JSD", &aes, &classifier, &[10.0, 40.0], &train, 0.05)
                .unwrap();
        // AE-I(x), AE-II(x), logits(x), logits(AE-I(x)): AE-I serves the L2
        // detector, both JSD detectors and the reformer.
        assert_eq!(defense.networks(), 4);
        let x = toy_images(4, 1, 8);
        let runs = DefenseScheme::ALL.map(|scheme| defense.network_runs(&x, scheme));
        // None: logits(x). DetectorOnly: all four. ReformerOnly: AE-I(x)
        // and logits(AE-I(x)). Full: all four.
        assert_eq!(runs, [1, 4, 2, 4]);

        let train = toy_images(48, 3, 8);
        let ae = train_cifar_autoencoder(3, &tiny_spec(), &train).unwrap();
        let classifier = Sequential::from_specs(&mnist_classifier(8, 3, 2, 4, 8, 10), 3).unwrap();
        let defense =
            assemble_cifar_defense("default", &ae, &classifier, &[10.0, 40.0], &train, 0.05)
                .unwrap();
        // AE(x), logits(x), logits(AE(x)): one AE serves all four detectors
        // and the reformer.
        assert_eq!(defense.networks(), 3);
        let runs = defense.network_runs(&toy_images(4, 3, 8), DefenseScheme::Full);
        assert_eq!(runs, 3);
    }

    #[test]
    fn mae_spec_trains() {
        let spec = TrainSpec {
            loss: ReconstructionLoss::MeanAbsoluteError,
            ..tiny_spec()
        };
        let train = toy_images(32, 1, 8);
        let aes = train_mnist_autoencoders(1, &spec, &train).unwrap();
        assert_eq!(aes.ae_one.loss(), ReconstructionLoss::MeanAbsoluteError);
    }
}
