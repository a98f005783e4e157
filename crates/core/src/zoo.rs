//! The model zoo: datasets, victim classifiers, defensive auto-encoders and
//! assembled MagNet variants — all trained once and cached on disk.
//!
//! Caching matters because every table and figure shares the same trained
//! models; the first binary to run pays the training cost, the rest load
//! from `models/`. Cache file names encode the scale parameters that affect
//! the artifact, so changing the scale retrains rather than reusing stale
//! models.

use crate::config::Scale;
use crate::Result;
use adv_data::synth::{cifar_like, mnist_like};
use adv_data::Dataset;
use adv_magnet::variants::{
    assemble_cifar_defense, assemble_mnist_defense, train_cifar_autoencoder_checkpointed,
    train_mnist_autoencoders_checkpointed, MnistAutoencoders, TrainSpec,
};
use adv_magnet::{arch, Autoencoder, MagnetDefense};
use adv_nn::checkpoint::clear_checkpoint;
use adv_nn::loss::ReconstructionLoss;
use adv_nn::optim::Adam;
use adv_nn::serialize::{load_model, save_model};
use adv_nn::train::{fit_classifier, gather0, TrainConfig};
use adv_nn::{CheckpointCfg, Sequential};
use std::path::{Path, PathBuf};

/// Loads a cached model, treating *any* failure as a cache miss: a missing
/// file silently, a corrupt/stale one with a log line (the store has already
/// quarantined it to `<name>.corrupt`). The caller then retrains — the zoo
/// never hard-fails on bad cache bytes.
fn try_load_model(path: &Path) -> Option<Sequential> {
    match load_model(path) {
        Ok(net) => Some(net),
        Err(e) => {
            let missing = matches!(&e, adv_nn::NnError::Store(s) if s.is_not_found());
            if !missing {
                eprintln!(
                    "zoo: cached model {} rejected ({e}); retraining",
                    path.display()
                );
            }
            None
        }
    }
}

/// Which of the paper's two evaluation scenarios to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// MNIST-like 28×28 grayscale digits.
    Mnist,
    /// CIFAR-like 16×16 RGB scenes.
    Cifar,
}

impl Scenario {
    /// Lowercase name used in cache files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Mnist => "mnist",
            Scenario::Cifar => "cifar",
        }
    }

    /// Image channels.
    pub fn channels(self) -> usize {
        match self {
            Scenario::Mnist => 1,
            Scenario::Cifar => 3,
        }
    }

    /// Image side length.
    pub fn side(self) -> usize {
        match self {
            Scenario::Mnist => 28,
            Scenario::Cifar => 16,
        }
    }
}

/// The defense variants evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Default MagNet (D). On MNIST: two reconstruction detectors. On
    /// CIFAR: reconstruction + JSD detectors (the paper's CIFAR default).
    Default,
    /// D plus two JSD detectors (MNIST robust variant, Fig. 2b).
    DefaultJsd,
    /// D with wide auto-encoders ("D+256", Fig. 2c / 3b).
    Robust,
    /// Wide auto-encoders plus JSD detectors ("D+256+JSD", Fig. 2d).
    RobustJsd,
    /// Default architecture but MAE-trained auto-encoders (Figs. 12–13).
    MaeDefault,
}

impl Variant {
    /// The paper's display name.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Default => "Default (D)",
            Variant::DefaultJsd => "D+JSD",
            Variant::Robust => "D+256",
            Variant::RobustJsd => "D+256+JSD",
            Variant::MaeDefault => "D (MAE loss)",
        }
    }

    /// The variants evaluated per scenario in the paper (Tables III/IV vs
    /// VI/VII).
    pub fn for_scenario(scenario: Scenario) -> &'static [Variant] {
        match scenario {
            Scenario::Mnist => &[
                Variant::Default,
                Variant::DefaultJsd,
                Variant::Robust,
                Variant::RobustJsd,
            ],
            Scenario::Cifar => &[Variant::Default, Variant::Robust],
        }
    }
}

/// Train/validation/test splits for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioData {
    /// Training split (classifier and auto-encoders).
    pub train: Dataset,
    /// Validation split (detector calibration).
    pub valid: Dataset,
    /// Test split (clean accuracy, attack pool).
    pub test: Dataset,
}

/// A ready-to-attack bundle: the victim classifier plus data and its clean
/// test accuracy.
#[derive(Debug)]
pub struct Bundle {
    /// The trained undefended classifier.
    pub classifier: Sequential,
    /// The scenario's datasets.
    pub data: ScenarioData,
    /// Clean accuracy of the classifier on the test split (`0..=1`).
    pub clean_accuracy: f32,
}

/// Trains, caches and assembles every model the experiments need.
#[derive(Debug, Clone)]
pub struct Zoo {
    dir: PathBuf,
    scale: Scale,
}

impl Zoo {
    /// Creates a zoo rooted at `dir` with the given scale.
    pub fn new(dir: impl AsRef<Path>, scale: Scale) -> Self {
        Zoo {
            dir: dir.as_ref().to_path_buf(),
            scale,
        }
    }

    /// A zoo at the default (`quick`) scale.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` keeps the signature stable for future
    /// validation.
    pub fn with_defaults(dir: impl AsRef<Path>) -> Result<Self> {
        Ok(Self::new(dir, Scale::quick()))
    }

    /// The configured scale.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Deterministically generates the datasets for a scenario.
    pub fn data(&self, scenario: Scenario) -> ScenarioData {
        let s = &self.scale;
        let base = s.seed ^ (scenario.name().len() as u64) << 32;
        let gen = |n: usize, salt: u64| match scenario {
            Scenario::Mnist => mnist_like(n, base.wrapping_add(salt)),
            Scenario::Cifar => cifar_like(n, base.wrapping_add(salt)),
        };
        ScenarioData {
            train: gen(s.train_size, 1),
            valid: gen(s.valid_size, 2),
            test: gen(s.test_size, 3),
        }
    }

    fn classifier_path(&self, scenario: Scenario) -> PathBuf {
        let s = &self.scale;
        self.dir.join(format!(
            "{}_clf_t{}_e{}_ls{}_s{}.advnn",
            scenario.name(),
            s.train_size,
            s.classifier_epochs,
            s.label_smoothing,
            s.seed
        ))
    }

    fn classifier_specs(&self, scenario: Scenario) -> Vec<adv_nn::LayerSpec> {
        match scenario {
            Scenario::Mnist => arch::mnist_classifier(28, 1, 8, 16, 64, 10),
            Scenario::Cifar => arch::cifar_classifier(16, 3, 8, 16, 64, 10),
        }
    }

    /// Loads or trains the undefended victim classifier.
    ///
    /// # Errors
    ///
    /// Propagates training and serialization errors.
    pub fn classifier(&self, scenario: Scenario) -> Result<Sequential> {
        let path = self.classifier_path(scenario);
        if let Some(net) = try_load_model(&path) {
            return Ok(net);
        }
        let data = self.data(scenario);
        let mut net = Sequential::from_specs(&self.classifier_specs(scenario), self.scale.seed)?;
        let mut opt = Adam::with_defaults(1e-3);
        let ckpt_path = path.with_extension("ckpt");
        let cfg = TrainConfig {
            epochs: self.scale.classifier_epochs,
            batch_size: 32,
            seed: self.scale.seed ^ 0xC1A5,
            label_smoothing: self.scale.label_smoothing,
            verbose: false,
            checkpoint: Some(CheckpointCfg::every_epoch(ckpt_path.clone())),
        };
        fit_classifier(
            &mut net,
            &mut opt,
            data.train.images(),
            data.train.labels(),
            &cfg,
        )?;
        save_model(&net, &path)?;
        // The final model is durably saved; the checkpoint is dead weight.
        clear_checkpoint(&ckpt_path)?;
        Ok(net)
    }

    fn train_spec(
        &self,
        scenario: Scenario,
        filters: usize,
        loss: ReconstructionLoss,
    ) -> TrainSpec {
        TrainSpec {
            filters,
            loss,
            noise_std: match scenario {
                Scenario::Mnist => self.scale.ae_noise_mnist,
                Scenario::Cifar => self.scale.ae_noise_cifar,
            },
            smooth_noise_std: match scenario {
                Scenario::Mnist => 0.0,
                Scenario::Cifar => self.scale.ae_smooth_noise_cifar,
            },
            epochs: self.scale.ae_epochs,
            batch_size: 32,
            lr: 3e-3,
            seed: self.scale.seed ^ 0xAE5,
        }
    }

    fn ae_path(
        &self,
        scenario: Scenario,
        which: &str,
        filters: usize,
        loss: ReconstructionLoss,
    ) -> PathBuf {
        let s = &self.scale;
        let loss_tag = match loss {
            ReconstructionLoss::MeanSquaredError => "mse",
            ReconstructionLoss::MeanAbsoluteError => "mae",
        };
        self.dir.join(format!(
            "{}_{which}_f{filters}_{loss_tag}_e{}_t{}_s{}.advnn",
            scenario.name(),
            s.ae_epochs,
            s.train_size,
            s.seed
        ))
    }

    /// Directory for the resumable training checkpoints of one AE artifact
    /// family — keyed like the cache file so concurrent variants never share
    /// a checkpoint.
    fn ckpt_dir(&self, scenario: Scenario, filters: usize, loss: ReconstructionLoss) -> PathBuf {
        let loss_tag = match loss {
            ReconstructionLoss::MeanSquaredError => "mse",
            ReconstructionLoss::MeanAbsoluteError => "mae",
        };
        self.dir
            .join(format!("ckpt_{}_f{filters}_{loss_tag}", scenario.name()))
    }

    /// Loads or trains the two MNIST auto-encoders at the given width and
    /// reconstruction loss.
    ///
    /// # Errors
    ///
    /// Propagates training and serialization errors.
    pub fn mnist_autoencoders(
        &self,
        filters: usize,
        loss: ReconstructionLoss,
    ) -> Result<MnistAutoencoders> {
        let p1 = self.ae_path(Scenario::Mnist, "ae1", filters, loss);
        let p2 = self.ae_path(Scenario::Mnist, "ae2", filters, loss);
        if let (Some(n1), Some(n2)) = (try_load_model(&p1), try_load_model(&p2)) {
            return Ok(MnistAutoencoders {
                ae_one: Autoencoder::from_network(n1, loss, 0.1),
                ae_two: Autoencoder::from_network(n2, loss, 0.1),
            });
        }
        let data = self.data(Scenario::Mnist);
        let ckpt_dir = self.ckpt_dir(Scenario::Mnist, filters, loss);
        let aes = train_mnist_autoencoders_checkpointed(
            1,
            &self.train_spec(Scenario::Mnist, filters, loss),
            data.train.images(),
            Some(&ckpt_dir),
        )?;
        save_model(aes.ae_one.network(), &p1)?;
        save_model(aes.ae_two.network(), &p2)?;
        std::fs::remove_dir_all(&ckpt_dir).ok();
        Ok(aes)
    }

    /// Loads or trains the CIFAR auto-encoder at the given width and loss.
    ///
    /// # Errors
    ///
    /// Propagates training and serialization errors.
    pub fn cifar_autoencoder(
        &self,
        filters: usize,
        loss: ReconstructionLoss,
    ) -> Result<Autoencoder> {
        let p = self.ae_path(Scenario::Cifar, "ae", filters, loss);
        if let Some(net) = try_load_model(&p) {
            return Ok(Autoencoder::from_network(net, loss, 0.1));
        }
        let data = self.data(Scenario::Cifar);
        let ckpt_dir = self.ckpt_dir(Scenario::Cifar, filters, loss);
        let ae = train_cifar_autoencoder_checkpointed(
            3,
            &self.train_spec(Scenario::Cifar, filters, loss),
            data.train.images(),
            Some(&ckpt_dir),
        )?;
        save_model(ae.network(), &p)?;
        std::fs::remove_dir_all(&ckpt_dir).ok();
        Ok(ae)
    }

    fn variant_params(&self, variant: Variant) -> (usize, ReconstructionLoss, bool) {
        // (filters, loss, with_jsd_on_mnist)
        match variant {
            Variant::Default => (
                self.scale.default_filters,
                ReconstructionLoss::MeanSquaredError,
                false,
            ),
            Variant::DefaultJsd => (
                self.scale.default_filters,
                ReconstructionLoss::MeanSquaredError,
                true,
            ),
            Variant::Robust => (
                self.scale.robust_filters,
                ReconstructionLoss::MeanSquaredError,
                false,
            ),
            Variant::RobustJsd => (
                self.scale.robust_filters,
                ReconstructionLoss::MeanSquaredError,
                true,
            ),
            Variant::MaeDefault => (
                self.scale.default_filters,
                ReconstructionLoss::MeanAbsoluteError,
                false,
            ),
        }
    }

    /// Assembles (training whatever is missing) a calibrated MagNet variant.
    ///
    /// # Errors
    ///
    /// Propagates training, assembly and calibration errors.
    pub fn defense(&self, scenario: Scenario, variant: Variant) -> Result<MagnetDefense> {
        let (filters, loss, with_jsd) = self.variant_params(variant);
        let classifier = self.classifier(scenario)?;
        let data = self.data(scenario);
        let valid = data.valid.images();
        // JSD temperatures live on the victim's logit scale, exactly like κ
        // (see Scale::kappa_unit_*): the paper's T = 10/40 assume logits in
        // the tens; on this substrate they are scaled by the same unit.
        let unit = self.scale.kappa_unit(scenario);
        let scaled = [10.0 * unit, 40.0 * unit];
        let jsd_temps: &[f32] = if scenario == Scenario::Cifar || with_jsd {
            // CIFAR's default MagNet already deploys the JSD detectors.
            &scaled
        } else {
            &[]
        };
        let defense = match scenario {
            Scenario::Mnist => {
                let aes = self.mnist_autoencoders(filters, loss)?;
                assemble_mnist_defense(
                    variant.label(),
                    &aes,
                    &classifier,
                    jsd_temps,
                    valid,
                    self.scale.fpr_mnist,
                )?
            }
            Scenario::Cifar => {
                let ae = self.cifar_autoencoder(filters, loss)?;
                assemble_cifar_defense(
                    variant.label(),
                    &ae,
                    &classifier,
                    jsd_temps,
                    valid,
                    self.scale.fpr_cifar,
                )?
            }
        };
        Ok(defense)
    }

    /// The classifier + data + clean-accuracy bundle for a scenario.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn bundle(&self, scenario: Scenario) -> Result<Bundle> {
        let mut classifier = self.classifier(scenario)?;
        let data = self.data(scenario);
        let clean_accuracy = classifier_accuracy(&mut classifier, &data.test)?;
        Ok(Bundle {
            classifier,
            data,
            clean_accuracy,
        })
    }
}

/// Accuracy of a classifier on a dataset, evaluated in chunks to bound
/// memory.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn classifier_accuracy(net: &mut Sequential, ds: &Dataset) -> Result<f32> {
    if ds.is_empty() {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    let indices: Vec<usize> = (0..ds.len()).collect();
    for chunk in indices.chunks(100) {
        let xb = gather0(ds.images(), chunk)?;
        let preds = net.predict(&xb)?;
        correct += preds
            .iter()
            .zip(chunk.iter().map(|&i| ds.labels()[i]))
            .filter(|(p, l)| **p == *l)
            .count();
    }
    Ok(correct as f32 / ds.len() as f32)
}

/// Accuracy of a MagNet-defended classifier on *clean* data under the full
/// scheme — the "With MagNet" rows of Tables III and VI. A clean image
/// counts as correct only if it is *not* flagged and classified correctly
/// after reforming.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn defended_clean_accuracy(defense: &mut MagnetDefense, ds: &Dataset) -> Result<f32> {
    use adv_magnet::{DefenseScheme, Verdict};
    if ds.is_empty() {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    let indices: Vec<usize> = (0..ds.len()).collect();
    for chunk in indices.chunks(100) {
        let xb = gather0(ds.images(), chunk)?;
        let verdicts = defense.classify(&xb, DefenseScheme::Full)?;
        for (v, &i) in verdicts.iter().zip(chunk) {
            // On clean data a detection is a *mistake*, unlike on
            // adversarial data.
            if matches!(v, Verdict::Classified(p) if *p == ds.labels()[i]) {
                correct += 1;
            }
        }
    }
    Ok(correct as f32 / ds.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_zoo(tag: &str) -> Zoo {
        let dir = std::env::temp_dir().join(format!("adv_eval_zoo_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        Zoo::new(dir, Scale::smoke())
    }

    #[test]
    fn data_is_deterministic_and_split() {
        let zoo = smoke_zoo("data");
        let a = zoo.data(Scenario::Mnist);
        let b = zoo.data(Scenario::Mnist);
        assert_eq!(a.train, b.train);
        assert_eq!(a.train.len(), Scale::smoke().train_size);
        assert_eq!(a.valid.len(), Scale::smoke().valid_size);
        assert_eq!(a.test.len(), Scale::smoke().test_size);
    }

    #[test]
    fn scenario_metadata() {
        assert_eq!(Scenario::Mnist.channels(), 1);
        assert_eq!(Scenario::Cifar.channels(), 3);
        assert_eq!(Scenario::Mnist.side(), 28);
        assert_eq!(Scenario::Mnist.name(), "mnist");
    }

    #[test]
    fn variant_lists_match_paper() {
        assert_eq!(Variant::for_scenario(Scenario::Mnist).len(), 4);
        assert_eq!(Variant::for_scenario(Scenario::Cifar).len(), 2);
        assert_eq!(Variant::Robust.label(), "D+256");
    }

    #[test]
    fn classifier_is_cached() {
        let zoo = smoke_zoo("clf_cache");
        let a = zoo.classifier(Scenario::Mnist).unwrap();
        // Second call must hit the cache and produce identical weights.
        let b = zoo.classifier(Scenario::Mnist).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.value, pb.value);
        }
        std::fs::remove_dir_all(zoo.dir()).ok();
    }

    #[test]
    fn corrupt_cached_classifier_is_quarantined_and_retrained() {
        let zoo = smoke_zoo("clf_corrupt");
        let a = zoo.classifier(Scenario::Mnist).unwrap();
        let path = zoo.classifier_path(Scenario::Mnist);
        assert!(path.exists());
        // Flip one byte in the cached artifact.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        // The zoo must detect the corruption, quarantine the file, and
        // retrain to the exact same weights (training is deterministic).
        let b = zoo.classifier(Scenario::Mnist).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.value, pb.value);
        }
        let quarantined: Vec<_> = std::fs::read_dir(zoo.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".corrupt"))
            .collect();
        assert_eq!(quarantined.len(), 1, "expected one quarantined file");
        assert!(path.exists(), "cache should be repopulated");
        std::fs::remove_dir_all(zoo.dir()).ok();
    }

    #[test]
    fn finished_training_leaves_no_checkpoints() {
        let zoo = smoke_zoo("no_ckpt_litter");
        zoo.classifier(Scenario::Mnist).unwrap();
        zoo.mnist_autoencoders(2, ReconstructionLoss::MeanSquaredError)
            .unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(zoo.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let n = e.file_name().to_string_lossy().into_owned();
                n.ends_with(".ckpt") || n.starts_with("ckpt_")
            })
            .collect();
        assert!(leftovers.is_empty(), "checkpoint litter: {leftovers:?}");
        std::fs::remove_dir_all(zoo.dir()).ok();
    }

    #[test]
    fn bundle_reports_plausible_accuracy() {
        let zoo = smoke_zoo("bundle");
        let bundle = zoo.bundle(Scenario::Mnist).unwrap();
        // Even 2 smoke epochs beat chance (10%) comfortably.
        assert!(
            bundle.clean_accuracy > 0.3,
            "clean accuracy {}",
            bundle.clean_accuracy
        );
        std::fs::remove_dir_all(zoo.dir()).ok();
    }

    #[test]
    fn defense_assembles_at_smoke_scale() {
        let zoo = smoke_zoo("defense");
        let mut defense = zoo.defense(Scenario::Mnist, Variant::Default).unwrap();
        assert_eq!(defense.num_detectors(), 2);
        let data = zoo.data(Scenario::Mnist);
        let acc = defended_clean_accuracy(&mut defense, &data.test).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        std::fs::remove_dir_all(zoo.dir()).ok();
    }
}
