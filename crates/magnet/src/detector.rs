use crate::autoencoder::Autoencoder;
use crate::fused::InferenceCache;
use crate::jsd::jsd_rows;
use crate::threshold::threshold_for_fpr;
use crate::{MagnetError, Result};
use adv_nn::softmax::softmax_rows_with_temperature;
use adv_nn::Sequential;
use adv_tensor::Tensor;
use std::fmt;
use std::sync::Arc;

/// Feeds per-item anomaly scores into the global `adv-profile` registry under
/// `magnet.detector_score.<name>` (score-ladder buckets). No-op unless
/// metrics are enabled; never alters the scores.
pub(crate) fn record_scores(name: &str, scores: &[f32]) {
    if !adv_profile::metrics_enabled() {
        return;
    }
    let hist = adv_profile::global().histogram_with(
        &format!("magnet.detector_score.{name}"),
        adv_profile::SCORE_BOUNDS,
    );
    for &s in scores {
        hist.record(f64::from(s));
    }
}

/// Which norm a reconstruction-error detector uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconstructionNorm {
    /// `‖x − AE(x)‖₁`.
    L1,
    /// `‖x − AE(x)‖₂`.
    L2,
}

/// An adversarial-input detector: scores a batch, flags items whose score
/// exceeds a calibrated threshold.
///
/// MagNet's detection decision for an input is the OR over all deployed
/// detectors.
///
/// Scoring and flagging take `&self` so a calibrated detector can serve
/// concurrent inference; only calibration mutates state.
pub trait Detector: Send + Sync + fmt::Debug {
    /// Human-readable detector name (appears in reports and errors).
    fn name(&self) -> String;

    /// Per-item anomaly scores for an NCHW batch (higher = more anomalous),
    /// reusing sub-computations (auto-encoder reconstructions, classifier
    /// logits) from `cache` and depositing its own for the stages that run
    /// later in the same pass.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `x` does not match the detector's models.
    fn scores_fused<'m>(&'m self, x: &Tensor, cache: &mut InferenceCache<'m>) -> Result<Vec<f32>>;

    /// Per-item anomaly scores for an NCHW batch, scored on its own
    /// ([`InferenceCache::unshared`]).
    ///
    /// # Errors
    ///
    /// As [`scores_fused`](Self::scores_fused).
    fn scores(&self, x: &Tensor) -> Result<Vec<f32>> {
        self.scores_fused(x, &mut InferenceCache::unshared())
    }

    /// The calibrated threshold, or `None` before calibration.
    fn threshold(&self) -> Option<f32>;

    /// Overrides the threshold directly.
    fn set_threshold(&mut self, threshold: f32);

    /// Calibrates the threshold to a false-positive rate on clean data and
    /// returns it.
    ///
    /// # Errors
    ///
    /// Propagates scoring errors and calibration errors for degenerate
    /// inputs.
    fn calibrate(&mut self, clean: &Tensor, fpr: f32) -> Result<f32> {
        let scores = self.scores(clean)?;
        record_scores(&self.name(), &scores);
        let t = threshold_for_fpr(&scores, fpr)?;
        self.set_threshold(t);
        Ok(t)
    }

    /// Per-item detection flags (`true` = adversarial).
    ///
    /// # Errors
    ///
    /// Returns [`MagnetError::Uncalibrated`] before calibration and
    /// propagates scoring errors.
    fn flags(&self, x: &Tensor) -> Result<Vec<bool>> {
        let threshold = self.threshold().ok_or_else(|| MagnetError::Uncalibrated {
            detector: self.name(),
        })?;
        let scores = self.scores(x)?;
        record_scores(&self.name(), &scores);
        Ok(scores.into_iter().map(|s| s > threshold).collect())
    }
}

/// MagNet's reconstruction-error detector: `‖x − AE(x)‖ₚ` against a
/// threshold.
#[derive(Debug, Clone)]
pub struct ReconstructionDetector {
    ae: Arc<Autoencoder>,
    norm: ReconstructionNorm,
    threshold: Option<f32>,
}

impl ReconstructionDetector {
    /// Creates the detector from a trained auto-encoder, shared with the
    /// defense's other roles.
    pub fn new(ae: Arc<Autoencoder>, norm: ReconstructionNorm) -> Self {
        ReconstructionDetector {
            ae,
            norm,
            threshold: None,
        }
    }

    /// The norm in use.
    pub fn norm(&self) -> ReconstructionNorm {
        self.norm
    }
}

impl Detector for ReconstructionDetector {
    fn name(&self) -> String {
        match self.norm {
            ReconstructionNorm::L1 => "recon-l1".to_string(),
            ReconstructionNorm::L2 => "recon-l2".to_string(),
        }
    }

    fn threshold(&self) -> Option<f32> {
        self.threshold
    }

    fn set_threshold(&mut self, threshold: f32) {
        self.threshold = Some(threshold);
    }

    fn scores_fused<'m>(&'m self, x: &Tensor, cache: &mut InferenceCache<'m>) -> Result<Vec<f32>> {
        let p = match self.norm {
            ReconstructionNorm::L1 => 1,
            ReconstructionNorm::L2 => 2,
        };
        let recon = cache.reconstruction(&self.ae, x)?;
        Ok(Autoencoder::errors_against(x, &recon, p))
    }
}

/// MagNet's probability-divergence detector:
/// `JSD(softmax(logits(x)/T) ‖ softmax(logits(AE(x))/T))` against a
/// threshold.
#[derive(Debug, Clone)]
pub struct JsdDetector {
    ae: Arc<Autoencoder>,
    classifier: Arc<Sequential>,
    temperature: f32,
    threshold: Option<f32>,
}

impl JsdDetector {
    /// Creates the detector from a trained auto-encoder, the protected
    /// classifier (both shared with the defense's other roles), and a
    /// softmax temperature.
    ///
    /// # Errors
    ///
    /// Returns [`MagnetError::InvalidArgument`] for non-positive
    /// temperature.
    pub fn new(
        ae: Arc<Autoencoder>,
        classifier: Arc<Sequential>,
        temperature: f32,
    ) -> Result<Self> {
        if temperature <= 0.0 {
            return Err(MagnetError::InvalidArgument(format!(
                "temperature {temperature} must be positive"
            )));
        }
        Ok(JsdDetector {
            ae,
            classifier,
            temperature,
            threshold: None,
        })
    }

    /// The softmax temperature.
    pub fn temperature(&self) -> f32 {
        self.temperature
    }
}

impl Detector for JsdDetector {
    fn name(&self) -> String {
        // Two decimals, trailing zeros trimmed ("10", "2.5", "0.6").
        let t = format!("{:.2}", self.temperature);
        let t = t.trim_end_matches('0').trim_end_matches('.');
        format!("jsd-t{t}")
    }

    fn threshold(&self) -> Option<f32> {
        self.threshold
    }

    fn set_threshold(&mut self, threshold: f32) {
        self.threshold = Some(threshold);
    }

    fn scores_fused<'m>(&'m self, x: &Tensor, cache: &mut InferenceCache<'m>) -> Result<Vec<f32>> {
        let recon = cache.reconstruction(&self.ae, x)?;
        let logits_x = cache.logits(&self.classifier, x)?;
        let logits_r = cache.logits(&self.classifier, &recon)?;
        let k = logits_x.shape().dim(1);
        let px = softmax_rows_with_temperature(&logits_x, self.temperature)?;
        let pr = softmax_rows_with_temperature(&logits_r, self.temperature)?;
        jsd_rows(px.as_slice(), pr.as_slice(), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{mnist_ae_two, mnist_classifier};
    use adv_nn::loss::ReconstructionLoss;
    use adv_tensor::Shape;

    fn toy_ae() -> Autoencoder {
        Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanSquaredError,
            0.0,
            7,
        )
        .unwrap()
    }

    fn toy_batch(n: usize, scale: f32) -> Tensor {
        Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| {
            ((i % 13) as f32 / 13.0 * scale).clamp(0.0, 1.0)
        })
    }

    #[test]
    fn flags_require_calibration() {
        let mut det = ReconstructionDetector::new(Arc::new(toy_ae()), ReconstructionNorm::L2);
        let x = toy_batch(2, 1.0);
        assert!(matches!(
            det.flags(&x),
            Err(MagnetError::Uncalibrated { .. })
        ));
        det.calibrate(&toy_batch(32, 1.0), 0.1).unwrap();
        assert_eq!(det.flags(&x).unwrap().len(), 2);
    }

    #[test]
    fn calibration_hits_fpr_budget() {
        let mut det = ReconstructionDetector::new(Arc::new(toy_ae()), ReconstructionNorm::L1);
        let clean = toy_batch(200, 1.0);
        det.calibrate(&clean, 0.1).unwrap();
        let flags = det.flags(&clean).unwrap();
        let fpr = flags.iter().filter(|&&f| f).count() as f32 / flags.len() as f32;
        assert!(fpr <= 0.15, "observed fpr {fpr}");
    }

    #[test]
    fn scores_are_nonnegative() {
        let det = ReconstructionDetector::new(Arc::new(toy_ae()), ReconstructionNorm::L2);
        assert!(det
            .scores(&toy_batch(8, 1.0))
            .unwrap()
            .iter()
            .all(|&s| s >= 0.0));
    }

    #[test]
    fn jsd_detector_scores_bounded() {
        let classifier =
            Arc::new(Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 3).unwrap());
        let det = JsdDetector::new(Arc::new(toy_ae()), classifier, 10.0).unwrap();
        let scores = det.scores(&toy_batch(6, 1.0)).unwrap();
        assert_eq!(scores.len(), 6);
        assert!(scores
            .iter()
            .all(|&s| (0.0..=std::f32::consts::LN_2 + 1e-5).contains(&s)));
    }

    #[test]
    fn jsd_detector_rejects_bad_temperature() {
        let classifier =
            Arc::new(Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 3).unwrap());
        assert!(JsdDetector::new(Arc::new(toy_ae()), classifier, 0.0).is_err());
    }

    #[test]
    fn detector_names_are_stable() {
        let d1 = ReconstructionDetector::new(Arc::new(toy_ae()), ReconstructionNorm::L1);
        let d2 = ReconstructionDetector::new(Arc::new(toy_ae()), ReconstructionNorm::L2);
        assert_eq!(d1.name(), "recon-l1");
        assert_eq!(d2.name(), "recon-l2");
        let classifier =
            Arc::new(Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 3).unwrap());
        let d3 = JsdDetector::new(Arc::new(toy_ae()), classifier, 40.0).unwrap();
        assert_eq!(d3.name(), "jsd-t40");
    }

    #[test]
    fn trained_detector_separates_off_manifold_noise() {
        // Train the AE on smooth blobs, then score uniform noise — the noise
        // must get strictly higher reconstruction error on average.
        let mut ae = toy_ae();
        let blobs = Tensor::from_fn(Shape::nchw(64, 1, 8, 8), |i| {
            let p = i % 64;
            let (y, x) = (p / 8, p % 8);
            let d = ((y as f32 - 3.5).powi(2) + (x as f32 - 3.5).powi(2)).sqrt();
            (1.0 - d / 5.0).clamp(0.0, 1.0)
        });
        ae.train(&blobs, 30, 16, 0.01, 1).unwrap();
        let det = ReconstructionDetector::new(Arc::new(ae), ReconstructionNorm::L2);
        let clean_mean: f32 = det.scores(&blobs).unwrap().iter().sum::<f32>() / 64.0;
        let noise = Tensor::from_fn(Shape::nchw(64, 1, 8, 8), |i| {
            ((i as u64).wrapping_mul(2_654_435_761) % 101) as f32 / 101.0
        });
        let noise_mean: f32 = det.scores(&noise).unwrap().iter().sum::<f32>() / 64.0;
        assert!(
            noise_mean > clean_mean,
            "noise {noise_mean} vs clean {clean_mean}"
        );
    }
}
