use crate::autoencoder::Autoencoder;
use crate::detector::Detector;
use crate::fused::InferenceCache;
use crate::Result;
use adv_nn::Sequential;
use adv_profile::StageScope;
use adv_tensor::Tensor;
use std::time::Duration;

/// Records pipeline verdict counters when metrics are enabled. The
/// instrumentation only bumps atomics; verdicts are never altered.
fn record_verdicts(verdicts: &[Verdict]) {
    if !adv_obs::metrics_enabled() {
        return;
    }
    let r = adv_obs::global();
    r.counter("magnet.verdicts").add(verdicts.len() as u64);
    let detected = verdicts
        .iter()
        .filter(|v| matches!(v, Verdict::Detected))
        .count();
    r.counter("magnet.detected").add(detected as u64);
}

/// Which parts of MagNet are active — the four defense schemes compared in
/// the paper's supplementary figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseScheme {
    /// Plain DNN, no defense.
    None,
    /// Detectors only (undetected inputs go to the DNN unreformed).
    DetectorOnly,
    /// Reformer only (every input is auto-encoded before the DNN).
    ReformerOnly,
    /// Detectors, then reformer — full MagNet.
    Full,
}

impl DefenseScheme {
    /// All four schemes, in the order the paper's plots use.
    pub const ALL: [DefenseScheme; 4] = [
        DefenseScheme::None,
        DefenseScheme::DetectorOnly,
        DefenseScheme::ReformerOnly,
        DefenseScheme::Full,
    ];

    /// The label used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            DefenseScheme::None => "No defense",
            DefenseScheme::DetectorOnly => "With detector",
            DefenseScheme::ReformerOnly => "With reformer",
            DefenseScheme::Full => "With detector & reformer",
        }
    }

    /// The next-cheaper scheme the serving engine degrades to when a stage
    /// keeps failing: drop the reformer first (`Full → DetectorOnly`), then
    /// the detectors (`DetectorOnly → None`, i.e. classifier-only).
    /// [`DefenseScheme::None`] is the floor and maps to itself.
    pub fn fallback(self) -> DefenseScheme {
        match self {
            DefenseScheme::Full => DefenseScheme::DetectorOnly,
            DefenseScheme::DetectorOnly | DefenseScheme::ReformerOnly => DefenseScheme::None,
            DefenseScheme::None => DefenseScheme::None,
        }
    }
}

/// Per-input outcome of the defense pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A detector flagged the input as adversarial.
    Detected,
    /// The input passed the detectors and was classified (possibly after
    /// reforming) as this class.
    Classified(usize),
}

impl Verdict {
    /// `true` when this verdict defends against an adversarial input with
    /// ground-truth label `truth`: either it was detected, or it was
    /// classified correctly anyway.
    pub fn defends(self, truth: usize) -> bool {
        match self {
            Verdict::Detected => true,
            Verdict::Classified(pred) => pred == truth,
        }
    }
}

/// Wall-clock time spent in each stage of one [`MagnetDefense::classify_timed`]
/// call. Stages skipped by the scheme report [`Duration::ZERO`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Detector scoring (all deployed detectors, OR-combined).
    pub detect: Duration,
    /// Reformer auto-encoder pass.
    pub reform: Duration,
    /// Classifier forward pass (including argmax).
    pub classify: Duration,
}

impl StageTimings {
    /// Total time across the three stages.
    pub fn total(&self) -> Duration {
        self.detect + self.reform + self.classify
    }
}

/// Object-safe view of a batch classification pipeline.
///
/// The serving engine (`adv-serve`) drives whatever implements this trait —
/// normally [`MagnetDefense`] itself, but also wrappers that decorate the
/// pipeline (the chaos crate's `FaultyDefense` injects faults between
/// stages). Implementations must be safe to share across worker threads.
pub trait DefensePipeline: Send + Sync + std::fmt::Debug {
    /// The pipeline's display name.
    fn name(&self) -> &str;

    /// Classifies a stacked batch (`[N, C, H, W]`) under `scheme`, returning
    /// one verdict per input plus per-stage wall-clock timings.
    ///
    /// # Errors
    ///
    /// Propagates detector, reformer, and classifier errors.
    fn classify_batch(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> Result<(Vec<Verdict>, StageTimings)>;

    /// Like [`classify_batch`](Self::classify_batch), but additionally
    /// returns each deployed detector's per-item anomaly scores (outer index
    /// = detector, in deployment order; empty under schemes that skip the
    /// detectors). Telemetry recording rides on this.
    ///
    /// The default forwards to `classify_batch` with no scores, so wrappers
    /// that only decorate verdicts keep working unchanged.
    ///
    /// # Errors
    ///
    /// As [`classify_batch`](Self::classify_batch).
    fn classify_batch_scored(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> Result<(Vec<Verdict>, Vec<Vec<f32>>, StageTimings)> {
        let (verdicts, timings) = self.classify_batch(x, scheme)?;
        Ok((verdicts, Vec::new(), timings))
    }
}

impl DefensePipeline for MagnetDefense {
    fn name(&self) -> &str {
        &self.name
    }

    fn classify_batch(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> Result<(Vec<Verdict>, StageTimings)> {
        // The fused pass is the serving hot path: bit-identical to
        // `classify`, with shared sub-computations memoised per batch.
        self.classify_fused(x, scheme)
    }

    fn classify_batch_scored(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> Result<(Vec<Verdict>, Vec<Vec<f32>>, StageTimings)> {
        self.classify_fused_scored(x, scheme)
    }
}

/// The assembled MagNet defense: a set of calibrated detectors, a reformer
/// auto-encoder, and the protected classifier.
///
/// The evaluation convention follows the paper: *classification accuracy* on
/// a batch of (possibly adversarial) inputs is the fraction that is either
/// detected or correctly classified after reforming; the *attack success
/// rate* is its complement.
#[derive(Debug)]
pub struct MagnetDefense {
    detectors: Vec<Box<dyn Detector>>,
    reformer: Autoencoder,
    classifier: Sequential,
    name: String,
}

impl MagnetDefense {
    /// Assembles a defense.
    ///
    /// Detectors must already be calibrated (or be calibrated afterwards via
    /// [`calibrate_detectors`](Self::calibrate_detectors)).
    pub fn new(
        name: impl Into<String>,
        detectors: Vec<Box<dyn Detector>>,
        reformer: Autoencoder,
        classifier: Sequential,
    ) -> Self {
        MagnetDefense {
            detectors,
            reformer,
            classifier,
            name: name.into(),
        }
    }

    /// The defense variant's display name (e.g. "default", "D+256+JSD").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of deployed detectors.
    pub fn num_detectors(&self) -> usize {
        self.detectors.len()
    }

    /// Calibrates every detector to `fpr` on clean validation data.
    ///
    /// # Errors
    ///
    /// Propagates detector scoring/calibration errors.
    pub fn calibrate_detectors(&mut self, clean: &Tensor, fpr: f32) -> Result<Vec<f32>> {
        self.detectors
            .iter_mut()
            .map(|d| d.calibrate(clean, fpr))
            .collect()
    }

    /// OR-combined detector flags for a batch.
    ///
    /// # Errors
    ///
    /// Returns an uncalibrated-detector error or scoring errors.
    pub fn detect(&self, x: &Tensor) -> Result<Vec<bool>> {
        let n = x.shape().dim(0);
        let mut combined = vec![false; n];
        for det in &self.detectors {
            for (c, f) in combined.iter_mut().zip(det.flags(x)?) {
                *c |= f;
            }
        }
        Ok(combined)
    }

    /// Per-detector flags for a batch, labelled by detector name — the
    /// breakdown behind [`detect`](Self::detect)'s OR. Useful for attributing
    /// which detector family catches which attack.
    ///
    /// # Errors
    ///
    /// Returns an uncalibrated-detector error or scoring errors.
    pub fn detect_breakdown(&self, x: &Tensor) -> Result<Vec<(String, Vec<bool>)>> {
        self.detectors
            .iter()
            .map(|d| Ok((d.name(), d.flags(x)?)))
            .collect()
    }

    /// Reforms a batch through the reformer auto-encoder.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the auto-encoder.
    pub fn reform(&self, x: &Tensor) -> Result<Tensor> {
        self.reformer.reconstruct(x)
    }

    /// Runs the pipeline under a scheme and returns one verdict per input.
    ///
    /// # Errors
    ///
    /// Propagates detector and classifier errors.
    pub fn classify(&self, x: &Tensor, scheme: DefenseScheme) -> Result<Vec<Verdict>> {
        Ok(self.classify_timed(x, scheme)?.0)
    }

    /// Like [`classify`](Self::classify) but also reports wall-clock time per
    /// pipeline stage — the serving engine's per-request latency breakdown.
    ///
    /// # Errors
    ///
    /// Propagates detector and classifier errors.
    pub fn classify_timed(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> Result<(Vec<Verdict>, StageTimings)> {
        let n = x.shape().dim(0);
        let mut timings = StageTimings::default();

        // lint-ok(gated-clocks): StageTimings.detect is part of the
        // classify_timed/classify_fused API; the clock read is the feature.
        let t0 = std::time::Instant::now();
        let detected = match scheme {
            DefenseScheme::DetectorOnly | DefenseScheme::Full => {
                let _stage = StageScope::enter("magnet/detect");
                let d = self.detect(x)?;
                timings.detect = t0.elapsed();
                d
            }
            _ => vec![false; n],
        };

        // lint-ok(gated-clocks): StageTimings.reform is part of the
        // classify_timed/classify_fused API; the clock read is the feature.
        let t1 = std::time::Instant::now();
        let input = match scheme {
            DefenseScheme::ReformerOnly | DefenseScheme::Full => {
                let _stage = StageScope::enter("magnet/reform");
                let r = self.reform(x)?;
                timings.reform = t1.elapsed();
                r
            }
            _ => x.clone(),
        };

        // lint-ok(gated-clocks): StageTimings.classify is part of the
        // classify_timed/classify_fused API; the clock read is the feature.
        let t2 = std::time::Instant::now();
        let preds = {
            let _stage = StageScope::enter("magnet/classify");
            self.classifier.predict_shared(&input)?
        };
        timings.classify = t2.elapsed();

        let verdicts: Vec<Verdict> = detected
            .into_iter()
            .zip(preds)
            .map(|(d, p)| {
                if d {
                    Verdict::Detected
                } else {
                    Verdict::Classified(p)
                }
            })
            .collect();
        record_verdicts(&verdicts);
        Ok((verdicts, timings))
    }

    /// Like [`classify_timed`](Self::classify_timed), but runs the pipeline
    /// through an [`InferenceCache`] so sub-computations shared between
    /// detectors, reformer, and classifier execute once per batch instead of
    /// once per consumer.
    ///
    /// The cache only reuses a result when model parameters and input tensor
    /// are bit-identical, so the verdicts (and stage attribution of *which*
    /// work ran) match [`classify`](Self::classify) exactly — this is the
    /// serving engine's hot path, and its speedup over the serial path comes
    /// from MagNet's own redundancy: the paper's assemblies reuse one
    /// auto-encoder as both detector and reformer, and JSD detectors re-run
    /// the protected classifier.
    ///
    /// # Errors
    ///
    /// Propagates detector and classifier errors.
    pub fn classify_fused(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> Result<(Vec<Verdict>, StageTimings)> {
        let (verdicts, _, timings) = self.classify_fused_scored(x, scheme)?;
        Ok((verdicts, timings))
    }

    /// Like [`classify_fused`](Self::classify_fused), but also returns each
    /// detector's per-item scores (outer index = detector, deployment
    /// order; empty under schemes that skip the detectors). The verdicts
    /// are bit-identical to `classify_fused` — flags are `score >
    /// threshold` on the exact same score vectors the detectors already
    /// compute, so keeping them costs no extra pipeline work.
    ///
    /// # Errors
    ///
    /// Propagates detector and classifier errors.
    pub fn classify_fused_scored(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> Result<(Vec<Verdict>, Vec<Vec<f32>>, StageTimings)> {
        let n = x.shape().dim(0);
        let mut timings = StageTimings::default();
        let mut cache = InferenceCache::new();

        // lint-ok(gated-clocks): StageTimings.detect is part of the
        // classify_timed/classify_fused API; the clock read is the feature.
        let t0 = std::time::Instant::now();
        let mut det_scores: Vec<Vec<f32>> = Vec::new();
        let detected = match scheme {
            DefenseScheme::DetectorOnly | DefenseScheme::Full => {
                let _stage = StageScope::enter("magnet/detect");
                let mut combined = vec![false; n];
                for det in &self.detectors {
                    // Inline of Detector::flags_fused, keeping the scores:
                    // same threshold lookup, same record_scores call, same
                    // strict `>` comparison.
                    let threshold =
                        det.threshold()
                            .ok_or_else(|| crate::MagnetError::Uncalibrated {
                                detector: det.name(),
                            })?;
                    let scores = det.scores_fused(x, &mut cache)?;
                    crate::detector::record_scores(&det.name(), &scores);
                    for (c, s) in combined.iter_mut().zip(&scores) {
                        *c |= *s > threshold;
                    }
                    det_scores.push(scores);
                }
                timings.detect = t0.elapsed();
                combined
            }
            _ => vec![false; n],
        };

        // lint-ok(gated-clocks): StageTimings.reform is part of the
        // classify_timed/classify_fused API; the clock read is the feature.
        let t1 = std::time::Instant::now();
        let input = match scheme {
            DefenseScheme::ReformerOnly | DefenseScheme::Full => {
                let _stage = StageScope::enter("magnet/reform");
                let r = cache.reconstruction(&self.reformer, x)?;
                timings.reform = t1.elapsed();
                r
            }
            _ => x.clone(),
        };

        // lint-ok(gated-clocks): StageTimings.classify is part of the
        // classify_timed/classify_fused API; the clock read is the feature.
        let t2 = std::time::Instant::now();
        let preds = {
            let _stage = StageScope::enter("magnet/classify");
            let logits = cache.logits(&self.classifier, &input)?;
            logits.argmax_rows()?
        };
        timings.classify = t2.elapsed();

        let verdicts: Vec<Verdict> = detected
            .into_iter()
            .zip(preds)
            .map(|(d, p)| {
                if d {
                    Verdict::Detected
                } else {
                    Verdict::Classified(p)
                }
            })
            .collect();
        record_verdicts(&verdicts);
        Ok((verdicts, det_scores, timings))
    }

    /// The paper's *classification accuracy* of the defense on a batch with
    /// ground-truth labels: fraction detected or correctly classified.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors; the label count must match the batch.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize], scheme: DefenseScheme) -> Result<f32> {
        let verdicts = self.classify(x, scheme)?;
        if verdicts.is_empty() {
            return Ok(0.0);
        }
        let defended = verdicts
            .iter()
            .zip(labels)
            .filter(|(v, &t)| v.defends(t))
            .count();
        Ok(defended as f32 / verdicts.len() as f32)
    }

    /// Shared access to the protected classifier (pipeline wrappers run the
    /// final forward pass themselves, e.g. to inject faults between stages).
    pub fn classifier(&self) -> &Sequential {
        &self.classifier
    }

    /// Shared access to the reformer auto-encoder.
    pub fn reformer(&self) -> &Autoencoder {
        &self.reformer
    }

    /// Shared access to the deployed detectors.
    pub fn detectors(&self) -> &[Box<dyn Detector>] {
        &self.detectors
    }

    /// Mutable access to the protected classifier (for gray-box experiments).
    pub fn classifier_mut(&mut self) -> &mut Sequential {
        &mut self.classifier
    }

    /// Mutable access to the reformer (for gray-box experiments).
    pub fn reformer_mut(&mut self) -> &mut Autoencoder {
        &mut self.reformer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{mnist_ae_two, mnist_classifier};
    use crate::detector::{ReconstructionDetector, ReconstructionNorm};
    use adv_nn::loss::ReconstructionLoss;
    use adv_tensor::Shape;

    fn toy_defense() -> MagnetDefense {
        let ae = Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanSquaredError,
            0.0,
            1,
        )
        .unwrap();
        let classifier = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 2).unwrap();
        let det = ReconstructionDetector::new(ae.clone(), ReconstructionNorm::L2);
        MagnetDefense::new("toy", vec![Box::new(det)], ae, classifier)
    }

    fn toy_batch(n: usize) -> Tensor {
        Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| ((i * 7) % 11) as f32 / 11.0)
    }

    #[test]
    fn verdict_semantics() {
        assert!(Verdict::Detected.defends(3));
        assert!(Verdict::Classified(3).defends(3));
        assert!(!Verdict::Classified(2).defends(3));
    }

    #[test]
    fn scheme_none_never_detects() {
        let d = toy_defense();
        // No calibration needed: scheme None skips detectors entirely.
        let verdicts = d.classify(&toy_batch(4), DefenseScheme::None).unwrap();
        assert!(verdicts.iter().all(|v| matches!(v, Verdict::Classified(_))));
    }

    #[test]
    fn uncalibrated_full_scheme_errors() {
        let d = toy_defense();
        assert!(d.classify(&toy_batch(2), DefenseScheme::Full).is_err());
    }

    #[test]
    fn calibrated_pipeline_runs_all_schemes() {
        let mut d = toy_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        for scheme in DefenseScheme::ALL {
            let acc = d.accuracy(&toy_batch(8), &[0; 8], scheme).unwrap();
            assert!((0.0..=1.0).contains(&acc), "{scheme:?}: {acc}");
        }
    }

    #[test]
    fn detector_only_flags_off_manifold_input() {
        let mut d = toy_defense();
        d.calibrate_detectors(&toy_batch(64), 0.02).unwrap();
        // Saturated checkerboard is far from anything the random AE maps well;
        // reconstruction error should be large relative to clean scores.
        let weird = Tensor::from_fn(Shape::nchw(4, 1, 8, 8), |i| ((i / 3) % 2) as f32);
        let flags = d.detect(&weird).unwrap();
        // At least the pipeline runs and returns per-item flags.
        assert_eq!(flags.len(), 4);
    }

    #[test]
    fn breakdown_matches_combined_detection() {
        let mut d = toy_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        let x = toy_batch(6);
        let combined = d.detect(&x).unwrap();
        let breakdown = d.detect_breakdown(&x).unwrap();
        assert_eq!(breakdown.len(), d.num_detectors());
        for i in 0..6 {
            let any = breakdown.iter().any(|(_, flags)| flags[i]);
            assert_eq!(any, combined[i], "item {i}");
        }
        assert_eq!(breakdown[0].0, "recon-l2");
    }

    #[test]
    fn accuracy_counts_detected_as_defended() {
        let mut d = toy_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        // Force-detect everything by dropping the threshold below all scores.
        for det in &mut d.detectors {
            det.set_threshold(-1.0);
        }
        let acc = d
            .accuracy(&toy_batch(5), &[9; 5], DefenseScheme::Full)
            .unwrap();
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn labels_shorter_than_batch_are_partial() {
        // zip() semantics: extra verdicts are ignored; documents the contract.
        let d = toy_defense();
        let acc = d
            .accuracy(&toy_batch(3), &[0, 0, 0], DefenseScheme::None)
            .unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    /// A defense with the paper's D+JSD redundancy pattern: one AE shared by
    /// a reconstruction detector, two JSD detectors, and the reformer; the
    /// JSD detectors also carry clones of the protected classifier.
    fn jsd_defense() -> MagnetDefense {
        let ae = Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanSquaredError,
            0.0,
            1,
        )
        .unwrap();
        let classifier = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 2).unwrap();
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(ReconstructionDetector::new(
                ae.clone(),
                ReconstructionNorm::L2,
            )),
            Box::new(
                crate::detector::JsdDetector::new(ae.clone(), classifier.clone(), 10.0).unwrap(),
            ),
            Box::new(
                crate::detector::JsdDetector::new(ae.clone(), classifier.clone(), 40.0).unwrap(),
            ),
        ];
        MagnetDefense::new("toy-d-jsd", detectors, ae, classifier)
    }

    #[test]
    fn fused_pipeline_is_bit_identical_to_serial() {
        for mut d in [toy_defense(), jsd_defense()] {
            d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
            let x = toy_batch(12);
            for scheme in DefenseScheme::ALL {
                let serial = d.classify(&x, scheme).unwrap();
                let (fused, timings) = d.classify_fused(&x, scheme).unwrap();
                assert_eq!(fused, serial, "{} {scheme:?}", d.name());
                if scheme == DefenseScheme::Full {
                    assert!(timings.detect > Duration::ZERO);
                }
            }
        }
    }

    #[test]
    fn fused_pass_actually_deduplicates_shared_work() {
        // Replay a Full pass through one cache and count network executions.
        // Serial, this defense runs the shared AE four times (recon detector,
        // two JSD detectors, reformer) and the classifier five times (x and
        // AE(x) per JSD detector, plus the final pass on the reformed batch)
        // — 9 network runs for only 3 distinct computations.
        let mut d = jsd_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        let x = toy_batch(4);
        let mut cache = InferenceCache::new();
        for det in &d.detectors {
            det.flags_fused(&x, &mut cache).unwrap();
        }
        let reformed = cache.reconstruction(&d.reformer, &x).unwrap();
        cache.logits(&d.classifier, &reformed).unwrap();
        // Serial work: 4 AE passes + 5 classifier passes = 9 network runs.
        // Distinct: AE(x), logits(x), logits(AE(x)) = 3.
        assert_eq!(cache.misses(), 3, "distinct sub-computations");
        assert_eq!(cache.hits(), 6, "deduplicated sub-computations");
    }

    #[test]
    fn scored_pipeline_is_bit_identical_and_exposes_scores() {
        let mut d = jsd_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        let x = toy_batch(6);
        for scheme in DefenseScheme::ALL {
            let (plain, _) = d.classify_fused(&x, scheme).unwrap();
            let (scored, scores, _) = d.classify_fused_scored(&x, scheme).unwrap();
            assert_eq!(scored, plain, "{scheme:?}");
            match scheme {
                DefenseScheme::DetectorOnly | DefenseScheme::Full => {
                    assert_eq!(scores.len(), d.num_detectors(), "{scheme:?}");
                    assert!(scores.iter().all(|col| col.len() == 6));
                }
                _ => assert!(scores.is_empty(), "{scheme:?}"),
            }
        }
    }

    #[test]
    fn scheme_labels_match_paper_legends() {
        assert_eq!(DefenseScheme::None.label(), "No defense");
        assert_eq!(DefenseScheme::Full.label(), "With detector & reformer");
        assert_eq!(DefenseScheme::ALL.len(), 4);
    }
}
