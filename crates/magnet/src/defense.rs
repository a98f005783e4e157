use crate::autoencoder::Autoencoder;
use crate::detector::{record_scores, Detector};
use crate::fork::{fork_stages, CoreClaim};
use crate::plan::{Chunk, PassPlan, Stage};
use crate::threshold::threshold_for_fpr;
use crate::{MagnetError, Result};
use adv_nn::Sequential;
use adv_profile::StageScope;
use adv_tensor::Tensor;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

/// Records pipeline verdict counters when metrics are enabled. The
/// instrumentation only bumps atomics; verdicts are never altered.
///
/// - `magnet.verdicts`: defended classifications rendered.
/// - `magnet.detected`: inputs rejected by any MagNet detector.
fn record_verdicts(verdicts: &[Verdict]) {
    if !adv_profile::metrics_enabled() {
        return;
    }
    let r = adv_profile::global();
    r.counter("magnet.verdicts").add(verdicts.len() as u64);
    let detected = verdicts
        .iter()
        .filter(|v| matches!(v, Verdict::Detected))
        .count();
    r.counter("magnet.detected").add(detected as u64);
}

/// Name of the detector stage: its profiling [`StageScope`] and the tag
/// [`MagnetDefense::classify_staged`] passes to its hook.
pub const STAGE_DETECT: &str = "magnet/detect";
/// Name of the reformer stage.
pub const STAGE_REFORM: &str = "magnet/reform";
/// Name of the classifier stage.
pub const STAGE_CLASSIFY: &str = "magnet/classify";

/// The stage hook of callers that inject nothing.
fn no_hook(_stage: &'static str) -> Result<()> {
    Ok(())
}

/// Runs one pipeline stage inside its [`StageScope`], `before_stage` first,
/// and returns its wall-clock time.
fn timed_stage(
    name: &'static str,
    before_stage: &dyn Fn(&'static str) -> Result<()>,
    run: impl FnOnce() -> Result<()>,
) -> Result<Duration> {
    #[expect(
        clippy::disallowed_methods,
        reason = "StageTimings is part of the pipeline API; the clock read is the feature."
    )]
    let started = std::time::Instant::now();
    let _stage = StageScope::enter(name);
    before_stage(name)?;
    run()?;
    Ok(started.elapsed())
}

/// Name of the [`StageScope`] each helper chunk of a split pass runs in.
pub const STAGE_CHUNK: &str = "magnet/chunk";

/// The fewest rows a chunk of a split pass gets, so a batch splits only
/// from `2 × MIN_CHUNK_ROWS` rows. Measured on a 2-vCPU host with the
/// MNIST D+JSD defense's shapes, a `Full` pass timed alone went, unsplit
/// → split in two: 2 rows 0.58 → 0.61 ms, 4 rows 1.03 → 0.85 ms, 8 rows
/// 2.27 → 1.30 ms, 32 rows 8.2 → 4.0 ms (medians of ≥ 60 interleaved
/// passes). Small batches come from light load, where the threads feeding
/// them want the other core: in the `wire` workload, splitting its 2-row
/// batches 1 + 1 raised `magnet.batch_ms` from 0.64 to 1.04 ms (3 traced
/// runs each side). At 8 rows a chunk's work is about a millisecond, well
/// above the cost of a spawn and of sharing a core with those threads.
pub const MIN_CHUNK_ROWS: usize = 8;

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

/// Wall-clock time spent in each stage of one
/// [`MagnetDefense::classify_staged`] call. Stages skipped by the scheme
/// report [`Duration::ZERO`].
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
/// pipeline (`adv_serve::fault::FaultyDefense` injects faults into its
/// stages through [`MagnetDefense::classify_staged`]). Implementations must
/// be safe to share across worker threads.
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
        let (verdicts, _, timings) = self.classify_staged(x, scheme, &no_hook)?;
        Ok((verdicts, timings))
    }

    fn classify_batch_scored(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> Result<(Vec<Verdict>, Vec<Vec<f32>>, StageTimings)> {
        self.classify_staged(x, scheme, &no_hook)
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
    reformer: Arc<Autoencoder>,
    classifier: Arc<Sequential>,
    /// Which networks a pass runs, worked out from the roles' models.
    plan: PassPlan,
    name: String,
}

impl MagnetDefense {
    /// Assembles a defense and plans its pass.
    ///
    /// Detectors must already be calibrated (or be calibrated afterwards via
    /// [`calibrate_detectors`](Self::calibrate_detectors)). Roles that hold
    /// [`Arc::clone`]s of one model share its output, which a pass computes
    /// once; a deep copy runs again. The plan is fixed here, so the
    /// detectors' [`models`](Detector::models) must not change afterwards.
    pub fn new(
        name: impl Into<String>,
        detectors: Vec<Box<dyn Detector>>,
        reformer: Arc<Autoencoder>,
        classifier: Arc<Sequential>,
    ) -> Self {
        let plan = PassPlan::new(&detectors, &reformer, &classifier);
        MagnetDefense {
            detectors,
            reformer,
            classifier,
            plan,
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

    /// Calibrates every detector to `fpr` on clean validation data, as
    /// [`Detector::calibrate`] does, from one planned detector stage.
    ///
    /// # Errors
    ///
    /// Propagates detector scoring/calibration errors.
    pub fn calibrate_detectors(&mut self, clean: &Tensor, fpr: f32) -> Result<Vec<f32>> {
        let scores = self.detector_scores(clean)?;
        (self.detectors.iter_mut().zip(scores))
            .map(|(det, scores)| {
                record_scores(&det.name(), &scores);
                let t = threshold_for_fpr(&scores, fpr)?;
                det.set_threshold(t);
                Ok(t)
            })
            .collect()
    }

    /// Per-detector flags for a batch, labelled by detector name, from one
    /// planned detector stage: the breakdown behind the stage's OR. Useful
    /// for attributing which detector family catches which attack.
    ///
    /// # Errors
    ///
    /// Returns an uncalibrated-detector error or scoring errors.
    pub fn detect_breakdown(&self, x: &Tensor) -> Result<Vec<(String, Vec<bool>)>> {
        let thresholds = self.thresholds()?;
        let scores = self.detector_scores(x)?;
        let names = self.detectors.iter().map(|det| det.name());
        Ok((names.zip(thresholds).zip(scores))
            .map(|((name, threshold), scores)| {
                record_scores(&name, &scores);
                (name, scores.into_iter().map(|s| s > threshold).collect())
            })
            .collect())
    }

    /// Every detector's threshold, in deployment order.
    fn thresholds(&self) -> Result<Vec<f32>> {
        self.detectors
            .iter()
            .map(|det| {
                det.threshold().ok_or_else(|| MagnetError::Uncalibrated {
                    detector: det.name(),
                })
            })
            .collect()
    }

    /// Every detector's scores for `x`: the detector stage, unsplit.
    fn detector_scores(&self, x: &Tensor) -> Result<Vec<Vec<f32>>> {
        let mut chunk = Chunk::new(&self.plan, Cow::Borrowed(x));
        chunk.run(&self.plan, &self.detectors, Stage::Detect)?;
        Ok(chunk.scores)
    }

    /// Runs the pipeline under a scheme and returns one verdict per input.
    ///
    /// # Errors
    ///
    /// Propagates detector and classifier errors.
    pub fn classify(&self, x: &Tensor, scheme: DefenseScheme) -> Result<Vec<Verdict>> {
        Ok(self.classify_staged(x, scheme, &no_hook)?.0)
    }

    /// The pipeline's one stage runner: detectors, then the reformer, then
    /// the classifier, skipping the stages `scheme` leaves out. Returns one
    /// verdict per input, each deployed detector's per-item scores (outer
    /// index = detector, deployment order; empty under schemes that skip
    /// the detectors) and the wall-clock time of each stage.
    ///
    /// `before_stage` runs first inside each stage that executes, with that
    /// stage's name ([`STAGE_DETECT`], [`STAGE_REFORM`], [`STAGE_CLASSIFY`]);
    /// an error from it ends the pass. Fault injection hooks in here; every
    /// other caller passes a no-op.
    ///
    /// A batch of at least `2 × MIN_CHUNK_ROWS` rows is split into
    /// contiguous row chunks, one per core that [`CoreClaim`] grants (at most
    /// `rows / MIN_CHUNK_ROWS`). Chunk 0 runs on the calling thread and each
    /// other chunk on a helper thread spawned once for the pass
    /// ([`fork_stages`](crate::fork::fork_stages)), which runs its chunk's
    /// stages in step with the calling thread: the hook runs once per
    /// stage, on the calling thread, before any chunk enters that stage,
    /// and a hook error stops and joins the helpers. Each row's result does
    /// not depend on the rows batched with it, so the joined results equal
    /// the unsplit pass bit for bit.
    ///
    /// Each chunk runs the plan [`new`](Self::new) made, so a network that
    /// detectors, reformer and classifier share runs once per chunk, in the
    /// first stage that reads it. That is MagNet's own redundancy: the
    /// paper's assemblies reuse one auto-encoder as both detector and
    /// reformer, and JSD detectors re-run the protected classifier. Roles
    /// share a network when they hold [`Arc::clone`]s of one model, as
    /// [`variants`](crate::variants)' assemblies do. Inference is
    /// deterministic, so every verdict and score equals the one each stage
    /// computes alone.
    ///
    /// # Errors
    ///
    /// Propagates hook, detector and classifier errors.
    ///
    /// # Panics
    ///
    /// A panic in any chunk resumes on the calling thread once every chunk
    /// of the stage has finished.
    pub fn classify_staged(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
        before_stage: &dyn Fn(&'static str) -> Result<()>,
    ) -> Result<(Vec<Verdict>, Vec<Vec<f32>>, StageTimings)> {
        let detect = matches!(scheme, DefenseScheme::DetectorOnly | DefenseScheme::Full);
        let reform = matches!(scheme, DefenseScheme::ReformerOnly | DefenseScheme::Full);
        let rows = x.shape().dim(0);
        let claim = CoreClaim::take(rows / MIN_CHUNK_ROWS);
        let mut chunks = Chunk::split(&self.plan, x, claim.granted())?;
        let mut timings = StageTimings::default();
        let mut thresholds = Vec::new();
        fork_stages(
            &mut chunks,
            |stage, c: &mut Chunk<'_>| c.run(&self.plan, &self.detectors, stage),
            |crew| -> Result<()> {
                if detect {
                    timings.detect = timed_stage(STAGE_DETECT, before_stage, || {
                        thresholds = self.thresholds()?;
                        crew.run(Stage::Detect).into_iter().collect::<Result<()>>()
                    })?;
                }
                if reform {
                    timings.reform = timed_stage(STAGE_REFORM, before_stage, || {
                        crew.run(Stage::Reform).into_iter().collect::<Result<()>>()
                    })?;
                }
                timings.classify = timed_stage(STAGE_CLASSIFY, before_stage, || {
                    crew.run(Stage::Classify(reform))
                        .into_iter()
                        .collect::<Result<()>>()
                })?;
                Ok(())
            },
        )?;

        let mut det_scores = vec![Vec::new(); if detect { self.detectors.len() } else { 0 }];
        let mut preds = Vec::with_capacity(rows);
        for c in chunks {
            for (all, scores) in det_scores.iter_mut().zip(c.scores) {
                all.extend(scores);
            }
            preds.extend(c.preds);
        }
        let mut detected = vec![false; rows];
        for ((det, scores), threshold) in self.detectors.iter().zip(&det_scores).zip(thresholds) {
            record_scores(&det.name(), scores);
            for (c, s) in detected.iter_mut().zip(scores) {
                *c |= *s > threshold;
            }
        }

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
    /// Returns [`MagnetError::InvalidArgument`] unless there is one label
    /// per row, and propagates pipeline errors.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize], scheme: DefenseScheme) -> Result<f32> {
        let rows = x.shape().dim(0);
        if labels.len() != rows {
            return Err(MagnetError::InvalidArgument(format!(
                "{} labels for a batch of {rows} rows",
                labels.len()
            )));
        }
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

    /// Shared access to the protected classifier.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{mnist_ae_two, mnist_classifier};
    use crate::detector::{ReconstructionDetector, ReconstructionNorm};
    use adv_nn::loss::ReconstructionLoss;
    use adv_tensor::Shape;

    fn toy_defense() -> MagnetDefense {
        let ae = Arc::new(
            Autoencoder::new(
                &mnist_ae_two(1, 3),
                ReconstructionLoss::MeanSquaredError,
                0.0,
                1,
            )
            .unwrap(),
        );
        // Seed 4: an untrained classifier whose predictions vary by input.
        let classifier =
            Arc::new(Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 4).unwrap());
        let det = ReconstructionDetector::new(Arc::clone(&ae), ReconstructionNorm::L2);
        MagnetDefense::new("toy", vec![Box::new(det)], ae, classifier)
    }

    fn toy_batch(n: usize) -> Tensor {
        Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| ((i * 7) % 11) as f32 / 11.0)
    }

    impl MagnetDefense {
        /// Networks the plan lists.
        pub(crate) fn networks(&self) -> usize {
            self.plan.networks()
        }

        /// Networks a one-chunk pass of `x` under `scheme` runs: the plan
        /// nodes that `classify_staged`'s stages, replayed on one chunk,
        /// fill.
        pub(crate) fn network_runs(&self, x: &Tensor, scheme: DefenseScheme) -> usize {
            let detect = matches!(scheme, DefenseScheme::DetectorOnly | DefenseScheme::Full);
            let reform = matches!(scheme, DefenseScheme::ReformerOnly | DefenseScheme::Full);
            let mut chunk = Chunk::new(&self.plan, Cow::Borrowed(x));
            let stages = [
                (detect, Stage::Detect),
                (reform, Stage::Reform),
                (true, Stage::Classify(reform)),
            ];
            for (_, stage) in stages.into_iter().filter(|(on, _)| *on) {
                chunk.run(&self.plan, &self.detectors, stage).unwrap();
            }
            chunk.runs()
        }
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
        let verdicts = d.classify(&weird, DefenseScheme::DetectorOnly).unwrap();
        // At least the pipeline runs and returns per-item verdicts.
        assert_eq!(verdicts.len(), 4);
    }

    #[test]
    fn breakdown_matches_combined_detection() {
        let mut d = jsd_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        let x = mixed_batch();
        let breakdown = d.detect_breakdown(&x).unwrap();
        assert_eq!(breakdown.len(), d.num_detectors());
        for ((name, flags), det) in breakdown.iter().zip(d.detectors()) {
            assert_eq!(*name, det.name());
            assert_eq!(*flags, det.flags(&x).unwrap(), "{name}");
        }
        assert!(breakdown.iter().any(|(_, flags)| flags.contains(&true)));
        let combined = d.classify(&x, DefenseScheme::DetectorOnly).unwrap();
        for (i, verdict) in combined.iter().enumerate() {
            let any = breakdown.iter().any(|(_, flags)| flags[i]);
            assert_eq!(any, *verdict == Verdict::Detected, "item {i}");
        }
        assert_eq!(breakdown[0].0, "recon-l2");
    }

    #[test]
    fn planned_calibration_equals_each_detector_alone() {
        let mut planned = jsd_defense();
        let got = planned.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        let mut alone = jsd_defense();
        let want: Vec<f32> = alone
            .detectors
            .iter_mut()
            .map(|det| det.calibrate(&toy_batch(64), 0.05).unwrap())
            .collect();
        assert_eq!(
            bits(&[got, planned.thresholds().unwrap()]),
            bits(&[want.clone(), want])
        );
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
    fn labels_shorter_than_batch_are_rejected() {
        // Unlabelled rows would otherwise count as not defended.
        let d = toy_defense();
        let short = d.accuracy(&toy_batch(3), &[0, 0], DefenseScheme::None);
        assert!(matches!(short, Err(MagnetError::InvalidArgument(_))));
        let acc = d
            .accuracy(&toy_batch(3), &[0, 0, 0], DefenseScheme::None)
            .unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    /// A defense with the paper's D+JSD redundancy pattern: one AE shared by
    /// a reconstruction detector, two JSD detectors, and the reformer; the
    /// JSD detectors also share the protected classifier.
    fn jsd_defense() -> MagnetDefense {
        let ae = Arc::new(
            Autoencoder::new(
                &mnist_ae_two(1, 3),
                ReconstructionLoss::MeanSquaredError,
                0.0,
                1,
            )
            .unwrap(),
        );
        // Seed 4: an untrained classifier whose predictions vary by input.
        let classifier =
            Arc::new(Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 4).unwrap());
        let jsd = |t| {
            crate::detector::JsdDetector::new(Arc::clone(&ae), Arc::clone(&classifier), t).unwrap()
        };
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(ReconstructionDetector::new(
                Arc::clone(&ae),
                ReconstructionNorm::L2,
            )),
            Box::new(jsd(10.0)),
            Box::new(jsd(40.0)),
        ];
        MagnetDefense::new("toy-d-jsd", detectors, ae, classifier)
    }

    /// The pipeline composed stage by stage with no sharing: each detector
    /// scores on its own ([`Detector::scores`]), then `reformer().reconstruct`, then
    /// `classifier().infer` and argmax. Returns verdicts and per-detector
    /// scores in the runner's layout.
    fn unshared_reference(
        d: &MagnetDefense,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> (Vec<Verdict>, Vec<Vec<f32>>) {
        let n = x.shape().dim(0);
        let mut detected = vec![false; n];
        let mut scores = Vec::new();
        if matches!(scheme, DefenseScheme::DetectorOnly | DefenseScheme::Full) {
            for det in d.detectors() {
                let s = det.scores(x).unwrap();
                for ((c, f), v) in detected.iter_mut().zip(det.flags(x).unwrap()).zip(&s) {
                    assert_eq!(f, *v > det.threshold().unwrap());
                    *c |= f;
                }
                scores.push(s);
            }
        }
        let input = match scheme {
            DefenseScheme::ReformerOnly | DefenseScheme::Full => {
                d.reformer().reconstruct(x).unwrap()
            }
            _ => x.clone(),
        };
        let preds = d.classifier().infer(&input).unwrap().argmax_rows().unwrap();
        let verdicts = detected
            .into_iter()
            .zip(preds)
            .map(|(det, p)| {
                if det {
                    Verdict::Detected
                } else {
                    Verdict::Classified(p)
                }
            })
            .collect();
        (verdicts, scores)
    }

    fn bits(scores: &[Vec<f32>]) -> Vec<Vec<u32>> {
        scores
            .iter()
            .map(|col| col.iter().map(|s| s.to_bits()).collect())
            .collect()
    }

    /// Six items like the calibration data, then six saturated stripes far
    /// from it.
    fn mixed_batch() -> Tensor {
        Tensor::from_fn(Shape::nchw(12, 1, 8, 8), |i| {
            if i < 6 * 64 {
                ((i * 7) % 11) as f32 / 11.0
            } else {
                ((i / 3) % 2) as f32
            }
        })
    }

    #[test]
    fn runner_is_bit_identical_to_unshared_stages() {
        for mut d in [toy_defense(), jsd_defense()] {
            d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
            // With several detectors, the last flags nothing: the OR must
            // carry the others' flags.
            if let [_, .., last] = d.detectors.as_mut_slice() {
                last.set_threshold(f32::INFINITY);
            }
            let x = mixed_batch();
            // The batch must tell the stages apart: some input detected,
            // some not, and some prediction changed by the reformer.
            let (detected, _) = unshared_reference(&d, &x, DefenseScheme::DetectorOnly);
            assert!(detected.contains(&Verdict::Detected), "{}", d.name());
            assert!(detected.iter().any(|v| *v != Verdict::Detected));
            assert_ne!(
                unshared_reference(&d, &x, DefenseScheme::None).0,
                unshared_reference(&d, &x, DefenseScheme::ReformerOnly).0,
                "{}",
                d.name()
            );
            for scheme in DefenseScheme::ALL {
                let (want, want_scores) = unshared_reference(&d, &x, scheme);
                let (got, got_scores, timings) = d.classify_batch_scored(&x, scheme).unwrap();
                assert_eq!(got, want, "{} {scheme:?}", d.name());
                assert_eq!(
                    bits(&got_scores),
                    bits(&want_scores),
                    "{} {scheme:?}",
                    d.name()
                );
                assert_eq!(d.classify(&x, scheme).unwrap(), want);
                match scheme {
                    DefenseScheme::DetectorOnly | DefenseScheme::Full => {
                        assert_eq!(got_scores.len(), d.num_detectors());
                        assert!(timings.detect > Duration::ZERO);
                    }
                    _ => assert!(got_scores.is_empty(), "{scheme:?}"),
                }
            }
        }
    }

    #[test]
    fn hook_sees_each_executed_stage_in_order() {
        let mut d = jsd_defense();
        d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
        let x = toy_batch(3);
        let expected: [&[&str]; 4] = [
            &[STAGE_CLASSIFY],
            &[STAGE_DETECT, STAGE_CLASSIFY],
            &[STAGE_REFORM, STAGE_CLASSIFY],
            &[STAGE_DETECT, STAGE_REFORM, STAGE_CLASSIFY],
        ];
        for (scheme, want) in DefenseScheme::ALL.into_iter().zip(expected) {
            let seen = std::cell::RefCell::new(Vec::new());
            d.classify_staged(&x, scheme, &|stage| {
                seen.borrow_mut().push(stage);
                Ok(())
            })
            .unwrap();
            assert_eq!(seen.into_inner(), want, "{scheme:?}");
        }
    }

    #[test]
    fn planned_pass_runs_each_shared_network_once() {
        // Role by role, a Full pass over this defense runs the shared AE
        // four times (recon detector, two JSD detectors, reformer) and the
        // classifier five times (x and AE(x) per JSD detector, plus the
        // final pass on the reformed batch): 9 network runs for 3 distinct
        // networks, AE(x), logits(x) and logits(AE(x)).
        let d = jsd_defense();
        assert_eq!(d.networks(), 3);
        let x = toy_batch(4);
        let runs = DefenseScheme::ALL.map(|scheme| d.network_runs(&x, scheme));
        // None: logits(x). DetectorOnly: all three, the classifier stage
        // reading the detectors' logits(x). ReformerOnly: AE(x) and
        // logits(AE(x)).
        assert_eq!(runs, [1, 3, 2, 3]);
    }

    #[test]
    fn a_detector_holding_a_deep_copy_of_the_reformer_runs_it_again() {
        let ae = Arc::new(
            Autoencoder::new(
                &mnist_ae_two(1, 3),
                ReconstructionLoss::MeanSquaredError,
                0.0,
                1,
            )
            .unwrap(),
        );
        let classifier =
            Arc::new(Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 4).unwrap());
        let build = |recon_ae: Arc<Autoencoder>| {
            let detectors: Vec<Box<dyn Detector>> = vec![
                Box::new(ReconstructionDetector::new(
                    recon_ae,
                    ReconstructionNorm::L2,
                )),
                Box::new(
                    crate::detector::JsdDetector::new(
                        Arc::clone(&ae),
                        Arc::clone(&classifier),
                        10.0,
                    )
                    .unwrap(),
                ),
            ];
            let mut d = MagnetDefense::new(
                "toy-copy",
                detectors,
                Arc::clone(&ae),
                Arc::clone(&classifier),
            );
            d.calibrate_detectors(&toy_batch(64), 0.05).unwrap();
            d
        };
        let shared = build(Arc::clone(&ae));
        let copied = build(Arc::new(Autoencoder::clone(&ae)));
        // The copy is a network of its own: AE(x), logits(x), logits(AE(x)),
        // and the copy's AE(x).
        assert_eq!(shared.networks(), 3);
        assert_eq!(copied.networks(), 4);
        let x = mixed_batch();
        assert_eq!(copied.network_runs(&x, DefenseScheme::Full), 4);
        for scheme in DefenseScheme::ALL {
            let (want, want_scores, _) = shared.classify_staged(&x, scheme, &no_hook).unwrap();
            let (got, got_scores, _) = copied.classify_staged(&x, scheme, &no_hook).unwrap();
            assert_eq!(got, want, "{scheme:?}");
            assert_eq!(bits(&got_scores), bits(&want_scores), "{scheme:?}");
            assert_eq!(got, unshared_reference(&copied, &x, scheme).0, "{scheme:?}");
        }
    }

    #[test]
    fn scheme_labels_match_paper_legends() {
        assert_eq!(DefenseScheme::None.label(), "No defense");
        assert_eq!(DefenseScheme::Full.label(), "With detector & reformer");
        assert_eq!(DefenseScheme::ALL.len(), 4);
    }
}
