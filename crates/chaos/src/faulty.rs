//! A fault-wrapped defense pipeline.
//!
//! [`FaultyDefense`] decorates a shared [`MagnetDefense`] with per-stage
//! injection points so chaos tests can fail exactly one stage of the
//! pipeline: detector scoring ([`SITE_DETECT`]), the reformer
//! ([`SITE_REFORM`]), or the protected classifier ([`SITE_CLASSIFY`]).
//! It runs the defense's own stage runner,
//! [`MagnetDefense::classify_staged`], with the injector as the stage hook,
//! so with a no-op injector its verdicts and scores are bit-identical to
//! the unwrapped defense (pinned by this module's tests).

use crate::FaultInjector;
use adv_magnet::{
    DefensePipeline, DefenseScheme, MagnetDefense, MagnetError, StageTimings, Verdict,
};
use adv_tensor::Tensor;
use std::sync::Arc;

/// Injection site evaluated before detector scoring.
pub const SITE_DETECT: &str = adv_magnet::STAGE_DETECT;
/// Injection site evaluated before the reformer pass.
pub const SITE_REFORM: &str = adv_magnet::STAGE_REFORM;
/// Injection site evaluated before the classifier forward pass.
pub const SITE_CLASSIFY: &str = adv_magnet::STAGE_CLASSIFY;

/// [`MagnetDefense`] with deterministic faults between its stages.
#[derive(Debug)]
pub struct FaultyDefense {
    inner: Arc<MagnetDefense>,
    injector: Arc<FaultInjector>,
}

impl FaultyDefense {
    /// Wraps `inner` so every pipeline stage consults `injector` first.
    pub fn new(inner: Arc<MagnetDefense>, injector: Arc<FaultInjector>) -> FaultyDefense {
        FaultyDefense { inner, injector }
    }

    /// The wrapped defense.
    pub fn inner(&self) -> &Arc<MagnetDefense> {
        &self.inner
    }

    /// The injector driving this wrapper's stages.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Applies the injector at `site`, mapping injected errors into the
    /// defense's error type (panics and delays pass through unchanged).
    fn inject(&self, site: &'static str) -> adv_magnet::Result<()> {
        self.injector.apply(site).map_err(|e| MagnetError::Stage {
            stage: site.to_string(),
            message: e.to_string(),
        })
    }
}

impl DefensePipeline for FaultyDefense {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn classify_batch(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> adv_magnet::Result<(Vec<Verdict>, StageTimings)> {
        let (verdicts, _, timings) = self
            .inner
            .classify_staged(x, scheme, &|site| self.inject(site))?;
        Ok((verdicts, timings))
    }

    fn classify_batch_scored(
        &self,
        x: &Tensor,
        scheme: DefenseScheme,
    ) -> adv_magnet::Result<(Vec<Verdict>, Vec<Vec<f32>>, StageTimings)> {
        self.inner
            .classify_staged(x, scheme, &|site| self.inject(site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultError, FaultPlan, SiteFaults};
    use adv_magnet::arch::{mnist_ae_two, mnist_classifier};
    use adv_magnet::{
        Autoencoder, Detector, JsdDetector, ReconstructionDetector, ReconstructionNorm,
    };
    use adv_nn::loss::ReconstructionLoss;
    use adv_nn::Sequential;
    use adv_tensor::Shape;

    /// Seed of the toy defenses' untrained classifier, chosen so that its
    /// verdicts tell the test inputs apart (see [`assert_discriminating`]):
    /// under a seed whose net predicts one class for every input, a pipeline
    /// that classified the wrong tensor would match verdict for verdict.
    const CLASSIFIER_SEED: u64 = 10;

    /// The precondition that lets a verdict comparison over `x` see which
    /// tensor the classifier got: the verdicts take at least two classes,
    /// reforming changes at least one of them, and the no-defense and
    /// reformer-only verdicts equal the classifier's argmax on the raw and
    /// on the reformed input, computed from the defense's parts.
    fn assert_discriminating(defense: &MagnetDefense, x: &Tensor) {
        let argmax = |input: &Tensor| -> Vec<Verdict> {
            let logits = defense.classifier().infer(input).unwrap();
            let classes = logits.argmax_rows().unwrap();
            classes.into_iter().map(Verdict::Classified).collect()
        };
        let raw = argmax(x);
        let reformed = argmax(&defense.reformer().reconstruct(x).unwrap());
        assert!(
            raw.iter().any(|v| *v != raw[0]),
            "one class for every input: {raw:?}"
        );
        assert_ne!(raw, reformed, "reforming changes no verdict");
        assert_eq!(defense.classify(x, DefenseScheme::None).unwrap(), raw);
        assert_eq!(
            defense.classify(x, DefenseScheme::ReformerOnly).unwrap(),
            reformed
        );
    }

    fn toy_defense() -> Arc<MagnetDefense> {
        let ae = Arc::new(
            Autoencoder::new(
                &mnist_ae_two(1, 3),
                ReconstructionLoss::MeanSquaredError,
                0.0,
                1,
            )
            .unwrap(),
        );
        let classifier = Arc::new(
            Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), CLASSIFIER_SEED).unwrap(),
        );
        let det: Box<dyn Detector> = Box::new(ReconstructionDetector::new(
            Arc::clone(&ae),
            ReconstructionNorm::L2,
        ));
        let mut d = MagnetDefense::new("chaos-toy", vec![det], ae, classifier);
        d.calibrate_detectors(&batch(64), 0.05).unwrap();
        Arc::new(d)
    }

    /// The paper's D+JSD shape: one AE shared by a reconstruction
    /// detector, a JSD detector and the reformer.
    fn jsd_defense() -> Arc<MagnetDefense> {
        let ae = Arc::new(
            Autoencoder::new(
                &mnist_ae_two(1, 3),
                ReconstructionLoss::MeanSquaredError,
                0.0,
                1,
            )
            .unwrap(),
        );
        let classifier = Arc::new(
            Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), CLASSIFIER_SEED).unwrap(),
        );
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(ReconstructionDetector::new(
                Arc::clone(&ae),
                ReconstructionNorm::L2,
            )),
            Box::new(JsdDetector::new(Arc::clone(&ae), Arc::clone(&classifier), 10.0).unwrap()),
        ];
        let mut d = MagnetDefense::new("chaos-d-jsd", detectors, ae, classifier);
        d.calibrate_detectors(&batch(64), 0.05).unwrap();
        Arc::new(d)
    }

    fn batch(n: usize) -> Tensor {
        Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| ((i * 7) % 11) as f32 / 11.0)
    }

    #[test]
    fn noop_injector_keeps_verdicts_and_scores_to_the_bit() {
        let defense = jsd_defense();
        let faulty = FaultyDefense::new(defense.clone(), Arc::new(FaultInjector::disabled()));
        let x = batch(10);
        assert_discriminating(&defense, &x);
        let bits = |scores: &[Vec<f32>]| -> Vec<Vec<u32>> {
            scores
                .iter()
                .map(|col| col.iter().map(|s| s.to_bits()).collect())
                .collect()
        };
        for scheme in DefenseScheme::ALL {
            let (want, want_scores, _) = defense.classify_batch_scored(&x, scheme).unwrap();
            let (got, got_scores, _) = faulty.classify_batch_scored(&x, scheme).unwrap();
            assert_eq!(got, want, "{scheme:?}");
            assert_eq!(bits(&got_scores), bits(&want_scores), "{scheme:?}");
            assert_eq!(faulty.classify_batch(&x, scheme).unwrap().0, want);
        }
    }

    #[test]
    fn injected_stage_error_surfaces_as_stage_error() {
        let defense = toy_defense();
        let plan = FaultPlan::new(3).with(SiteFaults::at(SITE_REFORM).errors(1.0));
        let faulty = FaultyDefense::new(defense, Arc::new(FaultInjector::new(plan).unwrap()));
        let err = faulty
            .classify_batch(&batch(2), DefenseScheme::Full)
            .unwrap_err();
        match err {
            MagnetError::Stage { stage, .. } => assert_eq!(stage, SITE_REFORM),
            other => panic!("expected Stage error, got {other}"),
        }
    }

    #[test]
    fn faults_on_skipped_stages_do_not_fire() {
        let defense = toy_defense();
        let plan = FaultPlan::new(3).with(SiteFaults::at(SITE_REFORM).errors(1.0));
        let faulty =
            FaultyDefense::new(defense.clone(), Arc::new(FaultInjector::new(plan).unwrap()));
        // DetectorOnly never runs the reformer, so the reform site is never
        // consulted and the verdicts match the clean pipeline.
        let x = batch(4);
        assert_discriminating(&defense, &x);
        let (got, _) = faulty
            .classify_batch(&x, DefenseScheme::DetectorOnly)
            .unwrap();
        assert_eq!(
            got,
            defense.classify(&x, DefenseScheme::DetectorOnly).unwrap()
        );
        assert_eq!(faulty.injector().stats().errors, 0);
    }

    #[test]
    fn injected_panic_carries_the_marker() {
        let defense = toy_defense();
        let plan = FaultPlan::new(5).with(SiteFaults::at(SITE_CLASSIFY).panics(1.0).limit(1));
        let faulty = FaultyDefense::new(defense, Arc::new(FaultInjector::new(plan).unwrap()));
        let x = batch(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faulty.classify_batch(&x, DefenseScheme::None)
        }));
        let payload = caught.unwrap_err();
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.starts_with(crate::PANIC_MARKER), "{text}");
        // The cap is spent: the next batch goes through cleanly.
        faulty.classify_batch(&x, DefenseScheme::None).unwrap();
    }

    #[test]
    fn injected_error_display_names_site_and_hit() {
        let e = FaultError::Injected {
            site: "magnet/reform".into(),
            hit: 7,
        };
        assert!(e.to_string().contains("magnet/reform"));
        assert!(e.to_string().contains('7'));
    }
}
