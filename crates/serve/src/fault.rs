//! Deterministic fault injection for the serving stack.
//!
//! Carlini & Wagner's break of MagNet (arXiv:1711.08478) made the case that
//! a defense's robustness claims are only as good as the adversarial
//! conditions they are tested under. This module applies the same
//! discipline to the serving layer: instead of hoping the engine survives
//! worker panics, pipeline errors, and stalls, chaos tests inject them —
//! deterministically, from a seed — and assert the engine's contracts
//! (exactly-once responses, supervised respawn, graceful degradation).
//!
//! * [`FaultPlan`] — a seeded, declarative description of *what* to inject
//!   *where*: per named site, a panic/error/delay probability, the delay
//!   duration, and an optional cap on total injected faults.
//! * [`FaultInjector`] — the runtime evaluator, consulted at the engine's
//!   [`SITE_POLL`](crate::SITE_POLL), at `adv-zoo`'s `zoo/*` sites and by
//!   [`FaultyDefense`]. Each call to [`FaultInjector::decide`] draws the
//!   site's next decision from `adv-store`'s seeded draw; decisions are a
//!   pure function of `(seed, site, hit index)`, so the multiset of
//!   injected faults is reproducible regardless of thread interleaving.
//!   Production runs install no injector: the hot path pays one branch on
//!   an `Option`.
//! * [`FaultyDefense`] — an [`adv_magnet::DefensePipeline`] wrapper around
//!   [`adv_magnet::MagnetDefense`] exposing per-stage injection points
//!   (detector scoring, reformer, classifier). With an injector that knows
//!   none of its sites, its verdicts are bit-identical to the unwrapped
//!   defense.
//!
//! Injected panics carry the [`PANIC_MARKER`] prefix so supervision code
//! and test assertions can tell a planned fault from a real bug.

use adv_magnet::{
    DefensePipeline, DefenseScheme, MagnetDefense, MagnetError, StageTimings, Verdict,
};
use adv_store::faults::{pick, site_hash, unit};
use adv_tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Prefix of every panic payload a [`FaultInjector`] injects.
pub const PANIC_MARKER: &str = "adv-chaos: injected panic";

/// Injection site evaluated before detector scoring.
pub const SITE_DETECT: &str = adv_magnet::STAGE_DETECT;
/// Injection site evaluated before the reformer pass.
pub const SITE_REFORM: &str = adv_magnet::STAGE_REFORM;
/// Injection site evaluated before the classifier forward pass.
pub const SITE_CLASSIFY: &str = adv_magnet::STAGE_CLASSIFY;

/// Errors surfaced by the fault-injection layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A deliberately injected fault (the injector's `Error` action).
    Injected {
        /// The site that drew the fault.
        site: String,
        /// The site's 0-based hit index that drew it.
        hit: u64,
    },
    /// A [`FaultPlan`] with out-of-range or over-committed probabilities.
    InvalidPlan {
        /// The offending site.
        site: String,
        /// What is wrong with it.
        message: String,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Injected { site, hit } => {
                write!(f, "injected fault at {site} (hit {hit})")
            }
            FaultError::InvalidPlan { site, message } => {
                write!(f, "invalid fault plan for site {site}: {message}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Fault configuration for one named injection site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteFaults {
    site: String,
    panic_rate: f64,
    error_rate: f64,
    delay_rate: f64,
    delay: Duration,
    max_faults: Option<u64>,
}

impl SiteFaults {
    /// A quiet site configuration for `site` (all rates zero).
    pub fn at(site: impl Into<String>) -> SiteFaults {
        SiteFaults {
            site: site.into(),
            panic_rate: 0.0,
            error_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::ZERO,
            max_faults: None,
        }
    }

    /// Sets the probability that a hit panics.
    #[must_use]
    pub fn panics(mut self, rate: f64) -> SiteFaults {
        self.panic_rate = rate;
        self
    }

    /// Sets the probability that a hit fails with an injected error.
    #[must_use]
    pub fn errors(mut self, rate: f64) -> SiteFaults {
        self.error_rate = rate;
        self
    }

    /// Sets the probability that a hit is delayed by `delay`.
    #[must_use]
    pub fn delays(mut self, rate: f64, delay: Duration) -> SiteFaults {
        self.delay_rate = rate;
        self.delay = delay;
        self
    }

    /// Caps the total number of faults this site may inject; after the cap
    /// the site goes quiet. Useful for deterministic "fail exactly once,
    /// then recover" scenarios.
    #[must_use]
    pub fn limit(mut self, max_faults: u64) -> SiteFaults {
        self.max_faults = Some(max_faults);
        self
    }

    /// Panic, error and delay rates, in [`pick`] order.
    fn rates(&self) -> [f64; 3] {
        [self.panic_rate, self.error_rate, self.delay_rate]
    }

    fn validate(&self) -> Result<(), FaultError> {
        let invalid = |message: String| FaultError::InvalidPlan {
            site: self.site.clone(),
            message,
        };
        for (kind, rate) in ["panic", "error", "delay"].into_iter().zip(self.rates()) {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(invalid(format!("{kind} rate {rate} outside [0, 1]")));
            }
        }
        let total = self.panic_rate + self.error_rate + self.delay_rate;
        if total > 1.0 {
            return Err(invalid(format!("rates sum to {total} > 1")));
        }
        Ok(())
    }
}

/// A seeded set of [`SiteFaults`]; the input to [`FaultInjector`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    sites: Vec<SiteFaults>,
}

impl FaultPlan {
    /// An empty plan under `seed`; add sites with [`with`](Self::with).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sites: Vec::new(),
        }
    }

    /// Adds (or replaces, by name) one site's fault configuration.
    #[must_use]
    pub fn with(mut self, site: SiteFaults) -> FaultPlan {
        self.sites.retain(|s| s.site != site.site);
        self.sites.push(site);
        self
    }

    /// A randomized low-rate plan over `sites`, fully derived from `seed`:
    /// every site gets panic/error/delay rates in `[0, 0.04)` and a delay up
    /// to ~200µs. This is the soak test's workhorse — a different seed is a
    /// different chaos schedule, the same seed replays bit-for-bit.
    pub fn randomized(seed: u64, sites: &[&str]) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for (i, site) in sites.iter().enumerate() {
            let mix = |k: u64| unit(seed, site_hash(site), i as u64 * 8 + k);
            let delay_us = 20 + (mix(3) * 180.0) as u64;
            plan = plan.with(
                SiteFaults::at(*site)
                    .panics(0.04 * mix(0))
                    .errors(0.04 * mix(1))
                    .delays(0.04 * mix(2), Duration::from_micros(delay_us)),
            );
        }
        plan
    }

    /// Checks every site's probabilities: [`FaultError::InvalidPlan`] for
    /// a rate outside `[0, 1]` or a site whose rates sum past `1`.
    fn validate(&self) -> Result<(), FaultError> {
        self.sites.iter().try_for_each(SiteFaults::validate)
    }
}

/// What the injector decided for one hit of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Proceed normally.
    None,
    /// Stall for the site's configured delay before proceeding.
    Delay(Duration),
    /// Fail with [`FaultError::Injected`].
    Error,
    /// Panic with a [`PANIC_MARKER`]-prefixed payload.
    Panic,
}

/// Counts of what a [`FaultInjector`] has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Total decisions drawn across all sites.
    pub decisions: u64,
    /// Injected delays.
    pub delays: u64,
    /// Injected errors.
    pub errors: u64,
    /// Injected panics.
    pub panics: u64,
}

#[derive(Debug)]
struct SiteState {
    spec: SiteFaults,
    /// [`site_hash`] of the site name, taken once.
    hash: u64,
    hits: AtomicU64,
    injected: AtomicU64,
}

/// Evaluates a [`FaultPlan`] at runtime. Shared across threads behind an
/// `Arc`. [`decide`](Self::decide) draws the next deterministic decision
/// for a site; [`apply`](Self::apply) additionally *executes* it. The
/// per-site hit counter is the only mutable state, so concurrent callers
/// may interleave *which thread* receives a given decision, but the
/// decision sequence per site — and therefore the multiset of injected
/// faults — is fixed by the plan.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    sites: HashMap<String, SiteState>,
    delays: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    decisions: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector from a validated plan.
    ///
    /// # Errors
    ///
    /// [`FaultError::InvalidPlan`] for a rate outside `[0, 1]` or a site
    /// whose rates sum past `1`.
    pub fn new(plan: FaultPlan) -> Result<FaultInjector, FaultError> {
        plan.validate()?;
        let sites = plan
            .sites
            .into_iter()
            .map(|spec| {
                let state = SiteState {
                    hash: site_hash(&spec.site),
                    spec,
                    hits: AtomicU64::new(0),
                    injected: AtomicU64::new(0),
                };
                (state.spec.site.clone(), state)
            })
            .collect();
        Ok(FaultInjector {
            seed: plan.seed,
            sites,
            delays: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
        })
    }

    /// Draws the next decision for `site` and returns it *without* acting
    /// on it, with the site's hit index. Unknown sites always return
    /// [`FaultAction::None`] and draw nothing.
    pub fn decide(&self, site: &str) -> (FaultAction, u64) {
        let Some(state) = self.sites.get(site) else {
            return (FaultAction::None, 0);
        };
        let hit = state.hits.fetch_add(1, Ordering::Relaxed);
        self.decisions.fetch_add(1, Ordering::Relaxed);
        if let Some(max) = state.spec.max_faults {
            // The cap check races the increment below under concurrent
            // callers, so a site can briefly overshoot its cap by at most
            // one fault per concurrent thread; single-threaded replays (and
            // the deterministic tests) are exact.
            if state.injected.load(Ordering::Relaxed) >= max {
                return (FaultAction::None, hit);
            }
        }
        let draw = unit(self.seed, state.hash, hit);
        let (action, counter) = match pick(draw, &state.spec.rates()) {
            None => return (FaultAction::None, hit),
            Some(0) => (FaultAction::Panic, &self.panics),
            Some(1) => (FaultAction::Error, &self.errors),
            Some(_) => (FaultAction::Delay(state.spec.delay), &self.delays),
        };
        state.injected.fetch_add(1, Ordering::Relaxed);
        // lint-ok(ordering-justified): statistics counter, atomicity
        // only.
        counter.fetch_add(1, Ordering::Relaxed);
        (action, hit)
    }

    /// Draws and *executes* the next decision for `site`: sleeps injected
    /// delays, panics injected panics.
    ///
    /// # Errors
    ///
    /// [`FaultError::Injected`] when the decision is [`FaultAction::Error`].
    ///
    /// # Panics
    ///
    /// When the decision is [`FaultAction::Panic`] — that is the point: the
    /// caller's supervision layer is what is under test.
    pub fn apply(&self, site: &str) -> Result<(), FaultError> {
        match self.decide(site) {
            (FaultAction::None, _) => Ok(()),
            (FaultAction::Delay(d), _) => {
                std::thread::sleep(d);
                Ok(())
            }
            (FaultAction::Error, hit) => Err(FaultError::Injected {
                site: site.to_string(),
                hit,
            }),
            #[expect(
                clippy::panic,
                reason = "deliberate — injecting panics into supervised code is this module's purpose; the marker lets handlers distinguish planned faults from real bugs."
            )]
            (FaultAction::Panic, hit) => {
                panic!("{PANIC_MARKER} at {site} (hit {hit})")
            }
        }
    }

    /// What has been injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            decisions: self.decisions.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// [`MagnetDefense`] with deterministic faults between its stages, so
/// chaos tests can fail exactly one stage of the pipeline: detector
/// scoring ([`SITE_DETECT`]), the reformer ([`SITE_REFORM`]), or the
/// protected classifier ([`SITE_CLASSIFY`]). It runs the defense's own
/// stage runner, [`MagnetDefense::classify_staged`], with the injector as
/// the stage hook.
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
    use adv_magnet::arch::{mnist_ae_two, mnist_classifier};
    use adv_magnet::{
        Autoencoder, Detector, JsdDetector, ReconstructionDetector, ReconstructionNorm,
    };
    use adv_nn::loss::ReconstructionLoss;
    use adv_nn::Sequential;
    use adv_tensor::Shape;

    #[test]
    fn builder_accumulates_rates() {
        let s = SiteFaults::at("x")
            .panics(0.1)
            .errors(0.2)
            .delays(0.3, Duration::from_millis(1))
            .limit(5);
        assert_eq!(s.site, "x");
        assert_eq!(s.rates(), [0.1, 0.2, 0.3]);
        assert_eq!(s.delay, Duration::from_millis(1));
        assert_eq!(s.max_faults, Some(5));
    }

    #[test]
    fn out_of_range_rates_fail_validation() {
        for bad in [
            SiteFaults::at("x").panics(-0.1),
            SiteFaults::at("x").errors(1.5),
            SiteFaults::at("x").delays(f64::NAN, Duration::ZERO),
            SiteFaults::at("x").panics(0.6).errors(0.6),
        ] {
            let plan = FaultPlan::new(1).with(bad);
            assert!(matches!(
                plan.validate(),
                Err(FaultError::InvalidPlan { .. })
            ));
        }
    }

    #[test]
    fn with_replaces_same_site() {
        let plan = FaultPlan::new(1)
            .with(SiteFaults::at("a").panics(0.5))
            .with(SiteFaults::at("a").panics(0.1));
        assert_eq!(plan.sites.len(), 1);
        assert_eq!(plan.sites[0].panic_rate, 0.1);
    }

    #[test]
    fn randomized_plans_are_seed_deterministic_and_valid() {
        let sites = ["magnet/detect", "magnet/reform", "serve/batch"];
        let a = FaultPlan::randomized(42, &sites);
        let b = FaultPlan::randomized(42, &sites);
        let c = FaultPlan::randomized(43, &sites);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.validate().unwrap();
        c.validate().unwrap();
    }

    fn seeded(seed: u64, site: SiteFaults) -> FaultInjector {
        FaultInjector::new(FaultPlan::new(seed).with(site)).unwrap()
    }

    #[test]
    fn decisions_replay_identically_for_the_same_seed() {
        let spec = SiteFaults::at("s")
            .panics(0.2)
            .errors(0.3)
            .delays(0.2, Duration::from_micros(5));
        let a = seeded(9, spec.clone());
        let b = seeded(9, spec.clone());
        let c = seeded(10, spec);
        let seq = |inj: &FaultInjector| -> Vec<FaultAction> {
            (0..200).map(|_| inj.decide("s").0).collect()
        };
        let sa = seq(&a);
        assert_eq!(sa, seq(&b), "same seed must replay bit-for-bit");
        assert_ne!(sa, seq(&c), "different seed must differ");
        assert!(sa.contains(&FaultAction::Panic));
        assert!(sa.contains(&FaultAction::Error));
        assert!(sa.iter().any(|&x| matches!(x, FaultAction::Delay(_))));
        assert!(sa.contains(&FaultAction::None));
    }

    #[test]
    fn sites_draw_independent_sequences() {
        let plan = FaultPlan::new(4)
            .with(SiteFaults::at("a").errors(0.5))
            .with(SiteFaults::at("b").errors(0.5));
        let inj = FaultInjector::new(plan).unwrap();
        let sa: Vec<FaultAction> = (0..64).map(|_| inj.decide("a").0).collect();
        let sb: Vec<FaultAction> = (0..64).map(|_| inj.decide("b").0).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn rate_one_always_fires_and_limit_caps_it() {
        let inj = seeded(1, SiteFaults::at("s").errors(1.0).limit(3));
        let mut injected = 0;
        for _ in 0..10 {
            if inj.apply("s").is_err() {
                injected += 1;
            }
        }
        assert_eq!(injected, 3, "site must go quiet after its cap");
        assert_eq!(inj.stats().errors, 3);
    }

    #[test]
    fn apply_executes_each_action_kind() {
        let inj = seeded(2, SiteFaults::at("s").errors(1.0));
        assert!(matches!(
            inj.apply("s"),
            Err(FaultError::Injected { hit: 0, .. })
        ));

        let inj = seeded(2, SiteFaults::at("s").panics(1.0));
        let caught = std::panic::catch_unwind(|| inj.apply("s"));
        let payload = caught.unwrap_err();
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.starts_with(PANIC_MARKER), "{text}");
        assert_eq!(inj.stats().panics, 1);

        let inj = seeded(
            2,
            SiteFaults::at("s").delays(1.0, Duration::from_micros(50)),
        );
        inj.apply("s").unwrap();
        assert_eq!(inj.stats().delays, 1);
    }

    #[test]
    fn approximate_rates_converge() {
        let inj = seeded(77, SiteFaults::at("s").errors(0.25));
        let n = 4000;
        let errors = (0..n)
            .filter(|_| inj.decide("s").0 == FaultAction::Error)
            .count();
        let rate = errors as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed error rate {rate}");
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let plan = FaultPlan::new(1).with(SiteFaults::at("s").panics(2.0));
        assert!(matches!(
            FaultInjector::new(plan),
            Err(FaultError::InvalidPlan { .. })
        ));
    }

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
        let quiet = FaultInjector::new(FaultPlan::new(0)).unwrap();
        let faulty = FaultyDefense::new(defense.clone(), Arc::new(quiet));
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
        let injector = Arc::new(FaultInjector::new(plan).unwrap());
        let faulty = FaultyDefense::new(defense.clone(), injector.clone());
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
        assert_eq!(injector.stats().errors, 0);
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
        assert!(text.starts_with(PANIC_MARKER), "{text}");
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
