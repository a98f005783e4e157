//! Serial/batched equivalence: the serving engine must be an exact,
//! bit-identical stand-in for driving `MagnetDefense::classify` directly —
//! including under concurrent submitters and during shutdown drain.

use adv_magnet::arch::{mnist_ae_two, mnist_classifier};
use adv_magnet::{
    Autoencoder, DefenseScheme, Detector, JsdDetector, MagnetDefense, ReconstructionDetector,
    ReconstructionNorm, Verdict,
};
use adv_nn::loss::ReconstructionLoss;
use adv_nn::Sequential;
use adv_serve::{ServeConfig, ServeEngine, ServeError};
use adv_tensor::{Shape, Tensor};
use std::sync::Arc;
use std::time::Duration;

/// Seed of the toy defenses' untrained classifier, chosen so that its
/// verdicts tell the test inputs apart (see [`assert_discriminating`]):
/// under a seed whose net predicts one class for every input, a pipeline
/// that classified the wrong tensor would match verdict for verdict.
const CLASSIFIER_SEED: u64 = 10;

/// A small calibrated defense over 8×8 single-channel inputs.
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
    let classifier = Arc::new(
        Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), CLASSIFIER_SEED).unwrap(),
    );
    let det = ReconstructionDetector::new(Arc::clone(&ae), ReconstructionNorm::L2);
    let mut defense = MagnetDefense::new("serve-toy", vec![Box::new(det)], ae, classifier);
    defense.calibrate_detectors(&corpus(64, 0), 0.05).unwrap();
    defense
}

/// Like [`toy_defense`], but with the paper's D+JSD redundancy: the same AE
/// serves a reconstruction detector, two JSD detectors, and the reformer,
/// and the JSD detectors share the protected classifier — the
/// configuration the engine's fused pass deduplicates hardest.
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
    let classifier = Arc::new(
        Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), CLASSIFIER_SEED).unwrap(),
    );
    let detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(ReconstructionDetector::new(
            Arc::clone(&ae),
            ReconstructionNorm::L2,
        )),
        Box::new(JsdDetector::new(Arc::clone(&ae), Arc::clone(&classifier), 10.0).unwrap()),
        Box::new(JsdDetector::new(Arc::clone(&ae), Arc::clone(&classifier), 40.0).unwrap()),
    ];
    let mut defense = MagnetDefense::new("serve-toy-jsd", detectors, ae, classifier);
    defense.calibrate_detectors(&corpus(64, 0), 0.05).unwrap();
    defense
}

/// Deterministic batch of `n` pseudo-images, offset to vary content.
fn corpus(n: usize, offset: usize) -> Tensor {
    Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| {
        (((i + offset * 131) * 7) % 23) as f32 / 23.0
    })
}

/// Serial ground truth: one `classify` call over the whole stacked batch.
fn serial_verdicts(defense: &MagnetDefense, x: &Tensor, scheme: DefenseScheme) -> Vec<Verdict> {
    defense.classify(x, scheme).unwrap()
}

/// The precondition that lets a verdict comparison over `x` see which
/// tensor the classifier got: the serial verdicts take at least two
/// classes, reforming changes at least one of them, and the no-defense and
/// reformer-only verdicts equal the classifier's argmax on the raw and on
/// the reformed input, computed from the defense's parts.
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
    assert_eq!(serial_verdicts(defense, x, DefenseScheme::None), raw);
    assert_eq!(
        serial_verdicts(defense, x, DefenseScheme::ReformerOnly),
        reformed
    );
}

#[test]
fn batched_verdicts_match_serial_bitwise() {
    let defense = Arc::new(toy_defense());
    let x = corpus(16, 1);
    assert_discriminating(&defense, &x);
    for scheme in DefenseScheme::ALL {
        let expected = serial_verdicts(&defense, &x, scheme);

        let engine = ServeEngine::start(
            defense.clone(),
            ServeConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
                workers: 2,
                scheme,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let pending: Vec<_> = (0..16)
            .map(|i| engine.submit(x.index_axis0(i).unwrap()).unwrap())
            .collect();
        let got: Vec<Verdict> = pending
            .into_iter()
            .map(|p| p.wait().unwrap().verdict)
            .collect();
        assert_eq!(got, expected, "scheme {scheme:?}");

        let m = engine.shutdown();
        assert_eq!(m.submitted, 16);
        assert_eq!(m.completed, 16);
        assert_eq!(m.failed, 0);
    }
}

#[test]
fn fused_jsd_defense_matches_serial_bitwise() {
    let defense = Arc::new(jsd_defense());
    let x = corpus(16, 4);
    assert_discriminating(&defense, &x);
    for scheme in DefenseScheme::ALL {
        let expected = serial_verdicts(&defense, &x, scheme);
        let engine = ServeEngine::start(
            defense.clone(),
            ServeConfig {
                max_batch: 16,
                max_wait: Duration::from_millis(1),
                workers: 1,
                scheme,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let pending: Vec<_> = (0..16)
            .map(|i| engine.submit(x.index_axis0(i).unwrap()).unwrap())
            .collect();
        let got: Vec<Verdict> = pending
            .into_iter()
            .map(|p| p.wait().unwrap().verdict)
            .collect();
        assert_eq!(got, expected, "scheme {scheme:?}");
        engine.shutdown();
    }
}

#[test]
fn concurrent_submitters_each_get_their_own_verdicts() {
    let defense = Arc::new(toy_defense());
    let engine = Arc::new(
        ServeEngine::start(
            defense.clone(),
            ServeConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
                workers: 3,
                ..ServeConfig::default()
            },
        )
        .unwrap(),
    );

    let handles: Vec<_> = (0..4)
        .map(|t| {
            let engine = engine.clone();
            let defense = defense.clone();
            std::thread::spawn(move || {
                let x = corpus(8, t + 2);
                assert_discriminating(&defense, &x);
                let expected = serial_verdicts(&defense, &x, DefenseScheme::Full);
                let pending: Vec<_> = (0..8)
                    .map(|i| engine.submit(x.index_axis0(i).unwrap()).unwrap())
                    .collect();
                let got: Vec<Verdict> = pending
                    .into_iter()
                    .map(|p| p.wait().unwrap().verdict)
                    .collect();
                assert_eq!(got, expected, "submitter {t}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let m = engine.metrics();
    assert_eq!(m.submitted, 32);
    assert_eq!(m.completed, 32);
}

#[test]
fn shutdown_drains_already_accepted_requests() {
    let defense = Arc::new(toy_defense());
    let x = corpus(24, 9);
    assert_discriminating(&defense, &x);
    let expected = serial_verdicts(&defense, &x, DefenseScheme::Full);

    // One worker taking 4 requests per pass, so most requests are still
    // queued when shutdown begins. It never lingers (no other pass runs),
    // so the drain is paced by the passes, not by `max_wait`.
    let engine = ServeEngine::start(
        defense,
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(20),
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let pending: Vec<_> = (0..24)
        .map(|i| engine.submit(x.index_axis0(i).unwrap()).unwrap())
        .collect();
    let final_metrics = engine.shutdown();

    // Every accepted request was answered — none dropped, all correct.
    let got: Vec<Verdict> = pending
        .into_iter()
        .map(|p| p.wait().unwrap().verdict)
        .collect();
    assert_eq!(got, expected);
    assert_eq!(final_metrics.completed, 24);
    assert_eq!(final_metrics.failed, 0);
}

#[test]
fn backpressure_rejects_when_queue_is_full() {
    let defense = Arc::new(toy_defense());
    let engine = ServeEngine::start(
        defense,
        ServeConfig {
            queue_capacity: 1,
            max_batch: 1,
            max_wait: Duration::ZERO,
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // A tight submission loop outpaces the single worker by orders of
    // magnitude, so a capacity-1 queue must reject some submissions.
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for i in 0..256 {
        match engine.submit(corpus(1, i).index_axis0(0).unwrap()) {
            Ok(p) => accepted.push(p),
            Err(ServeError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejected > 0, "queue never filled");
    for p in accepted {
        p.wait().unwrap();
    }
    let m = engine.shutdown();
    assert_eq!(m.rejected, rejected);
    assert_eq!(m.submitted + m.rejected, 256);
    assert_eq!(m.completed, m.submitted);
}

#[test]
fn responses_carry_latency_and_batch_metadata() {
    let defense = Arc::new(toy_defense());
    let engine = ServeEngine::start(defense, ServeConfig::default()).unwrap();
    let r = engine
        .submit(corpus(1, 3).index_axis0(0).unwrap())
        .unwrap()
        .wait()
        .unwrap();
    assert!(r.batch_size >= 1);
    assert!(r.latency >= r.queue_wait);
    // Full scheme: every stage actually ran.
    assert!(r.stage_timings.detect > Duration::ZERO);
    assert!(r.stage_timings.reform > Duration::ZERO);
    assert!(r.stage_timings.classify > Duration::ZERO);
    assert!(r.stage_timings.total() <= r.latency);

    let m = engine.metrics();
    assert_eq!(m.submitted, 1);
    assert!(m.p50_latency > Duration::ZERO);
    assert!(m.p99_latency >= m.p50_latency);
}

#[test]
fn a_one_worker_engine_answers_a_lone_request_without_waiting_out_max_wait() {
    let engine = ServeEngine::start(
        Arc::new(toy_defense()),
        ServeConfig {
            workers: 1,
            max_wait: Duration::from_secs(5),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let r = engine
        .submit(corpus(1, 3).index_axis0(0).unwrap())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(r.batch_size, 1);
    assert!(r.latency < Duration::from_secs(1), "{:?}", r.latency);
}

#[test]
fn submit_after_shutdown_is_rejected() {
    let defense = Arc::new(toy_defense());
    let engine = ServeEngine::start(defense.clone(), ServeConfig::default()).unwrap();
    drop(engine);

    // A fresh engine that is explicitly shut down refuses new work; the
    // `Drop`-based path above must also terminate cleanly (joined workers).
    let engine = ServeEngine::start(defense, ServeConfig::default()).unwrap();
    let m = engine.shutdown();
    assert_eq!(m.submitted, 0);
}

#[test]
fn zero_sized_config_is_rejected() {
    let defense = Arc::new(toy_defense());
    for cfg in [
        ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        },
    ] {
        assert!(matches!(
            ServeEngine::start(defense.clone(), cfg),
            Err(ServeError::InvalidConfig(_))
        ));
    }
}

#[test]
fn mixed_shapes_fail_alone_without_poisoning_neighbours() {
    let defense = Arc::new(toy_defense());
    let engine = ServeEngine::start(
        defense,
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(20),
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let good = engine.submit(corpus(1, 5).index_axis0(0).unwrap()).unwrap();
    let bad = engine
        .submit(Tensor::zeros(Shape::nchw(1, 1, 4, 4)))
        .unwrap();
    assert!(matches!(
        bad.wait(),
        Err(ServeError::Pipeline(_)) | Err(ServeError::Disconnected)
    ));
    good.wait().expect("well-shaped request must still succeed");
}
