//! Response-observer integration: every served request is reported exactly
//! once, with its tag, verdict, scheme, and per-detector scores.

use adv_magnet::arch::{mnist_ae_two, mnist_classifier};
use adv_magnet::{
    Autoencoder, DefenseScheme, MagnetDefense, ReconstructionDetector, ReconstructionNorm, Verdict,
};
use adv_nn::loss::ReconstructionLoss;
use adv_nn::Sequential;
use adv_serve::{RequestTag, ResponseObserver, ServeConfig, ServeEngine, ServedRecord};
use adv_tensor::{Shape, Tensor};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
    let classifier =
        Arc::new(Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 2).unwrap());
    let det = ReconstructionDetector::new(Arc::clone(&ae), ReconstructionNorm::L2);
    let mut defense = MagnetDefense::new("observe-toy", vec![Box::new(det)], ae, classifier);
    defense.calibrate_detectors(&corpus(64), 0.05).unwrap();
    defense
}

fn corpus(n: usize) -> Tensor {
    Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| ((i * 7) % 23) as f32 / 23.0)
}

/// An owned snapshot of one observed response.
#[derive(Debug, Clone)]
struct Seen {
    tag: RequestTag,
    verdict: Verdict,
    scheme: DefenseScheme,
    degraded: bool,
    tick_ns: u64,
    scores: Vec<f32>,
}

#[derive(Debug, Default)]
struct Collector {
    seen: Mutex<Vec<Seen>>,
}

impl ResponseObserver for Collector {
    fn on_response(&self, r: &ServedRecord<'_>) {
        self.seen.lock().unwrap().push(Seen {
            tag: r.tag,
            verdict: r.verdict,
            scheme: r.scheme,
            degraded: r.degraded,
            tick_ns: r.tick_ns,
            scores: r.scores.to_vec(),
        });
    }
}

#[test]
fn every_served_request_is_observed_with_tag_and_scores() {
    let defense = Arc::new(toy_defense());
    let collector = Arc::new(Collector::default());
    let engine = ServeEngine::start(
        defense,
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            workers: 2,
            observer: Some(collector.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let x = corpus(16);
    let pending: Vec<_> = (0..16)
        .map(|i| {
            let tag = RequestTag::new(7, 3, i as u32);
            engine
                .submit_tagged(x.index_axis0(i).unwrap(), tag)
                .unwrap()
        })
        .collect();
    let responses: Vec<_> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
    engine.shutdown();

    let seen = collector.seen.lock().unwrap();
    assert_eq!(seen.len(), 16, "one observation per served request");
    let mut samples: Vec<u32> = seen.iter().map(|s| s.tag.sample).collect();
    samples.sort_unstable();
    assert_eq!(samples, (0..16).collect::<Vec<u32>>());
    for s in seen.iter() {
        assert_eq!((s.tag.tenant, s.tag.route), (7, 3));
        assert_eq!(s.scheme, DefenseScheme::Full);
        assert!(!s.degraded);
        // One calibrated detector deployed → one score per request.
        assert_eq!(s.scores.len(), 1);
        assert!(s.scores[0].is_finite());
        assert!(s.tick_ns > 0);
        // The observed verdict matches what the submitter was told.
        let response = &responses[s.tag.sample as usize];
        assert_eq!(s.verdict, response.verdict);
    }
}

#[test]
fn untagged_submissions_observe_zero_tags_and_failures_are_not_observed() {
    let defense = Arc::new(toy_defense());
    let collector = Arc::new(Collector::default());
    let engine = ServeEngine::start(
        defense,
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            workers: 1,
            observer: Some(collector.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let ok = engine.submit(corpus(1).index_axis0(0).unwrap()).unwrap();
    // Wrong shape: the pipeline fails this request; it must not be observed.
    let bad = engine
        .submit(Tensor::zeros(Shape::nchw(1, 1, 4, 4)))
        .unwrap();
    ok.wait().unwrap();
    assert!(bad.wait().is_err());
    engine.shutdown();

    let seen = collector.seen.lock().unwrap();
    assert_eq!(seen.len(), 1, "only the served request is observed");
    assert_eq!(seen[0].tag, RequestTag::default());
}
