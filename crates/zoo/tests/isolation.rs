//! Satellite: per-variant blast-radius isolation. One variant's reformer
//! is chaos-faulted into the ground while a clean variant serves the same
//! corpus; the clean variant's verdict stream, detected-rate, and
//! accounting must be bit-identical to a fault-free control run, and the
//! zoo must report Degraded — never Failed — while any healthy shard
//! remains.

#[expect(dead_code, reason = "this test uses a subset of the shared helpers")]
mod common;

use adv_chaos::{FaultInjector, FaultPlan, FaultyDefense, PANIC_MARKER, SITE_REFORM};
use adv_magnet::arch::{mnist_ae_two, mnist_classifier};
use adv_magnet::{Autoencoder, MagnetDefense, ReconstructionDetector, ReconstructionNorm, Verdict};
use adv_nn::loss::ReconstructionLoss;
use adv_nn::Sequential;
use adv_serve::{
    DegradePolicy, EngineHealth, RequestTag, RestartPolicy, ServeConfig, VariantRouter,
};
use adv_tensor::{Shape, Tensor};
use adv_zoo::{ModelZoo, ZooConfig};
use common::scratch;
use std::sync::{Arc, Once};
use std::time::Duration;

const CLEAN: u32 = 1;
const FAULTY: u32 = 2;
const CORPUS: usize = 48;

fn silence_chaos_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(PANIC_MARKER));
            if !injected {
                previous(info);
            }
        }));
    });
}

fn toy_defense(name: &str) -> Arc<MagnetDefense> {
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
    let mut defense = MagnetDefense::new(name, vec![Box::new(det)], ae, classifier);
    let calib = Tensor::from_fn(Shape::nchw(64, 1, 8, 8), |i| ((i * 7) % 23) as f32 / 23.0);
    defense.calibrate_detectors(&calib, 0.05).unwrap();
    Arc::new(defense)
}

fn corpus_item(offset: usize) -> Tensor {
    Tensor::from_fn(Shape::nchw(1, 1, 8, 8), |i| {
        (((i + offset * 131) * 7) % 23) as f32 / 23.0
    })
    .index_axis0(0)
    .unwrap()
}

fn shard_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 4,
        max_wait: Duration::from_micros(500),
        queue_capacity: 128,
        max_retries: 1,
        retry_backoff: Duration::from_micros(50),
        restart: RestartPolicy {
            max_restarts: 4,
            window: Duration::from_secs(30),
            backoff_base: Duration::from_micros(100),
            backoff_max: Duration::from_millis(2),
        },
        degrade: DegradePolicy {
            enabled: true,
            failure_threshold: 4,
            probe_interval: Duration::from_millis(5),
        },
        ..ServeConfig::default()
    }
}

/// Replays the corpus through `variant`, returning per-item outcomes
/// (verdict or typed-error marker — the stream must be deterministic
/// either way).
fn replay(zoo: &ModelZoo, variant: u32) -> Vec<Result<Verdict, String>> {
    (0..CORPUS)
        .map(|i| {
            let pending = match zoo.submit_routed(
                variant,
                corpus_item(i),
                RequestTag::default().with_variant(variant),
                Duration::from_secs(10),
            ) {
                Ok(p) => p,
                Err(e) => return Err(format!("submit: {e}")),
            };
            match pending.wait_timeout(Duration::from_secs(10)) {
                Ok(outcome) => Ok(outcome.verdict),
                Err(e) => Err(format!("wait: {e}")),
            }
        })
        .collect()
}

fn detected_rate(outcomes: &[Result<Verdict, String>]) -> f64 {
    let detected = outcomes
        .iter()
        .filter(|o| matches!(o, Ok(Verdict::Detected)))
        .count();
    detected as f64 / outcomes.len() as f64
}

#[test]
fn faulted_variant_never_contaminates_its_neighbors() {
    silence_chaos_panics();

    // ── Control: the clean variant alone, no chaos anywhere ──
    let control_root = scratch("isolation_control");
    let control = {
        let mut cfg = ZooConfig::new(&control_root);
        cfg.shard = shard_cfg();
        let zoo = ModelZoo::open(Arc::new(common::StubLoader), cfg).unwrap();
        zoo.install(CLEAN, toy_defense("isolation-clean")).unwrap();
        let outcomes = replay(&zoo, CLEAN);
        let metrics = zoo.variant_metrics(CLEAN).unwrap();
        (outcomes, metrics)
    };

    // ── Experiment: same clean variant, plus a neighbor whose reformer
    //    errors and panics constantly ──
    let root = scratch("isolation_experiment");
    let mut cfg = ZooConfig::new(&root);
    cfg.shard = shard_cfg();
    let zoo = ModelZoo::open(Arc::new(common::StubLoader), cfg).unwrap();
    zoo.install(CLEAN, toy_defense("isolation-clean")).unwrap();

    let plan = FaultPlan::new(0xBAD_5EED).with(
        adv_chaos::SiteFaults::at(SITE_REFORM)
            .errors(0.6)
            .panics(0.4),
    );
    let injector = Arc::new(FaultInjector::new(plan).unwrap());
    let faulty = Arc::new(FaultyDefense::new(
        toy_defense("isolation-faulty"),
        injector,
    ));
    zoo.install(FAULTY, faulty).unwrap();

    // Hammer the faulty variant first so its breaker/restart machinery is
    // churning while the clean corpus replays.
    let zoo = Arc::new(zoo);
    let hammer = {
        let zoo = Arc::clone(&zoo);
        std::thread::spawn(move || {
            let mut failures = 0usize;
            for i in 0..CORPUS {
                match zoo.submit_routed(
                    FAULTY,
                    corpus_item(i),
                    RequestTag::default().with_variant(FAULTY),
                    Duration::from_secs(10),
                ) {
                    Ok(p) => {
                        if p.wait_timeout(Duration::from_secs(10)).is_err() {
                            failures += 1;
                        }
                    }
                    Err(_) => failures += 1,
                }
            }
            failures
        })
    };

    let outcomes = replay(&zoo, CLEAN);
    let faulty_failures = hammer.join().expect("hammer thread");

    // The chaos schedule actually bit: the faulty variant saw failures.
    assert!(
        faulty_failures > 0,
        "fault plan produced no failures; the isolation claim is vacuous"
    );

    // Bit-identical verdict stream and detected-rate (the ASR proxy) on
    // the clean variant, fault-free vs faulted-neighbor runs.
    assert_eq!(
        outcomes, control.0,
        "clean variant's verdicts changed when a neighbor was faulted"
    );
    assert_eq!(detected_rate(&outcomes), detected_rate(&control.0));

    // Accounting on the clean variant matches the control run exactly.
    let m = zoo.variant_metrics(CLEAN).unwrap();
    assert_eq!(m.submitted, control.1.submitted);
    assert_eq!(m.completed, control.1.completed);
    assert_eq!(m.failed, control.1.failed);
    assert_eq!(m.shed_expired, control.1.shed_expired);
    assert_eq!(m.worker_panics, 0, "clean shard must see zero panics");
    assert_eq!(
        m.submitted,
        m.completed + m.failed + m.shed_expired,
        "accounting identity on the clean shard"
    );

    // Blast radius: the faulty shard may be Degraded or Failed, but the
    // zoo aggregate must never report Failed while a healthy shard serves.
    let health = zoo.router_health();
    assert!(
        health < EngineHealth::Failed,
        "zoo reported {health:?} with a healthy shard still live"
    );
    let faulty_metrics = zoo.variant_metrics(FAULTY).unwrap();
    assert_eq!(
        faulty_metrics.submitted,
        faulty_metrics.completed + faulty_metrics.failed + faulty_metrics.shed_expired,
        "accounting identity holds even on the faulted shard"
    );

    let _ = std::fs::remove_dir_all(&control_root);
    let _ = std::fs::remove_dir_all(&root);
}
