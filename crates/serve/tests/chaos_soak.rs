//! Seeded chaos soak: randomized panics, errors, and delays at every
//! injection site while concurrent submitters hammer the engine.
//!
//! Per seed, the soak asserts the engine's fault-tolerance contract:
//!
//! * **Exactly-once responses** — every accepted request resolves with a
//!   verdict or a typed error; no wait ever observes a dropped channel
//!   ([`ServeError::Disconnected`]) and no wait hangs.
//! * **Accounting identity** — `submitted == completed + failed +
//!   shed_expired` after shutdown, i.e. no request is lost or counted
//!   twice, whatever mix of panics, retries, degradation, and restarts the
//!   schedule produced.
//! * **Monotone health** — once a sampler observes `Failed`, every later
//!   sample is `Failed` (the state is terminal).
//! * **Clean shutdown** — `shutdown()` returns (workers and supervisor
//!   join) even when the run killed workers or failed the engine.
//!
//! The seed matrix comes from `CHAOS_SEEDS` (comma-separated) so CI can pin
//! its own; the same seed replays the same fault schedule bit-for-bit. With
//! `CHAOS_METRICS_PATH` set, the final per-seed metrics JSON is written
//! there for the CI artifact.

use adv_chaos::{
    FaultInjector, FaultPlan, FaultyDefense, PANIC_MARKER, SITE_CLASSIFY, SITE_DETECT, SITE_REFORM,
};
use adv_magnet::arch::{mnist_ae_two, mnist_classifier};
use adv_magnet::{Autoencoder, MagnetDefense, ReconstructionDetector, ReconstructionNorm};
use adv_nn::loss::ReconstructionLoss;
use adv_nn::Sequential;
use adv_serve::{
    DegradePolicy, EngineHealth, RestartPolicy, ServeConfig, ServeEngine, ServeError, SITE_POLL,
};
use adv_tensor::{Shape, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

const SUBMITTERS: usize = 3;
const PER_SUBMITTER: usize = 40;

fn silence_injected_panics() {
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
    let classifier =
        Arc::new(Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 2).unwrap());
    let det = ReconstructionDetector::new(Arc::clone(&ae), ReconstructionNorm::L2);
    let mut defense = MagnetDefense::new("soak-toy", vec![Box::new(det)], ae, classifier);
    let calib = Tensor::from_fn(Shape::nchw(64, 1, 8, 8), |i| ((i * 7) % 23) as f32 / 23.0);
    defense.calibrate_detectors(&calib, 0.05).unwrap();
    Arc::new(defense)
}

fn item(offset: usize) -> Tensor {
    Tensor::from_fn(Shape::nchw(1, 1, 8, 8), |i| {
        (((i + offset * 131) * 7) % 23) as f32 / 23.0
    })
    .index_axis0(0)
    .unwrap()
}

fn seed_matrix() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(csv) => csv
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) => vec![3, 17, 1031, 9001],
    }
}

/// One full soak under `seed`; returns the engine's final metrics JSON.
fn soak(seed: u64) -> String {
    let plan = FaultPlan::randomized(seed, &[SITE_DETECT, SITE_REFORM, SITE_CLASSIFY, SITE_POLL]);
    let injector = Arc::new(FaultInjector::new(plan).unwrap());
    let faulty = Arc::new(FaultyDefense::new(toy_defense(), injector.clone()));
    let engine = Arc::new(
        ServeEngine::start(
            faulty,
            ServeConfig {
                workers: 2,
                max_batch: 4,
                max_wait: Duration::from_micros(500),
                queue_capacity: 64,
                max_retries: 1,
                retry_backoff: Duration::from_micros(50),
                restart: RestartPolicy {
                    max_restarts: 6,
                    window: Duration::from_secs(30),
                    backoff_base: Duration::from_micros(100),
                    backoff_max: Duration::from_millis(2),
                },
                degrade: DegradePolicy {
                    enabled: true,
                    failure_threshold: 4,
                    probe_interval: Duration::from_millis(5),
                },
                injector: Some(injector.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap(),
    );

    // Health sampler: once Failed, always Failed.
    let stop_sampling = Arc::new(AtomicBool::new(false));
    let sampler = {
        let engine = engine.clone();
        let stop = stop_sampling.clone();
        std::thread::spawn(move || {
            let mut saw_failed = false;
            let mut violations = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let health = engine.health();
                if saw_failed && health != EngineHealth::Failed {
                    violations += 1;
                }
                saw_failed |= health == EngineHealth::Failed;
                std::thread::sleep(Duration::from_micros(200));
            }
            violations
        })
    };

    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                for i in 0..PER_SUBMITTER {
                    let input = item(s * PER_SUBMITTER + i);
                    // Every third request carries a server-side deadline so
                    // the shed path is exercised alongside plain submits.
                    let submitted = if i % 3 == 0 {
                        engine.submit_with_deadline(input, Duration::from_millis(50))
                    } else {
                        engine.submit(input)
                    };
                    match submitted {
                        Ok(pending) => accepted.push(pending),
                        Err(ServeError::QueueFull) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(ServeError::ShuttingDown) => break,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
                // Exactly-once: every accepted request resolves (bounded, so
                // a lost response fails the test instead of hanging it) and
                // never as a dropped channel. A Timeout here is normally the
                // server-side shed response arriving through the channel; a
                // genuinely unanswered request would also land here, and the
                // accounting identity below would then fail the test.
                let mut outcomes = [0u64; 2];
                for pending in accepted {
                    match pending.wait_timeout(Duration::from_secs(30)) {
                        Ok(_) => outcomes[0] += 1,
                        Err(ServeError::Disconnected) => {
                            panic!("a response channel was dropped unanswered")
                        }
                        Err(_) => outcomes[1] += 1,
                    }
                }
                outcomes
            })
        })
        .collect();

    let mut served = 0u64;
    let mut errored = 0u64;
    for submitter in submitters {
        let [ok, err] = submitter.join().expect("submitter panicked");
        served += ok;
        errored += err;
    }
    stop_sampling.store(true, Ordering::Relaxed);
    let violations = sampler.join().expect("health sampler panicked");
    assert_eq!(violations, 0, "health left Failed after entering it");

    let json = engine.metrics_json();
    let engine = Arc::into_inner(engine).expect("all clones joined");
    let m = engine.shutdown();

    // Accounting identity: every accepted request is answered exactly once,
    // through exactly one of the three terminal paths.
    assert_eq!(
        m.submitted,
        m.completed + m.failed + m.shed_expired,
        "seed {seed}: lost or double-counted requests \
         (completed {} failed {} shed {})",
        m.completed,
        m.failed,
        m.shed_expired
    );
    // The waits above observed a subset of those totals (server-side shed
    // surfaces as a Timeout *error* to the caller, so shed responses land
    // in `errored`).
    assert_eq!(served, m.completed, "seed {seed}");
    assert_eq!(errored, m.failed + m.shed_expired, "seed {seed}");
    // Respawns happen only in reaction to caught panics.
    assert!(
        m.worker_restarts <= m.worker_panics,
        "seed {seed}: {} restarts for {} panics",
        m.worker_restarts,
        m.worker_panics
    );
    json
}

#[test]
fn seeded_chaos_soak_holds_the_fault_tolerance_contract() {
    silence_injected_panics();
    let mut artifacts = String::new();
    for seed in seed_matrix() {
        let json = soak(seed);
        artifacts.push_str(&format!("{{\"seed\":{seed},\"metrics\":{json}}}\n"));
    }
    if let Ok(path) = std::env::var("CHAOS_METRICS_PATH") {
        std::fs::write(&path, artifacts).expect("write chaos metrics artifact");
    }
}
