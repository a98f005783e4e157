//! Fault-tolerance behaviour of the serving engine, driven by the
//! deterministic `adv-chaos` injector: deadline shedding, worker panic
//! supervision and respawn, restart-budget exhaustion, abandoned-receiver
//! accounting, and circuit-breaker degradation with probe recovery.

use adv_chaos::{
    FaultInjector, FaultPlan, FaultyDefense, SiteFaults, PANIC_MARKER, SITE_CLASSIFY, SITE_REFORM,
};
use adv_magnet::arch::{mnist_ae_two, mnist_classifier};
use adv_magnet::{
    Autoencoder, DefenseScheme, Detector, InferenceCache, MagnetDefense, ReconstructionDetector,
    ReconstructionNorm,
};
use adv_nn::loss::ReconstructionLoss;
use adv_nn::Sequential;
use adv_serve::{
    DegradePolicy, EngineHealth, RestartPolicy, ServeConfig, ServeEngine, ServeError, SITE_POLL,
};
use adv_tensor::{Shape, Tensor};
use std::sync::{Arc, Once};
use std::time::Duration;

/// Silences the default panic-hook stderr spew for *injected* panics only;
/// real panics still print. Installed once per test binary.
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

/// A small calibrated defense over 8×8 single-channel inputs.
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
    let mut defense = MagnetDefense::new("robust-toy", vec![Box::new(det)], ae, classifier);
    defense.calibrate_detectors(&corpus(64, 0), 0.05).unwrap();
    Arc::new(defense)
}

/// Deterministic batch of `n` pseudo-images, offset to vary content.
fn corpus(n: usize, offset: usize) -> Tensor {
    Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| {
        (((i + offset * 131) * 7) % 23) as f32 / 23.0
    })
}

fn item(offset: usize) -> Tensor {
    corpus(1, offset).index_axis0(0).unwrap()
}

/// Wraps the toy defense with a fault plan and starts an engine over it.
fn faulty_engine(plan: FaultPlan, cfg: ServeConfig) -> (ServeEngine, Arc<FaultInjector>) {
    let injector = Arc::new(FaultInjector::new(plan).unwrap());
    let faulty = Arc::new(FaultyDefense::new(toy_defense(), injector.clone()));
    let cfg = ServeConfig {
        injector: Some(injector.clone()),
        ..cfg
    };
    (ServeEngine::start(faulty, cfg).unwrap(), injector)
}

#[test]
fn expired_server_deadline_is_shed_with_timeout() {
    let engine = ServeEngine::start(toy_defense(), ServeConfig::default()).unwrap();
    // A zero budget expires by the time any worker can look at it.
    let shed = engine
        .submit_with_deadline(item(1), Duration::ZERO)
        .unwrap();
    assert_eq!(shed.wait().unwrap_err(), ServeError::Timeout);
    // A generous budget behaves like a plain submit.
    let served = engine
        .submit_with_deadline(item(2), Duration::from_secs(30))
        .unwrap();
    served.wait().expect("in-budget request must be served");
    let m = engine.shutdown();
    assert_eq!(m.shed_expired, 1);
    assert_eq!(m.completed, 1);
    // Shed requests are answered, not silently dropped, and are not
    // double-counted as pipeline failures.
    assert_eq!(m.failed, 0);
    assert_eq!(m.submitted, 2);
}

#[test]
fn caller_wait_timeout_and_server_deadline_agree_on_timeout() {
    silence_injected_panics();
    // Slow the worker's poll by 30ms so the caller-side timeout fires while
    // the request is still queued; the server later answers into a dropped
    // receiver, which must be *counted*, not lost.
    let plan =
        FaultPlan::new(11).with(SiteFaults::at(SITE_POLL).delays(1.0, Duration::from_millis(30)));
    let (engine, _) = faulty_engine(
        plan,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );

    // Caller-side expiry: same error the server-side shed produces.
    let pending = engine.submit(item(3)).unwrap();
    assert_eq!(
        pending.wait_timeout(Duration::from_millis(1)).unwrap_err(),
        ServeError::Timeout
    );

    // Server-side expiry: the deadline outlasts the caller's patience but
    // not the worker's stall, so the *server* sheds it with the same error.
    let pending = engine
        .submit_with_deadline(item(4), Duration::from_millis(1))
        .unwrap();
    assert_eq!(pending.wait().unwrap_err(), ServeError::Timeout);

    let m = engine.shutdown();
    assert_eq!(m.shed_expired, 1, "server-side shed");
    assert_eq!(
        m.responses_abandoned, 1,
        "the caller-abandoned verdict is counted"
    );
}

#[test]
fn abandoned_receivers_are_counted_not_ignored() {
    silence_injected_panics();
    let plan =
        FaultPlan::new(13).with(SiteFaults::at(SITE_POLL).delays(1.0, Duration::from_millis(25)));
    let (engine, _) = faulty_engine(
        plan,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    // The worker is stalled for 25ms, so these drops happen while the
    // requests are still queued.
    drop(engine.submit(item(5)).unwrap());
    drop(engine.submit(item(6)).unwrap());
    let kept = engine.submit(item(7)).unwrap();
    kept.wait().expect("kept receiver must still be served");
    let m = engine.shutdown();
    assert_eq!(m.responses_abandoned, 2);
    assert_eq!(m.completed, 3, "abandoned verdicts still complete");
}

#[test]
fn worker_panic_answers_the_batch_and_respawns_the_worker() {
    silence_injected_panics();
    let plan = FaultPlan::new(17).with(SiteFaults::at(SITE_CLASSIFY).panics(1.0).limit(1));
    let (engine, injector) = faulty_engine(
        plan,
        ServeConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(10),
            restart: RestartPolicy {
                backoff_base: Duration::from_micros(100),
                ..RestartPolicy::default()
            },
            ..ServeConfig::default()
        },
    );

    // The first executed batch panics; every rider must get WorkerPanic
    // (never a hung wait or Disconnected), and the respawned worker must
    // serve the follow-up request.
    let first: Vec<_> = (0..4)
        .map(|i| engine.submit(item(10 + i)).unwrap())
        .collect();
    let mut panicked = 0;
    let mut served = 0;
    for pending in first {
        match pending.wait() {
            Err(ServeError::WorkerPanic(msg)) => {
                assert!(msg.contains(PANIC_MARKER), "{msg}");
                panicked += 1;
            }
            Ok(_) => served += 1,
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert!(panicked >= 1, "at least the panicking batch must report it");
    assert_eq!(injector.stats().panics, 1);

    // Respawn: the engine keeps serving after the panic.
    engine
        .submit(item(20))
        .unwrap()
        .wait()
        .expect("respawned worker must serve");
    served += 1;
    assert!(served >= 1);
    assert_eq!(engine.health(), EngineHealth::Degraded, "restart window");

    let m = engine.shutdown();
    assert_eq!(m.worker_panics, 1);
    assert_eq!(m.worker_restarts, 1);
    assert_eq!(
        m.completed + m.failed,
        m.submitted,
        "exactly-once accounting"
    );
}

#[test]
fn exhausted_restart_budget_fails_the_engine_terminally() {
    silence_injected_panics();
    let plan = FaultPlan::new(19).with(SiteFaults::at(SITE_CLASSIFY).panics(1.0));
    let (engine, _) = faulty_engine(
        plan,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::ZERO,
            restart: RestartPolicy {
                max_restarts: 1,
                backoff_base: Duration::from_micros(100),
                window: Duration::from_secs(60),
                ..RestartPolicy::default()
            },
            ..ServeConfig::default()
        },
    );

    // Every batch panics: panic #1 consumes the restart budget, panic #2
    // exceeds it and the engine must fail closed.
    let mut accepted = Vec::new();
    for i in 0..200 {
        match engine.submit(item(i)) {
            Ok(p) => accepted.push(p),
            Err(ServeError::ShuttingDown) => break,
            Err(ServeError::QueueFull) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        if engine.health() == EngineHealth::Failed {
            break;
        }
    }
    // Every accepted request resolves with an error — none hang, none see a
    // dropped channel.
    for pending in accepted {
        match pending.wait_timeout(Duration::from_secs(10)) {
            Err(ServeError::WorkerPanic(_)) => {}
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
    // Wait for the supervisor to finish marking the engine failed.
    let mut health = engine.health();
    for _ in 0..500 {
        if health == EngineHealth::Failed {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
        health = engine.health();
    }
    assert_eq!(health, EngineHealth::Failed);
    assert_eq!(
        engine.submit(item(999)).unwrap_err(),
        ServeError::ShuttingDown,
        "a failed engine accepts no further work"
    );
    let m = engine.shutdown();
    assert_eq!(m.worker_restarts, 1);
    assert!(m.worker_panics >= 2);
    assert_eq!(m.completed + m.failed, m.submitted);
}

#[test]
fn breaker_degrades_the_scheme_and_probe_restores_it() {
    silence_injected_panics();
    // The reformer fails twice (exactly the threshold), then recovers; with
    // retries off each failure is one batch failure.
    let plan = FaultPlan::new(23).with(SiteFaults::at(SITE_REFORM).errors(1.0).limit(2));
    let (engine, _) = faulty_engine(
        plan,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::ZERO,
            scheme: DefenseScheme::Full,
            max_retries: 0,
            degrade: DegradePolicy {
                enabled: true,
                failure_threshold: 2,
                // Wide enough that the degraded-traffic assertions below
                // cannot accidentally race the probe on a slow machine.
                probe_interval: Duration::from_millis(100),
            },
            ..ServeConfig::default()
        },
    );

    // Two failing batches open the breaker…
    for i in 0..2 {
        let err = engine.submit(item(30 + i)).unwrap().wait().unwrap_err();
        assert!(matches!(err, ServeError::Pipeline(_)), "{err}");
    }
    // …after which traffic is served under the fallback scheme, stamped
    // degraded.
    let r = engine.submit(item(40)).unwrap().wait().unwrap();
    assert!(r.degraded);
    assert_eq!(r.scheme, DefenseScheme::DetectorOnly);
    assert_eq!(engine.health(), EngineHealth::Degraded);

    // Once the probe interval elapses, the next batch probes the original
    // scheme (the fault budget is spent, so it succeeds) and the breaker
    // closes.
    std::thread::sleep(Duration::from_millis(120));
    let r = engine.submit(item(41)).unwrap().wait().unwrap();
    assert!(!r.degraded, "successful probe restores the full scheme");
    assert_eq!(r.scheme, DefenseScheme::Full);
    assert_eq!(engine.health(), EngineHealth::Healthy);

    let m = engine.shutdown();
    assert_eq!(m.breaker_opened, 1);
    assert_eq!(m.breaker_closed, 1);
    assert!(m.degraded_responses >= 1);
    assert_eq!(m.failed, 2);
}

#[test]
fn transient_failures_are_retried_within_the_batch() {
    silence_injected_panics();
    // One injected error, then clean: a single retry absorbs it and the
    // caller never sees a failure.
    let plan = FaultPlan::new(29).with(SiteFaults::at(SITE_REFORM).errors(1.0).limit(1));
    let (engine, _) = faulty_engine(
        plan,
        ServeConfig {
            workers: 1,
            max_retries: 1,
            retry_backoff: Duration::from_micros(50),
            ..ServeConfig::default()
        },
    );
    engine
        .submit(item(50))
        .unwrap()
        .wait()
        .expect("retry must absorb the transient failure");
    let m = engine.shutdown();
    assert_eq!(m.batch_retries, 1);
    assert_eq!(m.failed, 0);
    assert_eq!(m.completed, 1);
}

#[test]
fn zero_failure_threshold_is_rejected() {
    let result = ServeEngine::start(
        toy_defense(),
        ServeConfig {
            degrade: DegradePolicy {
                enabled: true,
                failure_threshold: 0,
                ..DegradePolicy::default()
            },
            ..ServeConfig::default()
        },
    );
    assert!(matches!(result, Err(ServeError::InvalidConfig(_))));
}

/// A reconstruction detector that panics on an unnamed thread. Engine
/// workers are named, so only a helper chunk of a split pass panics.
#[derive(Debug)]
struct PanicsOnHelper(ReconstructionDetector);

impl Detector for PanicsOnHelper {
    fn name(&self) -> String {
        self.0.name()
    }

    fn scores_fused<'m>(
        &'m self,
        x: &Tensor,
        cache: &mut InferenceCache<'m>,
    ) -> adv_magnet::Result<Vec<f32>> {
        if std::thread::current().name().is_none() {
            panic!("{PANIC_MARKER} detector on a helper chunk");
        }
        self.0.scores_fused(x, cache)
    }

    fn threshold(&self) -> Option<f32> {
        self.0.threshold()
    }

    fn set_threshold(&mut self, threshold: f32) {
        self.0.set_threshold(threshold);
    }
}

#[test]
fn a_panic_in_a_helper_chunk_answers_the_batch_with_worker_panic() {
    silence_injected_panics();
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
    let det = PanicsOnHelper(ReconstructionDetector::new(
        Arc::clone(&ae),
        ReconstructionNorm::L2,
    ));
    let mut defense = MagnetDefense::new("helper-panic", vec![Box::new(det)], ae, classifier);
    defense.calibrate_detectors(&corpus(64, 0), 0.05).unwrap();
    let engine = ServeEngine::start(
        Arc::new(defense),
        ServeConfig {
            workers: 1,
            max_batch: 32,
            max_wait: Duration::from_millis(200),
            restart: RestartPolicy {
                backoff_base: Duration::from_micros(100),
                ..RestartPolicy::default()
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // A batch splits from 16 rows. The worker never lingers (no other
    // pass runs), so each round's first request may go alone and the rest
    // queue up behind its pass to form the next batch. Other tests' passes
    // share the core budget, so a batch may run unsplit; a few rounds see
    // it split wherever two cores exist.
    let split_possible = adv_magnet::fork::cores() >= 2;
    let mut panicked = 0;
    for round in 0..50 {
        let pending: Vec<_> = (0..32)
            .map(|i| engine.submit(item(32 * round + i)).unwrap())
            .collect();
        for p in pending {
            match p.wait_timeout(Duration::from_secs(30)) {
                Ok(_) => {}
                Err(ServeError::WorkerPanic(msg)) => {
                    assert!(msg.contains(PANIC_MARKER), "{msg}");
                    panicked += 1;
                }
                other => panic!("expected a verdict or WorkerPanic, got {other:?}"),
            }
        }
        if panicked > 0 || !split_possible {
            break;
        }
    }
    assert_eq!(
        panicked > 0,
        split_possible,
        "{panicked} answered WorkerPanic"
    );
    let m = engine.shutdown();
    assert_eq!(m.completed + m.failed, m.submitted);
}
