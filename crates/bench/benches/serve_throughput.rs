//! Serial vs batched-server throughput of the full defense pipeline.
//!
//! The serial baseline classifies one sample per `classify` call — the
//! pattern every evaluation binary used before `adv-serve`. The server
//! variants push the same 32-sample corpus through a one-worker
//! `ServeEngine` at `max_batch` ∈ {1, 8, 32}, so any speedup comes from
//! batching plus the engine's fused pipeline (shared sub-computations run
//! once per batch), not extra parallelism.
//!
//! The fixture mirrors the paper's D+JSD MNIST assembly — two
//! reconstruction detectors, two JSD detectors at `T ∈ {10, 40}`, reformer
//! sharing detector 1's auto-encoder — because that is the deployment shape
//! the fused pass deduplicates.

use adv_bench::{image_batch, trained_autoencoders, trained_classifier};
use adv_chaos::FaultInjector;
use adv_magnet::{
    DefenseScheme, Detector, JsdDetector, MagnetDefense, ReconstructionDetector, ReconstructionNorm,
};
use adv_serve::{ServeConfig, ServeEngine};
use adv_telemetry::{RecorderConfig, TelemetryRecorder};
use adv_tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const CORPUS: usize = 32;

fn calibrated_defense() -> Arc<MagnetDefense> {
    let aes = trained_autoencoders();
    let clf = trained_classifier();
    let detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(ReconstructionDetector::new(
            aes.ae_one.clone(),
            ReconstructionNorm::L2,
        )),
        Box::new(ReconstructionDetector::new(
            aes.ae_two.clone(),
            ReconstructionNorm::L1,
        )),
        Box::new(
            JsdDetector::new(aes.ae_one.clone(), clf.clone(), 10.0)
                .expect("JsdDetector::new failed"),
        ),
        Box::new(
            JsdDetector::new(aes.ae_one.clone(), clf.clone(), 40.0)
                .expect("JsdDetector::new failed"),
        ),
    ];
    let mut defense = MagnetDefense::new("serve-bench-d-jsd", detectors, aes.ae_one.clone(), clf);
    defense
        .calibrate_detectors(&image_batch(64, 1, 28), 0.02)
        .expect("calibrate_detectors failed");
    Arc::new(defense)
}

fn corpus_items() -> Vec<Tensor> {
    let x = image_batch(CORPUS, 1, 28);
    (0..CORPUS)
        .map(|i| x.index_axis0(i).expect("x.index_axis0 failed"))
        .collect()
}

fn server(
    defense: Arc<MagnetDefense>,
    max_batch: usize,
    injector: Option<Arc<FaultInjector>>,
) -> ServeEngine {
    ServeEngine::start(
        defense,
        ServeConfig {
            max_batch,
            max_wait: Duration::from_millis(1),
            queue_capacity: 2 * CORPUS,
            workers: 1,
            scheme: DefenseScheme::Full,
            injector,
            ..ServeConfig::default()
        },
    )
    .expect("ServeEngine::start failed")
}

fn bench_serve_throughput(c: &mut Criterion) {
    let defense = calibrated_defense();
    let items = corpus_items();

    let mut g = c.benchmark_group("serve_throughput_32_samples");
    g.sample_size(10);

    g.bench_function("serial_per_sample", |bench| {
        let singles: Vec<Tensor> = items
            .iter()
            .map(|t| Tensor::stack(std::slice::from_ref(t)).expect("Tensor::stack failed"))
            .collect();
        bench.iter(|| {
            for x in &singles {
                black_box(
                    defense
                        .classify(black_box(x), DefenseScheme::Full)
                        .expect("defense.classify failed"),
                );
            }
        })
    });

    for max_batch in [1usize, 8, 32] {
        let engine = server(defense.clone(), max_batch, None);
        g.bench_function(format!("server_b{max_batch}"), |bench| {
            bench.iter(|| {
                let pending: Vec<_> = items
                    .iter()
                    .map(|t| engine.submit(t.clone()).expect("engine.submit failed"))
                    .collect();
                for p in pending {
                    black_box(p.wait().expect("p.wait failed"));
                }
            })
        });
        engine.shutdown();
    }

    // A present-but-empty injector must cost nothing measurable versus
    // `server_b32` above — the hot path pays one Option branch per poll and
    // never reaches the injector's site table.
    let engine = server(
        defense.clone(),
        32,
        Some(Arc::new(FaultInjector::disabled())),
    );
    g.bench_function("server_b32_noop_injector", |bench| {
        bench.iter(|| {
            let pending: Vec<_> = items
                .iter()
                .map(|t| engine.submit(t.clone()).expect("engine.submit failed"))
                .collect();
            for p in pending {
                black_box(p.wait().expect("p.wait failed"));
            }
        })
    });
    engine.shutdown();

    // Telemetry tap on the same batch-32 engine: the per-response cost is
    // one `TelemetryRow` build plus a non-blocking `try_send`, and the
    // scored pipeline path replaces the unscored one. The budget is <5%
    // over `server_b32`.
    let tele_dir =
        std::env::temp_dir().join(format!("adv_bench_serve_telemetry_{}", std::process::id()));
    std::fs::remove_dir_all(&tele_dir).ok();
    let recorder = TelemetryRecorder::start(RecorderConfig::new(&tele_dir))
        .expect("TelemetryRecorder::start failed");
    let engine = ServeEngine::start(
        defense.clone(),
        ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(1),
            queue_capacity: 2 * CORPUS,
            workers: 1,
            scheme: DefenseScheme::Full,
            observer: Some(Arc::new(recorder.sink())),
            ..ServeConfig::default()
        },
    )
    .expect("ServeEngine::start failed");
    g.bench_function("server_b32_telemetry", |bench| {
        bench.iter(|| {
            let pending: Vec<_> = items
                .iter()
                .map(|t| engine.submit(t.clone()).expect("engine.submit failed"))
                .collect();
            for p in pending {
                black_box(p.wait().expect("p.wait failed"));
            }
        })
    });
    engine.shutdown();
    recorder.shutdown().expect("recorder.shutdown failed");
    std::fs::remove_dir_all(&tele_dir).ok();

    g.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
