//! Cost of the instrumentation points at each telemetry level.
//!
//! The contract the instrumented crates rely on: below `ObsLevel::Trace`
//! (the default is `Off`), every `adv_profile::StageScope::enter` and every
//! `metrics_enabled()` gate is one relaxed atomic load plus a predictable
//! branch — cheap enough to leave in the EAD ISTA loop and the training
//! batch loop unconditionally. The `*_off` benchmarks here pin that down;
//! the `*_trace`/`*_metrics` variants show what turning telemetry on
//! actually costs per event, the trace one through the frame stack and the
//! span sink that feeds `trace.jsonl`.

use adv_obs::ObsLevel;
use adv_profile::StageScope;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const CALLS: usize = 4096;

fn bench_obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");

    adv_obs::set_level(ObsLevel::Off);
    g.bench_function("span_enter_off_4096", |b| {
        b.iter(|| {
            for _ in 0..CALLS {
                let _guard = StageScope::enter(black_box("bench/span"));
            }
        })
    });
    g.bench_function("metrics_gate_off_4096", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..CALLS {
                if adv_obs::metrics_enabled() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });

    adv_obs::set_level(ObsLevel::Metrics);
    g.bench_function("counter_add_metrics_4096", |b| {
        let counter = adv_obs::global().counter("bench.obs_overhead");
        b.iter(|| {
            for _ in 0..CALLS {
                if adv_obs::metrics_enabled() {
                    counter.incr();
                }
            }
        })
    });

    adv_obs::set_level(ObsLevel::Trace);
    g.bench_function("span_enter_trace_4096", |b| {
        b.iter(|| {
            for _ in 0..CALLS {
                let _guard = StageScope::enter(black_box("bench/span"));
            }
            // Keep the span sink from saturating across iterations.
            black_box(adv_profile::take_spans());
        })
    });

    adv_obs::set_level(ObsLevel::Off);
    adv_profile::reset();
    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
