//! Model checks for the metrics registry's lock-free record paths, run with
//! `RUSTFLAGS="--cfg loom" cargo test -p adv-profile --test loom`.
//!
//! The registry's handles are Relaxed atomics on the record path (every
//! site carries a `lint-ok(ordering-justified)` rationale); these checks
//! pin the claims those rationales make — counters never lose increments,
//! `set_max` is monotone under contention, histograms never lose samples —
//! across the loom shim's perturbed schedules.

#![cfg(loom)]

use adv_profile::Registry;
use std::sync::Arc;

/// Concurrent `add`s on one counter always sum exactly: the saturating
/// `fetch_update` loop can retry but never drop an increment.
#[test]
fn counter_adds_from_racing_threads_all_land() {
    loom::model(|| {
        let registry = Arc::new(Registry::new());
        let counter = registry.counter("model.hits");
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let counter = counter.clone();
                loom::thread::spawn(move || {
                    for _ in 0..8 {
                        counter.add(2);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("counter thread panicked");
        }
        assert_eq!(counter.get(), 3 * 8 * 2);
    });
}

/// `set_max` keeps the gauge at the maximum of all concurrently offered
/// values: a smaller late sample can never overwrite a larger earlier one.
#[test]
fn gauge_set_max_is_monotone_under_contention() {
    loom::model(|| {
        let registry = Arc::new(Registry::new());
        let gauge = registry.gauge("model.high_water");
        let threads: Vec<_> = (0..3u64)
            .map(|t| {
                let gauge = gauge.clone();
                loom::thread::spawn(move || {
                    // Thread 0 offers rising values, the others falling ones,
                    // so stale-overwrite bugs have losing candidates on every
                    // schedule.
                    for i in 0..8u64 {
                        let v = if t == 0 { i } else { 16 - i };
                        gauge.set_max(v as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("gauge thread panicked");
        }
        assert_eq!(gauge.get(), 16.0);
    });
}

/// Histograms never lose samples under contention: the total bucket count
/// equals the number of `record` calls, and the tracked min/max bracket
/// every recorded value.
#[test]
fn histogram_records_from_racing_threads_all_land() {
    loom::model(|| {
        let registry = Arc::new(Registry::new());
        let histogram = registry.histogram_with("model.lat", &[1.0, 10.0, 100.0]);
        let threads: Vec<_> = (0..3)
            .map(|t| {
                let histogram = histogram.clone();
                loom::thread::spawn(move || {
                    for i in 0..6 {
                        histogram.record((t * 6 + i) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("histogram thread panicked");
        }
        let snap = histogram.snapshot();
        assert_eq!(snap.count, 18, "every sample lands in exactly one bucket");
        assert_eq!(snap.min, 0.0);
        assert_eq!(snap.max, 17.0);
        assert_eq!(snap.sum, (0..18).sum::<i32>() as f64);
    });
}
