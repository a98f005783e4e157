//! Offline stand-in for `criterion`.
//!
//! Provides the API subset the workspace's benches use — `Criterion`,
//! `benchmark_group`/`bench_function`/`sample_size`/`finish`, `Bencher::iter`
//! and the `criterion_group!`/`criterion_main!` macros — backed by a simple
//! wall-clock harness: a warm-up pass sizes the iteration count toward a
//! fixed measurement budget, then samples are timed and summarized as
//! min/median/mean ns per iteration.
//!
//! When invoked by `cargo test` (any `--test`-style flag present) each
//! benchmark body runs exactly once, so bench targets double as smoke tests
//! without inflating suite wall-clock.

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "a wall-clock benchmark harness times its samples"
)]

use std::time::{Duration, Instant};

/// Per-sample time budget the harness aims at in full measurement mode.
const SAMPLE_BUDGET: Duration = Duration::from_millis(20);

/// Times one benchmark body.
#[derive(Debug)]
pub struct Bencher {
    iters_per_sample: u64,
    samples: usize,
    smoke_test: bool,
    /// Measured ns/iter per sample, filled by [`Bencher::iter`].
    results_ns: Vec<f64>,
}

impl Bencher {
    /// Runs `f` repeatedly, recording wall-clock time per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.smoke_test {
            std::hint::black_box(f());
            return;
        }
        // Warm-up: estimate per-iteration cost, then size samples to budget.
        let warm = Instant::now();
        std::hint::black_box(f());
        let once = warm.elapsed().max(Duration::from_nanos(1));
        let per_sample = (SAMPLE_BUDGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let iters = self.iters_per_sample.max(per_sample);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            self.results_ns
                .push(elapsed.as_nanos() as f64 / iters as f64);
        }
    }
}

/// Min, median and mean of the samples, `None` when there are none. The
/// median of an even count is the mean of the middle pair.
fn summarize(results_ns: &[f64]) -> Option<(f64, f64, f64)> {
    let mut sorted = results_ns.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let min = *sorted.first()?;
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    let mean = sorted.iter().sum::<f64>() / n as f64;
    Some((min, median, mean))
}

fn report(label: &str, results_ns: &[f64]) {
    let Some((min, median, mean)) = summarize(results_ns) else {
        println!("bench {label:<50} smoke-tested (1 iteration)");
        return;
    };
    println!(
        "bench {label:<50} min {:>12} median {:>12} mean {:>12}",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(mean)
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// The benchmark harness entry point.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    smoke_test: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // Under `cargo test` the harness passes test-runner flags; run each
        // body once so bench targets act as fast smoke tests.
        let smoke_test = std::env::args().any(|a| {
            a == "--test" || a == "--list" || a.starts_with("--format") || a == "--nocapture"
        });
        Criterion {
            sample_size: 10,
            smoke_test,
        }
    }
}

impl Criterion {
    /// Applies command-line configuration (accepted for API compatibility).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Benchmarks `f` under `name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            iters_per_sample: 1,
            samples: self.sample_size,
            smoke_test: self.smoke_test,
            results_ns: Vec::new(),
        };
        f(&mut b);
        report(name.as_ref(), &b.results_ns);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_size: None,
        }
    }
}

/// A named collection of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timing samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Benchmarks `f` under `group/name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            iters_per_sample: 1,
            samples: self.sample_size.unwrap_or(self.parent.sample_size),
            smoke_test: self.parent.smoke_test,
            results_ns: Vec::new(),
        };
        f(&mut b);
        report(&format!("{}/{}", self.name, name.as_ref()), &b.results_ns);
        self
    }

    /// Ends the group (accepted for API compatibility).
    pub fn finish(self) {}
}

/// Declares a group function running the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main`, running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_body() {
        let mut calls = 0u64;
        let mut c = Criterion {
            sample_size: 2,
            smoke_test: false,
        };
        c.bench_function("probe", |b| b.iter(|| calls += 1));
        assert!(calls >= 3, "warm-up plus two samples, got {calls}");
    }

    #[test]
    fn smoke_test_mode_runs_once_per_bench() {
        let mut calls = 0u64;
        let mut c = Criterion {
            sample_size: 50,
            smoke_test: true,
        };
        let mut g = c.benchmark_group("g");
        g.sample_size(30);
        g.bench_function("probe", |b| b.iter(|| calls += 1));
        g.finish();
        assert_eq!(calls, 1);
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_pair() {
        let samples = [6.0, 1.0, 4.0, 2.0, 3.0, 5.0, 9.0, 7.0, 10.0, 8.0];
        assert_eq!(summarize(&samples), Some((1.0, 5.5, 5.5)));
        assert_eq!(summarize(&[3.0, 1.0, 8.0]), Some((1.0, 3.0, 4.0)));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1_500.0), "1.500 µs");
        assert_eq!(fmt_ns(2_000_000.0), "2.000 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.000 s");
    }
}
