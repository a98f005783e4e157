//! Cost of the instrumentation points switched off, as a share of the same
//! points switched on, timed in one process.
//!
//! Below `ObsLevel::Trace` every [`StageScope::enter`], and below
//! `ObsLevel::Metrics` every `adv_profile::metrics_enabled()` gate, is one
//! relaxed load and a predictable branch: cheap enough to leave in the EAD
//! ISTA loop and the training batch loop. Each round times every side's
//! 4096-call loop once, so host drift reaches all four alike. The program
//! prints each side's median and quartiles and each off/on ratio of medians
//! next to its limit, and exits 1 unless both ratios are below their limits.
//!
//! `cargo run --release -p adv-profile --example obs_overhead`

use adv_profile::ObsLevel;
use adv_profile::StageScope;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const CALLS: usize = 4096;
const ROUNDS: usize = 401;
const SPAN_LIMIT: f64 = 0.10;
const METRICS_LIMIT: f64 = 0.25;

/// Nanoseconds one call of `body` takes at `level`.
#[expect(
    clippy::disallowed_methods,
    reason = "timing the instrumentation points is this program's purpose"
)]
fn time(level: ObsLevel, body: &dyn Fn()) -> f64 {
    adv_profile::set_level(level);
    let start = Instant::now();
    body();
    start.elapsed().as_nanos() as f64
}

fn main() -> ExitCode {
    let counter = adv_profile::global().counter("bench.obs_overhead");
    let spans = || {
        for _ in 0..CALLS {
            let _guard = StageScope::enter(black_box("bench/span"));
        }
    };
    let gate = || {
        for _ in 0..CALLS {
            if adv_profile::metrics_enabled() {
                counter.incr();
            }
        }
    };
    let sides: [(&str, ObsLevel, &dyn Fn()); 4] = [
        ("span_enter_off_4096", ObsLevel::Off, &spans),
        ("span_enter_trace_4096", ObsLevel::Trace, &spans),
        ("metrics_gate_off_4096", ObsLevel::Off, &gate),
        ("counter_add_metrics_4096", ObsLevel::Metrics, &gate),
    ];
    let mut ns = vec![Vec::with_capacity(ROUNDS); sides.len()];
    for _ in 0..ROUNDS {
        for (samples, &(_, level, body)) in ns.iter_mut().zip(&sides) {
            samples.push(time(level, body));
        }
        // Drained outside the timed loops, so the span sink never saturates.
        black_box(adv_profile::take_spans());
    }
    adv_profile::set_level(ObsLevel::Off);

    let mut median = Vec::new();
    for (samples, (name, ..)) in ns.iter_mut().zip(&sides) {
        samples.sort_by(f64::total_cmp);
        let q = |p: usize| samples[(ROUNDS - 1) * p / 4];
        println!(
            "{name:<26} median {:>9.0} ns  q1 {:>9.0}  q3 {:>9.0}",
            q(2),
            q(1),
            q(3)
        );
        median.push(q(2));
    }
    let mut pass = true;
    for (off, on, limit) in [(0, 1, SPAN_LIMIT), (2, 3, METRICS_LIMIT)] {
        let ratio = median[off] / median[on];
        let ok = ratio < limit;
        pass &= ok;
        let verdict = if ok { "ok" } else { "FAIL" };
        println!(
            "{} / {} = {ratio:.4} (limit {limit:.2}) {verdict}",
            sides[off].0, sides[on].0
        );
    }
    ExitCode::from(u8::from(!pass))
}
