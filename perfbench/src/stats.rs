//! The benchmark's own arithmetic: latency percentiles under the
//! ten-samples-beyond rule, failures as missed limits and the fixed
//! outstanding window of a saturating closed loop.
//!
//! Everything here is pure or generic over the calls it drives, so the
//! unit tests at the bottom pin the arithmetic without a model.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Percentiles a tail may be reported at, in per mille, highest first. The
/// tail is the first of these with at least [`MIN_BEYOND`] samples above it.
pub const TAIL_LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// One request's outcome as a latency sample: `None` when it failed or was
/// refused. A failure misses every latency limit, so it sorts above every
/// completed request.
pub type Sample = Option<Duration>;

/// The highest ladder percentile (per mille) with at least [`MIN_BEYOND`]
/// of `n` samples strictly beyond it, or `None` when `n` is too small.
pub fn tail_permille(n: usize) -> Option<u64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&pm| n.saturating_sub(nearest_rank(n, pm)) >= MIN_BEYOND)
}

/// Nearest-rank position (1-based) of the `pm` per-mille point among `n`
/// samples, in integer arithmetic so 99.9% of 10 000 is exactly 9 990.
fn nearest_rank(n: usize, pm: u64) -> usize {
    let rank = (pm * n as u64).div_ceil(1000) as usize;
    rank.clamp(1, n.max(1))
}

/// Latency samples of one run, failures included.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    samples: Vec<Sample>,
}

/// A percentile read off [`Latencies`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quantile {
    /// The sample at that rank completed in this time.
    Met(Duration),
    /// The sample at that rank failed: the limit is missed however it is set.
    Missed,
}

impl Latencies {
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Nearest-rank point `pm` (per mille), with failures ranked above
    /// every completed request. `None` on an empty sample.
    pub fn quantile(&self, pm: u64) -> Option<Quantile> {
        if self.samples.is_empty() {
            return None;
        }
        let mut done: Vec<Duration> = self.samples.iter().flatten().copied().collect();
        done.sort_unstable();
        let rank = nearest_rank(self.samples.len(), pm);
        Some(match done.get(rank - 1) {
            Some(&d) => Quantile::Met(d),
            None => Quantile::Missed,
        })
    }

    /// The tail point (per mille) this sample supports and its value.
    #[cfg(test)]
    pub fn tail(&self) -> Option<(u64, Quantile)> {
        let pm = tail_permille(self.samples.len())?;
        Some((pm, self.quantile(pm)?))
    }

    /// The tail as reported: the run's samples, in request order, are cut
    /// into equal slices of about [`SLICE_SAMPLES`]; each slice's tail
    /// percentile is read and the median across slices is the result. One
    /// host stall then moves the tail of one slice, not of the run.
    /// Returns the per-mille point used, the slice count and the value in
    /// milliseconds (missed limits read as `ceiling`), or `None` when the
    /// sample is too small for a tail.
    pub fn sliced_tail(&self, ceiling: Duration) -> Option<(u64, usize, f64)> {
        let n = self.samples.len();
        let slices = (n / SLICE_SAMPLES).max(1);
        let pm = tail_permille(n / slices)?;
        let tails: Vec<f64> = (0..slices)
            .filter_map(|j| {
                let slice = Latencies {
                    samples: self.samples[j * n / slices..(j + 1) * n / slices].to_vec(),
                };
                slice.quantile(pm).map(|q| Latencies::ms(q, ceiling))
            })
            .collect();
        Some((pm, slices, median(&tails)))
    }

    /// The samples with sample `i` divided by `slowdowns[i]` (unscaled
    /// past the end of `slowdowns`); failures stay failures.
    pub fn scaled(&self, slowdowns: &[f64]) -> Latencies {
        let samples = self
            .samples
            .iter()
            .enumerate()
            .map(|(i, s)| s.map(|d| d.div_f64(slowdowns.get(i).copied().unwrap_or(1.0))))
            .collect();
        Latencies { samples }
    }

    /// Milliseconds of a quantile. A missed limit reads as `ceiling`: the
    /// longest any request of the run could have waited.
    pub fn ms(q: Quantile, ceiling: Duration) -> f64 {
        match q {
            Quantile::Met(d) => d.as_secs_f64() * 1e3,
            Quantile::Missed => ceiling.as_secs_f64() * 1e3,
        }
    }
}

/// Median of `values` (mean of the middle pair for even lengths); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `values`; 0 when empty (a layer that did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Slices [`slice_rate`] cuts a measured phase into.
pub const SLICES: usize = 10;

/// Requests per slice of [`Latencies::sliced_tail`]: the fewest whose p90
/// still has ten samples beyond it.
pub const SLICE_SAMPLES: usize = 100;

/// Completions per second as the median over `slices` equal-count slices
/// of the phase that began at `started`, so one stalled stretch of a run
/// moves the figure no more than any other slice does. Falls back to the
/// whole-phase rate when there are fewer completions than slices.
pub fn slice_rate(started: Instant, done: &[Instant], slices: usize) -> f64 {
    median(&slice_rates(started, done, slices))
}

/// [`slice_rate`] with each slice's rate multiplied by the median of
/// `slowdowns` over the completions in that slice (`slowdowns[k]` belongs
/// to the `k`-th completion in time order).
pub fn scaled_slice_rate(
    started: Instant,
    done: &[Instant],
    slices: usize,
    slowdowns: &[f64],
) -> f64 {
    let rates = slice_rates(started, done, slices);
    let k = rates.len();
    let scaled: Vec<f64> = rates
        .iter()
        .enumerate()
        .map(|(j, r)| {
            let part = &slowdowns[j * slowdowns.len() / k..(j + 1) * slowdowns.len() / k];
            if part.is_empty() {
                *r
            } else {
                r * median(part)
            }
        })
        .collect();
    median(&scaled)
}

/// The per-slice rates [`slice_rate`] takes the median of.
pub fn slice_rates(started: Instant, done: &[Instant], slices: usize) -> Vec<f64> {
    let mut done = done.to_vec();
    done.sort_unstable();
    let n = done.len();
    let rate = |count: usize, from: Instant, to: Instant| {
        count as f64 / to.saturating_duration_since(from).as_secs_f64().max(1e-9)
    };
    let Some(&last) = done.last() else {
        return vec![0.0];
    };
    if n < slices.max(1) {
        return vec![rate(n, started, last)];
    }
    (0..slices)
        .map(|j| {
            let (lo, hi) = (j * n / slices, (j + 1) * n / slices);
            let from = if lo == 0 { started } else { done[lo - 1] };
            rate(hi - lo, from, done[hi - 1])
        })
        .collect()
}

/// Drives a closed loop that keeps exactly `window` requests outstanding
/// (fewer only while the last ones drain): it submits until `window` are
/// in flight, then waits for the oldest before submitting the next.
///
/// `submit(i)` sends request `i` and returns its handle, or an error when
/// the system refused it. `wait(i, handle)` blocks for the answer and
/// returns whether it succeeded. Returns one latency sample per request,
/// in request order, timed from the start of `submit` to the end of
/// `wait`; refused and failed requests are `None`.
pub fn closed_window<H, E>(
    total: usize,
    window: usize,
    mut submit: impl FnMut(usize) -> Result<H, E>,
    mut wait: impl FnMut(usize, H) -> bool,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = vec![None; total];
    let mut in_flight: VecDeque<(usize, Instant, H)> = VecDeque::with_capacity(window);
    let mut settle = |(i, t0, h): (usize, Instant, H), samples: &mut [Sample]| {
        if wait(i, h) {
            samples[i] = Some(t0.elapsed());
        }
    };
    for i in 0..total {
        if in_flight.len() >= window.max(1) {
            if let Some(oldest) = in_flight.pop_front() {
                settle(oldest, &mut samples);
            }
        }
        let t0 = Instant::now();
        if let Ok(h) = submit(i) {
            in_flight.push_back((i, t0, h));
        }
    }
    while let Some(oldest) = in_flight.pop_front() {
        settle(oldest, &mut samples);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 10_000 samples support p99.9 (exactly 10 beyond).
        assert_eq!(tail_permille(10_000), Some(999));
        // 9_999 leave only 9 beyond p99.9, so p99 is the tail.
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(1_000), Some(990));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(0), None);
        for n in 20..20_000 {
            let pm = tail_permille(n).expect("n >= 20 supports a tail");
            assert!(n - nearest_rank(n, pm) >= MIN_BEYOND, "n={n} pm={pm}");
            // No higher ladder point would also keep ten beyond.
            let higher = TAIL_LADDER.iter().take_while(|&&h| h != pm);
            assert!(higher
                .into_iter()
                .all(|&h| n - nearest_rank(n, h) < MIN_BEYOND));
        }
    }

    #[test]
    fn tail_reads_the_right_rank() {
        let mut l = Latencies::default();
        for i in 1..=1_000 {
            l.push(Some(ms(i)));
        }
        assert_eq!(l.tail(), Some((990, Quantile::Met(ms(990)))));
        assert_eq!(l.quantile(500), Some(Quantile::Met(ms(500))));
    }

    #[test]
    fn failures_count_as_missed_limits() {
        // 90 fast successes and 10 failures: p90 still lands on a success,
        // but the failures fill every rank above it.
        let mut l = Latencies::default();
        for _ in 0..90 {
            l.push(Some(ms(1)));
        }
        for _ in 0..10 {
            l.push(None);
        }
        assert_eq!(l.quantile(900), Some(Quantile::Met(ms(1))));
        assert_eq!(l.quantile(910), Some(Quantile::Missed));
        // A failure ranks above even the slowest success.
        let mut l = Latencies::default();
        l.push(Some(ms(10_000)));
        l.push(None);
        assert_eq!(l.quantile(1000), Some(Quantile::Missed));
        assert_eq!(Latencies::ms(Quantile::Missed, ms(2_500)), 2_500.0);
        // With 11 failures among 100, the p90 tail itself is missed.
        let mut l = Latencies::default();
        for _ in 0..89 {
            l.push(Some(ms(1)));
        }
        for _ in 0..11 {
            l.push(None);
        }
        assert_eq!(l.tail(), Some((900, Quantile::Missed)));
    }

    #[test]
    fn sliced_tail_shrugs_off_one_stalled_slice() {
        // 3000 requests → 30 slices of 100, each supporting p90 (10
        // beyond). Every request takes 4 ms except a burst of 100 slow ones:
        // the whole-run p99 lands in the burst, the sliced tail does not.
        let mut l = Latencies::default();
        for i in 0..3_000 {
            l.push(Some(if (1_000..1_100).contains(&i) {
                ms(200)
            } else {
                ms(4)
            }));
        }
        assert_eq!(l.tail(), Some((990, Quantile::Met(ms(200)))));
        assert_eq!(l.sliced_tail(ms(15_000)), Some((900, 30, 4.0)));
        // Fewer than 200 samples make a single slice: the plain tail.
        let mut l = Latencies::default();
        for i in 1..=150 {
            l.push(Some(ms(i)));
        }
        assert_eq!(l.sliced_tail(ms(0)), Some((900, 1, 135.0)));
        // Failures still count as missed limits inside a slice.
        let mut l = Latencies::default();
        for i in 0..1_000 {
            l.push(if i % 10 < 2 { None } else { Some(ms(1)) });
        }
        assert_eq!(l.sliced_tail(ms(9_000)), Some((900, 10, 9_000.0)));
        assert_eq!(Latencies::default().sliced_tail(ms(1)), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn slice_rate_ignores_one_stalled_slice() {
        let t0 = Instant::now();
        // 100 completions, one every 10 ms, except a 500 ms stall before
        // completion 50: the whole-phase rate drops by a third, the median
        // slice rate stays at 100/s.
        let done: Vec<Instant> = (1..=100u64)
            .map(|k| t0 + ms(10 * k + if k >= 50 { 500 } else { 0 }))
            .collect();
        let whole = 100.0 / 1.5;
        assert!((slice_rate(t0, &done, 1) - whole).abs() < 1e-6);
        assert!((slice_rate(t0, &done, 10) - 100.0).abs() < 1e-6);
        // Order of arrival does not matter, and tiny samples fall back to
        // the whole-phase rate.
        let mut shuffled = done.clone();
        shuffled.reverse();
        assert!((slice_rate(t0, &shuffled, 10) - 100.0).abs() < 1e-6);
        assert!((slice_rate(t0, &done[..5], 10) - 100.0).abs() < 1e-6);
        assert_eq!(slice_rate(t0, &[], 10), 0.0);
    }

    #[test]
    fn scaling_divides_times_and_multiplies_rates() {
        let mut l = Latencies::default();
        for _ in 0..3 {
            l.push(Some(ms(10)));
        }
        l.push(None);
        let s = l.scaled(&[1.0, 2.0, 0.5, 2.0]);
        assert_eq!(s.quantile(1), Some(Quantile::Met(ms(5))));
        assert_eq!(s.quantile(500), Some(Quantile::Met(ms(10))));
        assert_eq!(s.quantile(750), Some(Quantile::Met(ms(20))));
        assert_eq!(s.quantile(1000), Some(Quantile::Missed));
        // One completion every 10 ms for 100 completions: 100/s. The
        // second half ran on a host twice as slow as the reference, at
        // 50/s; scaled, every slice reads 100/s.
        let t0 = Instant::now();
        let done: Vec<Instant> = (1..=100u64)
            .map(|k| t0 + ms(if k <= 50 { 10 * k } else { 500 + 20 * (k - 50) }))
            .collect();
        let slow: Vec<f64> = (0..100).map(|k| if k < 50 { 1.0 } else { 2.0 }).collect();
        assert!((scaled_slice_rate(t0, &done, 10, &slow) - 100.0).abs() < 1e-6);
        assert!((scaled_slice_rate(t0, &done, 10, &[]) - 75.0).abs() < 1e-6);
    }

    #[test]
    fn window_keeps_exactly_window_outstanding() {
        use std::cell::Cell;
        let outstanding = Cell::new(0usize);
        let peak = Cell::new(0usize);
        let mut at_submit = Vec::new();
        let samples = closed_window(
            1_000,
            64,
            |i| {
                at_submit.push(outstanding.get());
                outstanding.set(outstanding.get() + 1);
                peak.set(peak.get().max(outstanding.get()));
                Ok::<usize, ()>(i)
            },
            |i, h| {
                assert_eq!(i, h, "answers are matched to their request");
                outstanding.set(outstanding.get() - 1);
                true
            },
        );
        assert_eq!(peak.get(), 64);
        // The first 64 submits fill the window; every later submit finds
        // exactly 63 others in flight (one was just collected).
        assert!(at_submit[..64].iter().enumerate().all(|(i, &o)| o == i));
        assert!(at_submit[64..].iter().all(|&o| o == 63));
        assert_eq!(outstanding.get(), 0, "the loop drains every request");
        assert!(samples.iter().all(Option::is_some));
    }

    #[test]
    fn window_counts_refusals_and_failures_as_missed() {
        let samples = closed_window(
            10,
            4,
            |i| if i == 2 { Err("queue full") } else { Ok(i) },
            |i, _| i != 5,
        );
        let missed: Vec<usize> = (0..10).filter(|&i| samples[i].is_none()).collect();
        assert_eq!(missed, vec![2, 5]);
    }
}
