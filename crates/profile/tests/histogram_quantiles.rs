//! Edge cases of the nearest-rank histogram quantiles: empty histograms,
//! single samples, degenerate all-in-one-bucket distributions, and the
//! p0/p100 extremes — the inputs where bucketed quantiles are easiest to
//! get off by one.

use adv_profile::{Histogram, DURATION_BOUNDS_NS, SCORE_BOUNDS};

#[test]
fn empty_histogram_reports_zero_everywhere() {
    let h = Histogram::with_bounds(DURATION_BOUNDS_NS);
    let s = h.snapshot();
    assert_eq!(s.count, 0);
    assert_eq!(s.sum, 0.0);
    assert_eq!(s.mean(), 0.0);
    for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(s.quantile(q), 0.0, "q={q} on empty histogram");
    }
}

#[test]
fn single_sample_is_every_quantile() {
    let h = Histogram::with_bounds(DURATION_BOUNDS_NS);
    h.record(12_345.0);
    let s = h.snapshot();
    assert_eq!(s.count, 1);
    // Min/max clamping makes the lone sample exact at every rank, even
    // though its bucket's upper bound is 16384.
    for q in [0.0, 0.5, 0.999, 1.0] {
        assert_eq!(s.quantile(q), 12_345.0, "q={q} on single sample");
    }
    assert_eq!(s.mean(), 12_345.0);
}

#[test]
fn all_samples_in_one_bucket_clamp_to_observed_range() {
    let h = Histogram::with_bounds(SCORE_BOUNDS);
    // All land in the same bucket; the observed spread is far narrower
    // than the bucket, so clamping has to do the work.
    for v in [0.301, 0.302, 0.303, 0.304] {
        h.record(v);
    }
    let s = h.snapshot();
    assert_eq!(s.count, 4);
    let (min, max) = (s.min, s.max);
    assert_eq!(min, 0.301);
    assert_eq!(max, 0.304);
    for q in [0.0, 0.5, 0.75, 1.0] {
        let v = s.quantile(q);
        assert!(
            (min..=max).contains(&v),
            "q={q} escaped the observed range: {v}"
        );
    }
    // The shared bucket's upper bound is above every sample, so after
    // clamping every rank resolves to the observed maximum — the best a
    // bucketed quantile can do without per-sample storage.
    assert_eq!(s.quantile(0.0), max);
    assert_eq!(s.quantile(1.0), max, "p100 is the observed maximum");
}

#[test]
fn nearest_rank_p0_and_p100_hit_the_extremes() {
    let h = Histogram::with_bounds(DURATION_BOUNDS_NS);
    // Samples spread across well-separated buckets.
    h.record(100.0);
    h.record(10_000.0);
    h.record(1_000_000.0);
    h.record(100_000_000.0);
    let s = h.snapshot();
    assert_eq!(s.count, 4);
    // Nearest-rank: p0 takes rank 1 (clamped), p100 takes rank N. The
    // rank-1 sample (100) sits below the first 256ns bound, so p0 reports
    // that bucket's bound; p100 clamps down to the observed max exactly.
    let p0 = s.quantile(0.0);
    assert!((100.0..=256.0).contains(&p0), "p0 out of tolerance: {p0}");
    assert_eq!(s.quantile(1.0), 100_000_000.0);
    // Out-of-range q values clamp rather than panic or extrapolate.
    assert_eq!(s.quantile(-3.0), s.quantile(0.0));
    assert_eq!(s.quantile(7.0), s.quantile(1.0));
    // Monotone in q.
    let mut prev = f64::NEG_INFINITY;
    for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let v = s.quantile(q);
        assert!(v >= prev, "quantiles must be monotone: q={q} gave {v}");
        prev = v;
    }
}

#[test]
fn quantiles_of_overflow_bucket_use_observed_max() {
    let h = Histogram::with_bounds(DURATION_BOUNDS_NS);
    h.record(2.0e18); // beyond the last finite bound
    let s = h.snapshot();
    assert_eq!(s.count, 1);
    assert_eq!(
        s.quantile(0.5),
        2.0e18,
        "overflow-bucket quantile must clamp to the observed max, not infinity"
    );
    assert!(s.quantile(1.0).is_finite());
}
