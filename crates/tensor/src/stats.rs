//! Small statistics helpers used by detector calibration: a score
//! quantile and the share of scores above a threshold.

/// The `q`-th quantile (`0.0..=1.0`) with linear interpolation, or `None`
/// when the slice is empty or `q` out of range.
///
/// Used by MagNet's detector calibration: the threshold is the score quantile
/// at `1 − fpr` over clean validation data.
pub fn quantile(xs: &[f32], q: f32) -> Option<f32> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (sorted.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f32;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Fraction of values strictly above `threshold`.
pub fn fraction_above(xs: &[f32], threshold: f32) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&x| x > threshold).count() as f32 / xs.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_endpoints_and_median() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(3.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.0));
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.25), Some(2.5));
    }

    #[test]
    fn quantile_rejects_empty_and_out_of_range() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
    }

    #[test]
    fn fraction_above_threshold() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fraction_above(&xs, 2.5), 0.5);
        assert_eq!(fraction_above(&xs, 10.0), 0.0);
        assert_eq!(fraction_above(&[], 0.0), 0.0);
    }
}
