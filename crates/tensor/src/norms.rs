//! Distortion metrics between natural and adversarial examples.
//!
//! The paper reports L1 and L2 distortions (Table I) and argues that the
//! choice of metric — L1 vs L2 — is precisely what separates EAD from C&W.
//! L0 and L∞ are included because the attack literature (and the EAD paper)
//! report them as well.

use crate::{Result, Tensor, TensorError};
use adv_profile::{KernelKind, KernelScope, Work};

fn check(a: &Tensor, b: &Tensor) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().dims().to_vec(),
            right: b.shape().dims().to_vec(),
        });
    }
    Ok(())
}

/// Number of non-zero elements of `t` (with tolerance `tol`).
pub fn l0_norm(t: &Tensor, tol: f32) -> usize {
    t.as_slice().iter().filter(|v| v.abs() > tol).count()
}

/// `‖t‖₁ = Σ|tᵢ|`.
pub fn l1_norm(t: &Tensor) -> f32 {
    let _prof = KernelScope::enter(KernelKind::Reduction, || Work::reduce(t.len()));
    t.as_slice().iter().map(|v| v.abs()).sum()
}

/// `‖t‖₂ = √(Σ tᵢ²)`.
pub fn l2_norm(t: &Tensor) -> f32 {
    let _prof = KernelScope::enter(KernelKind::Reduction, || Work::reduce(t.len()));
    t.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// `‖t‖_∞ = max |tᵢ|`.
pub fn linf_norm(t: &Tensor) -> f32 {
    t.as_slice().iter().map(|v| v.abs()).fold(0.0, f32::max)
}

/// L1 distance `‖a − b‖₁`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn l1_dist(a: &Tensor, b: &Tensor) -> Result<f32> {
    check(a, b)?;
    let _prof = KernelScope::enter(KernelKind::Reduction, || Work::reduce(a.len()));
    Ok(a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x - y).abs())
        .sum())
}

/// L2 distance `‖a − b‖₂`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn l2_dist(a: &Tensor, b: &Tensor) -> Result<f32> {
    check(a, b)?;
    let _prof = KernelScope::enter(KernelKind::Reduction, || Work::reduce(a.len()));
    Ok(a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt())
}

/// L∞ distance `max |aᵢ − bᵢ|`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn linf_dist(a: &Tensor, b: &Tensor) -> Result<f32> {
    check(a, b)?;
    Ok(a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f32::max))
}

/// Elastic-net distance `‖a − b‖₂² + β·‖a − b‖₁` — EAD's decision metric
/// under the EN rule (paper eq. 1 without the attack loss term).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ.
pub fn elastic_net_dist(a: &Tensor, b: &Tensor, beta: f32) -> Result<f32> {
    check(a, b)?;
    let _prof = KernelScope::enter(KernelKind::Reduction, || Work::reduce(a.len()));
    let mut l1 = 0.0f32;
    let mut l2sq = 0.0f32;
    for (&x, &y) in a.as_slice().iter().zip(b.as_slice()) {
        let d = x - y;
        l1 += d.abs();
        l2sq += d * d;
    }
    Ok(l2sq + beta * l1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn t(data: &[f32]) -> Tensor {
        Tensor::from_vec(data.to_vec(), Shape::vector(data.len())).unwrap()
    }

    #[test]
    fn norms_of_known_vector() {
        let v = t(&[3.0, -4.0, 0.0]);
        assert_eq!(l0_norm(&v, 1e-9), 2);
        assert_eq!(l1_norm(&v), 7.0);
        assert_eq!(l2_norm(&v), 5.0);
        assert_eq!(linf_norm(&v), 4.0);
    }

    #[test]
    fn distances_of_known_vectors() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[1.0, 0.0, 0.0]);
        assert_eq!(l1_dist(&a, &b).unwrap(), 5.0);
        assert!((l2_dist(&a, &b).unwrap() - 13.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(linf_dist(&a, &b).unwrap(), 3.0);
    }

    #[test]
    fn elastic_net_combines_both() {
        let a = t(&[1.0, 0.0]);
        let b = t(&[0.0, 0.0]);
        // δ = (1, 0): ‖δ‖₂² = 1, ‖δ‖₁ = 1 → 1 + β
        assert_eq!(elastic_net_dist(&a, &b, 0.5).unwrap(), 1.5);
        // β = 0 degenerates to squared L2 (the C&W case).
        assert_eq!(elastic_net_dist(&a, &b, 0.0).unwrap(), 1.0);
    }

    #[test]
    fn zero_distance_for_identical() {
        let a = t(&[0.3, -0.7, 0.9]);
        assert_eq!(l1_dist(&a, &a).unwrap(), 0.0);
        assert_eq!(l2_dist(&a, &a).unwrap(), 0.0);
        assert_eq!(linf_dist(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0, 2.0, 3.0]);
        assert!(l1_dist(&a, &b).is_err());
        assert!(l2_dist(&a, &b).is_err());
        assert!(linf_dist(&a, &b).is_err());
        assert!(elastic_net_dist(&a, &b, 0.1).is_err());
    }

    #[test]
    fn l0_tolerance_filters_noise() {
        let v = t(&[1e-8, 0.5, -1e-8]);
        assert_eq!(l0_norm(&v, 1e-6), 1);
        assert_eq!(l0_norm(&v, 0.0), 3);
    }
}
