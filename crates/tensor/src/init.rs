//! Seeded weight initializers.
//!
//! All initializers draw from a caller-provided RNG so that training is
//! reproducible end-to-end from a single `u64` seed.

use crate::{Shape, Tensor};
use rand::Rng;

/// Uniform values in `[lo, hi)`.
pub fn uniform(shape: Shape, lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
    Tensor::from_fn(shape, |_| rng.gen_range(lo..hi))
}

/// Glorot/Xavier uniform initialization: `U(±√(6 / (fan_in + fan_out)))`.
///
/// Appropriate for sigmoid/tanh layers — the activation MagNet's
/// auto-encoders use throughout.
pub fn glorot_uniform(shape: Shape, fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
    uniform(shape, -limit, limit, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = uniform(Shape::vector(1000), -0.5, 0.5, &mut rng);
        assert!(t.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn glorot_limit_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(1);
        let small_fan = glorot_uniform(Shape::vector(100), 2, 2, &mut rng);
        let large_fan = glorot_uniform(Shape::vector(100), 2000, 2000, &mut rng);
        assert!(small_fan.map(f32::abs).max() > large_fan.map(f32::abs).max());
    }

    #[test]
    fn seeded_init_is_reproducible() {
        let a = glorot_uniform(Shape::vector(64), 8, 8, &mut StdRng::seed_from_u64(3));
        let b = glorot_uniform(Shape::vector(64), 8, 8, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
