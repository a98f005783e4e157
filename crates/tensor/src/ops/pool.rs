//! 2-D pooling (average / max) and nearest-neighbour upsampling with their
//! backward passes.
//!
//! MagNet's MNIST auto-encoders use `AveragePooling 2×2` and `Upsampling 2×2`
//! (paper Table II); the victim classifiers use max pooling. All operate on
//! NCHW tensors.

use crate::{Result, Shape, Tensor, TensorError};
use adv_profile::{KernelKind, KernelScope, Work};
use serde::{Deserialize, Serialize};

/// Geometry of a 2-D pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pool2dSpec {
    /// Window height.
    pub kh: usize,
    /// Window width.
    pub kw: usize,
    /// Stride along both axes.
    pub stride: usize,
}

impl Pool2dSpec {
    /// The common square window with stride equal to the window size
    /// (non-overlapping pooling).
    pub fn square(k: usize) -> Self {
        Pool2dSpec {
            kh: k,
            kw: k,
            stride: k,
        }
    }

    /// Output spatial size for an `h × w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h - self.kh) / self.stride + 1,
            (w - self.kw) / self.stride + 1,
        )
    }

    /// Checks that `shape` is NCHW and that [`Pool2dSpec::output_hw`] is
    /// defined for it: a nonzero stride and a window no larger than the
    /// input. Returns `(n, c, h, w)`.
    fn validate(&self, shape: &Shape) -> Result<(usize, usize, usize, usize)> {
        if shape.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: shape.rank(),
            });
        }
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument("stride must be > 0".into()));
        }
        let d = shape.dims();
        if d[2] < self.kh || d[3] < self.kw {
            return Err(TensorError::InvalidArgument(format!(
                "pool window {}x{} larger than input {}x{}",
                self.kh, self.kw, d[2], d[3]
            )));
        }
        Ok((d[0], d[1], d[2], d[3]))
    }
}

/// Average pooling forward pass.
///
/// # Errors
///
/// Returns rank / geometry validation errors from [`Pool2dSpec`].
pub fn avg_pool2d(input: &Tensor, spec: &Pool2dSpec) -> Result<Tensor> {
    let (n, c, h, w) = spec.validate(input.shape())?;
    let (ho, wo) = spec.output_hw(h, w);
    let x = input.as_slice();
    let win = (spec.kh * spec.kw) as f32;
    let mut y = vec![0.0f32; n * c * ho * wo];
    let _prof = KernelScope::enter(KernelKind::Pool2d, || {
        Work::reduce(n * c * ho * wo * spec.kh * spec.kw)
    });
    for bc in 0..n * c {
        let xp = &x[bc * h * w..(bc + 1) * h * w];
        let yp = &mut y[bc * ho * wo..(bc + 1) * ho * wo];
        for oh in 0..ho {
            for ow in 0..wo {
                let mut acc = 0.0f32;
                for dy in 0..spec.kh {
                    let iy = oh * spec.stride + dy;
                    for dx in 0..spec.kw {
                        acc += xp[iy * w + ow * spec.stride + dx];
                    }
                }
                yp[oh * wo + ow] = acc / win;
            }
        }
    }
    Tensor::from_vec(y, Shape::nchw(n, c, ho, wo))
}

/// Average pooling backward pass: spreads each upstream gradient uniformly
/// over its window.
///
/// # Errors
///
/// Returns the rank / geometry validation errors of [`avg_pool2d`] for
/// `input_shape`, and [`TensorError::ShapeMismatch`] when `dy` does not
/// match its pooled geometry.
pub fn avg_pool2d_backward(input_shape: &Shape, dy: &Tensor, spec: &Pool2dSpec) -> Result<Tensor> {
    let (n, c, h, w) = spec.validate(input_shape)?;
    let (ho, wo) = spec.output_hw(h, w);
    let expected = Shape::nchw(n, c, ho, wo);
    if dy.shape() != &expected {
        return Err(TensorError::ShapeMismatch {
            left: expected.dims().to_vec(),
            right: dy.shape().dims().to_vec(),
        });
    }
    let g = dy.as_slice();
    let win = (spec.kh * spec.kw) as f32;
    let mut dx = vec![0.0f32; n * c * h * w];
    let dx_shape = input_shape.clone();
    let _prof = KernelScope::enter(KernelKind::Pool2d, || {
        Work::map(n * c * ho * wo * spec.kh * spec.kw)
    });
    for bc in 0..n * c {
        let gp = &g[bc * ho * wo..(bc + 1) * ho * wo];
        let dp = &mut dx[bc * h * w..(bc + 1) * h * w];
        for oh in 0..ho {
            for ow in 0..wo {
                let gv = gp[oh * wo + ow] / win;
                for dy_ in 0..spec.kh {
                    let iy = oh * spec.stride + dy_;
                    for dx_ in 0..spec.kw {
                        dp[iy * w + ow * spec.stride + dx_] += gv;
                    }
                }
            }
        }
    }
    Tensor::from_vec(dx, dx_shape)
}

/// Max pooling forward pass. Returns the pooled tensor and the flat index of
/// each selected element (needed by the backward pass).
///
/// # Errors
///
/// Returns rank / geometry validation errors from [`Pool2dSpec`].
pub fn max_pool2d(input: &Tensor, spec: &Pool2dSpec) -> Result<(Tensor, Vec<usize>)> {
    let (n, c, h, w) = spec.validate(input.shape())?;
    let (ho, wo) = spec.output_hw(h, w);
    let x = input.as_slice();
    let mut y = vec![0.0f32; n * c * ho * wo];
    let mut idx = vec![0usize; n * c * ho * wo];
    let _prof = KernelScope::enter(KernelKind::Pool2d, || {
        Work::reduce(n * c * ho * wo * spec.kh * spec.kw)
    });
    for bc in 0..n * c {
        let xp = &x[bc * h * w..(bc + 1) * h * w];
        for oh in 0..ho {
            for ow in 0..wo {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0usize;
                for dy in 0..spec.kh {
                    let iy = oh * spec.stride + dy;
                    for dx in 0..spec.kw {
                        let ix = ow * spec.stride + dx;
                        let v = xp[iy * w + ix];
                        if v > best {
                            best = v;
                            best_i = iy * w + ix;
                        }
                    }
                }
                let o = bc * ho * wo + oh * wo + ow;
                y[o] = best;
                idx[o] = bc * h * w + best_i;
            }
        }
    }
    Ok((Tensor::from_vec(y, Shape::nchw(n, c, ho, wo))?, idx))
}

/// Max pooling backward pass: routes each upstream gradient to the element
/// that won the corresponding window (as recorded by [`max_pool2d`]).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `indices` does not match `dy`.
pub fn max_pool2d_backward(input_shape: &Shape, dy: &Tensor, indices: &[usize]) -> Result<Tensor> {
    if indices.len() != dy.len() {
        return Err(TensorError::LengthMismatch {
            expected: dy.len(),
            actual: indices.len(),
        });
    }
    let mut dx = vec![0.0f32; input_shape.volume()];
    let dx_shape = input_shape.clone();
    let _prof = KernelScope::enter(KernelKind::Pool2d, || Work::map(dy.len()));
    for (&i, &g) in indices.iter().zip(dy.as_slice().iter()) {
        if i >= dx.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: i,
                bound: dx.len(),
            });
        }
        dx[i] += g;
    }
    Tensor::from_vec(dx, dx_shape)
}

/// Nearest-neighbour upsampling by an integer factor.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for `factor == 0` and rank errors
/// for non-NCHW inputs.
pub fn upsample2d_nearest(input: &Tensor, factor: usize) -> Result<Tensor> {
    if factor == 0 {
        return Err(TensorError::InvalidArgument("factor must be > 0".into()));
    }
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.shape().rank(),
        });
    }
    let d = input.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (ho, wo) = (h * factor, w * factor);
    let x = input.as_slice();
    let mut y = vec![0.0f32; n * c * ho * wo];
    let _prof = KernelScope::enter(KernelKind::Pool2d, || Work::copy(n * c * ho * wo));
    for bc in 0..n * c {
        let xp = &x[bc * h * w..(bc + 1) * h * w];
        let yp = &mut y[bc * ho * wo..(bc + 1) * ho * wo];
        for oy in 0..ho {
            let iy = oy / factor;
            for ox in 0..wo {
                yp[oy * wo + ox] = xp[iy * w + ox / factor];
            }
        }
    }
    Tensor::from_vec(y, Shape::nchw(n, c, ho, wo))
}

/// Backward pass of nearest-neighbour upsampling: sums each `factor × factor`
/// block of the upstream gradient.
///
/// # Errors
///
/// Returns validation errors when `dy` is not `factor`-divisible or ranks
/// disagree.
pub fn upsample2d_nearest_backward(dy: &Tensor, factor: usize) -> Result<Tensor> {
    if factor == 0 {
        return Err(TensorError::InvalidArgument("factor must be > 0".into()));
    }
    if dy.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: dy.shape().rank(),
        });
    }
    let d = dy.shape().dims();
    let (n, c, ho, wo) = (d[0], d[1], d[2], d[3]);
    if ho % factor != 0 || wo % factor != 0 {
        return Err(TensorError::InvalidArgument(format!(
            "gradient {ho}x{wo} not divisible by factor {factor}"
        )));
    }
    let (h, w) = (ho / factor, wo / factor);
    let g = dy.as_slice();
    let mut dx = vec![0.0f32; n * c * h * w];
    let _prof = KernelScope::enter(KernelKind::Pool2d, || Work::reduce(n * c * ho * wo));
    for bc in 0..n * c {
        let gp = &g[bc * ho * wo..(bc + 1) * ho * wo];
        let dp = &mut dx[bc * h * w..(bc + 1) * h * w];
        for oy in 0..ho {
            let iy = oy / factor;
            for ox in 0..wo {
                dp[iy * w + ox / factor] += gp[oy * wo + ox];
            }
        }
    }
    Tensor::from_vec(dx, Shape::nchw(n, c, h, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nchw(data: &[f32], n: usize, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), Shape::nchw(n, c, h, w)).unwrap()
    }

    #[test]
    fn avg_pool_2x2() {
        let x = nchw(
            &[
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            1,
            1,
            4,
            4,
        );
        let y = avg_pool2d(&x, &Pool2dSpec::square(2)).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let shape = Shape::nchw(1, 1, 2, 2);
        let dy = nchw(&[4.0], 1, 1, 1, 1);
        let dx = avg_pool2d_backward(&shape, &dy, &Pool2dSpec::square(2)).unwrap();
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn avg_pool_adjoint_property() {
        // <avg_pool(x), y> == <x, avg_pool_backward(y)>
        let spec = Pool2dSpec::square(2);
        let x = Tensor::from_fn(Shape::nchw(2, 3, 4, 4), |i| {
            ((i * 31 % 13) as f32 - 6.0) * 0.1
        });
        let y = Tensor::from_fn(Shape::nchw(2, 3, 2, 2), |i| {
            ((i * 17 % 7) as f32 - 3.0) * 0.2
        });
        let lhs = avg_pool2d(&x, &spec).unwrap().dot(&y).unwrap();
        let rhs = x
            .dot(&avg_pool2d_backward(x.shape(), &y, &spec).unwrap())
            .unwrap();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn max_pool_selects_maximum() {
        let x = nchw(
            &[
                1.0, 5.0, 2.0, 0.0, 3.0, -1.0, 4.0, 2.0, 0.5, 0.5, 6.0, 1.0, 2.0, 2.0, 2.0, 2.0,
            ],
            1,
            1,
            4,
            4,
        );
        let (y, idx) = max_pool2d(&x, &Pool2dSpec::square(2)).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 4.0, 2.0, 6.0]);
        assert_eq!(idx[0], 1); // position of the 5.0
    }

    #[test]
    fn max_pool_backward_routes_to_winner() {
        let x = nchw(&[1.0, 5.0, 3.0, 0.0], 1, 1, 2, 2);
        let (_, idx) = max_pool2d(&x, &Pool2dSpec::square(2)).unwrap();
        let dy = nchw(&[7.0], 1, 1, 1, 1);
        let dx = max_pool2d_backward(x.shape(), &dy, &idx).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn upsample_nearest_2x() {
        let x = nchw(&[1.0, 2.0, 3.0, 4.0], 1, 1, 2, 2);
        let y = upsample2d_nearest(&x, 2).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 4, 4]);
        assert_eq!(
            y.as_slice(),
            &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 3.0, 3.0, 4.0, 4.0]
        );
    }

    #[test]
    fn upsample_roundtrip_shapes() {
        let x = Tensor::from_fn(Shape::nchw(2, 3, 3, 3), |i| i as f32);
        let y = upsample2d_nearest(&x, 2).unwrap();
        let dx = upsample2d_nearest_backward(&Tensor::ones(y.shape().clone()), 2).unwrap();
        assert_eq!(dx.shape(), x.shape());
        // Each input position received 4 gradient contributions of 1.
        assert!(dx.as_slice().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn upsample_adjoint_property() {
        let x = Tensor::from_fn(Shape::nchw(1, 2, 3, 3), |i| {
            ((i * 23 % 11) as f32 - 5.0) * 0.1
        });
        let y = Tensor::from_fn(Shape::nchw(1, 2, 6, 6), |i| {
            ((i * 19 % 9) as f32 - 4.0) * 0.1
        });
        let lhs = upsample2d_nearest(&x, 2).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&upsample2d_nearest_backward(&y, 2).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn pool_validates_geometry() {
        let x = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(avg_pool2d(&x, &Pool2dSpec::square(3)).is_err());
        assert!(avg_pool2d(
            &x,
            &Pool2dSpec {
                kh: 1,
                kw: 1,
                stride: 0
            }
        )
        .is_err());
        let v = Tensor::zeros(Shape::vector(4));
        assert!(avg_pool2d(&v, &Pool2dSpec::square(2)).is_err());
    }

    #[test]
    fn avg_pool_backward_rejects_zero_stride() {
        let spec = Pool2dSpec {
            kh: 1,
            kw: 1,
            stride: 0,
        };
        let dy = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(matches!(
            avg_pool2d_backward(&Shape::nchw(1, 1, 2, 2), &dy, &spec),
            Err(TensorError::InvalidArgument(_))
        ));
    }

    #[test]
    fn avg_pool_backward_rejects_window_larger_than_input() {
        let dy = Tensor::zeros(Shape::nchw(1, 1, 1, 1));
        assert!(matches!(
            avg_pool2d_backward(&Shape::nchw(1, 1, 2, 2), &dy, &Pool2dSpec::square(3)),
            Err(TensorError::InvalidArgument(_))
        ));
    }

    #[test]
    fn upsample_backward_rejects_indivisible() {
        let dy = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        assert!(upsample2d_nearest_backward(&dy, 2).is_err());
    }
}
