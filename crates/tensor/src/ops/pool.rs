//! 2-D pooling (average / max) and nearest-neighbour upsampling with their
//! backward passes.
//!
//! MagNet's MNIST auto-encoders use `AveragePooling 2×2` and `Upsampling 2×2`
//! (paper Table II); the victim classifiers use max pooling. All operate on
//! NCHW tensors.
//!
//! Each forward kernel has one `#[inline(always)]` body that folds every
//! output's window in ascending `(dy, dx)` order. Max pooling starts from
//! `-inf` and takes `if v > acc { v } else { acc }`, a select rather than a
//! branch, so a window's data cannot mispredict it; the same select picks
//! the argmax. Average pooling starts from `0.0`, adds the window and
//! divides by its size. The body is called twice from one source: once with
//! the window `(kh, kw, stride) = (2, 2, 2)` that every model here uses
//! written as literals, so the compiler unrolls it, and once with the spec's
//! run-time values for any other geometry. Each output sees the same
//! operations in the same order either way, and as in the per-output loops
//! these replace (kept as test oracles), so results are bit-identical.
//! Upsampling writes each output row once from its input row and copies it
//! to the next `factor − 1` rows.
//!
//! Inference takes [`max_pool2d`], which records no argmax. Training and
//! the attacks take [`max_pool2d_with_argmax`], whose argmax is a
//! window-local `u8` (`dy · kw + dx`); [`max_pool2d_backward`] maps it back
//! to the input. A window with no element above `-inf` (all `-inf` or NaN)
//! routes its gradient to its own first element.

use crate::{Result, Shape, Tensor, TensorError};
use adv_profile::{KernelKind, KernelScope, Work};

/// Geometry of a 2-D pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2dSpec {
    /// Window height.
    pub kh: usize,
    /// Window width.
    pub kw: usize,
    /// Stride along both axes.
    pub stride: usize,
}

/// The largest window a pool kernel takes: a max pool's argmax is a
/// window-local `u8`.
const MAX_WINDOW: usize = 256;

/// `(kh, kw, stride)`, passed to the kernel bodies as plain arguments so
/// that a call can pass literals.
type Window = (usize, usize, usize);

/// The window every model here pools with: 2×2 at stride 2.
const MAGNET_WINDOW: Window = (2, 2, 2);

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
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a zero stride or a
    /// window larger than the input.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument("stride must be > 0".into()));
        }
        if h < self.kh || w < self.kw {
            return Err(TensorError::InvalidArgument(format!(
                "pool window {}x{} larger than input {}x{}",
                self.kh, self.kw, h, w
            )));
        }
        Ok((
            (h - self.kh) / self.stride + 1,
            (w - self.kw) / self.stride + 1,
        ))
    }

    fn window(&self) -> Window {
        (self.kh, self.kw, self.stride)
    }

    /// Checks that `shape` is NCHW, that the window holds 1 to
    /// [`MAX_WINDOW`] elements and that [`Pool2dSpec::output_hw`] is defined
    /// for the input.
    fn validate(&self, shape: &Shape) -> Result<Planes> {
        if shape.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: shape.rank(),
            });
        }
        let size = self.kh.saturating_mul(self.kw);
        if size == 0 || size > MAX_WINDOW {
            return Err(TensorError::InvalidArgument(format!(
                "pool window {}x{} must hold 1 to {MAX_WINDOW} elements",
                self.kh, self.kw
            )));
        }
        let d = shape.dims();
        let (ho, wo) = self.output_hw(d[2], d[3])?;
        Ok(Planes {
            n: d[0],
            c: d[1],
            h: d[2],
            w: d[3],
            ho,
            wo,
        })
    }
}

/// The sizes of one pooling call: `n · c` planes of `h × w` in, `ho × wo`
/// out.
#[derive(Debug, Clone, Copy)]
struct Planes {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    ho: usize,
    wo: usize,
}

impl Planes {
    fn outputs(&self) -> usize {
        self.n * self.c * self.ho * self.wo
    }

    fn output_shape(&self) -> Shape {
        Shape::nchw(self.n, self.c, self.ho, self.wo)
    }

    /// Checks that `dy` has this call's output shape.
    fn check_dy(&self, dy: &Tensor) -> Result<()> {
        let expected = self.output_shape();
        if dy.shape() != &expected {
            return Err(TensorError::ShapeMismatch {
                left: expected.dims().to_vec(),
                right: dy.shape().dims().to_vec(),
            });
        }
        Ok(())
    }
}

/// The max-pool body: `y` gets each window's maximum and, when `ARGMAX`,
/// `arg` its window-local position. The window `win` is an argument so
/// that the caller can pass literals.
///
/// Each window row is read from a row slice of exactly `span` elements,
/// which lets the compiler drop the bounds checks for a literal window and
/// vectorize across outputs.
#[inline(always)]
fn max_windows<const ARGMAX: bool>(
    x: &[f32],
    y: &mut [f32],
    arg: &mut [u8],
    p: Planes,
    (kh, kw, s): Window,
) {
    let (plane_out, span) = (p.ho * p.wo, (p.wo - 1) * s + kw);
    for (bc, (xp, yp)) in x
        .chunks_exact(p.h * p.w)
        .zip(y.chunks_exact_mut(plane_out))
        .enumerate()
    {
        for (oh, yr) in yp.chunks_exact_mut(p.wo).enumerate() {
            let xr = &xp[oh * s * p.w..];
            let ar: &mut [u8] = if ARGMAX {
                &mut arg[bc * plane_out + oh * p.wo..][..p.wo]
            } else {
                &mut []
            };
            for (ow, out) in yr.iter_mut().enumerate() {
                let (mut acc, mut best) = (f32::NEG_INFINITY, 0u8);
                for dy in 0..kh {
                    let r = &xr[dy * p.w..][..span];
                    for dx in 0..kw {
                        let v = r[ow * s + dx];
                        let gt = v > acc;
                        acc = if gt { v } else { acc };
                        best = if gt { (dy * kw + dx) as u8 } else { best };
                    }
                }
                *out = acc;
                if ARGMAX {
                    ar[ow] = best;
                }
            }
        }
    }
}

/// The average-pool body: `y` gets each window's sum, from `0.0` in
/// ascending `(dy, dx)` order, divided by the window size. Rows are read
/// as in [`max_windows`].
#[inline(always)]
fn avg_windows(x: &[f32], y: &mut [f32], p: Planes, (kh, kw, s): Window) {
    let (size, span) = ((kh * kw) as f32, (p.wo - 1) * s + kw);
    for (xp, yp) in x
        .chunks_exact(p.h * p.w)
        .zip(y.chunks_exact_mut(p.ho * p.wo))
    {
        for (oh, yr) in yp.chunks_exact_mut(p.wo).enumerate() {
            let xr = &xp[oh * s * p.w..];
            for (ow, out) in yr.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for dy in 0..kh {
                    let r = &xr[dy * p.w..][..span];
                    for dx in 0..kw {
                        acc += r[ow * s + dx];
                    }
                }
                *out = acc / size;
            }
        }
    }
}

/// Average pooling forward pass.
///
/// # Errors
///
/// Returns rank / geometry validation errors from [`Pool2dSpec`].
pub fn avg_pool2d(input: &Tensor, spec: &Pool2dSpec) -> Result<Tensor> {
    let p = spec.validate(input.shape())?;
    let x = input.as_slice();
    let mut y = vec![0.0f32; p.outputs()];
    let _prof = KernelScope::enter(KernelKind::Pool2d, || {
        Work::reduce(p.outputs() * spec.kh * spec.kw)
    });
    match spec.window() {
        MAGNET_WINDOW => avg_windows(x, &mut y, p, MAGNET_WINDOW),
        win => avg_windows(x, &mut y, p, win),
    }
    Tensor::from_vec(y, p.output_shape())
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
    let p = spec.validate(input_shape)?;
    p.check_dy(dy)?;
    let (h, w, ho, wo) = (p.h, p.w, p.ho, p.wo);
    let g = dy.as_slice();
    let win = (spec.kh * spec.kw) as f32;
    let mut dx = vec![0.0f32; input_shape.volume()];
    let dx_shape = input_shape.clone();
    let _prof = KernelScope::enter(KernelKind::Pool2d, || {
        Work::map(p.outputs() * spec.kh * spec.kw)
    });
    for bc in 0..p.n * p.c {
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

/// Max pooling forward pass for inference: the pooled tensor, with no
/// argmax recorded.
///
/// # Errors
///
/// Returns rank / geometry validation errors from [`Pool2dSpec`].
pub fn max_pool2d(input: &Tensor, spec: &Pool2dSpec) -> Result<Tensor> {
    Ok(max_pool::<false>(input, spec)?.0)
}

/// Max pooling forward pass that also records, per output, the
/// window-local position `dy · kw + dx` of the element it selected, which
/// [`max_pool2d_backward`] needs. The values equal [`max_pool2d`]'s.
///
/// # Errors
///
/// Returns rank / geometry validation errors from [`Pool2dSpec`].
pub fn max_pool2d_with_argmax(input: &Tensor, spec: &Pool2dSpec) -> Result<(Tensor, Vec<u8>)> {
    max_pool::<true>(input, spec)
}

fn max_pool<const ARGMAX: bool>(input: &Tensor, spec: &Pool2dSpec) -> Result<(Tensor, Vec<u8>)> {
    let p = spec.validate(input.shape())?;
    let x = input.as_slice();
    let mut y = vec![0.0f32; p.outputs()];
    let mut arg = vec![0u8; if ARGMAX { p.outputs() } else { 0 }];
    let _prof = KernelScope::enter(KernelKind::Pool2d, || {
        Work::reduce(p.outputs() * spec.kh * spec.kw)
    });
    match spec.window() {
        MAGNET_WINDOW => max_windows::<ARGMAX>(x, &mut y, &mut arg, p, MAGNET_WINDOW),
        win => max_windows::<ARGMAX>(x, &mut y, &mut arg, p, win),
    }
    Ok((Tensor::from_vec(y, p.output_shape())?, arg))
}

/// Max pooling backward pass: routes each upstream gradient to the element
/// that won the corresponding window, as recorded by
/// [`max_pool2d_with_argmax`].
///
/// # Errors
///
/// Returns the validation errors of [`max_pool2d`] for `input_shape`,
/// [`TensorError::ShapeMismatch`] when `dy` does not match its pooled
/// geometry, [`TensorError::LengthMismatch`] when `argmax` does not match
/// `dy`, and [`TensorError::IndexOutOfBounds`] for a position outside the
/// window.
pub fn max_pool2d_backward(
    input_shape: &Shape,
    dy: &Tensor,
    argmax: &[u8],
    spec: &Pool2dSpec,
) -> Result<Tensor> {
    let p = spec.validate(input_shape)?;
    p.check_dy(dy)?;
    if argmax.len() != dy.len() {
        return Err(TensorError::LengthMismatch {
            expected: dy.len(),
            actual: argmax.len(),
        });
    }
    let (plane_in, plane_out, s) = (p.h * p.w, p.ho * p.wo, spec.stride);
    // Window-local position `dy · kw + dx` → offset `dy · w + dx`.
    let offsets: Vec<usize> = (0..spec.kh * spec.kw)
        .map(|k| k / spec.kw * p.w + k % spec.kw)
        .collect();
    let mut dx = vec![0.0f32; input_shape.volume()];
    let dx_shape = input_shape.clone();
    let _prof = KernelScope::enter(KernelKind::Pool2d, || Work::map(dy.len()));
    for ((ap, gp), dp) in argmax
        .chunks_exact(plane_out)
        .zip(dy.as_slice().chunks_exact(plane_out))
        .zip(dx.chunks_exact_mut(plane_in))
    {
        for (oh, (ar, gr)) in ap.chunks_exact(p.wo).zip(gp.chunks_exact(p.wo)).enumerate() {
            for (ow, (&k, &g)) in ar.iter().zip(gr).enumerate() {
                let off = offsets
                    .get(usize::from(k))
                    .ok_or(TensorError::IndexOutOfBounds {
                        index: usize::from(k),
                        bound: offsets.len(),
                    })?;
                dp[oh * s * p.w + ow * s + off] += g;
            }
        }
    }
    Tensor::from_vec(dx, dx_shape)
}

/// The upsampling body: each output row is its input row with every
/// element repeated `factor` times, written once and copied to the next
/// `factor − 1` rows.
#[inline(always)]
fn upsample_rows(x: &[f32], y: &mut [f32], (h, w): (usize, usize), factor: usize) {
    let wo = w * factor;
    for (xp, yp) in x
        .chunks_exact(h * w)
        .zip(y.chunks_exact_mut(h * factor * wo))
    {
        for (xr, block) in xp.chunks_exact(w).zip(yp.chunks_exact_mut(factor * wo)) {
            let (first, rest) = block.split_at_mut(wo);
            for (&v, run) in xr.iter().zip(first.chunks_exact_mut(factor)) {
                run.fill(v);
            }
            for row in rest.chunks_exact_mut(wo) {
                row.copy_from_slice(first);
            }
        }
    }
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
    let mut y = vec![0.0f32; n * c * ho * wo];
    let _prof = KernelScope::enter(KernelKind::Pool2d, || Work::copy(n * c * ho * wo));
    if h * w > 0 {
        match factor {
            2 => upsample_rows(input.as_slice(), &mut y, (h, w), 2),
            f => upsample_rows(input.as_slice(), &mut y, (h, w), f),
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
        let (y, idx) = max_pool2d_with_argmax(&x, &Pool2dSpec::square(2)).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 4.0, 2.0, 6.0]);
        assert_eq!(idx, [1, 2, 2, 0]); // window-local positions of the maxima
    }

    #[test]
    fn max_pool_backward_routes_to_winner() {
        let x = nchw(&[1.0, 5.0, 3.0, 0.0], 1, 1, 2, 2);
        let spec = Pool2dSpec::square(2);
        let (_, idx) = max_pool2d_with_argmax(&x, &spec).unwrap();
        let dy = nchw(&[7.0], 1, 1, 1, 1);
        let dx = max_pool2d_backward(x.shape(), &dy, &idx, &spec).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_gradient_of_a_window_with_nothing_above_neg_inf_goes_to_its_first_element() {
        // The right-hand window holds only NaN and -inf, so nothing beats
        // the -inf start. Its gradient belongs to its own first element,
        // (0, 2), not to the plane's (0, 0).
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let x = nchw(&[1.0, 2.0, nan, ninf, 3.0, 4.0, ninf, nan], 1, 1, 2, 4);
        let spec = Pool2dSpec::square(2);
        let (y, idx) = max_pool2d_with_argmax(&x, &spec).unwrap();
        assert_eq!(y.as_slice(), &[4.0, ninf]);
        let dy = nchw(&[1.0, 10.0], 1, 1, 1, 2);
        let dx = max_pool2d_backward(x.shape(), &dy, &idx, &spec).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 10.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_backward_rejects_bad_argmax_and_dy() {
        let spec = Pool2dSpec::square(2);
        let shape = Shape::nchw(1, 1, 2, 2);
        let dy = nchw(&[1.0], 1, 1, 1, 1);
        assert!(matches!(
            max_pool2d_backward(&shape, &dy, &[4], &spec),
            Err(TensorError::IndexOutOfBounds { index: 4, bound: 4 })
        ));
        assert!(matches!(
            max_pool2d_backward(&shape, &dy, &[0, 1], &spec),
            Err(TensorError::LengthMismatch { .. })
        ));
        let wrong = nchw(&[1.0, 2.0], 1, 1, 1, 2);
        assert!(matches!(
            max_pool2d_backward(&shape, &wrong, &[0, 1], &spec),
            Err(TensorError::ShapeMismatch { .. })
        ));
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
        let empty = Tensor::zeros(Shape::nchw(2, 2, 0, 3));
        assert_eq!(
            upsample2d_nearest(&empty, 2).unwrap().shape().dims(),
            &[2, 2, 0, 6]
        );
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
    fn output_hw_rejects_zero_stride_and_oversized_window() {
        let zero_stride = Pool2dSpec {
            kh: 2,
            kw: 2,
            stride: 0,
        };
        assert!(matches!(
            zero_stride.output_hw(4, 4),
            Err(TensorError::InvalidArgument(_))
        ));
        let wide = Pool2dSpec {
            kh: 1,
            kw: 5,
            stride: 1,
        };
        assert!(matches!(
            wide.output_hw(8, 4),
            Err(TensorError::InvalidArgument(_))
        ));
        assert_eq!(wide.output_hw(8, 5).unwrap(), (8, 1));
    }

    #[test]
    fn pool_rejects_empty_windows_and_windows_past_a_u8_argmax() {
        let x = Tensor::zeros(Shape::nchw(1, 1, 17, 17));
        for (kh, kw) in [(0, 1), (1, 0), (17, 16)] {
            let spec = Pool2dSpec { kh, kw, stride: 1 };
            assert!(max_pool2d(&x, &spec).is_err(), "{spec:?}");
            assert!(avg_pool2d(&x, &spec).is_err(), "{spec:?}");
        }
        // 16 × 16 = 256 elements: the last one's position is 255.
        let x = Tensor::from_fn(Shape::nchw(1, 1, 16, 16), |i| i as f32);
        let (y, idx) = max_pool2d_with_argmax(&x, &Pool2dSpec::square(16)).unwrap();
        assert_eq!((y.as_slice(), idx.as_slice()), (&[255.0][..], &[255][..]));
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

    /// The per-output max-pool loop these kernels replaced, kept as the
    /// oracle: a branch per element, recording the window-local position.
    fn max_pool2d_reference(x: &Tensor, spec: &Pool2dSpec) -> (Vec<f32>, Vec<u8>) {
        let d = x.shape().dims();
        let (nc, h, w) = (d[0] * d[1], d[2], d[3]);
        let (ho, wo) = spec.output_hw(h, w).unwrap();
        let (mut y, mut idx) = (Vec::new(), Vec::new());
        for xp in x.as_slice().chunks(h * w).take(nc) {
            for oh in 0..ho {
                for ow in 0..wo {
                    let (mut best, mut best_k) = (f32::NEG_INFINITY, 0);
                    for dy in 0..spec.kh {
                        for dx in 0..spec.kw {
                            let v = xp[(oh * spec.stride + dy) * w + ow * spec.stride + dx];
                            if v > best {
                                best = v;
                                best_k = dy * spec.kw + dx;
                            }
                        }
                    }
                    y.push(best);
                    idx.push(u8::try_from(best_k).unwrap());
                }
            }
        }
        (y, idx)
    }

    /// The per-output average-pool loop these kernels replaced.
    fn avg_pool2d_reference(x: &Tensor, spec: &Pool2dSpec) -> Vec<f32> {
        let d = x.shape().dims();
        let (nc, h, w) = (d[0] * d[1], d[2], d[3]);
        let (ho, wo) = spec.output_hw(h, w).unwrap();
        let win = (spec.kh * spec.kw) as f32;
        let mut y = Vec::new();
        for xp in x.as_slice().chunks(h * w).take(nc) {
            for oh in 0..ho {
                for ow in 0..wo {
                    let mut acc = 0.0f32;
                    for dy in 0..spec.kh {
                        for dx in 0..spec.kw {
                            acc += xp[(oh * spec.stride + dy) * w + ow * spec.stride + dx];
                        }
                    }
                    y.push(acc / win);
                }
            }
        }
        y
    }

    /// The per-element upsampling loop this kernel replaced.
    fn upsample_reference(x: &Tensor, factor: usize) -> Vec<f32> {
        let d = x.shape().dims();
        let (nc, h, w) = (d[0] * d[1], d[2], d[3]);
        let (ho, wo) = (h * factor, w * factor);
        let mut y = Vec::new();
        for xp in x.as_slice().chunks(h * w).take(nc) {
            for oy in 0..ho {
                for ox in 0..wo {
                    y.push(xp[oy / factor * w + ox / factor]);
                }
            }
        }
        y
    }

    /// The previous max-pool backward: each gradient added at the flat
    /// input position of its winner, in output order.
    fn max_pool2d_backward_reference(x: &Tensor, dy: &Tensor, spec: &Pool2dSpec) -> Vec<f32> {
        let d = x.shape().dims();
        let (h, w) = (d[2], d[3]);
        let (ho, wo) = spec.output_hw(h, w).unwrap();
        let (_, idx) = max_pool2d_reference(x, spec);
        let mut dx = vec![0.0f32; x.len()];
        for (o, (&k, &g)) in idx.iter().zip(dy.as_slice()).enumerate() {
            let (k, bc, oh, ow) = (usize::from(k), o / (ho * wo), o / wo % ho, o % wo);
            let (iy, ix) = (
                oh * spec.stride + k / spec.kw,
                ow * spec.stride + k % spec.kw,
            );
            dx[bc * h * w + iy * w + ix] += g;
        }
        dx
    }

    /// An input element: one in three is a tie-prone small value, ±0,
    /// ±inf or NaN; the rest are hashed from `(seed, i)`.
    fn element(seed: u64, i: usize) -> f32 {
        const SPECIAL: [f32; 9] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            2.0,
        ];
        let mut z = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 29;
        if z.is_multiple_of(3) {
            SPECIAL[(z >> 8) as usize % SPECIAL.len()]
        } else {
            (z >> 40) as f32 / (1u64 << 22) as f32 - 2.0
        }
    }

    fn input(seed: u64, n: usize, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn(Shape::nchw(n, c, h, w), |i| element(seed, i))
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Every forward kernel, as `(values, argmax)` on `x`: the public entry
    /// points, which take the literal path for `(2, 2, 2)`, and the bodies
    /// called with the window as run-time values.
    fn all_max_pools(x: &Tensor, spec: &Pool2dSpec) -> Vec<(&'static str, Vec<f32>, Vec<u8>)> {
        let p = spec.validate(x.shape()).unwrap();
        let (mut y, mut arg) = (vec![0.0; p.outputs()], vec![0; p.outputs()]);
        let win = std::hint::black_box(spec.window());
        max_windows::<true>(x.as_slice(), &mut y, &mut arg, p, win);
        let mut y_free = vec![0.0; p.outputs()];
        max_windows::<false>(x.as_slice(), &mut y_free, &mut [], p, win);
        let (t, a) = max_pool2d_with_argmax(x, spec).unwrap();
        vec![
            ("with_argmax", t.as_slice().to_vec(), a.clone()),
            (
                "index-free",
                max_pool2d(x, spec).unwrap().as_slice().to_vec(),
                a,
            ),
            ("run-time window", y, arg.clone()),
            ("run-time window, index-free", y_free, arg),
        ]
    }

    fn all_avg_pools(x: &Tensor, spec: &Pool2dSpec) -> Vec<(&'static str, Vec<f32>)> {
        let p = spec.validate(x.shape()).unwrap();
        let mut y = vec![0.0; p.outputs()];
        avg_windows(x.as_slice(), &mut y, p, std::hint::black_box(spec.window()));
        vec![
            (
                "avg_pool2d",
                avg_pool2d(x, spec).unwrap().as_slice().to_vec(),
            ),
            ("run-time window", y),
        ]
    }

    fn all_upsamples(x: &Tensor, factor: usize) -> Vec<(&'static str, Vec<f32>)> {
        let d = x.shape().dims();
        let mut y = vec![0.0; x.len() * factor * factor];
        upsample_rows(
            x.as_slice(),
            &mut y,
            (d[2], d[3]),
            std::hint::black_box(factor),
        );
        vec![
            (
                "upsample2d_nearest",
                upsample2d_nearest(x, factor).unwrap().as_slice().to_vec(),
            ),
            ("run-time factor", y),
        ]
    }

    fn assert_pools_match_oracles(x: &Tensor, spec: &Pool2dSpec) {
        let (y_ref, arg_ref) = max_pool2d_reference(x, spec);
        for (name, y, arg) in all_max_pools(x, spec) {
            assert_eq!(
                bits(&y),
                bits(&y_ref),
                "max {name} {spec:?} {:?}",
                x.shape()
            );
            assert_eq!(arg, arg_ref, "argmax {name} {spec:?} {:?}", x.shape());
        }
        let avg_ref = bits(&avg_pool2d_reference(x, spec));
        for (name, y) in all_avg_pools(x, spec) {
            assert_eq!(bits(&y), avg_ref, "avg {name} {spec:?} {:?}", x.shape());
        }
        let p = spec.validate(x.shape()).unwrap();
        let dy = Tensor::from_fn(p.output_shape(), |i| element(7, i));
        let (_, arg) = max_pool2d_with_argmax(x, spec).unwrap();
        let dx = max_pool2d_backward(x.shape(), &dy, &arg, spec).unwrap();
        assert_eq!(
            bits(dx.as_slice()),
            bits(&max_pool2d_backward_reference(x, &dy, spec)),
            "max backward {spec:?} {:?}",
            x.shape()
        );
    }

    #[test]
    fn magnet_window_matches_oracles_on_odd_and_even_sizes() {
        let spec = Pool2dSpec::square(2);
        for (seed, (h, w)) in [(2, 2), (3, 3), (4, 5), (7, 6), (28, 28), (14, 13)]
            .into_iter()
            .enumerate()
        {
            assert_pools_match_oracles(&input(seed as u64, 2, 3, h, w), &spec);
        }
    }

    /// Each kernel run on the whole batch equals, row for row, the kernel
    /// run on that row alone.
    fn assert_batch_invariant(x: &Tensor, kernel: impl Fn(&Tensor) -> Vec<Tensor>) {
        let batch = kernel(x);
        for r in 0..x.shape().dim(0) {
            let row = Tensor::stack(&[x.index_axis0(r).unwrap()]).unwrap();
            for (i, (whole, alone)) in batch.iter().zip(kernel(&row)).enumerate() {
                assert_eq!(
                    bits(whole.index_axis0(r).unwrap().as_slice()),
                    bits(alone.as_slice()),
                    "output {i} of row {r}"
                );
            }
        }
    }

    #[test]
    fn every_pool_and_upsample_kernel_is_batch_invariant() {
        for (spec, (h, w)) in [
            (Pool2dSpec::square(2), (6, 7)),
            (
                Pool2dSpec {
                    kh: 3,
                    kw: 2,
                    stride: 1,
                },
                (5, 6),
            ),
        ] {
            let x = input(11, 3, 2, h, w);
            assert_batch_invariant(&x, |x| {
                let (y, arg) = max_pool2d_with_argmax(x, &spec).unwrap();
                // The same upstream gradient for each row.
                let per_row = y.len() / y.shape().dim(0);
                let dy = Tensor::from_fn(y.shape().clone(), |i| element(5, i % per_row));
                let arg_t = Tensor::from_fn(y.shape().clone(), |i| f32::from(arg[i]));
                vec![
                    max_pool2d(x, &spec).unwrap(),
                    max_pool2d_backward(x.shape(), &dy, &arg, &spec).unwrap(),
                    arg_t,
                    avg_pool2d(x, &spec).unwrap(),
                    avg_pool2d_backward(x.shape(), &dy, &spec).unwrap(),
                    y,
                ]
            });
        }
        assert_batch_invariant(&input(12, 3, 2, 4, 5), |x| {
            let y = upsample2d_nearest(x, 2).unwrap();
            let back = upsample2d_nearest_backward(&y, 2).unwrap();
            vec![y, back]
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn pools_match_oracles_bitwise(
            n in 0usize..3,
            c in 1usize..3,
            k in (1usize..5, 1usize..5),
            stride in 1usize..5,
            extra in (0usize..9, 0usize..9),
            seed in 0u64..1_000_000,
        ) {
            let spec = Pool2dSpec { kh: k.0, kw: k.1, stride };
            let x = input(seed, n, c, k.0 + extra.0, k.1 + extra.1);
            assert_pools_match_oracles(&x, &spec);
        }

        #[test]
        fn upsample_matches_oracle_bitwise(
            n in 0usize..3,
            c in 1usize..3,
            hw in (1usize..7, 1usize..7),
            factor in 1usize..5,
            seed in 0u64..1_000_000,
        ) {
            let x = input(seed, n, c, hw.0, hw.1);
            let expected = bits(&upsample_reference(&x, factor));
            for (name, y) in all_upsamples(&x, factor) {
                proptest::prop_assert_eq!(bits(&y), expected.clone(), "{}", name);
            }
        }
    }
}
