//! 2-D convolution: a direct forward pass, and an `im2col`-based backward
//! pass with the exact input, weight and bias gradients.
//!
//! Tensors use NCHW layout. Weights are `[out_channels, in_channels, kh, kw]`.
//! The forward pass accumulates each output plane straight from the input
//! rows and builds no intermediate matrix. The backward pass uses `im2col`,
//! which arranges every receptive field as a row, so the weight and input
//! gradients become matrix products.

use crate::ops::matmul::matmul_at_b;
use crate::{Result, Shape, Tensor, TensorError};
use adv_profile::{KernelKind, KernelScope, Work};
use serde::{Deserialize, Serialize};

/// Geometry of a 2-D convolution.
///
/// # Example
///
/// ```
/// use adv_tensor::ops::Conv2dSpec;
///
/// // A 3×3 "same" convolution on 28×28 inputs.
/// let spec = Conv2dSpec::same(1, 8, 3);
/// assert_eq!(spec.output_hw(28, 28), (28, 28));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dSpec {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride along both axes.
    pub stride: usize,
    /// Zero padding along both axes.
    pub padding: usize,
}

impl Conv2dSpec {
    /// A stride-1 convolution with a square `k × k` kernel and the padding
    /// that preserves spatial size for odd `k` ("same" padding).
    pub fn same(in_channels: usize, out_channels: usize, k: usize) -> Self {
        Conv2dSpec {
            in_channels,
            out_channels,
            kh: k,
            kw: k,
            stride: 1,
            padding: k / 2,
        }
    }

    /// A convolution with no padding ("valid").
    pub fn valid(in_channels: usize, out_channels: usize, k: usize, stride: usize) -> Self {
        Conv2dSpec {
            in_channels,
            out_channels,
            kh: k,
            kw: k,
            stride,
            padding: 0,
        }
    }

    /// Output spatial size for an `h × w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ho = (h + 2 * self.padding - self.kh) / self.stride + 1;
        let wo = (w + 2 * self.padding - self.kw) / self.stride + 1;
        (ho, wo)
    }

    /// Number of elements in one receptive-field row (`c · kh · kw`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kh * self.kw
    }

    fn validate_input(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        if input.shape().rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: input.shape().rank(),
            });
        }
        let dims = input.shape().dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        if c != self.in_channels {
            return Err(TensorError::InvalidArgument(format!(
                "input has {c} channels, spec expects {}",
                self.in_channels
            )));
        }
        self.validate_geometry(h, w)?;
        Ok((n, h, w))
    }

    /// Checks that [`Conv2dSpec::output_hw`] is defined for an `h × w` input:
    /// a nonzero stride and a kernel no larger than the padded input.
    fn validate_geometry(&self, h: usize, w: usize) -> Result<()> {
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument("stride must be > 0".into()));
        }
        if h + 2 * self.padding < self.kh || w + 2 * self.padding < self.kw {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kh,
                self.kw,
                h + 2 * self.padding,
                w + 2 * self.padding
            )));
        }
        Ok(())
    }
}

/// Unfolds an NCHW batch into receptive-field rows.
///
/// The output is `[n·ho·wo, c·kh·kw]`, rows ordered by `(n, oh, ow)` and
/// columns by `(c, kh, kw)`; out-of-bounds (padding) taps contribute zeros.
///
/// # Errors
///
/// Propagates the validation errors of [`Conv2dSpec`] (rank, channel count,
/// zero stride, kernel larger than padded input).
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let (n, h, w) = spec.validate_input(input)?;
    let (ho, wo) = spec.output_hw(h, w);
    let c = spec.in_channels;
    let patch = spec.patch_len();
    let _prof = KernelScope::enter(KernelKind::Im2col, || Work::copy(n * ho * wo * patch));
    let x = input.as_slice();
    let mut cols = vec![0.0f32; n * ho * wo * patch];
    let pad = spec.padding as isize;
    let stride = spec.stride;

    for b in 0..n {
        let xb = &x[b * c * h * w..(b + 1) * c * h * w];
        for oh in 0..ho {
            for ow in 0..wo {
                let row = ((b * ho + oh) * wo + ow) * patch;
                let ih0 = (oh * stride) as isize - pad;
                let iw0 = (ow * stride) as isize - pad;
                let mut col = row;
                for ch in 0..c {
                    let xc = &xb[ch * h * w..(ch + 1) * h * w];
                    for dy in 0..spec.kh {
                        let iy = ih0 + dy as isize;
                        if iy >= 0 && (iy as usize) < h {
                            let xrow = &xc[iy as usize * w..(iy as usize + 1) * w];
                            for dx in 0..spec.kw {
                                let ix = iw0 + dx as isize;
                                if ix >= 0 && (ix as usize) < w {
                                    cols[col] = xrow[ix as usize];
                                }
                                col += 1;
                            }
                        } else {
                            col += spec.kw;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(cols, Shape::matrix(n * ho * wo, patch))
}

/// Folds receptive-field rows back into an NCHW batch, *summing* overlapping
/// contributions — the adjoint of [`im2col`], used for input gradients.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for a zero stride or a kernel
/// larger than the padded `h × w` input, and [`TensorError::ShapeMismatch`]
/// when `cols` does not have the `[n·ho·wo, c·kh·kw]` shape implied by
/// `spec` and the output geometry.
pub fn col2im(cols: &Tensor, n: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Result<Tensor> {
    spec.validate_geometry(h, w)?;
    let (ho, wo) = spec.output_hw(h, w);
    let c = spec.in_channels;
    let patch = spec.patch_len();
    let expected = Shape::matrix(n * ho * wo, patch);
    if cols.shape() != &expected {
        return Err(TensorError::ShapeMismatch {
            left: expected.dims().to_vec(),
            right: cols.shape().dims().to_vec(),
        });
    }
    let _prof = KernelScope::enter(KernelKind::Col2im, || {
        Work::custom(
            (n * c * h * w) as u64,
            (n * ho * wo * patch) as u64,
            (8 * n * ho * wo * patch) as u64,
        )
    });
    let cv = cols.as_slice();
    let mut out = vec![0.0f32; n * c * h * w];
    let pad = spec.padding as isize;
    let stride = spec.stride;

    for b in 0..n {
        let ob = &mut out[b * c * h * w..(b + 1) * c * h * w];
        for oh in 0..ho {
            for ow in 0..wo {
                let row = ((b * ho + oh) * wo + ow) * patch;
                let ih0 = (oh * stride) as isize - pad;
                let iw0 = (ow * stride) as isize - pad;
                let mut col = row;
                for ch in 0..c {
                    let base = ch * h * w;
                    for dy in 0..spec.kh {
                        let iy = ih0 + dy as isize;
                        if iy >= 0 && (iy as usize) < h {
                            for dx in 0..spec.kw {
                                let ix = iw0 + dx as isize;
                                if ix >= 0 && (ix as usize) < w {
                                    ob[base + iy as usize * w + ix as usize] += cv[col];
                                }
                                col += 1;
                            }
                        } else {
                            col += spec.kw;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::nchw(n, c, h, w))
}

fn check_weight(weight: &Tensor, spec: &Conv2dSpec) -> Result<()> {
    let expected = Shape::new(vec![spec.out_channels, spec.in_channels, spec.kh, spec.kw]);
    if weight.shape() != &expected {
        return Err(TensorError::ShapeMismatch {
            left: expected.dims().to_vec(),
            right: weight.shape().dims().to_vec(),
        });
    }
    Ok(())
}

/// Forward 2-D convolution: `y = x ⊛ weight + bias`.
///
/// `input` is `[n, c, h, w]`, `weight` is `[oc, c, kh, kw]`, `bias` is `[oc]`,
/// and the result is `[n, oc, ho, wo]`.
///
/// Computed directly, with no patch matrix. Each image is copied into a
/// zero-padded buffer; each output plane starts at zero, gains one product
/// per tap in ascending `(c, kh, kw)` order, and gets the bias last. That
/// is the same sequence of floating-point operations as the `im2col` dot
/// product formulation, so the result is bit-identical to it.
///
/// # Errors
///
/// Returns shape/validation errors when the operands disagree with `spec`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    check_weight(weight, spec)?;
    if bias.shape() != &Shape::vector(spec.out_channels) {
        return Err(TensorError::ShapeMismatch {
            left: vec![spec.out_channels],
            right: bias.shape().dims().to_vec(),
        });
    }
    let (n, h, w) = spec.validate_input(input)?;
    let (ho, wo) = spec.output_hw(h, w);
    let (c, oc, pad) = (spec.in_channels, spec.out_channels, spec.padding);
    let (khw, hp, wp) = (spec.kh * spec.kw, h + 2 * pad, w + 2 * pad);
    // An output plane accumulates `wp` wide: output `(oh, ow)` sits at
    // `i = oh·wp + ow` and its tap at padded-input offset `off` reads
    // `xpad[off + stride·i]`, so each tap is one pass over an evenly strided
    // run. The `wp − wo` slots past each row's end are scratch.
    let span = (ho - 1) * wp + wo;
    let taps: Vec<usize> = (0..khw).map(|t| t / spec.kw * wp + t % spec.kw).collect();
    let mut xpad = vec![0.0f32; c * hp * wp];
    let mut acc = vec![0.0f32; span];
    let mut y = vec![0.0f32; n * oc * ho * wo];
    let _prof = KernelScope::enter(KernelKind::Conv2d, || {
        Work::matmul(n * ho * wo, spec.patch_len(), oc)
    });
    let (x, wv, bv) = (input.as_slice(), weight.as_slice(), bias.as_slice());
    for b in 0..n {
        for ch in 0..c {
            let src = &x[(b * c + ch) * h * w..][..h * w];
            let dst = &mut xpad[ch * hp * wp + pad * wp + pad..];
            for iy in 0..h {
                dst[iy * wp..iy * wp + w].copy_from_slice(&src[iy * w..(iy + 1) * w]);
            }
        }
        for o in 0..oc {
            acc.fill(0.0);
            for ch in 0..c {
                let xp = &xpad[ch * hp * wp..(ch + 1) * hp * wp];
                let wc = &wv[(o * c + ch) * khw..][..khw];
                for (ws, offs) in wc.chunks(3).zip(taps.chunks(3)) {
                    add_taps(&mut acc, xp, offs, ws, spec.stride);
                }
            }
            let plane = &mut y[(b * oc + o) * ho * wo..][..ho * wo];
            for oh in 0..ho {
                let out = &mut plane[oh * wo..(oh + 1) * wo];
                for (yv, &a) in out.iter_mut().zip(&acc[oh * wp..]) {
                    *yv = a + bv[o];
                }
            }
        }
    }
    Tensor::from_vec(y, Shape::nchw(n, oc, ho, wo))
}

/// Adds a run of kernel taps to a wide accumulator, in tap order:
/// `acc[i] += x[off + stride·i] · wt` for each `(off, wt)` of `offs`/`ws`.
/// A stride-1 run of three taps goes in one pass, keeping `acc[i]` in a
/// register between its three additions.
fn add_taps(acc: &mut [f32], x: &[f32], offs: &[usize], ws: &[f32], stride: usize) {
    let len = acc.len();
    if let (1, &[w0, w1, w2]) = (stride, ws) {
        let run = |k: usize| &x[offs[k]..offs[k] + len];
        for (((a, &x0), &x1), &x2) in acc.iter_mut().zip(run(0)).zip(run(1)).zip(run(2)) {
            *a = *a + x0 * w0 + x1 * w1 + x2 * w2;
        }
        return;
    }
    for (&off, &wt) in offs.iter().zip(ws) {
        for (a, &xv) in acc.iter_mut().zip(x[off..].iter().step_by(stride)) {
            *a += xv * wt;
        }
    }
}

/// Backward 2-D convolution.
///
/// Given the upstream gradient `dy = ∂L/∂y` (`[n, oc, ho, wo]`), recomputes
/// `im2col(input)` and returns `(dx, dweight, dbias)` with the shapes of
/// `input`, `weight` and the bias vector respectively.
///
/// # Errors
///
/// Returns shape/validation errors when the operands disagree with `spec`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    check_weight(weight, spec)?;
    let (n, h, w) = spec.validate_input(input)?;
    let (ho, wo) = spec.output_hw(h, w);
    let expected_dy = Shape::nchw(n, spec.out_channels, ho, wo);
    if dy.shape() != &expected_dy {
        return Err(TensorError::ShapeMismatch {
            left: expected_dy.dims().to_vec(),
            right: dy.shape().dims().to_vec(),
        });
    }

    let _prof = KernelScope::enter(KernelKind::Conv2dBackward, || {
        Work::map(n * spec.out_channels * ho * wo)
    });
    // Repack dy from NCHW to rows [n·ho·wo, oc] (matching the im2col row order).
    let oc = spec.out_channels;
    let hw = ho * wo;
    let dyv = dy.as_slice();
    let mut dyrows = vec![0.0f32; n * hw * oc];
    for b in 0..n {
        for ch in 0..oc {
            for p in 0..hw {
                dyrows[(b * hw + p) * oc + ch] = dyv[(b * oc + ch) * hw + p];
            }
        }
    }
    let dyrows = Tensor::from_vec(dyrows, Shape::matrix(n * hw, oc))?;

    let cols = im2col(input, spec)?;
    // dW = dyrowsᵀ · cols → [oc, patch]
    let dw = matmul_at_b(&dyrows, &cols)?;
    let dw = dw.into_reshaped(Shape::new(vec![oc, spec.in_channels, spec.kh, spec.kw]))?;

    // db = column sums of dyrows.
    let mut db = vec![0.0f32; oc];
    for row in dyrows.as_slice().chunks_exact(oc) {
        for (d, &v) in db.iter_mut().zip(row.iter()) {
            *d += v;
        }
    }
    let db = Tensor::from_vec(db, Shape::vector(oc))?;

    // dX = col2im(dyrows · W)
    let wmat = weight.reshape(Shape::matrix(oc, spec.patch_len()))?;
    let dcols = crate::ops::matmul::matmul(&dyrows, &wmat)?;
    let dx = col2im(&dcols, n, h, w, spec)?;

    Ok((dx, dw, db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::matmul_a_bt;

    fn nchw(data: &[f32], n: usize, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), Shape::nchw(n, c, h, w)).unwrap()
    }

    /// The previous forward pass, kept as the oracle: `im2col`, one
    /// `A·Bᵀ` dot product per output, NCHW repack, then the bias.
    fn conv2d_im2col_reference(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let dims = input.shape().dims();
        let (n, (ho, wo)) = (dims[0], spec.output_hw(dims[2], dims[3]));
        let cols = im2col(input, spec).unwrap();
        let wmat = weight
            .reshape(Shape::matrix(spec.out_channels, spec.patch_len()))
            .unwrap();
        let rows = matmul_a_bt(&cols, &wmat).unwrap();
        let (oc, hw) = (spec.out_channels, ho * wo);
        let mut y = vec![0.0f32; n * oc * hw];
        for (r, row) in rows.as_slice().chunks_exact(oc).enumerate() {
            let (b, p) = (r / hw, r % hw);
            for (ch, &v) in row.iter().enumerate() {
                y[(b * oc + ch) * hw + p] = v + bias.as_slice()[ch];
            }
        }
        Tensor::from_vec(y, Shape::nchw(n, oc, ho, wo)).unwrap()
    }

    #[test]
    fn direct_forward_is_bit_identical_to_im2col_reference() {
        // [batch, in, out, h, w, kh, kw, stride, padding]
        let table = [
            [3, 1, 3, 28, 28, 3, 3, 1, 1],
            [2, 3, 3, 28, 28, 3, 3, 1, 1],
            [2, 8, 16, 14, 14, 3, 3, 1, 1],
            [1, 2, 4, 9, 9, 3, 3, 2, 1],
            [2, 3, 2, 11, 10, 3, 3, 3, 0],
            [1, 2, 3, 7, 7, 5, 5, 1, 2],
            [3, 4, 5, 6, 6, 1, 1, 1, 0],
            [1, 2, 2, 5, 8, 2, 2, 2, 0],
            [2, 3, 4, 8, 13, 4, 4, 1, 2],
            [1, 1, 1, 3, 3, 5, 5, 3, 2],
            [2, 2, 3, 12, 7, 3, 5, 2, 1],
            [1, 3, 2, 13, 5, 5, 3, 3, 2],
            [0, 2, 3, 5, 5, 3, 3, 1, 1],
            [2, 0, 3, 4, 4, 3, 3, 1, 1],
        ];
        for [n, c, oc, h, w, kh, kw, stride, padding] in table {
            let spec = Conv2dSpec {
                in_channels: c,
                out_channels: oc,
                kh,
                kw,
                stride,
                padding,
            };
            let x = Tensor::from_fn(Shape::nchw(n, c, h, w), |i| {
                ((i * 7919 % 211) as f32 - 105.0) * 0.013
            });
            let wt = Tensor::from_fn(Shape::new(vec![oc, c, kh, kw]), |i| {
                ((i * 104729 % 97) as f32 - 48.0) * 0.021
            });
            let b = Tensor::from_fn(Shape::vector(oc), |i| (i as f32 - 1.5) * 0.37);
            let fast = conv2d(&x, &wt, &b, &spec).unwrap();
            let oracle = conv2d_im2col_reference(&x, &wt, &b, &spec);
            assert_eq!(fast.shape(), oracle.shape(), "{spec:?}");
            for (i, (f, r)) in fast.as_slice().iter().zip(oracle.as_slice()).enumerate() {
                assert_eq!(
                    f.to_bits(),
                    r.to_bits(),
                    "{spec:?} n={n} h={h} w={w} at {i}: {f} vs {r}"
                );
            }
        }
    }

    #[test]
    fn col2im_rejects_zero_stride() {
        let spec = Conv2dSpec::valid(1, 1, 3, 0);
        let cols = Tensor::zeros(Shape::matrix(1, 9));
        assert!(matches!(
            col2im(&cols, 1, 4, 4, &spec),
            Err(TensorError::InvalidArgument(_))
        ));
    }

    #[test]
    fn col2im_rejects_kernel_larger_than_padded_input() {
        let spec = Conv2dSpec::valid(1, 1, 5, 1);
        let cols = Tensor::zeros(Shape::matrix(1, 25));
        assert!(matches!(
            col2im(&cols, 1, 4, 3, &spec),
            Err(TensorError::InvalidArgument(_))
        ));
    }

    #[test]
    fn output_geometry() {
        let spec = Conv2dSpec::same(1, 4, 3);
        assert_eq!(spec.output_hw(28, 28), (28, 28));
        let spec = Conv2dSpec::valid(1, 4, 3, 1);
        assert_eq!(spec.output_hw(28, 28), (26, 26));
        let spec = Conv2dSpec::valid(1, 4, 2, 2);
        assert_eq!(spec.output_hw(8, 8), (4, 4));
    }

    #[test]
    fn im2col_identity_kernel_geometry() {
        // 1×1 kernel, stride 1: im2col rows are just pixels.
        let x = nchw(&[1.0, 2.0, 3.0, 4.0], 1, 1, 2, 2);
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kh: 1,
            kw: 1,
            stride: 1,
            padding: 0,
        };
        let cols = im2col(&x, &spec).unwrap();
        assert_eq!(cols.shape().dims(), &[4, 1]);
        assert_eq!(cols.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn conv2d_hand_computed_3x3_valid() {
        // 3×3 input, 2×2 kernel of ones, no padding → each output is the sum
        // of a 2×2 patch.
        let x = nchw(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], 1, 1, 3, 3);
        let w = nchw(&[1.0, 1.0, 1.0, 1.0], 1, 1, 2, 2);
        let b = Tensor::zeros(Shape::vector(1));
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kh: 2,
            kw: 2,
            stride: 1,
            padding: 0,
        };
        let y = conv2d(&x, &w, &b, &spec).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_bias_is_added_per_channel() {
        let x = nchw(&[1.0; 4], 1, 1, 2, 2);
        let w = Tensor::zeros(Shape::new(vec![2, 1, 1, 1]));
        let b = Tensor::from_vec(vec![5.0, -3.0], Shape::vector(2)).unwrap();
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kh: 1,
            kw: 1,
            stride: 1,
            padding: 0,
        };
        let y = conv2d(&x, &w, &b, &spec).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 5.0, 5.0, 5.0, -3.0, -3.0, -3.0, -3.0]);
    }

    #[test]
    fn same_padding_preserves_size() {
        let x = Tensor::from_fn(Shape::nchw(2, 3, 5, 5), |i| (i % 11) as f32 * 0.1);
        let spec = Conv2dSpec::same(3, 4, 3);
        let w = Tensor::from_fn(Shape::new(vec![4, 3, 3, 3]), |i| {
            ((i % 7) as f32 - 3.0) * 0.1
        });
        let b = Tensor::zeros(Shape::vector(4));
        let y = conv2d(&x, &w, &b, &spec).unwrap();
        assert_eq!(y.shape().dims(), &[2, 4, 5, 5]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let spec = Conv2dSpec::same(2, 3, 3);
        let x = Tensor::from_fn(Shape::nchw(1, 2, 4, 4), |i| {
            ((i * 37 % 17) as f32 - 8.0) * 0.1
        });
        let cols = im2col(&x, &spec).unwrap();
        let y = Tensor::from_fn(cols.shape().clone(), |i| {
            ((i * 13 % 29) as f32 - 14.0) * 0.05
        });
        let lhs = cols.dot(&y).unwrap();
        let folded = col2im(&y, 1, 4, 4, &spec).unwrap();
        let rhs = x.dot(&folded).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let spec = Conv2dSpec::same(1, 2, 3);
        let x = Tensor::from_fn(Shape::nchw(1, 1, 4, 4), |i| ((i % 9) as f32 - 4.0) * 0.1);
        let w = Tensor::from_fn(Shape::new(vec![2, 1, 3, 3]), |i| {
            ((i % 5) as f32 - 2.0) * 0.1
        });
        let b = Tensor::from_vec(vec![0.1, -0.2], Shape::vector(2)).unwrap();

        // Scalar loss L = sum(conv(x)) → dy = ones.
        let y = conv2d(&x, &w, &b, &spec).unwrap();
        let dy = Tensor::ones(y.shape().clone());
        let (dx, dw, db) = conv2d_backward(&x, &w, &dy, &spec).unwrap();

        let eps = 1e-3f32;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| conv2d(x, w, b, &spec).unwrap().sum();

        for i in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[i]).abs() < 1e-2,
                "dx[{i}]: fd {fd} vs analytic {}",
                dx.as_slice()[i]
            );
        }
        for i in [0usize, 4, 9, 17] {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (fd - dw.as_slice()[i]).abs() < 1e-2,
                "dw[{i}]: fd {fd} vs analytic {}",
                dw.as_slice()[i]
            );
        }
        for i in 0..2 {
            let mut bp = b.clone();
            bp.as_mut_slice()[i] += eps;
            let mut bm = b.clone();
            bm.as_mut_slice()[i] -= eps;
            let fd = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!(
                (fd - db.as_slice()[i]).abs() < 5e-2,
                "db[{i}]: fd {fd} vs analytic {}",
                db.as_slice()[i]
            );
        }
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let x = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        let spec = Conv2dSpec::same(3, 4, 3);
        let w = Tensor::zeros(Shape::new(vec![4, 3, 3, 3]));
        let b = Tensor::zeros(Shape::vector(4));
        assert!(conv2d(&x, &w, &b, &spec).is_err());
    }

    #[test]
    fn rejects_wrong_weight_shape() {
        let x = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        let spec = Conv2dSpec::same(1, 2, 3);
        let w = Tensor::zeros(Shape::new(vec![2, 1, 5, 5]));
        let b = Tensor::zeros(Shape::vector(2));
        assert!(matches!(
            conv2d(&x, &w, &b, &spec),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn stride_two_downsamples() {
        let x = Tensor::from_fn(Shape::nchw(1, 1, 4, 4), |i| i as f32);
        let w = nchw(&[1.0], 1, 1, 1, 1);
        let b = Tensor::zeros(Shape::vector(1));
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kh: 1,
            kw: 1,
            stride: 2,
            padding: 0,
        };
        let y = conv2d(&x, &w, &b, &spec).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 8.0, 10.0]);
    }
}
