//! 2-D convolution: a direct forward pass, a direct input-gradient pass,
//! and an `im2col`-based weight gradient.
//!
//! Tensors use NCHW layout. Weights are `[out_channels, in_channels, kh, kw]`.
//! The forward pass builds no patch matrix. It copies each image into a
//! zero-padded buffer and works in register blocks: a block of outputs
//! for up to four output channels stays in registers from +0 through the
//! whole `(c, kh, kw)` reduction, then gets the bias as it is copied out.
//! The weights are packed once per call so that one tap's weights for a
//! channel group are adjacent. The input gradient is a direct transposed
//! convolution over a zero-padded copy of `dy` ([`conv2d_backward_input`]).
//! Only the weight gradient still uses `im2col`, which arranges every
//! receptive field as a row, so `dW` becomes a matrix product.
//!
//! The forward and input-gradient loops run each output's sum in scalar
//! order and vectorize across outputs. They are compiled for baseline
//! x86-64, again with AVX2 and again with AVX-512, and the CPU picks the
//! widest copy it runs (`ops::isa`). All three copies give bit-identical
//! results, since the compiler neither reassociates the sums nor fuses
//! `a * b + c` into one rounding. Register blocks never span two images,
//! so a batch gives each image the bits it gets alone.

use crate::ops::isa::Isa;
use crate::ops::matmul::matmul_at_b;
use crate::{Result, Shape, Tensor, TensorError};
use adv_profile::{KernelKind, KernelScope, Work};

/// Geometry of a 2-D convolution.
///
/// # Example
///
/// ```
/// use adv_tensor::ops::Conv2dSpec;
///
/// // A 3×3 "same" convolution on 28×28 inputs.
/// let spec = Conv2dSpec::same(1, 8, 3);
/// assert_eq!(spec.output_hw(28, 28)?, (28, 28));
/// # Ok::<(), adv_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a zero stride or a
    /// kernel larger than the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let (hp, wp) = (h + 2 * self.padding, w + 2 * self.padding);
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument("stride must be > 0".into()));
        }
        if hp < self.kh || wp < self.kw {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {}x{} larger than padded input {hp}x{wp}",
                self.kh, self.kw
            )));
        }
        Ok((
            (hp - self.kh) / self.stride + 1,
            (wp - self.kw) / self.stride + 1,
        ))
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
        Ok((n, h, w))
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
    let (ho, wo) = spec.output_hw(h, w)?;
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
    let (ho, wo) = spec.output_hw(h, w)?;
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
/// zero-padded buffer; each output starts at +0 in a register block,
/// gains one product per tap in ascending `(c, kh, kw)` order, and gets
/// the bias last. That is the same sequence of floating-point operations
/// as the `im2col` dot-product formulation, so the result is
/// bit-identical to it.
///
/// # Errors
///
/// Returns shape/validation errors when the operands disagree with `spec`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    conv2d_on(Isa::detected(), input, weight, bias, spec)
}

fn conv2d_on(
    isa: Isa,
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    check_weight(weight, spec)?;
    if bias.shape() != &Shape::vector(spec.out_channels) {
        return Err(TensorError::ShapeMismatch {
            left: vec![spec.out_channels],
            right: bias.shape().dims().to_vec(),
        });
    }
    let (n, h, w) = spec.validate_input(input)?;
    let (ho, wo) = spec.output_hw(h, w)?;
    let (c, oc, pad, stride) = (
        spec.in_channels,
        spec.out_channels,
        spec.padding,
        spec.stride,
    );
    let (patch, hp, wp) = (spec.patch_len(), h + 2 * pad, w + 2 * pad);
    // Outputs are laid out `wp` wide: output `(oh, ow)` is `i = oh·wp + ow`,
    // and its tap at padded-input offset `off` reads `xpad[off + stride·i]`.
    // The `wp − wo` slots past each row's end are scratch, and so is the
    // tail that rounds the `span` outputs up to whole blocks: at most
    // `BLOCK − 1` more. `xpad` is long enough for the last block's deepest
    // read.
    let span = (ho - 1) * wp + wo;
    let rounded = span + BLOCK - 1;
    let mut offs = Vec::with_capacity(patch);
    for ch in 0..c {
        for ky in 0..spec.kh {
            offs.extend((0..spec.kw).map(|kx| ch * hp * wp + ky * wp + kx));
        }
    }
    let reach = offs
        .last()
        .map_or(0, |&off| off + stride * (rounded - 1) + 1);
    // The output is allocated before the short-lived buffers, so they are
    // freed from above it rather than leaving holes beneath it; in `craft`
    // this order measured 0.6 MB less peak RSS.
    let mut y = vec![0.0f32; n * oc * ho * wo];
    let mut xpad = vec![0.0f32; reach.max(c * hp * wp)];
    let mut packed = vec![0.0f32; oc * patch];
    let mut planes = vec![0.0f32; oc.min(QUAD) * rounded];
    let _prof = KernelScope::enter(KernelKind::Conv2d, || Work::matmul(n * ho * wo, patch, oc));
    let (x, wv, bv) = (input.as_slice(), weight.as_slice(), bias.as_slice());
    let lanes = isa.lanes();
    // Channel group `o0..o0 + q` keeps its weights as `[patch, q]` at
    // `packed[o0·patch..]`, so each tap's `q` weights are adjacent.
    for o0 in (0..oc).step_by(QUAD) {
        let q = (oc - o0).min(QUAD);
        let group = &mut packed[o0 * patch..][..q * patch];
        for (t, ws) in group.chunks_exact_mut(q).enumerate() {
            for (j, wt) in ws.iter_mut().enumerate() {
                *wt = wv[(o0 + j) * patch + t];
            }
        }
    }
    isa.run(
        #[inline(always)]
        || {
            for b in 0..n {
                for ch in 0..c {
                    let src = &x[(b * c + ch) * h * w..][..h * w];
                    let dst = &mut xpad[ch * hp * wp + pad * wp + pad..];
                    for iy in 0..h {
                        dst[iy * wp..iy * wp + w].copy_from_slice(&src[iy * w..(iy + 1) * w]);
                    }
                }
                for o0 in (0..oc).step_by(QUAD) {
                    let q = (oc - o0).min(QUAD);
                    let ws = &packed[o0 * patch..][..q * patch];
                    let planes = &mut planes[..q * rounded];
                    // A stride of 1 is passed as a literal, for `conv_block`.
                    if stride == 1 {
                        conv_group(lanes, q, &xpad, &offs, ws, 1, span, planes);
                    } else {
                        conv_group(lanes, q, &xpad, &offs, ws, stride, span, planes);
                    }
                    for (j, acc) in planes.chunks_exact(rounded).enumerate() {
                        let o = o0 + j;
                        let out = &mut y[(b * oc + o) * ho * wo..][..ho * wo];
                        for (oh, row) in out.chunks_exact_mut(wo).enumerate() {
                            for (yv, &a) in row.iter_mut().zip(&acc[oh * wp..]) {
                                *yv = a + bv[o];
                            }
                        }
                    }
                }
            }
        },
    );
    Tensor::from_vec(y, Shape::nchw(n, oc, ho, wo))
}

/// The most output channels one register block carries.
const QUAD: usize = 4;
/// The widest register block, in outputs per channel.
const BLOCK: usize = 64;

/// Computes the `span` outputs of a group of `q` (1 to [`QUAD`]) output
/// channels into `planes`, one plane of `span + BLOCK − 1` per channel,
/// with the block widths that suit `q` and the copy's `lanes`.
///
/// A block of `Q` channels × `L` outputs holds 64 or 72 sums: 8 or 9 AVX2
/// registers, enough independent additions in flight to cover their
/// latency, with registers left for the inputs and weights. A block of
/// half as many sums or fewer waits on that latency and costs about half
/// as much, whatever its width, so a remainder that fits one such `T`-wide
/// block takes one. The AVX-512 copy holds the same blocks in 4 or 5
/// registers. Doubling them for it gained nothing measurable in an
/// in-process A/B on the zoo's shapes (0.75–1.06×), except for three
/// channels: 24 outputs are one and a half 16-lane registers, and a
/// `32 × 3` block ran the 3-output-channel layers 1.09–1.20× as fast.
#[inline(always)]
#[expect(
    clippy::too_many_arguments,
    reason = "the group's geometry and buffers, as the conv2d body holds them"
)]
fn conv_group(
    lanes: usize,
    q: usize,
    xpad: &[f32],
    offs: &[usize],
    ws: &[f32],
    stride: usize,
    span: usize,
    planes: &mut [f32],
) {
    match q {
        4 => conv_blocks::<4, 16, 8>(xpad, offs, ws, stride, span, planes),
        3 if lanes == 16 => conv_blocks::<3, 32, 16>(xpad, offs, ws, stride, span, planes),
        3 => conv_blocks::<3, 24, 8>(xpad, offs, ws, stride, span, planes),
        2 => conv_blocks::<2, 32, 16>(xpad, offs, ws, stride, span, planes),
        _ => conv_blocks::<1, 64, 32>(xpad, offs, ws, stride, span, planes),
    }
}

/// Tiles `span` outputs with `L`-wide blocks and, when the remainder fits
/// one, a last `T`-wide block; see [`conv_group`].
#[inline(always)]
fn conv_blocks<const Q: usize, const L: usize, const T: usize>(
    xpad: &[f32],
    offs: &[usize],
    ws: &[f32],
    stride: usize,
    span: usize,
    planes: &mut [f32],
) {
    let full = span - span % L;
    for i0 in (0..full).step_by(L) {
        conv_block::<Q, L>(xpad, offs, ws, stride, i0, planes);
    }
    if span - full > T {
        conv_block::<Q, L>(xpad, offs, ws, stride, full, planes);
    } else if span > full {
        conv_block::<Q, T>(xpad, offs, ws, stride, full, planes);
    }
}

/// The forward body: a block of `W` outputs `i = i0 + l` of each of `Q`
/// output channels stays in registers from +0 through every `(c, kh, kw)`
/// tap in ascending order, `acc[j][l] += xpad[offs[t] + stride·i] ·
/// ws[t·Q + j]`, and is then stored to `planes[j·plane + i]`, where
/// `plane = planes.len() / Q`.
///
/// `Q` and `W` are literals at each call site, and so is a stride of 1,
/// so the compiler unrolls the channels and reads each tap's inputs as
/// one vector run.
#[inline(always)]
fn conv_block<const Q: usize, const W: usize>(
    xpad: &[f32],
    offs: &[usize],
    ws: &[f32],
    stride: usize,
    i0: usize,
    planes: &mut [f32],
) {
    let run = (W - 1) * stride + 1;
    let mut acc = [[0.0f32; W]; Q];
    for (&off, wq) in offs.iter().zip(ws.chunks_exact(Q)) {
        let xs = &xpad[off + i0 * stride..][..run];
        for (a, &wt) in acc.iter_mut().zip(wq) {
            for (l, av) in a.iter_mut().enumerate() {
                *av += xs[l * stride] * wt;
            }
        }
    }
    for (plane, a) in planes.chunks_exact_mut(planes.len() / Q).zip(&acc) {
        plane[i0..][..W].copy_from_slice(a);
    }
}

/// Input gradient of a 2-D convolution: `dx = ∂L/∂x` for an `[n, c, h, w]`
/// input, given `dy = ∂L/∂y` (`[n, oc, ho, wo]`). Computes no weight or
/// bias gradient and needs no copy of the input.
///
/// A direct transposed convolution, bit-identical to the `col2im` of
/// `dy·W` (with `dy` repacked to `[n·ho·wo, oc]` rows) for finite weights.
/// `dy` is copied into a zero-padded buffer, stride > 1 by zero insertion,
/// so each kernel tap is one contiguous pass. For each tap the oc-sum
/// `Σ_o dy_o · w[o, c, ky, kx]` is formed in ascending `o` from +0, which
/// is the `matmul` order, and is then added to the dx accumulator. Taps go
/// in descending `(ky, kx)` order, which gives every dx element its
/// contributions in `col2im`'s ascending `(oh, ow)` order. Taps that miss
/// `dy` add +0, which changes no sum that starts from +0.
///
/// # Errors
///
/// Returns shape/validation errors when `weight` or `dy` disagree with
/// `spec` and the `n × h × w` input geometry.
pub fn conv2d_backward_input(
    weight: &Tensor,
    dy: &Tensor,
    n: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    check_weight(weight, spec)?;
    check_dy(dy, n, h, w, spec)?;
    let mut dx = InputGrad::new(n, h, w, spec)?;
    let _prof = KernelScope::enter(KernelKind::Conv2dBackward, || dx.work());
    dx.compute(Isa::detected(), weight.as_slice(), dy.as_slice());
    dx.into_tensor()
}

fn check_dy(dy: &Tensor, n: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Result<()> {
    let (ho, wo) = spec.output_hw(h, w)?;
    let expected = Shape::nchw(n, spec.out_channels, ho, wo);
    if dy.shape() != &expected {
        return Err(TensorError::ShapeMismatch {
            left: expected.dims().to_vec(),
            right: dy.shape().dims().to_vec(),
        });
    }
    Ok(())
}

/// Geometry and buffers of the direct input-gradient kernel, allocated by
/// [`InputGrad::new`] so that [`InputGrad::compute`] allocates nothing.
///
/// `dyz` holds one zero-padded plane per output channel, `wz` wide: `dy`
/// at `(oh, ow)` sits at row `oh·stride + kh − 1`, column
/// `ow·stride + kw − 1`. The accumulator is `wz` wide too: dx at
/// `(iy, ix)` is `acc[iy·wz + ix]`, and tap `(ky, kx)` reads its `dy` at
/// `dyz[offs[ky·kw + kx] + iy·wz + ix]`. The `wz − w` slots past each row's
/// end, and the tail that rounds `acc` up to whole tiles, are scratch.
struct InputGrad {
    spec: Conv2dSpec,
    n: usize,
    h: usize,
    w: usize,
    ho: usize,
    wo: usize,
    wz: usize,
    plane: usize,
    offs: Vec<usize>,
    /// Weights as `[c, kh·kw, oc]`, so one tap's oc weights are contiguous.
    wt: Vec<f32>,
    dyz: Vec<f32>,
    acc: Vec<[f32; TILE]>,
    dx: Vec<f32>,
}

impl InputGrad {
    fn new(n: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Result<InputGrad> {
        let (ho, wo) = spec.output_hw(h, w)?;
        let (c, oc, pad, kh, kw) = (
            spec.in_channels,
            spec.out_channels,
            spec.padding,
            spec.kh,
            spec.kw,
        );
        // A read past the end of a row lands in the next row's first
        // `kw − 1` columns, which hold no `dy` and stay zero. From width
        // `w + pad` on, every such read lands there, so the rows share
        // one margin; `kw + (wo − 1)·stride` fits a row of `dy`. `hz` rows
        // cover the deepest read and its overrun.
        let wz = (w + pad).max(kw + (wo - 1) * spec.stride);
        let hz = h + 2 * pad + kh;
        let span = if h == 0 || w == 0 {
            0
        } else {
            (h - 1) * wz + w
        };
        let offs = (0..kh * kw)
            .map(|t| (pad + kh - 1 - t / kw) * wz + pad + kw - 1 - t % kw)
            .collect();
        Ok(InputGrad {
            spec: *spec,
            n,
            h,
            w,
            ho,
            wo,
            wz,
            plane: hz * wz,
            offs,
            wt: vec![0.0; c * kh * kw * oc],
            // The last plane's tile tail reads up to `TILE` slots past it.
            dyz: vec![0.0; oc * hz * wz + TILE],
            acc: vec![[0.0; TILE]; span.div_ceil(TILE)],
            dx: vec![0.0; n * c * h * w],
        })
    }

    /// The volume of the `dy·W` product this kernel replaces.
    fn work(&self) -> Work {
        let spec = &self.spec;
        Work::matmul(
            self.n * self.ho * self.wo,
            spec.out_channels,
            spec.patch_len(),
        )
    }

    fn compute(&mut self, isa: Isa, wv: &[f32], dyv: &[f32]) {
        isa.run(
            #[inline(always)]
            || self.compute_body(wv, dyv),
        );
    }

    #[inline(always)]
    fn compute_body(&mut self, wv: &[f32], dyv: &[f32]) {
        let (c, oc, stride) = (
            self.spec.in_channels,
            self.spec.out_channels,
            self.spec.stride,
        );
        let (khw, kw) = (self.spec.kh * self.spec.kw, self.spec.kw);
        let (h, w, ho, wo, wz) = (self.h, self.w, self.ho, self.wo, self.wz);
        for o in 0..oc {
            for i in 0..c * khw {
                self.wt[i * oc + o] = wv[o * c * khw + i];
            }
        }
        let origin = (self.spec.kh - 1) * wz + kw - 1;
        for b in 0..self.n {
            for o in 0..oc {
                let src = &dyv[(b * oc + o) * ho * wo..][..ho * wo];
                let dst = &mut self.dyz[o * self.plane + origin..];
                for (oh, row) in src.chunks_exact(wo).enumerate() {
                    let dst = &mut dst[oh * stride * wz..];
                    for (ow, &v) in row.iter().enumerate() {
                        dst[ow * stride] = v;
                    }
                }
            }
            for ch in 0..c {
                self.acc.fill([0.0; TILE]);
                for t in (0..khw).rev() {
                    let ws = &self.wt[(ch * khw + t) * oc..][..oc];
                    let dyz = &self.dyz[self.offs[t]..];
                    add_tap_sum(&mut self.acc, dyz, self.plane, ws);
                }
                let acc = self.acc.as_flattened();
                let out = &mut self.dx[(b * c + ch) * h * w..];
                for iy in 0..h {
                    out[iy * w..][..w].copy_from_slice(&acc[iy * wz..][..w]);
                }
            }
        }
    }

    fn into_tensor(self) -> Result<Tensor> {
        let shape = Shape::nchw(self.n, self.spec.in_channels, self.h, self.w);
        Tensor::from_vec(self.dx, shape)
    }
}

/// Elements per register tile of [`add_tap_sum`].
const TILE: usize = 32;

/// Adds one tap's channel sum to a wide accumulator, `TILE` elements at a
/// time: `acc[i] += Σ_o dyz[o·plane + i] · ws[o]`, the sum formed in a
/// register tile in ascending `o` from +0 before it meets `acc`.
#[inline(always)]
fn add_tap_sum(acc: &mut [[f32; TILE]], dyz: &[f32], plane: usize, ws: &[f32]) {
    for (j, a) in acc.iter_mut().enumerate() {
        let mut t = [0.0f32; TILE];
        for (o, &wt) in ws.iter().enumerate() {
            let d = &dyz[o * plane + j * TILE..][..TILE];
            for (tv, &dv) in t.iter_mut().zip(d) {
                *tv += dv * wt;
            }
        }
        for (av, tv) in a.iter_mut().zip(t) {
            *av += tv;
        }
    }
}

/// Backward 2-D convolution.
///
/// Given the upstream gradient `dy = ∂L/∂y` (`[n, oc, ho, wo]`), returns
/// `(dx, dweight, dbias)` with the shapes of `input`, `weight` and the bias
/// vector respectively. `dx` comes from the same kernel as
/// [`conv2d_backward_input`]; `dweight` from `im2col(input)`.
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
    check_dy(dy, n, h, w, spec)?;
    let (ho, wo) = spec.output_hw(h, w)?;
    let oc = spec.out_channels;
    let hw = ho * wo;
    let mut dyrows = vec![0.0f32; n * hw * oc];
    let mut db = vec![0.0f32; oc];
    let mut dx = InputGrad::new(n, h, w, spec)?;

    let _prof = KernelScope::enter(KernelKind::Conv2dBackward, || dx.work());
    // Repack dy from NCHW to rows [n·ho·wo, oc] (matching the im2col row order).
    let dyv = dy.as_slice();
    for b in 0..n {
        for ch in 0..oc {
            for p in 0..hw {
                dyrows[(b * hw + p) * oc + ch] = dyv[(b * oc + ch) * hw + p];
            }
        }
    }
    // db = column sums of dyrows, row by row (`max(1)`: with no output
    // channels there are no rows to sum).
    for row in dyrows.chunks_exact(oc.max(1)) {
        for (d, &v) in db.iter_mut().zip(row.iter()) {
            *d += v;
        }
    }
    let dyrows = Tensor::from_vec(dyrows, Shape::matrix(n * hw, oc))?;

    // dW = dyrowsᵀ · im2col(input) → [oc, patch]
    let dw = matmul_at_b(&dyrows, &im2col(input, spec)?)?;
    let dw = dw.into_reshaped(Shape::new(vec![oc, spec.in_channels, spec.kh, spec.kw]))?;
    let db = Tensor::from_vec(db, Shape::vector(oc))?;
    dx.compute(Isa::detected(), weight.as_slice(), dyv);
    Ok((dx.into_tensor()?, dw, db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::{matmul, matmul_a_bt};

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
        let (n, (ho, wo)) = (dims[0], spec.output_hw(dims[2], dims[3]).unwrap());
        let cols = im2col(input, spec).unwrap();
        let wmat = weight
            .reshape(Shape::matrix(spec.out_channels, spec.patch_len()))
            .unwrap();
        let rows = matmul_a_bt(&cols, &wmat).unwrap();
        let (oc, hw) = (spec.out_channels, ho * wo);
        let mut y = vec![0.0f32; n * oc * hw];
        for (r, row) in rows.as_slice().chunks_exact(oc.max(1)).enumerate() {
            let (b, p) = (r / hw, r % hw);
            for (ch, &v) in row.iter().enumerate() {
                y[(b * oc + ch) * hw + p] = v + bias.as_slice()[ch];
            }
        }
        Tensor::from_vec(y, Shape::nchw(n, oc, ho, wo)).unwrap()
    }

    /// The previous input gradient, kept as the oracle: `dy` repacked to
    /// `[n·ho·wo, oc]` rows, `dy·W` by `matmul`, then `col2im`.
    fn conv2d_dx_col2im_reference(
        weight: &Tensor,
        dy: &Tensor,
        (n, h, w): (usize, usize, usize),
        spec: &Conv2dSpec,
    ) -> Tensor {
        let (oc, (ho, wo)) = (spec.out_channels, spec.output_hw(h, w).unwrap());
        let hw = ho * wo;
        let mut rows = vec![0.0f32; n * hw * oc];
        for (i, &v) in dy.as_slice().iter().enumerate() {
            let (b, o, p) = (i / (oc * hw), i / hw % oc, i % hw);
            rows[(b * hw + p) * oc + o] = v;
        }
        let rows = Tensor::from_vec(rows, Shape::matrix(n * hw, oc)).unwrap();
        let wmat = weight.reshape(Shape::matrix(oc, spec.patch_len())).unwrap();
        col2im(&matmul(&rows, &wmat).unwrap(), n, h, w, spec).unwrap()
    }

    /// `[batch, in, out, h, w, kh, kw, stride, padding]`: every 3×3 "same"
    /// convolution the model zoo builds (the MNIST and CIFAR auto-encoders'
    /// 1→3, 3→3, 3→1 and 3→3 layers, the victims' 1→8, 8→16, 3→8 and
    /// 8→16), output channel counts 5, 6 and 7 that leave a register block
    /// of 1, 2 and 3 channels after one of 4, then stride 1–3, padding 0–2,
    /// kh ≠ kw, and empty batches, input channels and output channels.
    const GEOMETRIES: [[usize; 9]; 26] = [
        [3, 1, 3, 28, 28, 3, 3, 1, 1],
        [2, 3, 3, 28, 28, 3, 3, 1, 1],
        [2, 3, 1, 28, 28, 3, 3, 1, 1],
        [2, 1, 3, 14, 14, 3, 3, 1, 1],
        [2, 3, 3, 14, 14, 3, 3, 1, 1],
        [2, 3, 1, 14, 14, 3, 3, 1, 1],
        [2, 1, 8, 28, 28, 3, 3, 1, 1],
        [2, 8, 16, 14, 14, 3, 3, 1, 1],
        [2, 3, 3, 16, 16, 3, 3, 1, 1],
        [2, 3, 8, 16, 16, 3, 3, 1, 1],
        [2, 8, 16, 8, 8, 3, 3, 1, 1],
        [2, 3, 5, 9, 11, 3, 3, 1, 1],
        [2, 2, 6, 10, 7, 3, 3, 1, 1],
        [2, 4, 7, 12, 9, 3, 3, 2, 1],
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
        [2, 3, 0, 6, 6, 3, 3, 1, 1],
    ];

    fn spec_of([_, c, oc, _, _, kh, kw, stride, padding]: [usize; 9]) -> Conv2dSpec {
        Conv2dSpec {
            in_channels: c,
            out_channels: oc,
            kh,
            kw,
            stride,
            padding,
        }
    }

    fn weight_of(spec: &Conv2dSpec) -> Tensor {
        let dims = vec![spec.out_channels, spec.in_channels, spec.kh, spec.kw];
        Tensor::from_fn(Shape::new(dims), |i| {
            ((i * 104729 % 97) as f32 - 48.0) * 0.021
        })
    }

    fn input_of(n: usize, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn(Shape::nchw(n, c, h, w), |i| {
            ((i * 7919 % 211) as f32 - 105.0) * 0.013
        })
    }

    /// Every fifth element is an exact zero, which `matmul` skips.
    fn dy_of(n: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
        let (ho, wo) = spec.output_hw(h, w).unwrap();
        Tensor::from_fn(Shape::nchw(n, spec.out_channels, ho, wo), |i| {
            if i % 5 == 2 {
                0.0
            } else {
                ((i * 6007 % 173) as f32 - 86.0) * 0.017
            }
        })
    }

    fn assert_bits_eq(fast: &Tensor, oracle: &Tensor, what: &str) {
        assert_eq!(fast.shape(), oracle.shape(), "{what}");
        for (i, (f, r)) in fast.as_slice().iter().zip(oracle.as_slice()).enumerate() {
            assert_eq!(f.to_bits(), r.to_bits(), "{what} at {i}: {f} vs {r}");
        }
    }

    #[test]
    fn direct_forward_is_bit_identical_to_im2col_reference() {
        for g @ [n, c, oc, h, w, ..] in GEOMETRIES {
            let spec = spec_of(g);
            let x = input_of(n, c, h, w);
            let b = Tensor::from_fn(Shape::vector(oc), |i| (i as f32 - 1.5) * 0.37);
            let wt = weight_of(&spec);
            let fast = conv2d(&x, &wt, &b, &spec).unwrap();
            let oracle = conv2d_im2col_reference(&x, &wt, &b, &spec);
            assert_bits_eq(&fast, &oracle, &format!("{spec:?} n={n} h={h} w={w}"));
        }
    }

    #[test]
    fn direct_input_gradient_is_bit_identical_to_col2im_reference() {
        for g @ [n, c, _, h, w, ..] in GEOMETRIES {
            let spec = spec_of(g);
            let wt = weight_of(&spec);
            let dy = dy_of(n, h, w, &spec);
            let oracle = conv2d_dx_col2im_reference(&wt, &dy, (n, h, w), &spec);
            let what = format!("{spec:?} n={n} h={h} w={w}");
            let fast = conv2d_backward_input(&wt, &dy, n, h, w, &spec).unwrap();
            assert_bits_eq(&fast, &oracle, &what);
            let x = Tensor::from_fn(Shape::nchw(n, c, h, w), |i| i as f32 * 0.01);
            let (dx, _, _) = conv2d_backward(&x, &wt, &dy, &spec).unwrap();
            assert_bits_eq(&dx, &oracle, &what);
        }
    }

    /// A batch gives, image for image, the bits each image gives alone, so
    /// no register block reads or writes across an image boundary.
    #[test]
    fn forward_and_input_gradient_are_batch_invariant() {
        for g @ [n, c, oc, h, w, ..] in GEOMETRIES {
            let spec = spec_of(g);
            let (x, wt, dy) = (
                input_of(n, c, h, w),
                weight_of(&spec),
                dy_of(n, h, w, &spec),
            );
            let b = Tensor::from_fn(Shape::vector(oc), |i| (i as f32 - 1.5) * 0.37);
            let y = conv2d(&x, &wt, &b, &spec).unwrap();
            let dx = conv2d_backward_input(&wt, &dy, n, h, w, &spec).unwrap();
            for r in 0..n {
                let row = |t: &Tensor| Tensor::stack(&[t.index_axis0(r).unwrap()]).unwrap();
                let what = format!("{spec:?} h={h} w={w} image {r} of {n}");
                let alone = conv2d(&row(&x), &wt, &b, &spec).unwrap();
                assert_bits_eq(&row(&y), &alone, &format!("forward {what}"));
                let alone = conv2d_backward_input(&wt, &row(&dy), 1, h, w, &spec).unwrap();
                assert_bits_eq(&row(&dx), &alone, &format!("dx {what}"));
            }
        }
    }

    /// The oracle tests above run whichever copy the CPU selects; this one
    /// runs every copy the CPU can run beside the baseline copy.
    #[test]
    fn every_copy_is_bit_identical_to_the_baseline() {
        for g @ [n, c, oc, h, w, ..] in GEOMETRIES {
            let spec = spec_of(g);
            let (x, wt) = (input_of(n, c, h, w), weight_of(&spec));
            let b = Tensor::from_fn(Shape::vector(oc), |i| (i as f32 - 1.5) * 0.37);
            let y = |isa| conv2d_on(isa, &x, &wt, &b, &spec).unwrap();
            let dy = dy_of(n, h, w, &spec);
            let dx = |isa| {
                let mut dx = InputGrad::new(n, h, w, &spec).unwrap();
                dx.compute(isa, wt.as_slice(), dy.as_slice());
                dx.into_tensor().unwrap()
            };
            let (y0, dx0) = (y(Isa::BASELINE), dx(Isa::BASELINE));
            for isa in Isa::every_runnable() {
                let what = format!("{isa:?} {spec:?} n={n} h={h} w={w}");
                assert_bits_eq(&y(isa), &y0, &format!("forward {what}"));
                assert_bits_eq(&dx(isa), &dx0, &format!("dx {what}"));
            }
        }
    }

    #[test]
    fn backward_input_validates_its_operands() {
        let spec = Conv2dSpec::same(1, 2, 3);
        let wt = weight_of(&spec);
        let dy = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        assert!(conv2d_backward_input(&wt, &dy, 1, 4, 4, &spec).is_ok());
        assert!(matches!(
            conv2d_backward_input(&wt, &dy, 1, 5, 4, &spec),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            conv2d_backward_input(&dy, &dy, 1, 4, 4, &spec),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let big = Conv2dSpec::valid(1, 2, 5, 1);
        assert!(matches!(
            conv2d_backward_input(&weight_of(&big), &dy, 1, 4, 4, &big),
            Err(TensorError::InvalidArgument(_))
        ));
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
        assert_eq!(spec.output_hw(28, 28).unwrap(), (28, 28));
        let spec = Conv2dSpec::valid(1, 4, 3, 1);
        assert_eq!(spec.output_hw(28, 28).unwrap(), (26, 26));
        let spec = Conv2dSpec::valid(1, 4, 2, 2);
        assert_eq!(spec.output_hw(8, 8).unwrap(), (4, 4));
    }

    #[test]
    fn output_hw_rejects_zero_stride_and_oversized_kernel() {
        let zero_stride = Conv2dSpec::valid(1, 1, 3, 0);
        assert!(matches!(
            zero_stride.output_hw(28, 28),
            Err(TensorError::InvalidArgument(_))
        ));
        // 5×5 fits a 3×3 input only with padding 1.
        let mut spec = Conv2dSpec::valid(1, 1, 5, 1);
        assert!(matches!(
            spec.output_hw(3, 3),
            Err(TensorError::InvalidArgument(_))
        ));
        spec.padding = 1;
        assert_eq!(spec.output_hw(3, 3).unwrap(), (1, 1));
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
