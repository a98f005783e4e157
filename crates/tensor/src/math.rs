//! `f32` transcendentals whose bits belong to this repository, not to the
//! host's libm.
//!
//! [`exp`] is a port of glibc 2.36's baseline (non-FMA) `expf`, which is
//! Arm's optimized-routines algorithm: `x·32/ln 2 = k + r` with `k` an
//! integer, `2^(k/32)` from a 32-entry table and an exponent shift, and
//! `2^(r/32)` from a degree-3 polynomial, all evaluated in `f64` and
//! rounded once to `f32`. glibc's x86-64 build also carries an FMA copy,
//! which it picks on CPUs with FMA; that copy differs from the baseline on
//! exactly two inputs, `0x4202422f` and `0xc27c65d9`. The port computes the
//! baseline's bits on every CPU, in the scalar form and in every copy of
//! the slice kernels (baseline, AVX2 and AVX-512, see `ops/isa.rs`).
//!
//! Every operation rounds as the C source does: Rust never contracts
//! `a * b + c` into a fused multiply-add, and each `f64` step is an IEEE
//! operation, so no intermediate keeps extra precision. The special cases
//! (overflow to ∞, underflow to 0, NaN in `x + x`) are selected from the
//! main path's result, which the slice kernels do in a second pass so that
//! the main path stays one straight-line body for the vectorizer.

use crate::ops::isa::Isa;

/// `bits(2^(i/32)) − (i << 47)` for `i` in `0..32`: the exponent field of
/// `2^(k/32)` is added back from `k` itself. A `const`, not a `static`:
/// with a `static` table LLVM moved the load behind the special cases'
/// branches and left the AVX2 copy scalar.
const EXP2_TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `32 / ln 2` (`0x1.71547652b82fep+5`).
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `1.5 · 2^52`: adding it rounds a double to an integer, ties to even,
/// and leaves that integer in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The polynomial's coefficients for `r` scaled by 1/32: `2^(r/32) ≈
/// C0·r³ + C1·r² + C2·r + 1`.
const C0: f64 = f64::from_bits(0x3ebc6af84b912394);
const C1: f64 = f64::from_bits(0x3f2ebfce50fac4f3);
const C2: f64 = f64::from_bits(0x3f962e42ff0c52d6);
/// The largest input whose `e^x` is finite in `f32` (≈ 88.72).
const OVERFLOW_ABOVE: f32 = f32::from_bits(0x42b17217);
/// Below this input `e^x` rounds to zero (≈ −103.97).
const UNDERFLOW_BELOW: f32 = f32::from_bits(0xc2cff1b4);

/// `e^x`, bit-identical to glibc 2.36's baseline `expf` on every input.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    exp_special(x, exp_main(x))
}

/// The logistic sigmoid `1 / (1 + e^{−x})`, through [`exp`].
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// `exp`'s main path, which is right for every input but the special
/// cases.
#[inline(always)]
fn exp_main(x: f32) -> f32 {
    let z = INV_LN2_N * f64::from(x);
    let kd = z + SHIFT;
    let ki = kd.to_bits();
    let r = z - (kd - SHIFT);
    let t = EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47);
    let s = f64::from_bits(t);
    (((C0 * r + C1) * (r * r) + (C2 * r + 1.0)) * s) as f32
}

/// `e^x` from `y = exp_main(x)`: `y` itself, or the special case's value.
#[inline(always)]
fn exp_special(x: f32, y: f32) -> f32 {
    if x > OVERFLOW_ABOVE {
        f32::INFINITY
    } else if x < UNDERFLOW_BELOW {
        0.0
    } else if x.is_nan() {
        x + x
    } else {
        y
    }
}

/// Writes [`sigmoid`] of each element of `xs` to `out`, compiled for
/// `isa`.
pub(crate) fn sigmoid_into(isa: Isa, xs: &[f32], out: &mut [f32]) {
    two_pass(
        isa,
        xs,
        out,
        #[inline(always)]
        |x| exp_main(-x),
        #[inline(always)]
        |x, e| 1.0 / (1.0 + exp_special(-x, e)),
    );
}

/// Writes `finish(x, main(x))` for each `x` of `xs` to `out`, compiled for
/// `isa`: `main` over the whole slice first, then `finish`. In one loop,
/// LLVM sinks `exp`'s main path, table load included, behind the special
/// cases' branch, and the AVX2 copy comes out scalar.
#[inline(always)]
fn two_pass(
    isa: Isa,
    xs: &[f32],
    out: &mut [f32],
    main: impl Fn(f32) -> f32,
    finish: impl Fn(f32, f32) -> f32,
) {
    isa.run(
        #[inline(always)]
        || {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = main(x);
            }
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = finish(x, *o);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inputs where glibc's FMA `expf` and its baseline differ.
    const FMA_DIVERGENT: [u32; 2] = [0x4202422f, 0xc27c65d9];

    #[test]
    fn exact_points_and_special_values() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(OVERFLOW_ABOVE).is_finite());
        assert_eq!(
            exp(f32::from_bits(OVERFLOW_ABOVE.to_bits() + 1)),
            f32::INFINITY
        );
        assert!(exp(UNDERFLOW_BELOW) > 0.0, "the smallest subnormal");
        assert_eq!(
            exp(f32::from_bits(UNDERFLOW_BELOW.to_bits() + 1)).to_bits(),
            0
        );
        // 2^(k/32) for every table entry's k is exact up to its rounding.
        for i in 0..32u64 {
            let want = f64::from_bits(EXP2_TABLE[i as usize].wrapping_add(i << 47));
            assert!(
                (want - (i as f64 / 32.0).exp2()).abs() <= 2.3e-16,
                "entry {i}"
            );
        }
    }

    #[test]
    fn fma_divergent_inputs_keep_the_baseline_bits() {
        // glibc 2.36's baseline `expf` on these inputs; its FMA copy
        // returns one ulp more on both.
        let want = [0x56fc9f1b_u32, 0x11fa2992];
        for (x, want) in FMA_DIVERGENT.into_iter().zip(want) {
            assert_eq!(exp(f32::from_bits(x)).to_bits(), want, "{x:#010x}");
        }
    }

    /// Every copy of the sigmoid kernel that the CPU runs gives the scalar
    /// form's bits, on every 251st input and on a tail shorter than a
    /// vector.
    #[test]
    fn sigmoid_copies_match_the_scalar_form() {
        let xs: Vec<f32> = (0..=u32::MAX).step_by(251).map(f32::from_bits).collect();
        for isa in Isa::every_runnable() {
            for xs in [&xs[..], &xs[..5]] {
                let mut out = vec![0.0; xs.len()];
                sigmoid_into(isa, xs, &mut out);
                for (&x, y) in xs.iter().zip(out) {
                    assert_eq!(
                        y.to_bits(),
                        sigmoid(x).to_bits(),
                        "{isa:?} at {:#010x}",
                        x.to_bits()
                    );
                }
            }
        }
    }

    /// FNV-1a 64 of [`exp`]'s output bits over each block of 2^24 inputs,
    /// block `b` covering `b << 24 ..= (b << 24) | 0xff_ffff` in order, one
    /// 32-bit output word per step. Taken from the port once it had been
    /// compared with glibc 2.36's `expf` on every input (see CHANGES.md).
    const BLOCK_HASHES: [u64; 256] = [
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x8fdf81edc3a22325,
        0x05ac2b20a53bb71c,
        0x8f6792a9fa16515f,
        0xb3e9ed3ad48f3f21,
        0xc061c7ddf80525ed,
        0x2ccd534b3bfea0ff,
        0x191d753db7af9582,
        0xa6b6627afb8fe3ce,
        0xb2206399d49014c6,
        0xd4357208f727589a,
        0x5ce74480ab7ad595,
        0x422df86070ba4e24,
        0x5e821bd99f013b80,
        0xdcabdc8ffb1b2069,
        0xea2b717e2cd33580,
        0x3a96e108a67464b0,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1cc5c01008222325,
        0x1c88ce7d65e22325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x0b97bd7288222325,
        0x9791b7fef91ddcdb,
        0x887b702aae0038d9,
        0x183879ecfa7b38d4,
        0x216c93930c2cbabc,
        0xa0bb298bed9b5f23,
        0x87cce824dc086311,
        0x9687094e65976e84,
        0x6d631cf66edc5116,
        0x909cc761a10c8b44,
        0xca2bce027bd43941,
        0x184f436b38f3234d,
        0x59c43d58abdba984,
        0x9f7bb84859c87866,
        0xffbd7f14dc3aa9e0,
        0x47598d50f5282fc6,
        0x7b6c40440f6b7f60,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0xf195bf0618222325,
        0x4dd2b300d1622325,
    ];

    /// Every `f32` input, without libm: the scalar [`exp`] and the slice
    /// body of every copy the CPU runs (baseline, AVX2, AVX-512) agree bit
    /// for bit, and each block of outputs hashes to its committed value.
    #[test]
    fn exp_is_pinned_on_every_input() {
        let isas = Isa::every_runnable();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        let blocks: Vec<u32> = (0..256).collect();
        let hashes: Vec<(u32, u64)> = std::thread::scope(|s| {
            let workers: Vec<_> = blocks
                .chunks(256usize.div_ceil(threads))
                .map(|mine| {
                    let isas = &isas;
                    s.spawn(move || {
                        mine.iter()
                            .map(|&b| (b, hash_block(b, isas)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        for (b, h) in hashes {
            assert_eq!(
                h,
                BLOCK_HASHES[b as usize],
                "block {b:#04x}: inputs {:#010x}..",
                b << 24
            );
        }
    }

    /// Hashes block `b`'s outputs, asserting each copy's slice body on the
    /// way.
    fn hash_block(b: u32, isas: &[Isa]) -> u64 {
        const STEP: u32 = 1 << 16;
        let mut h: u64 = 0xcbf29ce484222325;
        let mut xs = vec![0.0f32; STEP as usize];
        let mut want = vec![0u32; STEP as usize];
        let mut outs = vec![xs.clone(); isas.len()];
        for start in (0..1u32 << 24)
            .step_by(STEP as usize)
            .map(|i| (b << 24) | i)
        {
            for (i, x) in xs.iter_mut().enumerate() {
                *x = f32::from_bits(start + i as u32);
            }
            for (y, &x) in want.iter_mut().zip(&xs) {
                *y = exp(x).to_bits();
            }
            for (&isa, out) in isas.iter().zip(&mut outs) {
                two_pass(isa, &xs, out, exp_main, exp_special);
                let bad = out.iter().zip(&want).position(|(o, &y)| o.to_bits() != y);
                assert!(
                    bad.is_none(),
                    "{isa:?} slice at {:#010x}",
                    bad.map_or(0, |i| xs[i].to_bits())
                );
            }
            for &y in &want {
                h = (h ^ u64::from(y)).wrapping_mul(0x100000001b3);
            }
        }
        h
    }
}
