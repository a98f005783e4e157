//! Blocked dense matrix multiplication.
//!
//! Three entry points cover the products backprop needs:
//!
//! - [`matmul`]: `C = A·B`, the dense forward pass and, against a cached
//!   transposed copy of the weights, the dense input gradient `dy·Wᵀ`
//! - [`matmul_at_b`]: `C = Aᵀ·B` (weight gradients)
//! - [`matmul_a_bt`]: `C = A·Bᵀ`, kept as a reference: the tests check the
//!   direct conv forward and the dense input gradient against it, and no
//!   production path calls it
//!
//! `matmul` and `matmul_at_b` are written i-k-j with a fixed block size so
//! the inner loop is a contiguous axpy, vectorized across output columns.
//! `matmul_a_bt` keeps one dot product per output, eight outputs per pass,
//! which gathers across rows of `B`. Each body is compiled for baseline
//! x86-64 and again with AVX2, and the CPU picks the copy at run time
//! (`ops::isa`). Every output keeps its scalar summation order and no
//! `a * b + c` is fused, so the two copies give bit-identical results.

use crate::ops::isa::Isa;
use crate::{Result, Shape, Tensor, TensorError};
use adv_profile::{KernelKind, KernelScope, Work};

const BLOCK: usize = 64;

fn check_rank2(t: &Tensor) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.shape().rank(),
        });
    }
    Ok((t.shape().dim(0), t.shape().dim(1)))
}

/// `C = A·B` for rank-2 tensors.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::MatmulDimMismatch`] when `A` has a different number of
/// columns than `B` has rows.
///
/// # Example
///
/// ```
/// use adv_tensor::{ops::matmul, Shape, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(2, 2))?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], Shape::matrix(2, 2))?;
/// assert_eq!(matmul(&a, &i)?, a);
/// # Ok::<(), adv_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_on(Isa::detected(), a, b)
}

fn matmul_on(isa: Isa, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = check_rank2(a)?;
    let (kb, n) = check_rank2(b)?;
    if ka != kb {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: ka,
            right_rows: kb,
        });
    }
    let _prof = KernelScope::enter(KernelKind::MatMul, || Work::matmul(m, ka, n));
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut c = vec![0.0f32; m * n];
    isa.run(
        #[inline(always)]
        || {
            for kk in (0..ka).step_by(BLOCK) {
                let kend = (kk + BLOCK).min(ka);
                for i in 0..m {
                    let crow = &mut c[i * n..(i + 1) * n];
                    for k in kk..kend {
                        let aik = av[i * ka + k];
                        if aik == 0.0 {
                            continue;
                        }
                        let brow = &bv[k * n..(k + 1) * n];
                        for (cj, &bj) in crow.iter_mut().zip(brow.iter()) {
                            *cj += aik * bj;
                        }
                    }
                }
            }
        },
    );
    Tensor::from_vec(c, Shape::matrix(m, n))
}

/// `C = Aᵀ·B` where `A: [k, m]`, `B: [k, n]`, producing `[m, n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::MatmulDimMismatch`] when the leading (contraction)
/// dimensions disagree.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_at_b_on(Isa::detected(), a, b)
}

fn matmul_at_b_on(isa: Isa, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ka, m) = check_rank2(a)?;
    let (kb, n) = check_rank2(b)?;
    if ka != kb {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: ka,
            right_rows: kb,
        });
    }
    let _prof = KernelScope::enter(KernelKind::MatMulAtB, || Work::matmul(m, ka, n));
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut c = vec![0.0f32; m * n];
    isa.run(
        #[inline(always)]
        || {
            for k in 0..ka {
                let arow = &av[k * m..(k + 1) * m];
                let brow = &bv[k * n..(k + 1) * n];
                for (i, &aki) in arow.iter().enumerate() {
                    if aki == 0.0 {
                        continue;
                    }
                    let crow = &mut c[i * n..(i + 1) * n];
                    for (cj, &bj) in crow.iter_mut().zip(brow.iter()) {
                        *cj += aki * bj;
                    }
                }
            }
        },
    );
    Tensor::from_vec(c, Shape::matrix(m, n))
}

/// `C = A·Bᵀ` where `A: [m, k]`, `B: [n, k]`, producing `[m, n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::MatmulDimMismatch`] when the trailing (contraction)
/// dimensions disagree.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_a_bt_on(Isa::detected(), a, b)
}

fn matmul_a_bt_on(isa: Isa, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = check_rank2(a)?;
    let (n, kb) = check_rank2(b)?;
    if ka != kb {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: ka,
            right_rows: kb,
        });
    }
    let mut c = vec![0.0f32; m * n];
    let _prof = KernelScope::enter(KernelKind::MatMulABt, || Work::matmul(m, ka, n));
    let av = a.as_slice();
    let bv = b.as_slice();
    isa.run(
        #[inline(always)]
        || {
            for i in 0..m {
                let arow = &av[i * ka..(i + 1) * ka];
                let crow = &mut c[i * n..(i + 1) * n];
                let mut blocks = crow.chunks_exact_mut(LANES);
                for (jb, cblk) in (&mut blocks).enumerate() {
                    let rows = &bv[jb * LANES * ka..][..LANES * ka];
                    cblk.copy_from_slice(&dot_lanes(arow, rows));
                }
                let done = n - blocks.into_remainder().len();
                for (j, cij) in crow.iter_mut().enumerate().skip(done) {
                    let brow = &bv[j * ka..(j + 1) * ka];
                    let mut acc = 0.0f32;
                    for (&x, &y) in arow.iter().zip(brow.iter()) {
                        acc += x * y;
                    }
                    *cij = acc;
                }
            }
        },
    );
    Tensor::from_vec(c, Shape::matrix(m, n))
}

/// Outputs per pass of [`matmul_a_bt`].
const LANES: usize = 8;
/// Contraction steps per block load of [`dot_lanes`].
const KSTEP: usize = 4;

/// `LANES` dot products of `a` with the consecutive `a.len()`-long rows of
/// `rows`. Each has its own accumulator, summed in ascending `k` from +0
/// exactly as a lone dot product is, so the lanes are independent chains.
/// The rows are read in `LANES × KSTEP` blocks, which the compiler turns
/// into vector registers across the lanes.
#[inline(always)]
fn dot_lanes(a: &[f32], rows: &[f32]) -> [f32; LANES] {
    let k = a.len();
    let r: [&[f32]; LANES] = std::array::from_fn(|l| &rows[l * k..][..k]);
    let mut acc = [0.0f32; LANES];
    let whole = k - k % KSTEP;
    for kk in (0..whole).step_by(KSTEP) {
        let blk: [[f32; KSTEP]; LANES] =
            std::array::from_fn(|l| std::array::from_fn(|q| r[l][kk + q]));
        for (q, &x) in a[kk..kk + KSTEP].iter().enumerate() {
            for (s, b) in acc.iter_mut().zip(&blk) {
                *s += x * b[q];
            }
        }
    }
    for (kk, &x) in a.iter().enumerate().skip(whole) {
        for (s, row) in acc.iter_mut().zip(&r) {
            *s += x * row[kk];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), Shape::matrix(r, c)).unwrap()
    }

    #[test]
    fn matmul_small_known_case() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(&[1.0, -2.0, 3.5, 0.0], 2, 2);
        let i = t(&[1.0, 0.0, 0.0, 1.0], 2, 2);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = t(&[1.0, 2.0], 1, 2);
        let b = t(&[1.0, 2.0, 3.0], 3, 1);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let b = t(&[1.0, 0.0, -1.0, 2.0, 0.5, 1.0], 3, 2);
        let expected = matmul(&a.transpose().unwrap(), &b).unwrap();
        assert_eq!(matmul_at_b(&a, &b).unwrap(), expected);
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t(&[0.5, -1.0, 2.0, 3.0, 1.0, 0.0], 3, 2);
        let expected = matmul(&a, &b.transpose().unwrap()).unwrap();
        assert_eq!(matmul_a_bt(&a, &b).unwrap(), expected);
    }

    #[test]
    fn lane_blocked_a_bt_is_bit_identical_to_one_accumulator_dots() {
        // n covers below, at and past multiples of LANES; k > 64.
        for (m, n, k) in [(1, 3, 70), (2, 8, 65), (3, 21, 130), (1, 16, 1), (2, 0, 9)] {
            let a = Tensor::from_fn(Shape::matrix(m, k), |i| {
                ((i * 7919 % 211) as f32 - 105.0) * 0.013
            });
            let b = Tensor::from_fn(Shape::matrix(n, k), |i| {
                ((i * 104729 % 97) as f32 - 48.0) * 0.021
            });
            let c = matmul_a_bt(&a, &b).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a.as_slice()[i * k + kk] * b.as_slice()[j * k + kk];
                    }
                    let got = c.as_slice()[i * n + j];
                    assert_eq!(got.to_bits(), acc.to_bits(), "({m},{n},{k}) at ({i},{j})");
                }
            }
        }
    }

    /// The other tests run whichever copy the CPU selects; this one runs
    /// the baseline copy beside the AVX2 copy, on the shapes above.
    #[test]
    fn baseline_and_avx2_copies_are_bit_identical() {
        let Some(wide) = Isa::wider_than_baseline() else {
            return;
        };
        type Kernel = fn(Isa, &Tensor, &Tensor) -> Result<Tensor>;
        let kernels: [(&str, Kernel); 3] = [
            ("matmul", matmul_on),
            ("matmul_at_b", matmul_at_b_on),
            ("matmul_a_bt", matmul_a_bt_on),
        ];
        for (m, n, k) in [(1, 3, 70), (2, 8, 65), (3, 21, 130), (1, 16, 1), (2, 0, 9)] {
            // Operand shapes of A·B, Aᵀ·B and A·Bᵀ for an [m, n] product.
            let shapes = [((m, k), (k, n)), ((k, m), (k, n)), ((m, k), (n, k))];
            for ((name, kernel), ((ar, ac), (br, bc))) in kernels.iter().zip(shapes) {
                // Every 211th element of `a` is an exact zero, which
                // `matmul` and `matmul_at_b` skip.
                let a = Tensor::from_fn(Shape::matrix(ar, ac), |i| {
                    ((i * 7919 % 211) as f32 - 105.0) * 0.013
                });
                let b = Tensor::from_fn(Shape::matrix(br, bc), |i| {
                    ((i * 104729 % 97) as f32 - 48.0) * 0.021
                });
                let (wide, base) = (
                    kernel(wide, &a, &b).unwrap(),
                    kernel(Isa::BASELINE, &a, &b).unwrap(),
                );
                assert_eq!(wide.shape(), base.shape(), "{name} ({m},{n},{k})");
                for (i, (x, y)) in wide.as_slice().iter().zip(base.as_slice()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{name} ({m},{n},{k}) at {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// The dense layers' input gradient `dy·Wᵀ` is `matmul(dy, Wᵀ)`: each
    /// row of a batch's product has the bits of that row's product alone.
    #[test]
    fn matmul_rows_are_batch_invariant() {
        for (m, k, n) in [(4, 10, 64), (3, 64, 784), (5, 70, 9)] {
            // Every 211th element of `a` is an exact zero, which `matmul` skips.
            let a = Tensor::from_fn(Shape::matrix(m, k), |i| {
                ((i * 7919 % 211) as f32 - 105.0) * 0.013
            });
            let b = Tensor::from_fn(Shape::matrix(k, n), |i| {
                ((i * 104729 % 97) as f32 - 48.0) * 0.021
            });
            let c = matmul(&a, &b).unwrap();
            for r in 0..m {
                let row = Tensor::stack(&[a.index_axis0(r).unwrap()]).unwrap();
                let alone = matmul(&row, &b).unwrap();
                let whole = c.index_axis0(r).unwrap();
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&whole), bits(&alone), "({m},{k},{n}) row {r}");
            }
        }
    }

    #[test]
    fn blocked_path_matches_naive_on_larger_matrices() {
        // Exercise the k-blocking by exceeding BLOCK.
        let k = 150;
        let a = Tensor::from_fn(Shape::matrix(3, k), |i| (i % 7) as f32 - 3.0);
        let b = Tensor::from_fn(Shape::matrix(k, 4), |i| (i % 5) as f32 * 0.5);
        let c = matmul(&a, &b).unwrap();
        // Naive reference.
        for i in 0..3 {
            for j in 0..4 {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.as_slice()[i * k + kk] * b.as_slice()[kk * 4 + j];
                }
                let got = c.as_slice()[i * 4 + j];
                assert!((got - acc).abs() < 1e-3, "({i},{j}): {got} vs {acc}");
            }
        }
    }

    #[test]
    fn rank_is_validated() {
        let v = Tensor::zeros(Shape::vector(4));
        let m = Tensor::zeros(Shape::matrix(2, 2));
        assert!(matches!(
            matmul(&v, &m),
            Err(TensorError::RankMismatch { .. })
        ));
    }
}
