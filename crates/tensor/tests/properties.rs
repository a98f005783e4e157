//! Property-based tests for the tensor substrate: algebraic laws of the
//! elementwise ops, norm inequalities, and adjointness of the conv/pool
//! kernels under random geometry.

use adv_tensor::ops::{
    avg_pool2d, avg_pool2d_backward, col2im, conv2d, conv2d_backward, conv2d_backward_input,
    im2col, matmul, matmul_a_bt, upsample2d_nearest, upsample2d_nearest_backward, Conv2dSpec,
    Pool2dSpec,
};
use adv_tensor::{norms, Shape, Tensor};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// A value in `[-1, 1)` hashed from `(seed, i)`, with full mantissas so a
/// change in summation order shows in the low bits.
fn noise(seed: u64, i: usize) -> f32 {
    let mut z = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 29;
    (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

/// The im2col formulation of the forward conv, from public kernels: patch
/// rows, one `A·Bᵀ` dot product per output, NCHW repack, then the bias.
fn conv2d_im2col_reference(x: &Tensor, w: &Tensor, b: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let dims = x.shape().dims();
    let (n, (ho, wo)) = (dims[0], spec.output_hw(dims[2], dims[3]).unwrap());
    let wmat = w
        .reshape(Shape::matrix(spec.out_channels, spec.patch_len()))
        .unwrap();
    let rows = matmul_a_bt(&im2col(x, spec).unwrap(), &wmat).unwrap();
    let (oc, hw) = (spec.out_channels, ho * wo);
    let mut y = vec![0.0f32; n * oc * hw];
    for (r, row) in rows.as_slice().chunks_exact(oc).enumerate() {
        for (ch, &v) in row.iter().enumerate() {
            y[((r / hw) * oc + ch) * hw + r % hw] = v + b.as_slice()[ch];
        }
    }
    Tensor::from_vec(y, Shape::nchw(n, oc, ho, wo)).unwrap()
}

/// The `col2im` formulation of the conv input gradient, from public
/// kernels: `dy` repacked to `[n·ho·wo, oc]` rows, `dy·W`, then `col2im`.
fn conv2d_dx_col2im_reference(
    w: &Tensor,
    dy: &Tensor,
    h: usize,
    wd: usize,
    spec: &Conv2dSpec,
) -> Tensor {
    let dims = dy.shape().dims();
    let (n, oc, hw) = (dims[0], dims[1], dims[2] * dims[3]);
    let mut rows = vec![0.0f32; n * hw * oc];
    for (i, &v) in dy.as_slice().iter().enumerate() {
        rows[(i / (oc * hw) * hw + i % hw) * oc + i / hw % oc] = v;
    }
    let rows = Tensor::from_vec(rows, Shape::matrix(n * hw, oc)).unwrap();
    let wmat = w.reshape(Shape::matrix(oc, spec.patch_len())).unwrap();
    col2im(&matmul(&rows, &wmat).unwrap(), n, h, wd, spec).unwrap()
}

/// A convolution geometry whose kernel fits the padded `h × w` input.
fn conv_spec(
    c: usize,
    oc: usize,
    (h, w): (usize, usize),
    k: (usize, usize),
    stride: usize,
    padding: usize,
) -> Conv2dSpec {
    Conv2dSpec {
        in_channels: c,
        out_channels: oc,
        kh: k.0.min(h + 2 * padding),
        kw: k.1.min(w + 2 * padding),
        stride,
        padding,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn conv_forward_matches_im2col_reference_bitwise(
        n in 1usize..4,
        c in 1usize..5,
        oc in 1usize..5,
        hw in (1usize..13, 1usize..13),
        k in (1usize..6, 1usize..6),
        stride in 1usize..4,
        padding in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (h, w) = hw;
        let spec = conv_spec(c, oc, hw, k, stride, padding);
        let x = Tensor::from_fn(Shape::nchw(n, c, h, w), |i| noise(seed, i) * 4.0);
        let wt = Tensor::from_fn(Shape::new(vec![oc, c, spec.kh, spec.kw]), |i| noise(seed ^ 1, i));
        let b = Tensor::from_fn(Shape::vector(oc), |i| noise(seed ^ 2, i));
        let fast = conv2d(&x, &wt, &b, &spec).unwrap();
        let oracle = conv2d_im2col_reference(&x, &wt, &b, &spec);
        prop_assert_eq!(fast.shape(), oracle.shape());
        for (i, (f, r)) in fast.as_slice().iter().zip(oracle.as_slice()).enumerate() {
            prop_assert_eq!(f.to_bits(), r.to_bits(), "{:?} n={} h={} w={} at {}: {} vs {}", spec, n, h, w, i, f, r);
        }
    }

    #[test]
    fn conv_input_gradient_matches_col2im_reference_bitwise(
        n in 1usize..4,
        c in 1usize..5,
        oc in 1usize..7,
        hw in (1usize..13, 1usize..13),
        k in (1usize..6, 1usize..6),
        stride in 1usize..4,
        padding in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (h, w) = hw;
        let spec = conv_spec(c, oc, hw, k, stride, padding);
        let (ho, wo) = spec.output_hw(h, w).unwrap();
        let wt = Tensor::from_fn(Shape::new(vec![oc, c, spec.kh, spec.kw]), |i| noise(seed, i));
        // About one dy in eight is an exact zero, which `matmul` skips.
        let dy = Tensor::from_fn(Shape::nchw(n, oc, ho, wo), |i| {
            let v = noise(seed ^ 3, i);
            if v.abs() < 0.125 { 0.0 } else { v * 4.0 }
        });
        let fast = conv2d_backward_input(&wt, &dy, n, h, w, &spec).unwrap();
        let oracle = conv2d_dx_col2im_reference(&wt, &dy, h, w, &spec);
        prop_assert_eq!(fast.shape(), oracle.shape());
        for (i, (f, r)) in fast.as_slice().iter().zip(oracle.as_slice()).enumerate() {
            prop_assert_eq!(f.to_bits(), r.to_bits(), "{:?} n={} h={} w={} at {}: {} vs {}", spec, n, h, w, i, f, r);
        }
    }
}

proptest! {
    #[test]
    fn add_commutes(data in small_vec(16)) {
        let a = Tensor::from_vec(data.clone(), Shape::vector(16)).unwrap();
        let b = Tensor::from_vec(data.iter().rev().copied().collect(), Shape::vector(16)).unwrap();
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn sub_is_additive_inverse(data in small_vec(12)) {
        let a = Tensor::from_vec(data, Shape::vector(12)).unwrap();
        let zero = a.sub(&a).unwrap();
        prop_assert!(zero.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scale_distributes_over_add(data in small_vec(8), k in -5.0f32..5.0) {
        let a = Tensor::from_vec(data.clone(), Shape::vector(8)).unwrap();
        let b = Tensor::from_vec(data.iter().map(|v| v * 0.5 + 1.0).collect(), Shape::vector(8)).unwrap();
        let lhs = a.add(&b).unwrap().scale(k);
        let rhs = a.scale(k).add(&b.scale(k)).unwrap();
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((l - r).abs() <= 1e-3 * (1.0 + l.abs()));
        }
    }

    #[test]
    fn l2_triangle_inequality(xs in small_vec(10), ys in small_vec(10)) {
        let a = Tensor::from_vec(xs, Shape::vector(10)).unwrap();
        let b = Tensor::from_vec(ys, Shape::vector(10)).unwrap();
        let sum = a.add(&b).unwrap();
        prop_assert!(norms::l2_norm(&sum) <= norms::l2_norm(&a) + norms::l2_norm(&b) + 1e-3);
    }

    #[test]
    fn l1_dominates_l2_dominates_linf(xs in small_vec(10)) {
        let a = Tensor::from_vec(xs, Shape::vector(10)).unwrap();
        prop_assert!(norms::l1_norm(&a) + 1e-4 >= norms::l2_norm(&a));
        prop_assert!(norms::l2_norm(&a) + 1e-4 >= norms::linf_norm(&a));
    }

    #[test]
    fn elastic_net_monotone_in_beta(xs in small_vec(10), b1 in 0.0f32..0.5, db in 0.0f32..0.5) {
        let a = Tensor::from_vec(xs, Shape::vector(10)).unwrap();
        let zero = Tensor::zeros(Shape::vector(10));
        let lo = norms::elastic_net_dist(&a, &zero, b1).unwrap();
        let hi = norms::elastic_net_dist(&a, &zero, b1 + db).unwrap();
        prop_assert!(hi >= lo - 1e-4);
    }

    #[test]
    fn matmul_identity(r in 1usize..6, c in 1usize..6, seed in 0u64..1000) {
        let a = Tensor::from_fn(Shape::matrix(r, c), |i| ((i as u64 * 2654435761 + seed) % 17) as f32 - 8.0);
        let id = Tensor::from_fn(Shape::matrix(c, c), |i| if i / c == i % c { 1.0 } else { 0.0 });
        prop_assert_eq!(matmul(&a, &id).unwrap(), a);
    }

    #[test]
    fn matmul_linearity(seed in 0u64..1000) {
        // (A + B)·C == A·C + B·C
        let gen = |s: u64| Tensor::from_fn(Shape::matrix(3, 4), move |i| ((i as u64 * 31 + s) % 13) as f32 - 6.0);
        let a = gen(seed);
        let b = gen(seed + 7);
        let c = Tensor::from_fn(Shape::matrix(4, 2), |i| ((i * 7) % 5) as f32 - 2.0);
        let lhs = matmul(&a.add(&b).unwrap(), &c).unwrap();
        let rhs = matmul(&a, &c).unwrap().add(&matmul(&b, &c).unwrap()).unwrap();
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((l - r).abs() < 1e-2);
        }
    }

    #[test]
    fn im2col_col2im_adjoint(h in 3usize..7, w in 3usize..7, c in 1usize..3, seed in 0u64..100) {
        let spec = Conv2dSpec::same(c, 1, 3);
        let x = Tensor::from_fn(Shape::nchw(1, c, h, w), |i| ((i as u64 * 97 + seed) % 19) as f32 * 0.1 - 0.9);
        let cols = im2col(&x, &spec).unwrap();
        let y = Tensor::from_fn(cols.shape().clone(), |i| ((i as u64 * 53 + seed) % 23) as f32 * 0.05 - 0.5);
        let lhs = cols.dot(&y).unwrap();
        let rhs = x.dot(&col2im(&y, 1, h, w, &spec).unwrap()).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn conv_is_linear_in_input(seed in 0u64..100) {
        let spec = Conv2dSpec::same(1, 2, 3);
        let w = Tensor::from_fn(Shape::new(vec![2, 1, 3, 3]), |i| ((i * 5) % 7) as f32 * 0.1 - 0.3);
        let b = Tensor::zeros(Shape::vector(2));
        let gen = |s: u64| Tensor::from_fn(Shape::nchw(1, 1, 5, 5), move |i| ((i as u64 * 41 + s) % 11) as f32 * 0.1);
        let x1 = gen(seed);
        let x2 = gen(seed + 13);
        let lhs = conv2d(&x1.add(&x2).unwrap(), &w, &b, &spec).unwrap();
        let rhs = conv2d(&x1, &w, &b, &spec).unwrap().add(&conv2d(&x2, &w, &b, &spec).unwrap()).unwrap();
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((l - r).abs() < 1e-3);
        }
    }

    #[test]
    fn conv_backward_input_grad_is_adjoint(seed in 0u64..50) {
        // <conv(x), dy> == <x, dx> when bias = 0 — conv is linear in x, so its
        // Jacobian-transpose action must satisfy the adjoint identity exactly.
        let spec = Conv2dSpec::same(2, 3, 3);
        let x = Tensor::from_fn(Shape::nchw(1, 2, 4, 4), |i| ((i as u64 * 29 + seed) % 13) as f32 * 0.1 - 0.6);
        let w = Tensor::from_fn(Shape::new(vec![3, 2, 3, 3]), |i| ((i as u64 * 17 + seed) % 9) as f32 * 0.1 - 0.4);
        let b = Tensor::zeros(Shape::vector(3));
        let y = conv2d(&x, &w, &b, &spec).unwrap();
        let dy = Tensor::from_fn(y.shape().clone(), |i| ((i as u64 * 7 + seed) % 5) as f32 * 0.2 - 0.4);
        let (dx, _, _) = conv2d_backward(&x, &w, &dy, &spec).unwrap();
        let lhs = y.dot(&dy).unwrap();
        let rhs = x.dot(&dx).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{} vs {}", lhs, rhs);
    }

    #[test]
    fn avg_pool_preserves_mean(h in 2usize..5, seed in 0u64..100) {
        let spec = Pool2dSpec::square(2);
        let x = Tensor::from_fn(Shape::nchw(1, 1, h * 2, h * 2), |i| ((i as u64 * 61 + seed) % 15) as f32 * 0.1);
        let y = avg_pool2d(&x, &spec).unwrap();
        prop_assert!((x.mean() - y.mean()).abs() < 1e-4);
    }

    #[test]
    fn avg_pool_adjoint(h in 2usize..5, seed in 0u64..100) {
        let spec = Pool2dSpec::square(2);
        let x = Tensor::from_fn(Shape::nchw(1, 2, h * 2, h * 2), |i| ((i as u64 * 43 + seed) % 17) as f32 * 0.1 - 0.8);
        let y = Tensor::from_fn(Shape::nchw(1, 2, h, h), |i| ((i as u64 * 37 + seed) % 7) as f32 * 0.2 - 0.6);
        let lhs = avg_pool2d(&x, &spec).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&avg_pool2d_backward(x.shape(), &y, &spec).unwrap()).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
    }

    #[test]
    fn upsample_adjoint(h in 2usize..5, f in 1usize..4, seed in 0u64..100) {
        let x = Tensor::from_fn(Shape::nchw(1, 1, h, h), |i| ((i as u64 * 71 + seed) % 9) as f32 * 0.1);
        let y = Tensor::from_fn(Shape::nchw(1, 1, h * f, h * f), |i| ((i as u64 * 11 + seed) % 5) as f32 * 0.2);
        let lhs = upsample2d_nearest(&x, f).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&upsample2d_nearest_backward(&y, f).unwrap()).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
    }

    #[test]
    fn reshape_preserves_data(data in small_vec(24)) {
        let a = Tensor::from_vec(data.clone(), Shape::new(vec![2, 3, 4])).unwrap();
        let b = a.reshape(Shape::new(vec![4, 6])).unwrap();
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn stack_then_index_roundtrip(data in small_vec(6)) {
        let a = Tensor::from_vec(data[..3].to_vec(), Shape::vector(3)).unwrap();
        let b = Tensor::from_vec(data[3..].to_vec(), Shape::vector(3)).unwrap();
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        prop_assert_eq!(s.index_axis0(0).unwrap(), a);
        prop_assert_eq!(s.index_axis0(1).unwrap(), b);
    }
}
