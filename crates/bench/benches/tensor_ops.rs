//! Benchmarks of the tensor kernels that dominate runtime: matmul variants,
//! convolution (direct forward, im2col-based backward), pooling and norms.

use adv_bench::image_batch;
use adv_tensor::ops::{
    avg_pool2d, conv2d, conv2d_backward, im2col, matmul, matmul_a_bt, matmul_at_b, Conv2dSpec,
    Pool2dSpec,
};
use adv_tensor::{norms, Shape, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let a = Tensor::from_fn(Shape::matrix(128, 128), |i| (i % 13) as f32 * 0.1);
    let b = Tensor::from_fn(Shape::matrix(128, 128), |i| (i % 7) as f32 * 0.1);
    let mut g = c.benchmark_group("matmul_128");
    g.bench_function("a_b", |bench| {
        bench.iter(|| matmul(black_box(&a), black_box(&b)).expect("matmul failed"))
    });
    g.bench_function("at_b", |bench| {
        bench.iter(|| matmul_at_b(black_box(&a), black_box(&b)).expect("matmul_at_b failed"))
    });
    g.bench_function("a_bt", |bench| {
        bench.iter(|| matmul_a_bt(black_box(&a), black_box(&b)).expect("matmul_a_bt failed"))
    });
    g.finish();
}

fn bench_conv(c: &mut Criterion) {
    let x = image_batch(8, 1, 28);
    let spec = Conv2dSpec::same(1, 8, 3);
    let w = Tensor::from_fn(Shape::new(vec![8, 1, 3, 3]), |i| (i % 5) as f32 * 0.1 - 0.2);
    let b = Tensor::zeros(Shape::vector(8));
    let y = conv2d(&x, &w, &b, &spec).expect("conv2d failed");
    let dy = Tensor::ones(y.shape().clone());

    let mut g = c.benchmark_group("conv2d_28x28_b8");
    g.bench_function("im2col", |bench| {
        bench.iter(|| im2col(black_box(&x), &spec).expect("im2col failed"))
    });
    g.bench_function("forward", |bench| {
        bench.iter(|| conv2d(black_box(&x), &w, &b, &spec).expect("conv2d failed"))
    });
    g.bench_function("backward", |bench| {
        bench.iter(|| {
            conv2d_backward(black_box(&x), &w, &dy, &spec).expect("conv2d_backward failed")
        })
    });
    g.finish();
}

/// Forward conv at the shapes the MagNet serving pipeline runs at batch 32.
fn bench_conv_serving(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv2d_b32");
    for (name, ic, oc, hw) in [
        ("1to3_28x28", 1, 3, 28),
        ("3to3_28x28", 3, 3, 28),
        ("8to16_14x14", 8, 16, 14),
    ] {
        let x = image_batch(32, ic, hw);
        let spec = Conv2dSpec::same(ic, oc, 3);
        let w = Tensor::from_fn(Shape::new(vec![oc, ic, 3, 3]), |i| {
            (i % 5) as f32 * 0.1 - 0.2
        });
        let b = Tensor::zeros(Shape::vector(oc));
        g.bench_function(name, |bench| {
            bench.iter(|| conv2d(black_box(&x), &w, &b, &spec).expect("conv2d failed"))
        });
    }
    g.finish();
}

fn bench_pool_and_norms(c: &mut Criterion) {
    let x = image_batch(8, 3, 16);
    let y = image_batch(8, 3, 16);
    let mut g = c.benchmark_group("pool_and_norms");
    g.bench_function("avg_pool2d", |bench| {
        bench.iter(|| avg_pool2d(black_box(&x), &Pool2dSpec::square(2)).expect("avg_pool2d failed"))
    });
    g.bench_function("l1_dist", |bench| {
        bench.iter(|| norms::l1_dist(black_box(&x), black_box(&y)).expect("norms::l1_dist failed"))
    });
    g.bench_function("elastic_net_dist", |bench| {
        bench.iter(|| {
            norms::elastic_net_dist(black_box(&x), black_box(&y), 0.05)
                .expect("norms::elastic_net_dist failed")
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_conv,
    bench_conv_serving,
    bench_pool_and_norms
);
criterion_main!(benches);
