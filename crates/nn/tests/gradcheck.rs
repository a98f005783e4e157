//! Finite-difference gradient checks for whole networks.
//!
//! These are the load-bearing tests of the reproduction: every attack in
//! `adv-attacks` differentiates a scalar loss through a full CNN down to the
//! input pixels, so the chained backward pass must agree with central finite
//! differences for every architecture family the paper uses (classifier CNNs
//! with ReLU + max-pool, and sigmoid auto-encoders with avg-pool + upsample).

use adv_nn::{Activation, Differentiable, LayerSpec, Mode, Sequential};
use adv_tensor::ops::Conv2dSpec;
use adv_tensor::{Shape, Tensor};

/// Checks that a batch of 4 gives each row the bits that row gets alone
/// through `forward` (Eval), `backward_input` and `infer`. Attacks craft,
/// and the serving engine classifies, whole batches, so batching must not
/// change any one image's result.
fn check_batch_invariance(specs: &[LayerSpec], input_shape: &Shape, seed: u64) {
    let mut dims = input_shape.dims().to_vec();
    dims[0] = 4;
    let x = Tensor::from_fn(Shape::new(dims), |i| {
        ((i as u64).wrapping_mul(2_654_435_761) % 97) as f32 / 97.0 * 0.8 + 0.1
    });
    let mut net = Sequential::from_specs(specs, seed).unwrap();
    let mut run = |x: &Tensor| {
        let y = net.forward(x, Mode::Eval).unwrap();
        let per_row = y.len() / y.shape().dim(0);
        let dy = Tensor::from_fn(y.shape().clone(), |i| (i % per_row % 5) as f32 - 2.0);
        let dx = net.backward_input(&dy).unwrap();
        let inferred = net.infer(x).unwrap();
        [y, dx, inferred]
    };
    let batch = run(&x);
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for row in 0..4 {
        let alone = run(&Tensor::stack(&[x.index_axis0(row).unwrap()]).unwrap());
        for ((name, b), a) in ["forward", "backward_input", "infer"]
            .iter()
            .zip(&batch)
            .zip(&alone)
        {
            let n = a.len();
            let b = &b.as_slice()[row * n..(row + 1) * n];
            assert_eq!(bits(b), bits(a.as_slice()), "{name} row {row}");
        }
    }
}

/// Checks `∂ sum(f(x)) / ∂x` against central differences at probe indices,
/// and that the attacks' input-only backward returns the same bits and
/// writes no parameter gradient.
fn check_input_gradient(specs: &[LayerSpec], input_shape: Shape, seed: u64, tol: f32) {
    check_batch_invariance(specs, &input_shape, seed);
    let x = Tensor::from_fn(input_shape, |i| ((i * 29 % 23) as f32 / 23.0) * 0.8 + 0.1);
    let mut net = Sequential::from_specs(specs, seed).unwrap();
    let y = net.forward(&x, Mode::Train).unwrap();
    let dy = Tensor::ones(y.shape().clone());
    let dx_only = net.backward_input(&dy).unwrap();
    let grads = net.params().into_iter().flat_map(|p| p.grad.as_slice());
    assert!(grads.into_iter().all(|&g| g == 0.0));
    let dx = net.backward(&dy).unwrap();
    for (i, (a, b)) in dx_only.as_slice().iter().zip(dx.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "backward_input [{i}]: {a} vs {b}");
    }

    let eps = 1e-2f32;
    let probes: Vec<usize> = (0..x.len()).step_by((x.len() / 12).max(1)).collect();
    for i in probes {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= eps;
        let mut probe = Sequential::from_specs(specs, seed).unwrap();
        let fp = probe.forward(&xp, Mode::Train).unwrap().sum();
        let fm = probe.forward(&xm, Mode::Train).unwrap().sum();
        let fd = (fp - fm) / (2.0 * eps);
        let got = dx.as_slice()[i];
        assert!(
            (fd - got).abs() < tol * (1.0 + fd.abs()),
            "input grad [{i}]: finite-diff {fd} vs analytic {got}"
        );
    }
}

/// Checks parameter gradients against central differences at probe indices.
fn check_param_gradients(specs: &[LayerSpec], input_shape: Shape, seed: u64, tol: f32) {
    check_batch_invariance(specs, &input_shape, seed);
    // Non-repeating pattern: avoids max-pool ties, which break finite
    // differences at the (measure-zero) non-differentiable points.
    let x = Tensor::from_fn(input_shape, |i| {
        ((i as u64).wrapping_mul(2_654_435_761) % 97) as f32 / 97.0 * 0.8 + 0.1
    });
    let mut net = Sequential::from_specs(specs, seed).unwrap();
    let y = net.forward(&x, Mode::Train).unwrap();
    net.backward(&Tensor::ones(y.shape().clone())).unwrap();
    let grads: Vec<Tensor> = net.params().iter().map(|p| p.grad.clone()).collect();

    let eps = 1e-2f32;
    for (pi, grad) in grads.iter().enumerate() {
        let probes: Vec<usize> = (0..grad.len()).step_by((grad.len() / 6).max(1)).collect();
        for i in probes {
            let eval = |delta: f32| {
                let mut probe = Sequential::from_specs(specs, seed).unwrap();
                probe.params_mut()[pi].value.as_mut_slice()[i] += delta;
                probe.forward(&x, Mode::Train).unwrap().sum()
            };
            let fd = (eval(eps) - eval(-eps)) / (2.0 * eps);
            let got = grad.as_slice()[i];
            assert!(
                (fd - got).abs() < tol * (1.0 + fd.abs()),
                "param {pi} grad [{i}]: finite-diff {fd} vs analytic {got}"
            );
        }
    }
}

#[test]
fn classifier_cnn_input_gradient() {
    // The victim-classifier family: conv → relu → maxpool → dense.
    let specs = [
        LayerSpec::Conv2d(Conv2dSpec::same(1, 4, 3)),
        LayerSpec::Activation(Activation::Relu),
        LayerSpec::MaxPool2d { k: 2 },
        LayerSpec::Flatten,
        LayerSpec::Dense {
            inputs: 4 * 3 * 3,
            outputs: 5,
        },
    ];
    check_input_gradient(&specs, Shape::nchw(2, 1, 6, 6), 21, 0.05);
}

#[test]
fn classifier_cnn_param_gradients() {
    let specs = [
        LayerSpec::Conv2d(Conv2dSpec::same(1, 3, 3)),
        LayerSpec::Activation(Activation::Relu),
        LayerSpec::MaxPool2d { k: 2 },
        LayerSpec::Flatten,
        LayerSpec::Dense {
            inputs: 3 * 2 * 2,
            outputs: 3,
        },
    ];
    check_param_gradients(&specs, Shape::nchw(1, 1, 4, 4), 22, 0.05);
}

#[test]
fn magnet_mnist_autoencoder_input_gradient() {
    // MagNet's MNIST reformer family (paper Table II, scaled down):
    // conv-sigmoid, avgpool, conv-sigmoid, conv-sigmoid, upsample,
    // conv-sigmoid, conv-sigmoid.
    let specs = [
        LayerSpec::Conv2d(Conv2dSpec::same(1, 3, 3)),
        LayerSpec::Activation(Activation::Sigmoid),
        LayerSpec::AvgPool2d { k: 2 },
        LayerSpec::Conv2d(Conv2dSpec::same(3, 3, 3)),
        LayerSpec::Activation(Activation::Sigmoid),
        LayerSpec::Upsample2d { factor: 2 },
        LayerSpec::Conv2d(Conv2dSpec::same(3, 1, 3)),
        LayerSpec::Activation(Activation::Sigmoid),
    ];
    check_input_gradient(&specs, Shape::nchw(1, 1, 6, 6), 23, 0.05);
}

#[test]
fn magnet_cifar_autoencoder_input_gradient() {
    // MagNet's CIFAR reformer family (paper Table V): three same-size
    // conv-sigmoid layers, 3 channels in and out.
    let specs = [
        LayerSpec::Conv2d(Conv2dSpec::same(3, 3, 3)),
        LayerSpec::Activation(Activation::Sigmoid),
        LayerSpec::Conv2d(Conv2dSpec::same(3, 3, 3)),
        LayerSpec::Activation(Activation::Sigmoid),
        LayerSpec::Conv2d(Conv2dSpec::same(3, 3, 3)),
        LayerSpec::Activation(Activation::Sigmoid),
    ];
    check_input_gradient(&specs, Shape::nchw(1, 3, 5, 5), 24, 0.05);
}

#[test]
fn mlp_with_tanh_param_gradients() {
    let specs = [
        LayerSpec::Dense {
            inputs: 6,
            outputs: 8,
        },
        LayerSpec::Activation(Activation::Tanh),
        LayerSpec::Dense {
            inputs: 8,
            outputs: 4,
        },
        LayerSpec::Activation(Activation::Sigmoid),
        LayerSpec::Dense {
            inputs: 4,
            outputs: 2,
        },
    ];
    check_param_gradients(&specs, Shape::matrix(3, 6), 25, 0.05);
}

#[test]
fn deep_sigmoid_stack_input_gradient() {
    // Deep sigmoid stacks have small gradients; this guards against silent
    // sign errors that a magnitude check would miss.
    let specs = [
        LayerSpec::Dense {
            inputs: 4,
            outputs: 4,
        },
        LayerSpec::Activation(Activation::Sigmoid),
        LayerSpec::Dense {
            inputs: 4,
            outputs: 4,
        },
        LayerSpec::Activation(Activation::Sigmoid),
        LayerSpec::Dense {
            inputs: 4,
            outputs: 4,
        },
        LayerSpec::Activation(Activation::Sigmoid),
        LayerSpec::Dense {
            inputs: 4,
            outputs: 1,
        },
    ];
    check_input_gradient(&specs, Shape::matrix(2, 4), 26, 0.05);
}

#[test]
fn cross_entropy_through_network_matches_finite_differences() {
    // End-to-end: d(cross_entropy(net(x), labels))/dx — exactly the gradient
    // flow the attacks use (with a different loss head).
    use adv_nn::loss::softmax_cross_entropy;
    let specs = [
        LayerSpec::Conv2d(Conv2dSpec::same(1, 2, 3)),
        LayerSpec::Activation(Activation::Relu),
        LayerSpec::Flatten,
        LayerSpec::Dense {
            inputs: 2 * 4 * 4,
            outputs: 3,
        },
    ];
    let seed = 31;
    check_batch_invariance(&specs, &Shape::nchw(2, 1, 4, 4), seed);
    let x = Tensor::from_fn(Shape::nchw(2, 1, 4, 4), |i| ((i * 7 % 11) as f32) / 11.0);
    let labels = [1usize, 2usize];

    let mut net = Sequential::from_specs(&specs, seed).unwrap();
    let logits = net.forward(&x, Mode::Train).unwrap();
    let (_, dlogits) = softmax_cross_entropy(&logits, &labels).unwrap();
    let dx = net.backward(&dlogits).unwrap();

    let eps = 1e-2f32;
    let eval = |x: &Tensor| {
        let mut probe = Sequential::from_specs(&specs, seed).unwrap();
        let logits = probe.forward(x, Mode::Train).unwrap();
        softmax_cross_entropy(&logits, &labels).unwrap().0
    };
    for i in (0..x.len()).step_by(3) {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= eps;
        let fd = (eval(&xp) - eval(&xm)) / (2.0 * eps);
        let got = dx.as_slice()[i];
        assert!(
            (fd - got).abs() < 0.05 * (1.0 + fd.abs()),
            "dx[{i}]: finite-diff {fd} vs analytic {got}"
        );
    }
}
