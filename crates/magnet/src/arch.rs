//! Auto-encoder architectures from the MagNet paper.
//!
//! The original MagNet uses tiny convolutional auto-encoders, sigmoid
//! throughout:
//!
//! - **MNIST, AE-I ("Detector I & Reformer", paper Table II left):**
//!   `conv 3×3×f → avgpool 2×2 → conv 3×3×f → conv 3×3×f → upsample 2×2 →
//!   conv 3×3×f → conv 3×3×1`, all sigmoid.
//! - **MNIST, AE-II ("Detector II", Table II right):**
//!   `conv 3×3×f → conv 3×3×f → conv 3×3×1`, all sigmoid.
//! - **CIFAR-10 (Table V):** `conv 3×3×f → conv 3×3×f → conv 3×3×c`,
//!   all sigmoid.
//!
//! The default MagNet uses `f = 3` filters; the paper's "robust" variants
//! raise this to `f = 256`. The filter count is a parameter here so that the
//! scaled-down reproduction can use a smaller "robust" width (documented in
//! DESIGN.md) while exercising the identical code path.

use adv_nn::{Activation, LayerSpec};
use adv_tensor::ops::Conv2dSpec;

fn conv_sigmoid(in_c: usize, out_c: usize) -> [LayerSpec; 2] {
    [
        LayerSpec::Conv2d(Conv2dSpec::same(in_c, out_c, 3)),
        LayerSpec::Activation(Activation::Sigmoid),
    ]
}

/// MagNet's MNIST AE-I (reformer + detector I): encoder with one 2×
/// down/upsample stage.
///
/// `channels` is the image channel count (1 for MNIST), `filters` the width
/// of the hidden convolutions (3 default, 256 in the paper's robust
/// variant).
pub fn mnist_ae_one(channels: usize, filters: usize) -> Vec<LayerSpec> {
    let mut specs = Vec::new();
    specs.extend(conv_sigmoid(channels, filters));
    specs.push(LayerSpec::AvgPool2d { k: 2 });
    specs.extend(conv_sigmoid(filters, filters));
    specs.extend(conv_sigmoid(filters, filters));
    specs.push(LayerSpec::Upsample2d { factor: 2 });
    specs.extend(conv_sigmoid(filters, filters));
    specs.extend(conv_sigmoid(filters, channels));
    specs
}

/// MagNet's MNIST AE-II (detector II): three same-size convolutions, no
/// spatial bottleneck.
pub fn mnist_ae_two(channels: usize, filters: usize) -> Vec<LayerSpec> {
    let mut specs = Vec::new();
    specs.extend(conv_sigmoid(channels, filters));
    specs.extend(conv_sigmoid(filters, filters));
    specs.extend(conv_sigmoid(filters, channels));
    specs
}

/// MagNet's CIFAR-10 auto-encoder (detectors + reformer): three same-size
/// convolutions over 3-channel images.
pub fn cifar_ae(channels: usize, filters: usize) -> Vec<LayerSpec> {
    mnist_ae_two(channels, filters)
}

/// The victim classifier family used by MagNet for MNIST:
/// `[conv, conv, maxpool] × 2 → dense → dense`, ReLU throughout (the paper's
/// Keras model, scaled by `c1`/`c2`/`hidden`).
///
/// `side` is the input spatial size (28 for MNIST).
pub fn mnist_classifier(
    side: usize,
    channels: usize,
    c1: usize,
    c2: usize,
    hidden: usize,
    classes: usize,
) -> Vec<LayerSpec> {
    let pooled = side / 2 / 2;
    vec![
        LayerSpec::Conv2d(Conv2dSpec::same(channels, c1, 3)),
        LayerSpec::Activation(Activation::Relu),
        LayerSpec::MaxPool2d { k: 2 },
        LayerSpec::Conv2d(Conv2dSpec::same(c1, c2, 3)),
        LayerSpec::Activation(Activation::Relu),
        LayerSpec::MaxPool2d { k: 2 },
        LayerSpec::Flatten,
        LayerSpec::Dense {
            inputs: c2 * pooled * pooled,
            outputs: hidden,
        },
        LayerSpec::Activation(Activation::Relu),
        LayerSpec::Dense {
            inputs: hidden,
            outputs: classes,
        },
    ]
}

/// The victim classifier family for CIFAR-like data: same topology as
/// [`mnist_classifier`] but parameterized independently for clarity at call
/// sites.
pub fn cifar_classifier(
    side: usize,
    channels: usize,
    c1: usize,
    c2: usize,
    hidden: usize,
    classes: usize,
) -> Vec<LayerSpec> {
    mnist_classifier(side, channels, c1, c2, hidden, classes)
}

/// Renders an architecture as the rows of the paper's Table II / Table V
/// (one human-readable line per layer).
pub fn describe(specs: &[LayerSpec]) -> Vec<String> {
    specs
        .iter()
        .map(|s| match s {
            LayerSpec::Conv2d(c) => format!("Conv {}x{}x{}", c.kh, c.kw, c.out_channels),
            LayerSpec::Activation(a) => format!(".{}", a.name()),
            LayerSpec::MaxPool2d { k } => format!("MaxPooling {k}x{k}"),
            LayerSpec::AvgPool2d { k } => format!("AveragePooling {k}x{k}"),
            LayerSpec::Upsample2d { factor } => format!("Upsampling {factor}x{factor}"),
            LayerSpec::Flatten => "Flatten".to_string(),
            LayerSpec::Reshape { item_shape } => format!("Reshape {item_shape:?}"),
            LayerSpec::Dense { inputs, outputs } => format!("Dense {inputs}->{outputs}"),
            LayerSpec::Dropout { p } => format!("Dropout {p}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_nn::{Differentiable, Mode, Sequential};
    use adv_tensor::{Shape, Tensor};

    #[test]
    fn mnist_ae_one_preserves_shape() {
        let mut net = Sequential::from_specs(&mnist_ae_one(1, 3), 0).unwrap();
        let x = Tensor::zeros(Shape::nchw(2, 1, 28, 28));
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn mnist_ae_two_preserves_shape() {
        let mut net = Sequential::from_specs(&mnist_ae_two(1, 3), 0).unwrap();
        let x = Tensor::zeros(Shape::nchw(1, 1, 28, 28));
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn cifar_ae_preserves_shape() {
        let mut net = Sequential::from_specs(&cifar_ae(3, 3), 0).unwrap();
        let x = Tensor::zeros(Shape::nchw(1, 3, 16, 16));
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn ae_output_is_in_unit_box() {
        // Final sigmoid guarantees reconstructions live in the image box.
        let mut net = Sequential::from_specs(&mnist_ae_two(1, 3), 1).unwrap();
        let x = Tensor::from_fn(Shape::nchw(1, 1, 8, 8), |i| (i % 2) as f32 * 5.0 - 2.0);
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert!(y.min() >= 0.0 && y.max() <= 1.0);
    }

    #[test]
    fn classifier_output_is_logit_rows() {
        let mut net = Sequential::from_specs(&mnist_classifier(28, 1, 4, 8, 16, 10), 0).unwrap();
        let x = Tensor::zeros(Shape::nchw(3, 1, 28, 28));
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape().dims(), &[3, 10]);
    }

    #[test]
    fn robust_variant_is_wider() {
        let thin = Sequential::from_specs(&mnist_ae_two(1, 3), 0).unwrap();
        let wide = Sequential::from_specs(&mnist_ae_two(1, 16), 0).unwrap();
        assert!(wide.num_parameters() > thin.num_parameters() * 5);
    }

    #[test]
    fn backward_input_is_backward_dx_bit_for_bit_and_writes_no_grad() {
        // The victims and reformers at the widths the zoo trains.
        let cases = [
            (
                mnist_classifier(28, 1, 8, 16, 64, 10),
                Shape::nchw(2, 1, 28, 28),
            ),
            (
                cifar_classifier(16, 3, 8, 16, 64, 10),
                Shape::nchw(2, 3, 16, 16),
            ),
            (mnist_ae_one(1, 8), Shape::nchw(2, 1, 28, 28)),
            (mnist_ae_two(1, 8), Shape::nchw(2, 1, 28, 28)),
            (cifar_ae(3, 8), Shape::nchw(2, 3, 16, 16)),
        ];
        for (specs, shape) in cases {
            let x = Tensor::from_fn(shape, |i| (i * 7919 % 211) as f32 / 211.0);
            let mut net = Sequential::from_specs(&specs, 5).unwrap();
            let y = net.forward(&x, Mode::Eval).unwrap();
            let dy = Tensor::from_fn(y.shape().clone(), |i| ((i * 31 % 17) as f32 - 8.0) * 0.1);
            let dx = Differentiable::backward_input(&mut net, &dy).unwrap();
            let grads = net.params().into_iter().flat_map(|p| p.grad.as_slice());
            assert!(grads.into_iter().all(|&g| g == 0.0), "{specs:?}");
            let full = net.backward(&dy).unwrap();
            assert_eq!(dx.shape(), full.shape());
            for (i, (a, b)) in dx.as_slice().iter().zip(full.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{specs:?} at {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn infer_is_batch_invariant_bit_for_bit() {
        // Serving's "serial = served" rests on this: a row's output does
        // not depend on the rows batched with it.
        let cases = [
            (mnist_ae_one(1, 3), Shape::nchw(5, 1, 28, 28)),
            (mnist_ae_two(1, 3), Shape::nchw(5, 1, 28, 28)),
            (
                mnist_classifier(28, 1, 8, 16, 64, 10),
                Shape::nchw(5, 1, 28, 28),
            ),
        ];
        for (specs, shape) in cases {
            let net = Sequential::from_specs(&specs, 3).unwrap();
            let x = Tensor::from_fn(shape, |i| (i * 7919 % 211) as f32 / 211.0);
            let batch = net.infer(&x).unwrap();
            for r in 0..x.shape().dim(0) {
                let row = Tensor::stack(&[x.index_axis0(r).unwrap()]).unwrap();
                let alone = net.infer(&row).unwrap();
                let whole = batch.index_axis0(r).unwrap();
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&whole), bits(&alone), "{specs:?} row {r}");
            }
        }
    }

    #[test]
    fn describe_matches_paper_table_rows() {
        let rows = describe(&cifar_ae(3, 256));
        assert_eq!(rows[0], "Conv 3x3x256");
        assert_eq!(rows[1], ".sigmoid");
        assert_eq!(rows[4], "Conv 3x3x3");
    }
}
