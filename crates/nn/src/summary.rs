//! Static shape inference and human-readable network summaries.
//!
//! [`infer_output_shape`] propagates a per-item input shape through a
//! [`LayerSpec`] list *without building the network*, catching architecture
//! mistakes (channel mismatches, indivisible pooling, flatten/dense size
//! disagreements) at configuration time. [`summarize`] renders a Keras-style
//! table with per-layer output shapes and parameter counts.

use crate::layers::Activation;
use crate::{LayerSpec, NnError, Result};

/// The per-item shape flowing between layers: either an image `[c, h, w]`
/// or a feature vector `[features]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemShape {
    /// Channels × height × width.
    Image {
        /// Channel count.
        c: usize,
        /// Height.
        h: usize,
        /// Width.
        w: usize,
    },
    /// A flat feature vector.
    Features(usize),
}

impl ItemShape {
    /// Total number of scalars.
    pub fn volume(&self) -> usize {
        match self {
            ItemShape::Image { c, h, w } => c * h * w,
            ItemShape::Features(n) => *n,
        }
    }
}

impl std::fmt::Display for ItemShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ItemShape::Image { c, h, w } => write!(f, "{c}x{h}x{w}"),
            ItemShape::Features(n) => write!(f, "{n}"),
        }
    }
}

/// Number of learnable parameters a layer spec will create.
pub fn parameter_count(spec: &LayerSpec) -> usize {
    match spec {
        LayerSpec::Dense { inputs, outputs } => inputs * outputs + outputs,
        LayerSpec::Conv2d(c) => c.out_channels * c.in_channels * c.kh * c.kw + c.out_channels,
        _ => 0,
    }
}

/// Propagates `input` through one layer spec.
///
/// # Errors
///
/// Returns [`NnError::InvalidArgument`] when the shape is incompatible with
/// the layer (wrong channel count, indivisible pooling, vector into a
/// convolution, dense size mismatch…).
pub fn layer_output_shape(spec: &LayerSpec, input: &ItemShape) -> Result<ItemShape> {
    let err = |msg: String| Err(NnError::InvalidArgument(msg));
    match spec {
        LayerSpec::Dense { inputs, outputs } => match input {
            ItemShape::Features(n) if n == inputs => Ok(ItemShape::Features(*outputs)),
            ItemShape::Features(n) => err(format!("dense expects {inputs} features, got {n}")),
            img => err(format!("dense expects a feature vector, got image {img}")),
        },
        LayerSpec::Conv2d(c) => match input {
            ItemShape::Image { c: ic, h, w } if *ic == c.in_channels => {
                let (ho, wo) = c
                    .output_hw(*h, *w)
                    .map_err(|e| NnError::InvalidArgument(format!("conv on {h}x{w}: {e}")))?;
                Ok(ItemShape::Image {
                    c: c.out_channels,
                    h: ho,
                    w: wo,
                })
            }
            ItemShape::Image { c: ic, .. } => {
                err(format!("conv expects {} channels, got {ic}", c.in_channels))
            }
            v => err(format!("conv expects an image, got vector {v}")),
        },
        LayerSpec::Activation(_) | LayerSpec::Dropout { .. } => Ok(input.clone()),
        LayerSpec::MaxPool2d { k } | LayerSpec::AvgPool2d { k } => match input {
            ItemShape::Image { c, h, w } => {
                if *k == 0 || h < k || w < k {
                    return err(format!("pool window {k} invalid for {h}x{w}"));
                }
                Ok(ItemShape::Image {
                    c: *c,
                    h: h / k,
                    w: w / k,
                })
            }
            v => err(format!("pooling expects an image, got vector {v}")),
        },
        LayerSpec::Upsample2d { factor } => match input {
            ItemShape::Image { c, h, w } => {
                if *factor == 0 {
                    return err("upsample factor must be > 0".into());
                }
                Ok(ItemShape::Image {
                    c: *c,
                    h: h * factor,
                    w: w * factor,
                })
            }
            v => err(format!("upsample expects an image, got vector {v}")),
        },
        LayerSpec::Flatten => Ok(ItemShape::Features(input.volume())),
        LayerSpec::Reshape { item_shape } => {
            let target: usize = item_shape.iter().product();
            if target != input.volume() {
                return err(format!(
                    "reshape to {item_shape:?} ({target}) from volume {}",
                    input.volume()
                ));
            }
            match item_shape.as_slice() {
                [c, h, w] => Ok(ItemShape::Image {
                    c: *c,
                    h: *h,
                    w: *w,
                }),
                [n] => Ok(ItemShape::Features(*n)),
                other => err(format!("unsupported reshape target {other:?}")),
            }
        }
    }
}

/// Propagates `input` through a whole architecture, returning the output
/// shape.
///
/// # Errors
///
/// Returns the first layer's incompatibility, naming its index.
pub fn infer_output_shape(specs: &[LayerSpec], input: ItemShape) -> Result<ItemShape> {
    let mut shape = input;
    for (i, spec) in specs.iter().enumerate() {
        shape = layer_output_shape(spec, &shape)
            .map_err(|e| NnError::InvalidArgument(format!("layer {i}: {e}")))?;
    }
    Ok(shape)
}

/// Renders a Keras-style summary table with per-layer output shapes and
/// parameter counts.
///
/// # Errors
///
/// Propagates shape-inference failures.
pub fn summarize(specs: &[LayerSpec], input: ItemShape) -> Result<String> {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>14} {:>10}\n",
        "layer", "output", "params"
    ));
    out.push_str(&"-".repeat(50));
    out.push('\n');
    out.push_str(&format!(
        "{:<24} {:>14} {:>10}\n",
        "(input)",
        input.to_string(),
        0
    ));
    let mut shape = input;
    let mut total = 0usize;
    for spec in specs {
        shape = layer_output_shape(spec, &shape)?;
        let params = parameter_count(spec);
        total += params;
        let name = match spec {
            LayerSpec::Dense { .. } => "Dense".to_string(),
            LayerSpec::Conv2d(c) => format!("Conv2d {}x{}", c.kh, c.kw),
            LayerSpec::Activation(a) => format!(
                "Activation({})",
                match a {
                    Activation::Relu => "relu",
                    Activation::Sigmoid => "sigmoid",
                    Activation::Tanh => "tanh",
                }
            ),
            LayerSpec::MaxPool2d { k } => format!("MaxPool2d {k}x{k}"),
            LayerSpec::AvgPool2d { k } => format!("AvgPool2d {k}x{k}"),
            LayerSpec::Upsample2d { factor } => format!("Upsample2d x{factor}"),
            LayerSpec::Flatten => "Flatten".to_string(),
            LayerSpec::Reshape { .. } => "Reshape".to_string(),
            LayerSpec::Dropout { p } => format!("Dropout {p}"),
        };
        out.push_str(&format!(
            "{:<24} {:>14} {:>10}\n",
            name,
            shape.to_string(),
            params
        ));
    }
    out.push_str(&"-".repeat(50));
    out.push('\n');
    out.push_str(&format!("total parameters: {total}\n"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_tensor::ops::Conv2dSpec;

    fn cnn() -> Vec<LayerSpec> {
        vec![
            LayerSpec::Conv2d(Conv2dSpec::same(1, 8, 3)),
            LayerSpec::Activation(Activation::Relu),
            LayerSpec::MaxPool2d { k: 2 },
            LayerSpec::Flatten,
            LayerSpec::Dense {
                inputs: 8 * 14 * 14,
                outputs: 10,
            },
        ]
    }

    #[test]
    fn infers_cnn_shapes() {
        let out = infer_output_shape(&cnn(), ItemShape::Image { c: 1, h: 28, w: 28 }).unwrap();
        assert_eq!(out, ItemShape::Features(10));
    }

    #[test]
    fn shape_inference_matches_execution() {
        use crate::{Mode, Sequential};
        use adv_tensor::{Shape, Tensor};
        let specs = cnn();
        let inferred = infer_output_shape(&specs, ItemShape::Image { c: 1, h: 28, w: 28 }).unwrap();
        let mut net = Sequential::from_specs(&specs, 0).unwrap();
        let y = net
            .forward(&Tensor::zeros(Shape::nchw(2, 1, 28, 28)), Mode::Eval)
            .unwrap();
        assert_eq!(inferred.volume(), y.shape().volume() / 2);
    }

    #[test]
    fn catches_channel_mismatch() {
        let specs = [LayerSpec::Conv2d(Conv2dSpec::same(3, 8, 3))];
        let err = infer_output_shape(&specs, ItemShape::Image { c: 1, h: 8, w: 8 }).unwrap_err();
        assert!(err.to_string().contains("layer 0"));
        assert!(err.to_string().contains("3 channels"));
    }

    #[test]
    fn catches_dense_size_mismatch() {
        let specs = [
            LayerSpec::Flatten,
            LayerSpec::Dense {
                inputs: 100,
                outputs: 10,
            },
        ];
        assert!(infer_output_shape(&specs, ItemShape::Image { c: 1, h: 8, w: 8 }).is_err());
    }

    #[test]
    fn catches_vector_into_conv() {
        let specs = [LayerSpec::Conv2d(Conv2dSpec::same(1, 2, 3))];
        assert!(infer_output_shape(&specs, ItemShape::Features(64)).is_err());
    }

    #[test]
    fn reshape_roundtrip() {
        let specs = [
            LayerSpec::Flatten,
            LayerSpec::Reshape {
                item_shape: vec![2, 4, 4],
            },
        ];
        let out = infer_output_shape(&specs, ItemShape::Image { c: 2, h: 4, w: 4 }).unwrap();
        assert_eq!(out, ItemShape::Image { c: 2, h: 4, w: 4 });
    }

    #[test]
    fn parameter_counts_match_built_network() {
        use crate::Sequential;
        let specs = cnn();
        let net = Sequential::from_specs(&specs, 0).unwrap();
        let counted: usize = specs.iter().map(parameter_count).sum();
        assert_eq!(counted, net.num_parameters());
    }

    #[test]
    fn summary_renders_table() {
        let s = summarize(&cnn(), ItemShape::Image { c: 1, h: 28, w: 28 }).unwrap();
        assert!(s.contains("Conv2d 3x3"));
        assert!(s.contains("total parameters:"));
        assert!(s.contains("8x14x14"));
    }

    #[test]
    fn magnet_architectures_infer_cleanly() {
        // The auto-encoders must map images back to their own shape.
        use adv_tensor::ops::Conv2dSpec as C;
        let ae = vec![
            LayerSpec::Conv2d(C::same(1, 3, 3)),
            LayerSpec::Activation(Activation::Sigmoid),
            LayerSpec::AvgPool2d { k: 2 },
            LayerSpec::Conv2d(C::same(3, 3, 3)),
            LayerSpec::Activation(Activation::Sigmoid),
            LayerSpec::Upsample2d { factor: 2 },
            LayerSpec::Conv2d(C::same(3, 1, 3)),
            LayerSpec::Activation(Activation::Sigmoid),
        ];
        let input = ItemShape::Image { c: 1, h: 28, w: 28 };
        assert_eq!(infer_output_shape(&ae, input.clone()).unwrap(), input);
    }
}
