use crate::layer::{Layer, Mode, Param};
use crate::layers::{
    Activation, ActivationLayer, AvgPool2d, Conv2d, Dense, Dropout, Flatten, MaxPool2d, Reshape,
    Upsample2d,
};
use crate::{NnError, Result};
use adv_tensor::ops::{Conv2dSpec, Pool2dSpec};
use adv_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A declarative layer description.
///
/// Networks are built from a `Vec<LayerSpec>` plus a seed, which makes
/// architectures serializable (see [`crate::serialize`]) and reconstruction
/// deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Fully connected layer.
    Dense {
        /// Input feature count.
        inputs: usize,
        /// Output feature count.
        outputs: usize,
    },
    /// 2-D convolution.
    Conv2d(Conv2dSpec),
    /// Pointwise activation.
    Activation(Activation),
    /// Non-overlapping square max pooling.
    MaxPool2d {
        /// Window/stride size.
        k: usize,
    },
    /// Non-overlapping square average pooling.
    AvgPool2d {
        /// Window/stride size.
        k: usize,
    },
    /// Nearest-neighbour upsampling.
    Upsample2d {
        /// Integer scale factor.
        factor: usize,
    },
    /// Flatten NCHW to `[batch, features]`.
    Flatten,
    /// Reshape rows to a fixed per-item shape.
    Reshape {
        /// Target per-item shape.
        item_shape: Vec<usize>,
    },
    /// Inverted dropout.
    Dropout {
        /// Drop probability.
        p: f32,
    },
}

impl LayerSpec {
    fn build(&self, seed: u64) -> Result<Box<dyn Layer>> {
        Ok(match self {
            LayerSpec::Dense { inputs, outputs } => Box::new(Dense::new(*inputs, *outputs, seed)),
            LayerSpec::Conv2d(spec) => Box::new(Conv2d::new(*spec, seed)),
            LayerSpec::Activation(a) => Box::new(ActivationLayer::new(*a)),
            LayerSpec::MaxPool2d { k } => Box::new(MaxPool2d::new(Pool2dSpec::square(*k))),
            LayerSpec::AvgPool2d { k } => Box::new(AvgPool2d::new(Pool2dSpec::square(*k))),
            LayerSpec::Upsample2d { factor } => Box::new(Upsample2d::new(*factor)),
            LayerSpec::Flatten => Box::new(Flatten::new()),
            LayerSpec::Reshape { item_shape } => Box::new(Reshape::new(item_shape.clone())),
            LayerSpec::Dropout { p } => Box::new(Dropout::new(*p, seed)?),
        })
    }
}

/// A model that exposes its output and the gradient of a scalar loss with
/// respect to its *input* — the two capabilities every gradient-based attack
/// needs. The usage protocol is `forward` then `backward_input` with the
/// upstream gradient of whatever loss the caller assembled from the output.
pub trait Differentiable: Send {
    /// Runs the model in evaluation mode and returns its output
    /// (logits for classifiers, reconstructions for auto-encoders).
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape does not match the model.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Back-propagates `grad_output` through the most recent [`forward`]
    /// call, returning `∂loss/∂input`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] when no forward pass preceded.
    ///
    /// [`forward`]: Differentiable::forward
    fn backward_input(&mut self, grad_output: &Tensor) -> Result<Tensor>;
}

/// A feed-forward stack of layers built from [`LayerSpec`]s.
///
/// # Example
///
/// ```
/// use adv_nn::{Activation, LayerSpec, Mode, Sequential};
/// use adv_tensor::{Shape, Tensor};
///
/// let mut net = Sequential::from_specs(
///     &[
///         LayerSpec::Dense { inputs: 2, outputs: 4 },
///         LayerSpec::Activation(Activation::Tanh),
///         LayerSpec::Dense { inputs: 4, outputs: 2 },
///     ],
///     7,
/// )?;
/// let y = net.forward(&Tensor::zeros(Shape::matrix(1, 2)), Mode::Eval)?;
/// assert_eq!(y.shape().dims(), &[1, 2]);
/// # Ok::<(), adv_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct Sequential {
    specs: Vec<LayerSpec>,
    layers: Vec<Box<dyn Layer>>,
    seed: u64,
}

impl Sequential {
    /// Builds a network from layer specs; layer `i` is seeded with
    /// `seed ⊕ hash(i)` so two networks with the same specs and seed are
    /// identical.
    ///
    /// # Errors
    ///
    /// Returns construction errors from the individual layers (e.g. invalid
    /// dropout probability).
    pub fn from_specs(specs: &[LayerSpec], seed: u64) -> Result<Self> {
        let layers = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                s.build(seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Sequential {
            specs: specs.to_vec(),
            layers,
            seed,
        })
    }

    /// The architecture this network was built from.
    pub fn specs(&self) -> &[LayerSpec] {
        &self.specs
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Runs the full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from any layer.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Runs a cache-free evaluation-mode forward pass from `&self`.
    ///
    /// Agrees bit-for-bit with `forward(input, Mode::Eval)` but never writes
    /// backward caches, so a `Sequential` behind an `Arc` can serve
    /// inference from many threads concurrently (the serving engine's hot
    /// path).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from any layer.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x)?;
        }
        Ok(x)
    }

    /// Back-propagates `grad_output` through all layers (accumulating
    /// parameter gradients) and returns the gradient with respect to the
    /// network input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] when called before `forward`.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Flat immutable parameter list across all layers.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Flat mutable parameter list across all layers.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Predicted class per batch row (argmax of the output logits), in
    /// evaluation mode.
    ///
    /// # Errors
    ///
    /// Propagates forward errors; the output must be rank 2.
    pub fn predict(&mut self, input: &Tensor) -> Result<Vec<usize>> {
        let logits = self.forward(input, Mode::Eval)?;
        logits.argmax_rows().map_err(NnError::Tensor)
    }
}

impl Clone for Sequential {
    /// Rebuilds the network from its specs and copies the parameter values.
    /// Forward/backward caches are not cloned.
    fn clone(&self) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "Clone cannot return Result; from_specs re-validates specs that already built `self`, so this expect is provably unreachable (pinned by clone tests over every layer kind)."
        )]
        let mut net = Sequential::from_specs(&self.specs, self.seed)
            .expect("specs were validated when self was constructed");
        for (dst, src) in net.params_mut().into_iter().zip(self.params()) {
            dst.value = src.value.clone();
        }
        net
    }
}

impl Differentiable for Sequential {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        Sequential::forward(self, input, Mode::Eval)
    }

    /// Chains [`Layer::backward_input`]: the input gradient of
    /// [`Sequential::backward`], bit for bit, with no parameter gradients.
    fn backward_input(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_input(&g)?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_tensor::Shape;

    fn mlp() -> Sequential {
        Sequential::from_specs(
            &[
                LayerSpec::Dense {
                    inputs: 3,
                    outputs: 5,
                },
                LayerSpec::Activation(Activation::Tanh),
                LayerSpec::Dense {
                    inputs: 5,
                    outputs: 2,
                },
            ],
            13,
        )
        .unwrap()
    }

    #[test]
    fn forward_produces_expected_shape() {
        let mut net = mlp();
        let y = net
            .forward(&Tensor::zeros(Shape::matrix(4, 3)), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape().dims(), &[4, 2]);
    }

    #[test]
    fn construction_is_deterministic() {
        let a = mlp();
        let b = mlp();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.value, pb.value);
        }
    }

    #[test]
    fn different_layers_get_different_seeds() {
        let net = Sequential::from_specs(
            &[
                LayerSpec::Dense {
                    inputs: 4,
                    outputs: 4,
                },
                LayerSpec::Dense {
                    inputs: 4,
                    outputs: 4,
                },
            ],
            1,
        )
        .unwrap();
        let ps = net.params();
        assert_ne!(ps[0].value, ps[2].value);
    }

    #[test]
    fn end_to_end_input_gradient_matches_finite_differences() {
        let mut net = mlp();
        let x = Tensor::from_vec(vec![0.2, -0.4, 0.7], Shape::matrix(1, 3)).unwrap();
        let y = net.forward(&x, Mode::Train).unwrap();
        let dy = Tensor::ones(y.shape().clone());
        let dx = net.backward(&dy).unwrap();

        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let mut probe = mlp();
            let fp = probe.forward(&xp, Mode::Train).unwrap().sum();
            let fm = probe.forward(&xm, Mode::Train).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[i]).abs() < 1e-2,
                "dx[{i}]: {fd} vs {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn param_counting() {
        let net = mlp();
        // 3*5 + 5 + 5*2 + 2 = 32
        assert_eq!(net.num_parameters(), 32);
    }

    #[test]
    fn predict_returns_argmax() {
        let mut net = mlp();
        let preds = net.predict(&Tensor::zeros(Shape::matrix(3, 3))).unwrap();
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn infer_matches_eval_forward_bitwise() {
        let mut net = mlp();
        let x = Tensor::from_fn(Shape::matrix(5, 3), |i| (i as f32 - 7.0) * 0.3);
        let eager = net.forward(&x, Mode::Eval).unwrap();
        let shared = net.infer(&x).unwrap();
        assert_eq!(eager, shared);
        assert_eq!(net.predict(&x).unwrap(), shared.argmax_rows().unwrap());
    }

    #[test]
    fn infer_runs_concurrently_from_shared_reference() {
        let net = std::sync::Arc::new(mlp());
        let x = Tensor::from_fn(Shape::matrix(2, 3), |i| i as f32 * 0.1);
        let expected = net.infer(&x).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let net = net.clone();
                let x = x.clone();
                std::thread::spawn(move || net.infer(&x).unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
    }

    #[test]
    fn differentiable_trait_object_usable() {
        let mut net = mlp();
        let model: &mut dyn Differentiable = &mut net;
        let x = Tensor::zeros(Shape::matrix(1, 3));
        let y = model.forward(&x).unwrap();
        let dx = model
            .backward_input(&Tensor::ones(y.shape().clone()))
            .unwrap();
        assert_eq!(dx.shape().dims(), &[1, 3]);
    }
}
