use crate::layer::{Layer, Mode};
use crate::{NnError, Result};
use adv_tensor::Tensor;

/// The pointwise nonlinearities used across the reproduction.
///
/// MagNet's auto-encoders are sigmoid end-to-end (paper Tables II and V);
/// the victim classifiers use ReLU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// `1 / (1 + e^{−x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the *output* `y = apply(x)`.
    ///
    /// Using the output keeps the backward pass a single elementwise multiply
    /// over the cached forward result.
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }

    /// Stable lowercase name for serialization.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        }
    }
}

/// A parameter-free layer applying an [`Activation`] elementwise.
#[derive(Debug)]
pub struct ActivationLayer {
    activation: Activation,
    cache: Option<Tensor>,
}

impl ActivationLayer {
    /// Creates the layer.
    pub fn new(activation: Activation) -> Self {
        ActivationLayer {
            activation,
            cache: None,
        }
    }

    /// The wrapped activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }
}

impl Layer for ActivationLayer {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        let y = self.infer(input)?;
        self.cache = Some(y.clone());
        Ok(y)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let a = self.activation;
        Ok(input.map(|v| a.apply(v)))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let y = self.cache.as_ref().ok_or(NnError::NoForwardCache {
            layer: "activation",
        })?;
        let a = self.activation;
        Ok(grad_out.zip_map(y, |g, yv| g * a.derivative_from_output(yv))?)
    }

    fn layer_type(&self) -> &'static str {
        "activation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_tensor::Shape;

    fn t(data: &[f32]) -> Tensor {
        Tensor::from_vec(data.to_vec(), Shape::vector(data.len())).unwrap()
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut l = ActivationLayer::new(Activation::Relu);
        let y = l.forward(&t(&[-1.0, 0.0, 2.0]), Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_known_values() {
        let mut l = ActivationLayer::new(Activation::Sigmoid);
        let y = l.forward(&t(&[0.0]), Mode::Eval).unwrap();
        assert!((y.as_slice()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn tanh_is_odd() {
        let a = Activation::Tanh;
        assert!((a.apply(1.3) + a.apply(-1.3)).abs() < 1e-6);
    }

    #[test]
    fn backward_gates_gradient() {
        let mut l = ActivationLayer::new(Activation::Relu);
        let _ = l.forward(&t(&[-1.0, 2.0]), Mode::Train).unwrap();
        let dx = l.backward(&t(&[5.0, 5.0])).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        for act in [Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let x = t(&[0.3, -0.7, 1.5, -2.1]);
            let mut l = ActivationLayer::new(act);
            let _ = l.forward(&x, Mode::Train).unwrap();
            let dx = l.backward(&Tensor::ones(x.shape().clone())).unwrap();
            let eps = 1e-3f32;
            for i in 0..x.len() {
                let mut xp = x.clone();
                xp.as_mut_slice()[i] += eps;
                let mut xm = x.clone();
                xm.as_mut_slice()[i] -= eps;
                let fd =
                    (xp.map(|v| act.apply(v)).sum() - xm.map(|v| act.apply(v)).sum()) / (2.0 * eps);
                assert!(
                    (fd - dx.as_slice()[i]).abs() < 1e-2,
                    "{act:?} dx[{i}]: {fd} vs {}",
                    dx.as_slice()[i]
                );
            }
        }
    }

    /// Each activation's forward and backward pass over a whole batch
    /// equals, bit for bit and row for row, the pass over that row alone.
    #[test]
    fn activations_are_batch_invariant() {
        let shape = Shape::nchw(4, 3, 5, 5);
        let x = Tensor::from_fn(shape.clone(), |i| ((i * 7919 % 211) as f32 - 105.0) * 0.037);
        let dy = Tensor::from_fn(shape, |i| ((i * 104729 % 97) as f32 - 48.0) * 0.021);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for act in [Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let pass = |x: &Tensor, dy: &Tensor| {
                let mut l = ActivationLayer::new(act);
                let y = l.forward(x, Mode::Train).unwrap();
                vec![y, l.backward(dy).unwrap()]
            };
            let batch = pass(&x, &dy);
            for r in 0..x.shape().dim(0) {
                let row = |t: &Tensor| t.slice_axis0(r, r + 1).unwrap();
                for (i, (whole, alone)) in batch.iter().zip(pass(&row(&x), &row(&dy))).enumerate() {
                    assert_eq!(
                        bits(&row(whole)),
                        bits(&alone),
                        "{act:?} output {i}, row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut l = ActivationLayer::new(Activation::Sigmoid);
        assert!(matches!(
            l.backward(&t(&[1.0])),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Activation::Relu.name(), "relu");
        assert_eq!(Activation::Sigmoid.name(), "sigmoid");
        assert_eq!(Activation::Tanh.name(), "tanh");
    }
}
