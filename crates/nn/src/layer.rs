use crate::Result;
use adv_tensor::Tensor;
use std::fmt;

/// Execution mode: training (stochastic layers active) or evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training mode — dropout and other stochastic layers are active.
    Train,
    /// Evaluation mode — the network is deterministic.
    Eval,
}

/// A learnable parameter: its value and the gradient accumulated by the last
/// backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to `value` (zeroed by
    /// [`Param::zero_grad`], written by the owning layer's backward pass).
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zero gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` when the parameter holds no scalars.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable network layer.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. `forward(x)` computes the output and caches whatever the backward pass
///    needs (inputs, masks, pooling indices…),
/// 2. `backward(dy)` consumes the cache, accumulates parameter gradients into
///    [`Param::grad`], and returns `∂L/∂x` — the gradient with respect to the
///    layer *input*.
///
/// Training chains `backward`. Attacks need only `∂loss/∂image`, so they
/// chain [`backward_input`](Layer::backward_input) from the logits to the
/// pixels: the same input gradient, with no parameter gradients.
///
/// Layers additionally expose [`infer`](Layer::infer), a cache-free
/// evaluation-mode forward taking `&self`. This is the path the serving
/// engine uses: because it never touches the backward cache, one network can
/// run inference from many threads at once behind an `Arc`.
///
/// # Errors
///
/// `backward` and `backward_input` must return
/// [`crate::NnError::NoForwardCache`] when invoked before any `forward`
/// call.
pub trait Layer: fmt::Debug + Send + Sync {
    /// Computes the layer output for `input`, caching backward state.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Computes the layer output for `input` in evaluation mode without
    /// writing any backward state, allowing concurrent calls through `&self`.
    ///
    /// Must agree bit-for-bit with `forward(input, Mode::Eval)`.
    ///
    /// # Errors
    ///
    /// Returns the same shape errors as [`forward`](Layer::forward).
    fn infer(&self, input: &Tensor) -> Result<Tensor>;

    /// Back-propagates `grad_out = ∂L/∂output`; returns `∂L/∂input` and
    /// accumulates parameter gradients.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Back-propagates `grad_out` to the input only: returns the same
    /// `∂L/∂input` as [`backward`](Layer::backward), bit for bit, and leaves
    /// every [`Param::grad`] untouched. Layers with parameters override the
    /// default, which calls `backward`.
    fn backward_input(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.backward(grad_out)
    }

    /// Immutable views of the layer's learnable parameters (empty for
    /// parameter-free layers).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable views of the layer's learnable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Short layer-type name for diagnostics ("dense", "conv2d", …).
    fn layer_type(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_tensor::Shape;

    #[test]
    fn param_starts_with_zero_grad() {
        let p = Param::new(Tensor::ones(Shape::vector(3)));
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new(Tensor::ones(Shape::vector(2)));
        p.grad.fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }
}
