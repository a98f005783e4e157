use crate::layer::{Layer, Mode};
use crate::{NnError, Result};
use adv_tensor::ops::{
    avg_pool2d, avg_pool2d_backward, max_pool2d, max_pool2d_backward, max_pool2d_with_argmax,
    Pool2dSpec,
};
use adv_tensor::{Shape, Tensor};

/// Max pooling over NCHW batches (used by the victim classifiers).
///
/// `forward` caches each output's window-local argmax for `backward`;
/// `infer` records none.
#[derive(Debug)]
pub struct MaxPool2d {
    spec: Pool2dSpec,
    cache: Option<(Shape, Vec<u8>)>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    pub fn new(spec: Pool2dSpec) -> Self {
        MaxPool2d { spec, cache: None }
    }

    /// The pooling geometry.
    pub fn spec(&self) -> &Pool2dSpec {
        &self.spec
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        let (y, idx) = max_pool2d_with_argmax(input, &self.spec)?;
        self.cache = Some((input.shape().clone(), idx));
        Ok(y)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(max_pool2d(input, &self.spec)?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (shape, idx) = self
            .cache
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "maxpool2d" })?;
        Ok(max_pool2d_backward(shape, grad_out, idx, &self.spec)?)
    }

    fn layer_type(&self) -> &'static str {
        "maxpool2d"
    }
}

/// Average pooling over NCHW batches (MagNet's MNIST auto-encoder encoder).
#[derive(Debug)]
pub struct AvgPool2d {
    spec: Pool2dSpec,
    cache: Option<Shape>,
}

impl AvgPool2d {
    /// Creates an average-pooling layer.
    pub fn new(spec: Pool2dSpec) -> Self {
        AvgPool2d { spec, cache: None }
    }

    /// The pooling geometry.
    pub fn spec(&self) -> &Pool2dSpec {
        &self.spec
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        let y = self.infer(input)?;
        self.cache = Some(input.shape().clone());
        Ok(y)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(avg_pool2d(input, &self.spec)?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let shape = self
            .cache
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "avgpool2d" })?;
        Ok(avg_pool2d_backward(shape, grad_out, &self.spec)?)
    }

    fn layer_type(&self) -> &'static str {
        "avgpool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_forward_backward_roundtrip() {
        let mut l = MaxPool2d::new(Pool2dSpec::square(2));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::nchw(1, 1, 2, 2)).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[4.0]);
        let dx = l.backward(&Tensor::ones(Shape::nchw(1, 1, 1, 1))).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn avg_pool_forward_backward_roundtrip() {
        let mut l = AvgPool2d::new(Pool2dSpec::square(2));
        let x = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], Shape::nchw(1, 1, 2, 2)).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[5.0]);
        let dx = l.backward(&Tensor::ones(Shape::nchw(1, 1, 1, 1))).unwrap();
        assert_eq!(dx.as_slice(), &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut l = MaxPool2d::new(Pool2dSpec::square(2));
        assert!(matches!(
            l.backward(&Tensor::zeros(Shape::nchw(1, 1, 1, 1))),
            Err(NnError::NoForwardCache { .. })
        ));
        let mut l = AvgPool2d::new(Pool2dSpec::square(2));
        assert!(matches!(
            l.backward(&Tensor::zeros(Shape::nchw(1, 1, 1, 1))),
            Err(NnError::NoForwardCache { .. })
        ));
    }
}
