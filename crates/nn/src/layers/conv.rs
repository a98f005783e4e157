use crate::layer::{Layer, Mode, Param};
use crate::{NnError, Result};
use adv_tensor::ops::{conv2d, conv2d_backward, conv2d_backward_input, Conv2dSpec};
use adv_tensor::{init, Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 2-D convolution layer over NCHW batches.
///
/// Weights are `[out_channels, in_channels, kh, kw]`, initialized
/// Glorot-uniform with fan-in `c·kh·kw` and fan-out `oc·kh·kw` — suitable for
/// the sigmoid auto-encoders MagNet uses as well as the ReLU classifiers.
#[derive(Debug)]
pub struct Conv2d {
    spec: Conv2dSpec,
    weight: Param,
    bias: Param,
    cache: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer from a geometry spec, seeded by `seed`.
    pub fn new(spec: Conv2dSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = spec.in_channels * spec.kh * spec.kw;
        let fan_out = spec.out_channels * spec.kh * spec.kw;
        let weight = init::glorot_uniform(
            Shape::new(vec![spec.out_channels, spec.in_channels, spec.kh, spec.kw]),
            fan_in,
            fan_out,
            &mut rng,
        );
        Conv2d {
            spec,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(Shape::vector(spec.out_channels))),
            cache: None,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        let y = self.infer(input)?;
        self.cache = Some(input.clone());
        Ok(y)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        Ok(conv2d(
            input,
            &self.weight.value,
            &self.bias.value,
            &self.spec,
        )?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cache
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "conv2d" })?;
        let (dx, dw, db) = conv2d_backward(x, &self.weight.value, grad_out, &self.spec)?;
        self.weight.grad.add_assign(&dw)?;
        self.bias.grad.add_assign(&db)?;
        Ok(dx)
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cache
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "conv2d" })?;
        // `forward` accepted `x`, so it is `[n, c, h, w]`.
        let d = x.shape().dims();
        Ok(conv2d_backward_input(
            &self.weight.value,
            grad_out,
            d[0],
            d[2],
            d[3],
            &self.spec,
        )?)
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn layer_type(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_same_padding() {
        let mut layer = Conv2d::new(Conv2dSpec::same(1, 4, 3), 0);
        let x = Tensor::zeros(Shape::nchw(2, 1, 8, 8));
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape().dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut layer = Conv2d::new(Conv2dSpec::same(1, 1, 3), 0);
        let dy = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        assert!(matches!(
            layer.backward(&dy),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn backward_input_before_forward_errors() {
        let mut layer = Conv2d::new(Conv2dSpec::same(1, 1, 3), 0);
        let dy = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        assert!(matches!(
            layer.backward_input(&dy),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn backward_input_returns_backward_dx_and_writes_no_grad() {
        let mut layer = Conv2d::new(Conv2dSpec::same(2, 3, 3), 4);
        let x = Tensor::from_fn(Shape::nchw(2, 2, 5, 5), |i| ((i % 7) as f32 - 3.0) * 0.2);
        let y = layer.forward(&x, Mode::Train).unwrap();
        let dy = Tensor::from_fn(y.shape().clone(), |i| ((i % 5) as f32 - 2.0) * 0.3);
        let dx = layer.backward_input(&dy).unwrap();
        assert!(layer
            .params()
            .iter()
            .all(|p| p.grad.map(f32::abs).sum() == 0.0));
        assert_eq!(dx, layer.backward(&dy).unwrap());
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let spec = Conv2dSpec::same(1, 2, 3);
        let mut layer = Conv2d::new(spec, 11);
        let x = Tensor::from_fn(Shape::nchw(1, 1, 4, 4), |i| ((i % 7) as f32 - 3.0) * 0.2);
        let y = layer.forward(&x, Mode::Train).unwrap();
        let dy = Tensor::ones(y.shape().clone());
        let dx = layer.backward(&dy).unwrap();

        let eps = 1e-3f32;
        for i in [0usize, 3, 7, 12, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let mut probe = Conv2d::new(spec, 11);
            let fp = probe.forward(&xp, Mode::Train).unwrap().sum();
            let fm = probe.forward(&xm, Mode::Train).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[i]).abs() < 2e-2,
                "dx[{i}]: {fd} vs {}",
                dx.as_slice()[i]
            );
        }
    }
}
