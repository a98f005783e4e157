use crate::layer::{Layer, Mode, Param};
use crate::{NnError, Result};
use adv_tensor::ops::{matmul, matmul_at_b};
use adv_tensor::{init, Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully connected layer: `y = x·W + b` with `x: [batch, in]`,
/// `W: [in, out]`, `b: [out]`.
///
/// The input gradient `dy·Wᵀ` is a [`matmul()`] against a transposed copy of
/// `W`, so its inner loop runs along rows. The copy is made on the first
/// backward pass and dropped by [`Layer::params_mut`], the only way to
/// change `W`.
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    inputs: usize,
    outputs: usize,
    cache: Option<Tensor>,
    weight_t: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Glorot-uniform weights drawn from `seed`.
    pub fn new(inputs: usize, outputs: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let weight =
            init::glorot_uniform(Shape::matrix(inputs, outputs), inputs, outputs, &mut rng);
        Dense {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(Shape::vector(outputs))),
            inputs,
            outputs,
            cache: None,
            weight_t: None,
        }
    }

    /// Input feature count.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output feature count.
    pub fn outputs(&self) -> usize {
        self.outputs
    }
}

impl Dense {
    fn affine(&self, input: &Tensor) -> Result<Tensor> {
        let mut y = matmul(input, &self.weight.value)?;
        let b = self.bias.value.as_slice();
        for row in y.as_mut_slice().chunks_exact_mut(self.outputs) {
            for (v, &bi) in row.iter_mut().zip(b.iter()) {
                *v += bi;
            }
        }
        Ok(y)
    }

    /// `dx = dy·Wᵀ`: each element sums over the outputs in ascending order
    /// from +0, as a dot product with a row of `W` does. `matmul` skips the
    /// exact zeros of `dy`, which add ±0 and change no such sum for finite
    /// weights.
    fn input_grad(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let wt = match &mut self.weight_t {
            Some(wt) => wt,
            empty => empty.insert(self.weight.value.transpose()?),
        };
        Ok(matmul(grad_out, wt)?)
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        let y = self.affine(input)?;
        self.cache = Some(input.clone());
        Ok(y)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        self.affine(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cache
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "dense" })?;
        // dW = xᵀ·dy
        let dw = matmul_at_b(x, grad_out)?;
        self.weight.grad.add_assign(&dw)?;
        // db = column sums of dy
        for row in grad_out.as_slice().chunks_exact(self.outputs) {
            for (g, &v) in self.bias.grad.as_mut_slice().iter_mut().zip(row.iter()) {
                *g += v;
            }
        }
        self.input_grad(grad_out)
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        if self.cache.is_none() {
            return Err(NnError::NoForwardCache { layer: "dense" });
        }
        self.input_grad(grad_out)
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.weight_t = None;
        vec![&mut self.weight, &mut self.bias]
    }

    fn layer_type(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_applies_affine_map() {
        let mut layer = Dense::new(2, 2, 0);
        // Overwrite weights with a known matrix.
        layer.params_mut()[0].value =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(2, 2)).unwrap();
        layer.params_mut()[1].value = Tensor::from_vec(vec![0.5, -0.5], Shape::vector(2)).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], Shape::matrix(1, 2)).unwrap();
        let y = layer.forward(&x, Mode::Eval).unwrap();
        // [1,1]·[[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut layer = Dense::new(2, 2, 0);
        let dy = Tensor::zeros(Shape::matrix(1, 2));
        assert!(matches!(
            layer.backward(&dy),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn backward_input_before_forward_errors() {
        let mut layer = Dense::new(2, 2, 0);
        let dy = Tensor::zeros(Shape::matrix(1, 2));
        assert!(matches!(
            layer.backward_input(&dy),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn backward_input_returns_backward_dx_and_writes_no_grad() {
        let mut layer = Dense::new(11, 9, 3);
        let x = Tensor::from_fn(Shape::matrix(2, 11), |i| (i as f32 - 9.0) * 0.1);
        let y = layer.forward(&x, Mode::Train).unwrap();
        let dy = Tensor::from_fn(y.shape().clone(), |i| ((i % 5) as f32 - 2.0) * 0.3);
        let dx = layer.backward_input(&dy).unwrap();
        assert!(layer
            .params()
            .iter()
            .all(|p| p.grad.map(f32::abs).sum() == 0.0));
        assert_eq!(dx, layer.backward(&dy).unwrap());
    }

    /// The cached `Wᵀ` follows `W`: after a weight change through
    /// `params_mut`, the next dx is `dy·Wᵀ` of the new weights, bit for bit.
    #[test]
    fn input_gradient_follows_weights_changed_through_params_mut() {
        let mut layer = Dense::new(11, 9, 3);
        let x = Tensor::from_fn(Shape::matrix(2, 11), |i| (i as f32 - 9.0) * 0.1);
        let y = layer.forward(&x, Mode::Train).unwrap();
        let dy = Tensor::from_fn(y.shape().clone(), |i| ((i % 5) as f32 - 2.0) * 0.3);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for step in 0..3 {
            let dx = layer.backward_input(&dy).unwrap();
            let w = &layer.params()[0].value;
            let expected = adv_tensor::ops::matmul_a_bt(&dy, w).unwrap();
            assert_eq!(bits(&dx), bits(&expected), "step {step}");
            for (i, v) in layer.params_mut()[0]
                .value
                .as_mut_slice()
                .iter_mut()
                .enumerate()
            {
                *v = *v * -1.5 + (i % 7) as f32 * 0.01 * step as f32;
            }
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut layer = Dense::new(3, 2, 7);
        let x =
            Tensor::from_vec(vec![0.2, -0.4, 0.9, 1.0, 0.0, -1.0], Shape::matrix(2, 3)).unwrap();
        let y = layer.forward(&x, Mode::Train).unwrap();
        let dy = Tensor::ones(y.shape().clone());
        let dx = layer.backward(&dy).unwrap();

        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let mut probe = Dense::new(3, 2, 7);
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
    fn weight_gradient_accumulates() {
        let mut layer = Dense::new(2, 1, 1);
        let x = Tensor::from_vec(vec![1.0, 2.0], Shape::matrix(1, 2)).unwrap();
        let _ = layer.forward(&x, Mode::Train).unwrap();
        let dy = Tensor::ones(Shape::matrix(1, 1));
        let _ = layer.backward(&dy).unwrap();
        let _ = layer.forward(&x, Mode::Train).unwrap();
        let _ = layer.backward(&dy).unwrap();
        // dW = x for each pass; two passes accumulate.
        assert_eq!(layer.params()[0].grad.as_slice(), &[2.0, 4.0]);
        assert_eq!(layer.params()[1].grad.as_slice(), &[2.0]);
    }

    #[test]
    fn seeded_construction_reproducible() {
        let a = Dense::new(4, 4, 9);
        let b = Dense::new(4, 4, 9);
        assert_eq!(a.params()[0].value, b.params()[0].value);
    }
}
