//! First-order optimizers.
//!
//! Optimizers operate on the flat parameter list a [`Sequential`] network
//! exposes; per-parameter state (momentum / moment estimates) is kept by
//! index, so a given optimizer instance must stay paired with one network.
//!
//! [`Sequential`]: crate::Sequential

use crate::layer::Param;
use crate::{NnError, Result};
use adv_store::codec::{Reader, Writer};
use adv_tensor::Tensor;

/// A gradient-based parameter update rule.
pub trait Optimizer {
    /// Applies one update step to `params` using their accumulated `grad`s,
    /// then zeroes the gradients.
    ///
    /// # Errors
    ///
    /// Returns an error when the parameter count changes between calls.
    fn step(&mut self, params: &mut [&mut Param]) -> Result<()>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Serializes the optimizer's accumulated state (momentum buffers,
    /// moment estimates, step counts — everything `step` evolves) so a
    /// training run can be checkpointed and resumed bit-identically. The
    /// *configuration* (learning rate, betas) is not included: it is the
    /// caller's to reconstruct.
    ///
    /// Stateless optimizers may return an empty vector (the default).
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`Optimizer::state_bytes`] on an
    /// identically-configured optimizer paired with the same architecture.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] when the bytes do not describe
    /// this optimizer's state.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(NnError::Serialization(
                "optimizer does not carry serializable state".into(),
            ))
        }
    }
}

/// Encodes a list of state tensors as `count u32 | tensors…`.
fn put_tensors(w: &mut Writer, tensors: &[Tensor]) {
    w.u32(tensors.len() as u32);
    for t in tensors {
        crate::serialize::put_tensor(w, t);
    }
}

/// Decodes a tensor list written by [`put_tensors`].
fn get_tensors(r: &mut Reader<'_>) -> Result<Vec<Tensor>> {
    let n = r.u32()?;
    if n > 100_000 {
        return Err(r.fail("at most 100000 state tensors").into());
    }
    (0..n).map(|_| crate::serialize::get_tensor(r)).collect()
}

const SGD_STATE_TAG: u8 = 1;
const ADAM_STATE_TAG: u8 = 2;

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates SGD with the given learning rate and momentum coefficient
    /// (`0.0` for plain SGD).
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) -> Result<()> {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().clone()))
                .collect();
        }
        if self.velocity.len() != params.len() {
            return Err(NnError::InvalidArgument(format!(
                "optimizer saw {} params, previously {}",
                params.len(),
                self.velocity.len()
            )));
        }
        for (p, v) in params.iter_mut().zip(self.velocity.iter_mut()) {
            v.scale_assign(self.momentum);
            v.add_scaled_assign(&p.grad, 1.0)?;
            p.value.add_scaled_assign(v, -self.lr)?;
            p.zero_grad();
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(SGD_STATE_TAG);
        put_tensors(&mut w, &self.velocity);
        w.into_vec()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = Reader::new(bytes);
        r.magic(&[SGD_STATE_TAG], "the SGD state tag")?;
        let velocity = get_tensors(&mut r)?;
        r.finish()?;
        self.velocity = velocity;
        Ok(())
    }
}

/// Adam (Kingma & Ba) with bias-corrected moment estimates.
///
/// The attack literature's reference implementations (C&W, EAD) optimize
/// with Adam; the same hyperparameter defaults are used here.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with custom coefficients.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adam with the standard defaults `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn with_defaults(lr: f32) -> Self {
        Self::new(lr, 0.9, 0.999, 1e-8)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) -> Result<()> {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().clone()))
                .collect();
            self.v = self.m.clone();
        }
        if self.m.len() != params.len() {
            return Err(NnError::InvalidArgument(format!(
                "optimizer saw {} params, previously {}",
                params.len(),
                self.m.len()
            )));
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params
            .iter_mut()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            let g = p.grad.as_slice();
            let mv = m.as_mut_slice();
            let vv = v.as_mut_slice();
            let pv = p.value.as_mut_slice();
            for i in 0..g.len() {
                mv[i] = self.beta1 * mv[i] + (1.0 - self.beta1) * g[i];
                vv[i] = self.beta2 * vv[i] + (1.0 - self.beta2) * g[i] * g[i];
                let mhat = mv[i] / bc1;
                let vhat = vv[i] / bc2;
                pv[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            p.zero_grad();
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(ADAM_STATE_TAG);
        put_tensors(&mut w, &self.m);
        w.u64(self.t);
        put_tensors(&mut w, &self.v);
        w.into_vec()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = Reader::new(bytes);
        r.magic(&[ADAM_STATE_TAG], "the Adam state tag")?;
        let m = get_tensors(&mut r)?;
        let t = r.u64()?;
        let v = get_tensors(&mut r)?;
        r.finish()?;
        if m.len() != v.len() {
            return Err(NnError::Serialization(format!(
                "Adam moment lists disagree: {} vs {}",
                m.len(),
                v.len()
            )));
        }
        self.m = m;
        self.v = v;
        self.t = t;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_tensor::Shape;

    fn quadratic_grad(p: &Param) -> Tensor {
        // ∇(x²/2) = x
        p.value.clone()
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        let mut p = Param::new(Tensor::full(Shape::vector(1), 10.0));
        let mut opt = Sgd::new(0.1, 0.0);
        for _ in 0..100 {
            p.grad = quadratic_grad(&p);
            opt.step(&mut [&mut p]).unwrap();
        }
        assert!(p.value.as_slice()[0].abs() < 0.01);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |momentum: f32| {
            let mut p = Param::new(Tensor::full(Shape::vector(1), 10.0));
            let mut opt = Sgd::new(0.01, momentum);
            for _ in 0..50 {
                p.grad = quadratic_grad(&p);
                opt.step(&mut [&mut p]).unwrap();
            }
            p.value.as_slice()[0].abs()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn adam_descends_a_quadratic() {
        let mut p = Param::new(Tensor::full(Shape::vector(2), 5.0));
        let mut opt = Adam::with_defaults(0.3);
        for _ in 0..200 {
            p.grad = quadratic_grad(&p);
            opt.step(&mut [&mut p]).unwrap();
        }
        assert!(p.value.map(f32::abs).max() < 0.05);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = Param::new(Tensor::ones(Shape::vector(3)));
        p.grad.fill(1.0);
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut [&mut p]).unwrap();
        assert!(p.grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn param_count_change_is_an_error() {
        let mut a = Param::new(Tensor::ones(Shape::vector(1)));
        let mut b = Param::new(Tensor::ones(Shape::vector(1)));
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut [&mut a]).unwrap();
        assert!(opt.step(&mut [&mut a, &mut b]).is_err());
    }

    #[test]
    fn learning_rate_is_settable() {
        let mut opt = Adam::with_defaults(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    /// Runs `steps` quadratic-descent steps on a fresh param, snapshotting
    /// optimizer state after `snapshot_at`, then finishes two ways: straight
    /// through, and via a fresh optimizer restored from the snapshot. Both
    /// must land on bit-identical parameters.
    fn resume_matches<O: Optimizer + Clone>(
        mut opt: O,
        fresh: O,
        steps: usize,
        snapshot_at: usize,
    ) {
        let mut p = Param::new(Tensor::full(Shape::vector(3), 7.0));
        for _ in 0..snapshot_at {
            p.grad = quadratic_grad(&p);
            opt.step(&mut [&mut p]).unwrap();
        }
        let state = opt.state_bytes();
        let p_mid = p.value.clone();

        // Straight through.
        let mut p_a = Param::new(p_mid.clone());
        let mut opt_a = opt;
        for _ in snapshot_at..steps {
            p_a.grad = quadratic_grad(&p_a);
            opt_a.step(&mut [&mut p_a]).unwrap();
        }

        // Restored.
        let mut p_b = Param::new(p_mid);
        let mut opt_b = fresh;
        opt_b.restore_state(&state).unwrap();
        for _ in snapshot_at..steps {
            p_b.grad = quadratic_grad(&p_b);
            opt_b.step(&mut [&mut p_b]).unwrap();
        }
        assert_eq!(p_a.value, p_b.value, "resume diverged");
    }

    #[test]
    fn sgd_state_roundtrip_resumes_bit_identically() {
        resume_matches(Sgd::new(0.05, 0.9), Sgd::new(0.05, 0.9), 20, 7);
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_identically() {
        resume_matches(Adam::with_defaults(0.1), Adam::with_defaults(0.1), 20, 7);
    }

    #[test]
    fn state_bytes_reject_cross_optimizer_restore() {
        let mut p = Param::new(Tensor::ones(Shape::vector(2)));
        let mut sgd = Sgd::new(0.1, 0.9);
        p.grad = quadratic_grad(&p);
        sgd.step(&mut [&mut p]).unwrap();
        let mut adam = Adam::with_defaults(0.1);
        assert!(adam.restore_state(&sgd.state_bytes()).is_err());
        let mut sgd2 = Sgd::new(0.1, 0.9);
        assert!(sgd2.restore_state(&adam.state_bytes()).is_err());
    }

    #[test]
    fn truncated_state_is_rejected() {
        let mut p = Param::new(Tensor::ones(Shape::vector(4)));
        let mut opt = Adam::with_defaults(0.1);
        p.grad = quadratic_grad(&p);
        opt.step(&mut [&mut p]).unwrap();
        let state = opt.state_bytes();
        for cut in 0..state.len() {
            let mut fresh = Adam::with_defaults(0.1);
            assert!(
                fresh.restore_state(&state[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly restored"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = state.clone();
        padded.push(0);
        let mut fresh = Adam::with_defaults(0.1);
        assert!(fresh.restore_state(&padded).is_err());
        // So is every prefix of SGD state, and no single-bit corruption of
        // either state panics either restore.
        let mut sgd = Sgd::new(0.1, 0.9);
        sgd.step(&mut [&mut p]).unwrap();
        let sgd_state = sgd.state_bytes();
        for cut in 0..sgd_state.len() {
            let mut fresh = Sgd::new(0.1, 0.9);
            assert!(fresh.restore_state(&sgd_state[..cut]).is_err(), "{cut}");
        }
        let flips = adv_store::codec::single_bit_flips(&state);
        for bad in flips.chain(adv_store::codec::single_bit_flips(&sgd_state)) {
            let _ = Adam::with_defaults(0.1).restore_state(&bad);
            let _ = Sgd::new(0.1, 0.9).restore_state(&bad);
        }
    }

    #[test]
    fn state_bytes_are_pinned() {
        let tensor = |n: usize, k: f32| Tensor::from_fn(Shape::vector(n), |i| i as f32 * k - 0.5);
        let sgd = Sgd {
            lr: 0.1,
            momentum: 0.9,
            velocity: vec![tensor(3, 0.25), tensor(2, -1.5)],
        };
        let adam = Adam {
            t: 5,
            m: vec![tensor(2, 0.125)],
            v: vec![tensor(2, 2.0)],
            ..Adam::with_defaults(0.1)
        };
        let mut bytes = sgd.state_bytes();
        bytes.extend(adam.state_bytes());
        let hash = adv_store::codec::fnv64(&bytes);
        assert_eq!(hash, 0x939a_b3cc_91f4_d7df, "{hash:#018x}");
    }

    /// SGD state with one velocity tensor whose header is `rank` then
    /// `dims`, and no values.
    fn crafted_sgd_state(rank: u32, dims: &[u64]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(SGD_STATE_TAG).u32(1).u32(rank).u64s(dims);
        w.into_vec()
    }

    #[test]
    fn a_tensor_header_past_the_input_is_rejected() {
        let state = crafted_sgd_state(1, &[1 << 62]);
        assert!(Sgd::new(0.1, 0.9).restore_state(&state).is_err());
    }

    #[test]
    fn dims_whose_volume_overflows_are_rejected() {
        let mut sgd = Sgd::new(0.1, 0.9);
        let err = sgd
            .restore_state(&crafted_sgd_state(2, &[1 << 32, 1 << 32]))
            .unwrap_err();
        assert!(err.to_string().contains("dims"), "{err}");
        assert!(sgd.velocity.is_empty());
    }
}
