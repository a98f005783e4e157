//! DeepFool (Moosavi-Dezfooli et al., CVPR 2016) — a minimal-perturbation
//! untargeted baseline.
//!
//! Each iteration linearizes the classifier around the current iterate and
//! steps to the nearest linearized decision boundary:
//!
//! ```text
//! l  = argmin_{j≠t₀} |f_j| / ‖w_j‖₂,   w_j = ∇Z_j − ∇Z_{t₀},  f_j = Z_j − Z_{t₀}
//! r  = (|f_l| / ‖w_l‖₂²) · w_l
//! x ← clip(x + (1 + overshoot)·r)
//! ```
//!
//! The batch version needs one backward pass per class per iteration.

use crate::attack::{Attack, AttackOutcome};
use crate::loss::adversarial_margins;
use crate::{AttackError, Result};
use adv_nn::Differentiable;
use adv_tensor::{Shape, Tensor};

/// DeepFool hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct DeepFoolConfig {
    /// Maximum linearization iterations.
    pub max_iterations: usize,
    /// Overshoot factor η (original paper: 0.02).
    pub overshoot: f32,
}

impl Default for DeepFoolConfig {
    fn default() -> Self {
        DeepFoolConfig {
            max_iterations: 30,
            overshoot: 0.02,
        }
    }
}

/// The DeepFool attack.
#[derive(Debug, Clone)]
pub struct DeepFool {
    config: DeepFoolConfig,
}

impl DeepFool {
    /// Creates the attack.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] for zero iterations or
    /// negative overshoot.
    pub fn new(config: DeepFoolConfig) -> Result<Self> {
        if config.max_iterations == 0 {
            return Err(AttackError::InvalidConfig(
                "max_iterations must be > 0".into(),
            ));
        }
        if config.overshoot < 0.0 {
            return Err(AttackError::InvalidConfig(format!(
                "overshoot {} must be >= 0",
                config.overshoot
            )));
        }
        Ok(DeepFool { config })
    }
}

/// Per-example gradients of logit `class` w.r.t. the input, batched.
fn class_gradient(
    model: &mut dyn Differentiable,
    x: &Tensor,
    class: usize,
    k: usize,
) -> Result<Tensor> {
    let n = x.shape().dim(0);
    // Forward must precede each backward to refresh caches.
    let _ = model.forward(x)?;
    let mut dlogits = Tensor::zeros(Shape::matrix(n, k));
    for i in 0..n {
        dlogits.as_mut_slice()[i * k + class] = 1.0;
    }
    Ok(model.backward_input(&dlogits)?)
}

impl Attack for DeepFool {
    fn name(&self) -> String {
        format!(
            "DeepFool(iters={}, overshoot={})",
            self.config.max_iterations, self.config.overshoot
        )
    }

    fn run(
        &self,
        model: &mut dyn Differentiable,
        x0: &Tensor,
        labels: &[usize],
    ) -> Result<AttackOutcome> {
        let n = x0.shape().dim(0);
        if labels.len() != n {
            return Err(AttackError::BadLabels(format!(
                "{n} images but {} labels",
                labels.len()
            )));
        }
        let item = x0.shape().volume() / n.max(1);
        let mut x = x0.clone();
        let mut done = vec![false; n];

        for _ in 0..self.config.max_iterations {
            let logits = model.forward(&x)?;
            let k = logits.shape().dim(1);
            let margins = adversarial_margins(&logits, labels)?;
            for (d, &m) in done.iter_mut().zip(&margins) {
                *d |= m > 0.0;
            }
            if done.iter().all(|&d| d) {
                break;
            }

            // Gradients of every class logit (k backward passes).
            let mut grads = Vec::with_capacity(k);
            for class in 0..k {
                grads.push(class_gradient(model, &x, class, k)?);
            }

            let z = logits.as_slice();
            let mut xm = x.clone();
            for i in 0..n {
                if done[i] {
                    continue;
                }
                let t0 = labels[i];
                let g_t0 = &grads[t0].as_slice()[i * item..(i + 1) * item];
                let mut best: Option<(f32, usize)> = None; // (|f|/‖w‖, class)
                for j in 0..k {
                    if j == t0 {
                        continue;
                    }
                    let f_j = z[i * k + j] - z[i * k + t0];
                    let g_j = &grads[j].as_slice()[i * item..(i + 1) * item];
                    let w_norm_sq: f32 =
                        g_j.iter().zip(g_t0).map(|(&a, &b)| (a - b) * (a - b)).sum();
                    if w_norm_sq < 1e-12 {
                        continue;
                    }
                    let ratio = f_j.abs() / w_norm_sq.sqrt();
                    if best.is_none_or(|(b, _)| ratio < b) {
                        best = Some((ratio, j));
                    }
                }
                let Some((_, l)) = best else { continue };
                let f_l = z[i * k + l] - z[i * k + t0];
                let g_l = &grads[l].as_slice()[i * item..(i + 1) * item];
                let w_norm_sq: f32 = g_l.iter().zip(g_t0).map(|(&a, &b)| (a - b) * (a - b)).sum();
                let scale =
                    (f_l.abs() + 1e-4) / w_norm_sq.max(1e-12) * (1.0 + self.config.overshoot);
                let xi = &mut xm.as_mut_slice()[i * item..(i + 1) * item];
                for (p, (&a, &b)) in xi.iter_mut().zip(g_l.iter().zip(g_t0)) {
                    *p = (*p + scale * (a - b)).clamp(0.0, 1.0);
                }
            }
            x = xm;
        }

        // Final success check.
        let logits = model.forward(&x)?;
        let success: Vec<bool> = adversarial_margins(&logits, labels)?
            .into_iter()
            .map(|m| m > 0.0)
            .collect();
        // Return originals where the attack failed.
        let mut adv = x;
        #[expect(
            clippy::needless_range_loop,
            reason = "i indexes success, adv and x0 together"
        )]
        for i in 0..n {
            if !success[i] {
                let oi = &x0.as_slice()[i * item..(i + 1) * item];
                adv.as_mut_slice()[i * item..(i + 1) * item].copy_from_slice(oi);
            }
        }
        AttackOutcome::from_images(x0, adv, success)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_nn::{LayerSpec, Sequential};

    fn linear_model() -> Sequential {
        let mut net = Sequential::from_specs(
            &[LayerSpec::Dense {
                inputs: 2,
                outputs: 2,
            }],
            0,
        )
        .unwrap();
        net.params_mut()[0].value =
            Tensor::from_vec(vec![-1.0, 1.0, 1.0, -1.0], Shape::matrix(2, 2)).unwrap();
        net.params_mut()[1].value = Tensor::zeros(Shape::vector(2));
        net
    }

    #[test]
    fn finds_small_perturbation_on_linear_model() {
        let mut model = linear_model();
        // Distance to boundary x₀=x₁ from (0.4, 0.6) is |0.2|·(1/√2)·... small.
        let x = Tensor::from_vec(vec![0.4, 0.6], Shape::matrix(1, 2)).unwrap();
        let attack = DeepFool::new(DeepFoolConfig::default()).unwrap();
        let o = attack.run(&mut model, &x, &[0]).unwrap();
        assert!(o.success[0]);
        // DeepFool's hallmark: near-minimal L2 (boundary distance ≈ 0.141).
        assert!(o.l2[0] < 0.3, "L2 {} too large", o.l2[0]);
    }

    #[test]
    fn already_misclassified_needs_no_perturbation() {
        let mut model = linear_model();
        let x = Tensor::from_vec(vec![0.8, 0.2], Shape::matrix(1, 2)).unwrap();
        // True label 0, but model says 1 → already adversarial.
        let attack = DeepFool::new(DeepFoolConfig::default()).unwrap();
        let o = attack.run(&mut model, &x, &[0]).unwrap();
        assert!(o.success[0]);
        assert_eq!(o.l2[0], 0.0);
    }

    #[test]
    fn batch_mixes_done_and_pending() {
        let mut model = linear_model();
        let x = Tensor::from_vec(vec![0.8, 0.2, 0.3, 0.7], Shape::matrix(2, 2)).unwrap();
        let attack = DeepFool::new(DeepFoolConfig::default()).unwrap();
        let o = attack.run(&mut model, &x, &[0, 0]).unwrap();
        assert_eq!(o.success, vec![true, true]);
        assert_eq!(o.l2[0], 0.0);
        assert!(o.l2[1] > 0.0);
    }

    #[test]
    fn config_validation() {
        assert!(DeepFool::new(DeepFoolConfig {
            max_iterations: 0,
            overshoot: 0.02
        })
        .is_err());
        assert!(DeepFool::new(DeepFoolConfig {
            max_iterations: 5,
            overshoot: -0.5
        })
        .is_err());
    }
}
