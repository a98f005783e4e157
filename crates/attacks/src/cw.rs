//! The Carlini & Wagner L2 attack (S&P 2017) — the paper's baseline.
//!
//! C&W minimizes `‖δ‖₂² + c·f(x+δ)` with Adam over the tanh change of
//! variables `x = ½(tanh(w) + 1)`, which enforces the `[0, 1]` box without
//! projection. `c` is binary-searched per example. As the paper notes
//! (§II-B), C&W is exactly EAD with β = 0 — a pure L2 attack — and it is
//! this purity that MagNet's detectors exploit: its perturbations spread
//! over many pixels and leave the data manifold in a way the auto-encoders
//! notice.

use crate::attack::{Attack, AttackOutcome};
use crate::ead::AttackObs;
use crate::loss::{adversarial_margins, target_margins, targeted_hinge, untargeted_hinge};
use crate::{AttackError, Result};
use adv_nn::Differentiable;
use adv_profile::StageScope;
use adv_tensor::Tensor;

/// C&W attack hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct CwConfig {
    /// Confidence margin κ ≥ 0.
    pub kappa: f32,
    /// Adam iterations per binary-search step (paper: 1000).
    pub iterations: usize,
    /// Adam learning rate (paper: 0.01).
    pub learning_rate: f32,
    /// Binary-search steps over `c` (paper: 9).
    pub binary_search_steps: usize,
    /// Starting value of `c` (paper: 0.001).
    pub initial_c: f32,
}

impl Default for CwConfig {
    fn default() -> Self {
        CwConfig {
            kappa: 0.0,
            iterations: 200,
            learning_rate: 0.01,
            binary_search_steps: 6,
            initial_c: 1e-3,
        }
    }
}

/// The C&W L2 attack.
#[derive(Debug, Clone)]
pub struct CarliniWagnerL2 {
    config: CwConfig,
}

impl CarliniWagnerL2 {
    /// Creates the attack.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] for invalid hyperparameters.
    pub fn new(config: CwConfig) -> Result<Self> {
        if config.kappa < 0.0 {
            return Err(AttackError::InvalidConfig(format!(
                "kappa {} must be >= 0",
                config.kappa
            )));
        }
        if config.iterations == 0 || config.binary_search_steps == 0 {
            return Err(AttackError::InvalidConfig(
                "iterations and binary_search_steps must be > 0".into(),
            ));
        }
        if config.learning_rate <= 0.0 || config.initial_c <= 0.0 {
            return Err(AttackError::InvalidConfig(
                "learning_rate and initial_c must be > 0".into(),
            ));
        }
        Ok(CarliniWagnerL2 { config })
    }

    /// The attack configuration.
    pub fn config(&self) -> &CwConfig {
        &self.config
    }
}

/// `arctanh` with the operand clamped away from ±1 for stability.
fn atanh_stable(v: f32) -> f32 {
    let v = v.clamp(-1.0 + 1e-6, 1.0 - 1e-6);
    0.5 * ((1.0 + v) / (1.0 - v)).ln()
}

impl Attack for CarliniWagnerL2 {
    fn name(&self) -> String {
        format!("C&W(L2, kappa={})", self.config.kappa)
    }

    fn run(
        &self,
        model: &mut dyn Differentiable,
        x0: &Tensor,
        labels: &[usize],
    ) -> Result<AttackOutcome> {
        self.run_with_goal(model, x0, labels, false)
    }
}

impl CarliniWagnerL2 {
    /// Targeted variant: drives each example toward `targets[i]` with
    /// confidence κ (paper eq. 2). Success means the *target* class leads
    /// by κ.
    ///
    /// # Errors
    ///
    /// Same as [`Attack::run`].
    pub fn run_targeted(
        &self,
        model: &mut dyn Differentiable,
        x0: &Tensor,
        targets: &[usize],
    ) -> Result<AttackOutcome> {
        self.run_with_goal(model, x0, targets, true)
    }

    fn run_with_goal(
        &self,
        model: &mut dyn Differentiable,
        x0: &Tensor,
        labels: &[usize],
        targeted: bool,
    ) -> Result<AttackOutcome> {
        let n = x0.shape().dim(0);
        if labels.len() != n {
            return Err(AttackError::BadLabels(format!(
                "{n} images but {} labels",
                labels.len()
            )));
        }
        let item = x0.shape().volume() / n.max(1);
        let cfg = &self.config;

        // tanh-space origin.
        let w0 = x0.map(|v| atanh_stable(2.0 * v - 1.0));

        let mut c = vec![cfg.initial_c; n];
        let mut lower = vec![0.0f32; n];
        let mut upper = vec![f32::INFINITY; n];

        let mut best_l2sq = vec![f32::INFINITY; n];
        let mut best_adv = x0.clone();
        let mut ever_success = vec![false; n];
        let obs = AttackObs::resolve("cw", "adam_iterations");

        for _step in 0..cfg.binary_search_steps {
            let _step_span = StageScope::enter("cw/search_step");
            if let Some(obs) = &obs {
                obs.search_steps.incr();
            }
            let mut w = w0.clone();
            // Fresh Adam state each binary-search step, as in the original.
            let mut m = Tensor::zeros(w.shape().clone());
            let mut v = Tensor::zeros(w.shape().clone());
            let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
            let mut step_success = vec![false; n];

            for k in 0..=cfg.iterations {
                let _iter_span = StageScope::enter("cw/adam_iter");
                if let Some(obs) = &obs {
                    obs.iterations.incr();
                }
                // tanh(w), once per pixel: it gives both x and dx/dw.
                let tw = w.map(f32::tanh);
                let x = tw.map(|ti| 0.5 * (ti + 1.0));
                let logits = model.forward(&x)?;
                let margins = if targeted {
                    target_margins(&logits, labels)?
                } else {
                    adversarial_margins(&logits, labels)?
                };
                for (i, &mg) in margins.iter().enumerate() {
                    if mg >= cfg.kappa {
                        step_success[i] = true;
                        ever_success[i] = true;
                        let xi = &x.as_slice()[i * item..(i + 1) * item];
                        let oi = &x0.as_slice()[i * item..(i + 1) * item];
                        let l2sq: f32 = xi.iter().zip(oi).map(|(&a, &b)| (a - b) * (a - b)).sum();
                        if l2sq < best_l2sq[i] {
                            best_l2sq[i] = l2sq;
                            for (j, &val) in xi.iter().enumerate() {
                                best_adv.as_mut_slice()[i * item + j] = val;
                            }
                        }
                    }
                }
                if k == cfg.iterations {
                    break;
                }

                // dL/dx = 2(x − x₀) + c·df/dx
                let (_, dlogits) = if targeted {
                    targeted_hinge(&logits, labels, cfg.kappa, &c)?
                } else {
                    untargeted_hinge(&logits, labels, cfg.kappa, &c)?
                };
                let mut dx = model.backward_input(&dlogits)?;
                dx.add_scaled_assign(&x, 2.0)?;
                dx.add_scaled_assign(x0, -2.0)?;
                // dL/dw = dL/dx · ½(1 − tanh²(w))
                let dw = dx.zip_map(&tw, |g, t| g * 0.5 * (1.0 - t * t))?;

                // Adam update on w.
                let t_step = (k + 1) as i32;
                let bc1 = 1.0 - b1.powi(t_step);
                let bc2 = 1.0 - b2.powi(t_step);
                let (mw, vw, ww) = (m.as_mut_slice(), v.as_mut_slice(), w.as_mut_slice());
                for (i, &g) in dw.as_slice().iter().enumerate() {
                    mw[i] = b1 * mw[i] + (1.0 - b1) * g;
                    vw[i] = b2 * vw[i] + (1.0 - b2) * g * g;
                    ww[i] -= cfg.learning_rate * (mw[i] / bc1) / ((vw[i] / bc2).sqrt() + eps);
                }
            }

            for i in 0..n {
                if step_success[i] {
                    upper[i] = upper[i].min(c[i]);
                    c[i] = 0.5 * (lower[i] + upper[i]);
                } else {
                    lower[i] = lower[i].max(c[i]);
                    c[i] = if upper[i].is_finite() {
                        0.5 * (lower[i] + upper[i])
                    } else {
                        c[i] * 10.0
                    };
                }
            }
        }

        if let Some(obs) = &obs {
            obs.record_run(n, &ever_success);
        }
        AttackOutcome::from_images(x0, best_adv, ever_success)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_nn::{LayerSpec, Sequential};
    use adv_tensor::Shape;

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
    fn atanh_roundtrip() {
        for v in [-0.9f32, -0.5, 0.0, 0.3, 0.99] {
            assert!((atanh_stable(v).tanh() - v).abs() < 1e-4);
        }
        // Extremes stay finite.
        assert!(atanh_stable(1.0).is_finite());
        assert!(atanh_stable(-1.0).is_finite());
    }

    #[test]
    fn attack_flips_a_linear_classifier() {
        let mut model = linear_model();
        let x = Tensor::from_vec(vec![0.2, 0.8, 0.35, 0.6], Shape::matrix(2, 2)).unwrap();
        let attack = CarliniWagnerL2::new(CwConfig {
            iterations: 80,
            binary_search_steps: 5,
            learning_rate: 0.05,
            ..CwConfig::default()
        })
        .unwrap();
        let outcome = attack.run(&mut model, &x, &[0, 0]).unwrap();
        assert_eq!(outcome.success, vec![true, true]);
        assert_eq!(model.predict(&outcome.adversarial).unwrap(), vec![1, 1]);
    }

    #[test]
    fn adversarial_examples_respect_the_box() {
        let mut model = linear_model();
        let x = Tensor::from_vec(vec![0.02, 0.98], Shape::matrix(1, 2)).unwrap();
        let attack = CarliniWagnerL2::new(CwConfig {
            kappa: 1.0,
            iterations: 60,
            binary_search_steps: 4,
            learning_rate: 0.1,
            ..CwConfig::default()
        })
        .unwrap();
        let outcome = attack.run(&mut model, &x, &[0]).unwrap();
        assert!(outcome.adversarial.min() >= 0.0);
        assert!(outcome.adversarial.max() <= 1.0);
    }

    #[test]
    fn binary_search_shrinks_distortion() {
        // More binary-search steps should find a smaller-or-equal L2.
        let run = |steps: usize| {
            let mut model = linear_model();
            let x = Tensor::from_vec(vec![0.2, 0.8], Shape::matrix(1, 2)).unwrap();
            let attack = CarliniWagnerL2::new(CwConfig {
                iterations: 60,
                binary_search_steps: steps,
                learning_rate: 0.05,
                // Start with a c large enough to succeed on the very first
                // step, so even steps=1 finds *an* adversarial example.
                initial_c: 5.0,
                ..CwConfig::default()
            })
            .unwrap();
            let o = attack.run(&mut model, &x, &[0]).unwrap();
            assert!(o.success[0]);
            o.l2[0]
        };
        assert!(run(6) <= run(1) + 1e-3);
    }

    #[test]
    fn targeted_attack_reaches_the_target_class() {
        let mut model = linear_model();
        let x = Tensor::from_vec(vec![0.2, 0.8], Shape::matrix(1, 2)).unwrap();
        let attack = CarliniWagnerL2::new(CwConfig {
            kappa: 1.0,
            iterations: 80,
            binary_search_steps: 4,
            learning_rate: 0.1,
            initial_c: 0.5,
        })
        .unwrap();
        let outcome = attack.run_targeted(&mut model, &x, &[1]).unwrap();
        assert!(outcome.success[0]);
        assert_eq!(model.predict(&outcome.adversarial).unwrap(), vec![1]);
    }

    #[test]
    fn config_validation() {
        let bad = |f: fn(&mut CwConfig)| {
            let mut c = CwConfig::default();
            f(&mut c);
            CarliniWagnerL2::new(c).is_err()
        };
        assert!(bad(|c| c.kappa = -0.1));
        assert!(bad(|c| c.iterations = 0));
        assert!(bad(|c| c.binary_search_steps = 0));
        assert!(bad(|c| c.learning_rate = -1.0));
        assert!(bad(|c| c.initial_c = 0.0));
    }

    #[test]
    fn name_includes_kappa() {
        let attack = CarliniWagnerL2::new(CwConfig {
            kappa: 20.0,
            ..CwConfig::default()
        })
        .unwrap();
        assert_eq!(attack.name(), "C&W(L2, kappa=20)");
    }
}
