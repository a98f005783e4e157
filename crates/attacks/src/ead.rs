//! EAD: Elastic-net Attacks to DNNs (Chen et al., AAAI 2018), as specified
//! in the paper's §II-B.
//!
//! EAD finds an untargeted adversarial example by minimizing
//!
//! ```text
//! c·f(x) + ‖x − x₀‖₂² + β‖x − x₀‖₁      s.t. x ∈ [0, 1]ᵖ
//! ```
//!
//! with the iterative shrinkage-thresholding algorithm (ISTA): each step
//! takes a gradient step on the smooth part `g = c·f + ‖x−x₀‖₂²` and applies
//! the pixel-wise projected shrinkage operator `S_β` (paper eq. 5), which
//! *zeroes* any perturbation smaller than β and shrinks the rest — the
//! mechanism the paper credits for EAD's transferability.
//!
//! `c` is binary-searched per example; the reported example is chosen by the
//! **elastic-net** or **L1** decision rule over all successful iterates.

use crate::attack::{Attack, AttackOutcome};
use crate::loss::{adversarial_margins, target_margins, targeted_hinge, untargeted_hinge};
use crate::{AttackError, Result};
use adv_nn::Differentiable;
use adv_profile::StageScope;
use adv_tensor::Tensor;

/// Cached `adv-obs` counters for one attack run; `None` when metrics are
/// disabled so the per-iteration path costs one relaxed load.
pub(crate) struct AttackObs {
    pub(crate) iterations: std::sync::Arc<adv_obs::Counter>,
    pub(crate) search_steps: std::sync::Arc<adv_obs::Counter>,
    pub(crate) examples: std::sync::Arc<adv_obs::Counter>,
    pub(crate) converged: std::sync::Arc<adv_obs::Counter>,
}

impl AttackObs {
    /// `kind` is `"ead"` or `"cw"`; `iter_name` names the inner loop
    /// (`"ista_iterations"` / `"adam_iterations"`).
    pub(crate) fn resolve(kind: &str, iter_name: &str) -> Option<AttackObs> {
        if !adv_obs::metrics_enabled() {
            return None;
        }
        let r = adv_obs::global();
        Some(AttackObs {
            iterations: r.counter(&format!("{kind}.{iter_name}")),
            search_steps: r.counter(&format!("{kind}.binary_search_steps")),
            examples: r.counter(&format!("{kind}.examples")),
            converged: r.counter(&format!("{kind}.converged")),
        })
    }

    /// Records run totals: `n` examples attacked, `success` flags per
    /// example at the end of the search.
    pub(crate) fn record_run(&self, n: usize, success: &[bool]) {
        self.examples.add(n as u64);
        self.converged
            .add(success.iter().filter(|&&s| s).count() as u64);
    }
}

/// How EAD selects the final adversarial example among successful iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionRule {
    /// Minimize the elastic-net distance `‖δ‖₂² + β‖δ‖₁` (the attack's own
    /// objective).
    ElasticNet,
    /// Minimize the pure L1 distance `‖δ‖₁`.
    L1,
}

impl DecisionRule {
    /// Short label used in tables ("EN" / "L1").
    pub fn label(self) -> &'static str {
        match self {
            DecisionRule::ElasticNet => "EN",
            DecisionRule::L1 => "L1",
        }
    }
}

/// EAD hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct EadConfig {
    /// Confidence margin κ ≥ 0 (paper eq. 3).
    pub kappa: f32,
    /// L1 regularization strength β (paper sweeps 1e-3 … 1e-1).
    pub beta: f32,
    /// ISTA iterations per binary-search step (paper: 1000).
    pub iterations: usize,
    /// Initial step size (paper: 0.01), decayed as `α·(1 − k/K)^½`.
    pub learning_rate: f32,
    /// Binary-search steps over `c` (paper: 9).
    pub binary_search_steps: usize,
    /// Starting value of `c` (paper: 0.001).
    pub initial_c: f32,
    /// Decision rule for the reported example.
    pub rule: DecisionRule,
    /// Use FISTA momentum (the EAD reference implementation) instead of the
    /// plain ISTA iteration of the paper's eq. 4. Costs one extra forward
    /// pass per iteration.
    pub fista: bool,
}

impl Default for EadConfig {
    fn default() -> Self {
        EadConfig {
            kappa: 0.0,
            beta: 1e-2,
            iterations: 200,
            learning_rate: 0.01,
            binary_search_steps: 6,
            initial_c: 1e-3,
            rule: DecisionRule::ElasticNet,
            fista: false,
        }
    }
}

/// The EAD attack.
#[derive(Debug, Clone)]
pub struct ElasticNetAttack {
    config: EadConfig,
}

impl ElasticNetAttack {
    /// Creates the attack.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] for negative κ/β, zero
    /// iterations, non-positive learning rate or `initial_c`.
    pub fn new(config: EadConfig) -> Result<Self> {
        if config.kappa < 0.0 {
            return Err(AttackError::InvalidConfig(format!(
                "kappa {} must be >= 0",
                config.kappa
            )));
        }
        if config.beta < 0.0 {
            return Err(AttackError::InvalidConfig(format!(
                "beta {} must be >= 0",
                config.beta
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
        Ok(ElasticNetAttack { config })
    }

    /// The attack configuration.
    pub fn config(&self) -> &EadConfig {
        &self.config
    }

    fn rule_distance(&self, delta_l1: f32, delta_l2_sq: f32) -> f32 {
        match self.config.rule {
            DecisionRule::ElasticNet => delta_l2_sq + self.config.beta * delta_l1,
            DecisionRule::L1 => delta_l1,
        }
    }
}

/// The pixel-wise projected shrinkage-thresholding operator `S_β`
/// (paper eq. 5), applied to a whole batch.
///
/// For each pixel: if `|zᵢ − x₀ᵢ| ≤ β` the original value is kept; otherwise
/// the perturbation is shrunk by β and the result clipped to `[0, 1]`.
pub(crate) fn shrink(z: &[f32], x0: &[f32], beta: f32, out: &mut [f32]) {
    for ((&zi, &x0i), o) in z.iter().zip(x0).zip(out.iter_mut()) {
        let d = zi - x0i;
        *o = if d > beta {
            (zi - beta).min(1.0)
        } else if d < -beta {
            (zi + beta).max(0.0)
        } else {
            x0i
        };
    }
}

impl Attack for ElasticNetAttack {
    fn name(&self) -> String {
        format!(
            "EAD({}, beta={}, kappa={})",
            self.config.rule.label(),
            self.config.beta,
            self.config.kappa
        )
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

impl ElasticNetAttack {
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

        let mut c = vec![cfg.initial_c; n];
        let mut lower = vec![0.0f32; n];
        let mut upper = vec![f32::INFINITY; n];

        let mut best_dist = vec![f32::INFINITY; n];
        let mut best_adv = x0.clone();
        let mut ever_success = vec![false; n];
        let obs = AttackObs::resolve("ead", "ista_iterations");

        for _step in 0..cfg.binary_search_steps {
            let _step_span = StageScope::enter("ead/search_step");
            if let Some(obs) = &obs {
                obs.search_steps.incr();
            }
            let mut x = x0.clone();
            // FISTA state: the extrapolated point y and momentum scalar t.
            let mut y = x.clone();
            let mut t_k = 1.0f32;
            let mut step_success = vec![false; n];

            for k in 0..=cfg.iterations {
                let _iter_span = StageScope::enter("ead/ista_iter");
                if let Some(obs) = &obs {
                    obs.iterations.incr();
                }
                let logits = model.forward(&x)?;
                // Record successful iterates (including the final one).
                let margins = if targeted {
                    target_margins(&logits, labels)?
                } else {
                    adversarial_margins(&logits, labels)?
                };
                for (i, &m) in margins.iter().enumerate() {
                    if m >= cfg.kappa {
                        step_success[i] = true;
                        ever_success[i] = true;
                        let xi = &x.as_slice()[i * item..(i + 1) * item];
                        let oi = &x0.as_slice()[i * item..(i + 1) * item];
                        let mut l1 = 0.0f32;
                        let mut l2sq = 0.0f32;
                        for (&a, &b) in xi.iter().zip(oi) {
                            let d = a - b;
                            l1 += d.abs();
                            l2sq += d * d;
                        }
                        let dist = self.rule_distance(l1, l2sq);
                        if dist < best_dist[i] {
                            best_dist[i] = dist;
                            for (j, &v) in xi.iter().enumerate() {
                                best_adv.as_mut_slice()[i * item + j] = v;
                            }
                        }
                    }
                }
                if k == cfg.iterations {
                    break;
                }

                // ∇g = c·∇f + 2(p − x₀) at the gradient point p (x for
                // ISTA, the extrapolated y for FISTA), in one batch pass.
                let (point, point_logits) = if cfg.fista {
                    let ly = model.forward(&y)?;
                    (&y, ly)
                } else {
                    (&x, logits)
                };
                let (_, dlogits) = if targeted {
                    targeted_hinge(&point_logits, labels, cfg.kappa, &c)?
                } else {
                    untargeted_hinge(&point_logits, labels, cfg.kappa, &c)?
                };
                let mut grad = model.backward_input(&dlogits)?;
                grad.add_scaled_assign(point, 2.0)?;
                grad.add_scaled_assign(x0, -2.0)?;

                // Proximal step with square-root decaying step size.
                let lr = cfg.learning_rate * (1.0 - k as f32 / (cfg.iterations + 1) as f32).sqrt();
                let mut z = point.clone();
                z.add_scaled_assign(&grad, -lr)?;
                let mut x_new = vec![0.0f32; z.len()];
                shrink(z.as_slice(), x0.as_slice(), cfg.beta, &mut x_new);
                let x_new = Tensor::from_vec(x_new, x.shape().clone())?;

                if cfg.fista {
                    // Nesterov momentum: y = x_{k+1} + ((t_k−1)/t_{k+1})(x_{k+1} − x_k).
                    let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t_k * t_k).sqrt());
                    let coeff = (t_k - 1.0) / t_next;
                    let mut y_new = x_new.clone();
                    y_new.add_scaled_assign(&x_new, coeff)?;
                    y_new.add_scaled_assign(&x, -coeff)?;
                    y = y_new;
                    t_k = t_next;
                }
                x = x_new;
            }

            // Per-example binary search update on c.
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

    /// A fixed linear 2-class model: class 0 iff x·w < 0 with w = (1, −1).
    fn linear_model() -> Sequential {
        let mut net = Sequential::from_specs(
            &[LayerSpec::Dense {
                inputs: 2,
                outputs: 2,
            }],
            0,
        )
        .unwrap();
        // logits = [x·(−1,1), x·(1,−1)] → class 1 wins when x0 > x1.
        net.params_mut()[0].value =
            Tensor::from_vec(vec![-1.0, 1.0, 1.0, -1.0], Shape::matrix(2, 2)).unwrap();
        net.params_mut()[1].value = Tensor::zeros(Shape::vector(2));
        net
    }

    #[test]
    fn shrink_operator_matches_eq5() {
        let x0 = [0.5f32, 0.5, 0.5, 0.5, 0.9];
        let z = [0.58f32, 0.42, 0.505, 1.4, 0.0];
        let mut out = [0.0f32; 5];
        shrink(&z, &x0, 0.05, &mut out);
        assert!((out[0] - 0.53).abs() < 1e-6); // shrunk down by β
        assert!((out[1] - 0.47).abs() < 1e-6); // shrunk up by β
        assert_eq!(out[2], 0.5); // |d| ≤ β → original kept
        assert_eq!(out[3], 1.0); // clipped to box
        assert!((out[4] - 0.05).abs() < 1e-6); // z+β, above 0
    }

    #[test]
    fn shrink_with_zero_beta_is_projection_only() {
        let x0 = [0.5f32, 0.5];
        let z = [1.7f32, 0.2];
        let mut out = [0.0f32; 2];
        shrink(&z, &x0, 0.0, &mut out);
        assert_eq!(out, [1.0, 0.2]);
    }

    #[test]
    fn attack_flips_a_linear_classifier() {
        let mut model = linear_model();
        // Points firmly in class 0 (x0 < x1).
        let x = Tensor::from_vec(vec![0.2, 0.8, 0.3, 0.6], Shape::matrix(2, 2)).unwrap();
        let labels = [0usize, 0usize];
        let attack = ElasticNetAttack::new(EadConfig {
            iterations: 50,
            binary_search_steps: 4,
            learning_rate: 0.1,
            ..EadConfig::default()
        })
        .unwrap();
        let outcome = attack.run(&mut model, &x, &labels).unwrap();
        assert_eq!(outcome.success, vec![true, true]);
        // The adversarial points must actually be misclassified.
        let preds = model.predict(&outcome.adversarial).unwrap();
        assert_eq!(preds, vec![1, 1]);
    }

    #[test]
    fn higher_kappa_needs_larger_distortion() {
        let run = |kappa: f32| {
            let mut model = linear_model();
            let x = Tensor::from_vec(vec![0.2, 0.8], Shape::matrix(1, 2)).unwrap();
            let attack = ElasticNetAttack::new(EadConfig {
                kappa,
                iterations: 80,
                binary_search_steps: 5,
                learning_rate: 0.1,
                ..EadConfig::default()
            })
            .unwrap();
            let outcome = attack.run(&mut model, &x, &[0]).unwrap();
            assert!(outcome.success[0], "kappa {kappa} failed");
            outcome.l2[0]
        };
        assert!(run(2.0) > run(0.0));
    }

    #[test]
    fn larger_beta_yields_sparser_perturbations() {
        // On a model where one coordinate dominates, large β must zero the
        // unimportant coordinate.
        let mut model = linear_model();
        let x = Tensor::from_vec(vec![0.3, 0.7], Shape::matrix(1, 2)).unwrap();
        let sparse_attack = ElasticNetAttack::new(EadConfig {
            beta: 0.05,
            iterations: 60,
            binary_search_steps: 4,
            learning_rate: 0.1,
            rule: DecisionRule::L1,
            ..EadConfig::default()
        })
        .unwrap();
        let outcome = sparse_attack.run(&mut model, &x, &[0]).unwrap();
        assert!(outcome.success[0]);
        assert!(outcome.l1[0] > 0.0);
    }

    #[test]
    fn failed_attack_returns_original() {
        // κ far beyond what the bounded domain can provide for a weak c
        // search: use 1 iteration and 1 bs step with tiny lr so nothing moves
        // enough.
        let mut model = linear_model();
        let x = Tensor::from_vec(vec![0.0, 1.0], Shape::matrix(1, 2)).unwrap();
        let attack = ElasticNetAttack::new(EadConfig {
            kappa: 10.0,
            iterations: 1,
            binary_search_steps: 1,
            learning_rate: 1e-6,
            ..EadConfig::default()
        })
        .unwrap();
        let outcome = attack.run(&mut model, &x, &[0]).unwrap();
        assert_eq!(outcome.success, vec![false]);
        assert_eq!(outcome.adversarial.as_slice(), x.as_slice());
        assert_eq!(outcome.l1[0], 0.0);
    }

    #[test]
    fn fista_variant_also_flips_the_classifier() {
        let mut model = linear_model();
        let x = Tensor::from_vec(vec![0.2, 0.8, 0.3, 0.6], Shape::matrix(2, 2)).unwrap();
        let attack = ElasticNetAttack::new(EadConfig {
            iterations: 50,
            binary_search_steps: 4,
            learning_rate: 0.1,
            fista: true,
            ..EadConfig::default()
        })
        .unwrap();
        let outcome = attack.run(&mut model, &x, &[0, 0]).unwrap();
        assert_eq!(outcome.success, vec![true, true]);
        assert_eq!(model.predict(&outcome.adversarial).unwrap(), vec![1, 1]);
        // Returned examples still respect the image box despite the
        // extrapolated momentum point.
        assert!(outcome.adversarial.min() >= 0.0);
        assert!(outcome.adversarial.max() <= 1.0);
    }

    #[test]
    fn targeted_attack_reaches_the_target_class() {
        let mut model = linear_model();
        // Start in class 0 (x0 < x1); target class 1.
        let x = Tensor::from_vec(vec![0.2, 0.8], Shape::matrix(1, 2)).unwrap();
        let attack = ElasticNetAttack::new(EadConfig {
            kappa: 1.0,
            iterations: 60,
            binary_search_steps: 4,
            learning_rate: 0.1,
            initial_c: 0.5,
            ..EadConfig::default()
        })
        .unwrap();
        let outcome = attack.run_targeted(&mut model, &x, &[1]).unwrap();
        assert!(outcome.success[0]);
        assert_eq!(model.predict(&outcome.adversarial).unwrap(), vec![1]);
    }

    #[test]
    fn targeted_toward_current_class_is_free() {
        let mut model = linear_model();
        // Already class 1 with margin; targeting class 1 needs no change.
        let x = Tensor::from_vec(vec![0.9, 0.1], Shape::matrix(1, 2)).unwrap();
        let attack = ElasticNetAttack::new(EadConfig {
            kappa: 0.0,
            iterations: 10,
            binary_search_steps: 1,
            learning_rate: 0.05,
            initial_c: 0.5,
            ..EadConfig::default()
        })
        .unwrap();
        let outcome = attack.run_targeted(&mut model, &x, &[1]).unwrap();
        assert!(outcome.success[0]);
        assert_eq!(outcome.l2[0], 0.0);
    }

    #[test]
    fn config_validation() {
        let bad = |f: fn(&mut EadConfig)| {
            let mut c = EadConfig::default();
            f(&mut c);
            ElasticNetAttack::new(c).is_err()
        };
        assert!(bad(|c| c.kappa = -1.0));
        assert!(bad(|c| c.beta = -0.1));
        assert!(bad(|c| c.iterations = 0));
        assert!(bad(|c| c.binary_search_steps = 0));
        assert!(bad(|c| c.learning_rate = 0.0));
        assert!(bad(|c| c.initial_c = 0.0));
    }

    #[test]
    fn name_reports_rule_and_beta() {
        let attack = ElasticNetAttack::new(EadConfig {
            rule: DecisionRule::L1,
            beta: 0.1,
            kappa: 15.0,
            ..EadConfig::default()
        })
        .unwrap();
        assert_eq!(attack.name(), "EAD(L1, beta=0.1, kappa=15)");
    }

    #[test]
    fn label_count_mismatch_rejected() {
        let mut model = linear_model();
        let x = Tensor::zeros(Shape::matrix(2, 2));
        let attack = ElasticNetAttack::new(EadConfig::default()).unwrap();
        assert!(attack.run(&mut model, &x, &[0]).is_err());
    }
}
