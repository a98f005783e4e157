//! Experiment scale configuration.
//!
//! The paper ran on a TITAN Xp with 1000 test images, 1000 attack iterations
//! and 9 binary-search steps. This reproduction runs on whatever CPU is at
//! hand, so every knob lives in [`Scale`] with three presets:
//!
//! - [`Scale::smoke`] — seconds; CI and unit tests.
//! - [`Scale::quick`] — minutes on one core; the default for the
//!   experiment binaries.
//! - [`Scale::paper`] — the paper's own settings (hours on CPU; use when
//!   you have the budget).
//!
//! Binaries accept `--scale smoke|quick|paper` plus individual overrides.

use crate::error::EvalError;
use crate::zoo::Scenario;

/// All experiment-size knobs in one place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Training-set size per scenario.
    pub train_size: usize,
    /// Validation-set size (detector calibration).
    pub valid_size: usize,
    /// Test-set size (clean accuracy, attack pool).
    pub test_size: usize,
    /// Number of correctly-classified test images to attack.
    pub attack_count: usize,
    /// Victim classifier training epochs.
    pub classifier_epochs: usize,
    /// Auto-encoder training epochs.
    pub ae_epochs: usize,
    /// Attack iterations per binary-search step.
    pub attack_iterations: usize,
    /// Binary-search steps over `c`.
    pub binary_search_steps: usize,
    /// Filter width of the default auto-encoders (paper: 3).
    pub default_filters: usize,
    /// Filter width of the "robust" auto-encoders (paper: 256; scaled down
    /// here — see DESIGN.md).
    pub robust_filters: usize,
    /// Starting `c` for the attacks' binary search. The paper uses 0.001
    /// with 9 binary-search steps; with fewer steps the search cannot climb
    /// far enough, so the reduced scales start at 0.1.
    pub initial_c: f32,
    /// Attack step size. The paper uses 0.01 with 1000 iterations; with far
    /// fewer iterations a larger step is needed to cover the same distance.
    pub attack_lr: f32,
    /// Label-smoothing ε for victim training. The synthetic tasks are easy
    /// enough that an unsmoothed victim becomes wildly over-confident, which
    /// inflates the distortion needed at a given κ and collapses the paper's
    /// mid-κ regime; smoothing restores realistic margins. The paper scale
    /// uses 0 (the original models were trained without it).
    pub label_smoothing: f32,
    /// Per-detector false-positive budget on MNIST (MagNet used ~0.001).
    pub fpr_mnist: f32,
    /// Per-detector false-positive budget on CIFAR (the original used a
    /// looser budget on the harder dataset).
    pub fpr_cifar: f32,
    /// Gaussian input-corruption σ when training the MNIST auto-encoders.
    pub ae_noise_mnist: f32,
    /// Gaussian input-corruption σ when training the CIFAR auto-encoders.
    pub ae_noise_cifar: f32,
    /// σ of an additional *smooth low-frequency* corruption field for the
    /// CIFAR auto-encoders. Teaching the auto-encoder to remove spread-out
    /// deviations is what lets the reformer and detectors react to dense
    /// C&W perturbations while sparse EAD spikes pass through — the paper's
    /// central asymmetry.
    pub ae_smooth_noise_cifar: f32,
    /// Conversion from the paper's κ axis to this substrate's logit scale
    /// (MNIST). The paper's victim earns logit margins up to ≈40; the
    /// scaled-down victim here has a smaller logit range, so a paper-κ of
    /// 40 maps to `40 × kappa_unit_mnist` in our logits. Curves are still
    /// labelled with the paper's κ values.
    pub kappa_unit_mnist: f32,
    /// Conversion from the paper's κ axis (0..100) for CIFAR.
    pub kappa_unit_cifar: f32,
    /// κ grid step for MNIST sweeps (paper: 5 on 0..40).
    pub mnist_kappa_step: usize,
    /// κ grid step for CIFAR sweeps (paper: 5 on 0..100).
    pub cifar_kappa_step: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Tiny settings for unit tests and CI — seconds of wall-clock.
    pub fn smoke() -> Self {
        Scale {
            train_size: 500,
            valid_size: 80,
            test_size: 100,
            attack_count: 8,
            classifier_epochs: 3,
            ae_epochs: 2,
            attack_iterations: 30,
            binary_search_steps: 2,
            default_filters: 3,
            robust_filters: 6,
            initial_c: 0.5,
            attack_lr: 0.02,
            label_smoothing: 0.0,
            fpr_mnist: 0.01,
            fpr_cifar: 0.05,
            ae_noise_mnist: 0.1,
            ae_noise_cifar: 0.1,
            ae_smooth_noise_cifar: 0.15,
            kappa_unit_mnist: 0.25,
            kappa_unit_cifar: 0.06,
            mnist_kappa_step: 20,
            cifar_kappa_step: 50,
            seed: 2018,
        }
    }

    /// The default single-core scale: minutes per experiment.
    pub fn quick() -> Self {
        Scale {
            train_size: 3000,
            valid_size: 500,
            test_size: 800,
            attack_count: 32,
            classifier_epochs: 4,
            ae_epochs: 4,
            attack_iterations: 60,
            binary_search_steps: 4,
            default_filters: 3,
            robust_filters: 8,
            initial_c: 0.1,
            attack_lr: 0.02,
            label_smoothing: 0.0,
            fpr_mnist: 0.002,
            fpr_cifar: 0.05,
            ae_noise_mnist: 0.1,
            ae_noise_cifar: 0.1,
            ae_smooth_noise_cifar: 0.3,
            kappa_unit_mnist: 0.25,
            kappa_unit_cifar: 0.06,
            mnist_kappa_step: 10,
            cifar_kappa_step: 25,
            seed: 2018,
        }
    }

    /// The paper's own settings. Expect hours-to-days on CPU.
    pub fn paper() -> Self {
        Scale {
            train_size: 60_000,
            valid_size: 5_000,
            test_size: 10_000,
            attack_count: 1000,
            classifier_epochs: 20,
            ae_epochs: 100,
            attack_iterations: 1000,
            binary_search_steps: 9,
            default_filters: 3,
            robust_filters: 256,
            initial_c: 1e-3,
            attack_lr: 0.01,
            label_smoothing: 0.0,
            fpr_mnist: 0.001,
            fpr_cifar: 0.005,
            ae_noise_mnist: 0.1,
            ae_noise_cifar: 0.1,
            ae_smooth_noise_cifar: 0.0,
            kappa_unit_mnist: 1.0,
            kappa_unit_cifar: 1.0,
            mnist_kappa_step: 5,
            cifar_kappa_step: 5,
            seed: 2018,
        }
    }

    /// Parses `"smoke"`, `"quick"` or `"paper"`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "quick" => Some(Self::quick()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }

    /// The factor from the paper's κ axis to `scenario`'s logit scale.
    pub fn kappa_unit(&self, scenario: Scenario) -> f32 {
        match scenario {
            Scenario::Mnist => self.kappa_unit_mnist,
            Scenario::Cifar => self.kappa_unit_cifar,
        }
    }

    /// MNIST κ grid `0..=40` at this scale's step.
    pub fn mnist_kappas(&self) -> Vec<f32> {
        (0..=40)
            .step_by(self.mnist_kappa_step.max(1))
            .map(|k| k as f32)
            .collect()
    }

    /// CIFAR κ grid `0..=100` at this scale's step.
    pub fn cifar_kappas(&self) -> Vec<f32> {
        (0..=100)
            .step_by(self.cifar_kappa_step.max(1))
            .map(|k| k as f32)
            .collect()
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::quick()
    }
}

/// Parses the common CLI arguments of the experiment binaries.
///
/// Recognized: `--scale <name>`, `--n <attack_count>`, `--iters <n>`,
/// `--seed <n>`, `--fine` (paper κ grids), `--models <dir>`, `--out <dir>`,
/// `--obs <dir>` (dump telemetry artifacts; see [`crate::obs::ObsSession`]).
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// Resolved scale.
    pub scale: Scale,
    /// Model cache directory.
    pub models_dir: String,
    /// Result output directory.
    pub out_dir: String,
    /// Observability artifact directory (`--obs`); `None` leaves telemetry
    /// at whatever `ADV_OBS` selects (off by default).
    pub obs_dir: Option<String>,
}

impl CliArgs {
    /// Parses `std::env::args`-style strings.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidConfig`] for unknown flags or scales and
    /// malformed numbers.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CliArgs, EvalError> {
        let mut scale = Scale::quick();
        let mut models_dir = "models".to_string();
        let mut out_dir = "results".to_string();
        let mut obs_dir = None;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut next = |flag: &str| {
                it.next()
                    .ok_or_else(|| EvalError::InvalidConfig(format!("{flag} requires a value")))
            };
            match arg.as_str() {
                "--scale" => {
                    let name = next("--scale")?;
                    scale = Scale::from_name(&name).ok_or_else(|| {
                        EvalError::InvalidConfig(format!(
                            "unknown scale '{name}' (smoke|quick|paper)"
                        ))
                    })?;
                }
                "--n" => {
                    scale.attack_count = next("--n")?
                        .parse()
                        .map_err(|e| EvalError::InvalidConfig(format!("--n: {e}")))?;
                }
                "--iters" => {
                    scale.attack_iterations = next("--iters")?
                        .parse()
                        .map_err(|e| EvalError::InvalidConfig(format!("--iters: {e}")))?;
                }
                "--seed" => {
                    scale.seed = next("--seed")?
                        .parse()
                        .map_err(|e| EvalError::InvalidConfig(format!("--seed: {e}")))?;
                }
                "--fine" => {
                    scale.mnist_kappa_step = 5;
                    scale.cifar_kappa_step = 5;
                }
                "--models" => models_dir = next("--models")?,
                "--out" => out_dir = next("--out")?,
                "--obs" => obs_dir = Some(next("--obs")?),
                other => {
                    return Err(EvalError::InvalidConfig(format!(
                        "unknown argument '{other}'"
                    )))
                }
            }
        }
        Ok(CliArgs {
            scale,
            models_dir,
            out_dir,
            obs_dir,
        })
    }

    /// Parses the current process arguments (skipping argv\[0\]), exiting with
    /// a usage message on error.
    pub fn from_env() -> CliArgs {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--scale smoke|quick|paper] [--n N] [--iters N] [--seed N] [--fine] [--models DIR] [--out DIR] [--obs DIR]"
                );
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let (s, q, p) = (Scale::smoke(), Scale::quick(), Scale::paper());
        assert!(s.train_size < q.train_size && q.train_size < p.train_size);
        assert!(s.attack_iterations < q.attack_iterations);
        assert!(p.attack_iterations == 1000 && p.binary_search_steps == 9);
    }

    #[test]
    fn kappa_grids_match_paper_ranges() {
        let p = Scale::paper();
        let mk = p.mnist_kappas();
        assert_eq!(mk.first(), Some(&0.0));
        assert_eq!(mk.last(), Some(&40.0));
        assert_eq!(mk.len(), 9);
        let ck = p.cifar_kappas();
        assert_eq!(ck.last(), Some(&100.0));
        assert_eq!(ck.len(), 21);
    }

    #[test]
    fn from_name_roundtrip() {
        assert_eq!(Scale::from_name("smoke"), Some(Scale::smoke()));
        assert_eq!(Scale::from_name("paper"), Some(Scale::paper()));
        assert_eq!(Scale::from_name("bogus"), None);
    }

    #[test]
    fn cli_parsing() {
        let args = CliArgs::parse(
            [
                "--scale", "smoke", "--n", "5", "--seed", "7", "--out", "o", "--obs", "obs_out",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(args.scale.attack_count, 5);
        assert_eq!(args.scale.seed, 7);
        assert_eq!(args.out_dir, "o");
        assert_eq!(args.obs_dir.as_deref(), Some("obs_out"));
        assert!(CliArgs::parse(std::iter::empty())
            .unwrap()
            .obs_dir
            .is_none());
        assert!(CliArgs::parse(["--scale".to_string()]).is_err());
        assert!(CliArgs::parse(["--obs".to_string()]).is_err());
        assert!(CliArgs::parse(["--bogus".to_string()]).is_err());
        assert!(CliArgs::parse(["--scale".to_string(), "huge".to_string()]).is_err());
    }

    #[test]
    fn fine_flag_restores_paper_grid() {
        let args = CliArgs::parse(["--fine".to_string()]).unwrap();
        assert_eq!(args.scale.mnist_kappa_step, 5);
        assert_eq!(args.scale.cifar_kappa_step, 5);
    }
}
