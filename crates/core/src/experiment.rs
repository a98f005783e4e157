//! The oblivious attack protocol (paper §III-A).
//!
//! 1. Randomly select `n` *correctly classified* test images.
//! 2. Craft untargeted adversarial examples against the **undefended**
//!    classifier (the attacker never sees MagNet).
//! 3. Keep the examples whose attack succeeded on the undefended model, and
//!    measure each defense's *classification accuracy* on them: the
//!    fraction detected or still classified correctly (after reforming).
//!    `ASR = 1 − accuracy` under the full scheme.

use crate::{EvalError, Result};
use adv_attacks::AttackOutcome;
use adv_data::Dataset;
use adv_magnet::{DefenseScheme, MagnetDefense};
use adv_nn::train::gather0;
use adv_nn::Sequential;
use adv_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The images selected for attack: all correctly classified by the victim.
#[derive(Debug, Clone)]
pub struct AttackSet {
    /// Selected images, `[n, c, h, w]`.
    pub images: Tensor,
    /// Their true labels.
    pub labels: Vec<usize>,
}

/// Selects up to `n` correctly-classified test images (the paper selects
/// 1000), shuffled by `seed`.
///
/// # Errors
///
/// Returns [`EvalError::InvalidConfig`] when the classifier gets *nothing*
/// right (no attack pool exists).
pub fn select_attack_set(
    classifier: &mut Sequential,
    test: &Dataset,
    n: usize,
    seed: u64,
) -> Result<AttackSet> {
    let mut order: Vec<usize> = (0..test.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut picked = Vec::new();
    for chunk in order.chunks(100) {
        if picked.len() >= n {
            break;
        }
        let xb = gather0(test.images(), chunk)?;
        let preds = classifier.predict(&xb)?;
        for (&i, p) in chunk.iter().zip(preds) {
            if p == test.labels()[i] {
                picked.push(i);
                if picked.len() >= n {
                    break;
                }
            }
        }
    }
    if picked.is_empty() {
        return Err(EvalError::InvalidConfig(
            "classifier classifies nothing correctly; cannot build attack set".into(),
        ));
    }
    let images = gather0(test.images(), &picked)?;
    let labels: Vec<usize> = picked.iter().map(|&i| test.labels()[i]).collect();
    Ok(AttackSet { images, labels })
}

/// The result of one oblivious attack evaluation against one defense.
#[derive(Debug, Clone)]
pub struct DefenseEvaluation {
    /// Attack success rate on the *undefended* model (`0..=1`).
    pub undefended_asr: f32,
    /// Per-scheme classification accuracy of the defense on the
    /// successfully crafted examples (`0..=1`).
    pub accuracy: [(DefenseScheme, f32); 4],
    /// Mean L1/L2 distortion over successful examples.
    pub mean_l1: Option<f32>,
    /// Mean L2 distortion over successful examples.
    pub mean_l2: Option<f32>,
}

impl DefenseEvaluation {
    /// Accuracy under a given scheme.
    pub fn accuracy_for(&self, scheme: DefenseScheme) -> f32 {
        self.accuracy
            .iter()
            .find(|(s, _)| *s == scheme)
            .map(|(_, a)| *a)
            .unwrap_or(0.0)
    }

    /// The paper's attack success rate **against the defense** (full
    /// scheme): `1 − accuracy(Full)`, as a percentage fraction in `0..=1`.
    pub fn defended_asr(&self) -> f32 {
        1.0 - self.accuracy_for(DefenseScheme::Full)
    }
}

/// Extracts the subset of `outcome` whose attack succeeded, with labels.
///
/// Returns `None` when no attack succeeded.
///
/// # Errors
///
/// Propagates tensor gather errors.
pub fn successful_examples(
    outcome: &AttackOutcome,
    labels: &[usize],
) -> Result<Option<(Tensor, Vec<usize>)>> {
    let idx: Vec<usize> = outcome
        .success
        .iter()
        .enumerate()
        .filter(|(_, &s)| s)
        .map(|(i, _)| i)
        .collect();
    if idx.is_empty() {
        return Ok(None);
    }
    let images = gather0(&outcome.adversarial, &idx)?;
    let lbls: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
    Ok(Some((images, lbls)))
}

/// Evaluates one attack outcome against one defense under all four schemes,
/// from one pass over its successful examples
/// ([`MagnetDefense::accuracies`]).
///
/// # Errors
///
/// Propagates defense pipeline errors.
pub fn evaluate_defense(
    defense: &mut MagnetDefense,
    outcome: &AttackOutcome,
    labels: &[usize],
) -> Result<DefenseEvaluation> {
    let undefended_asr = outcome.success_rate();
    let mut accuracy = [
        (DefenseScheme::None, 1.0f32),
        (DefenseScheme::DetectorOnly, 1.0),
        (DefenseScheme::ReformerOnly, 1.0),
        (DefenseScheme::Full, 1.0),
    ];
    if let Some((adv, lbls)) = successful_examples(outcome, labels)? {
        accuracy = defense.accuracies(&adv, &lbls)?;
    }
    Ok(DefenseEvaluation {
        undefended_asr,
        accuracy,
        mean_l1: outcome.mean_l1_successful(),
        mean_l2: outcome.mean_l2_successful(),
    })
}

/// Builds an [`AttackSet`] view over explicit images/labels (used when
/// reloading cached attack results).
///
/// # Errors
///
/// Returns [`EvalError::InvalidConfig`] on length mismatch.
pub fn attack_set_from_parts(images: Tensor, labels: Vec<usize>) -> Result<AttackSet> {
    if images.shape().rank() < 1 || images.shape().dim(0) != labels.len() {
        return Err(EvalError::InvalidConfig(format!(
            "attack set: {} images vs {} labels",
            images.shape().dims().first().copied().unwrap_or(0),
            labels.len()
        )));
    }
    Ok(AttackSet { images, labels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_attacks::{Attack, Fgsm};
    use adv_data::synth::mnist_like;
    use adv_nn::LayerSpec;
    use adv_tensor::Shape;

    /// A deliberately weak "classifier": logits = mean pixel vs 1 − mean.
    fn tiny_classifier() -> Sequential {
        Sequential::from_specs(
            &[
                LayerSpec::Flatten,
                LayerSpec::Dense {
                    inputs: 28 * 28,
                    outputs: 10,
                },
            ],
            1,
        )
        .unwrap()
    }

    #[test]
    fn attack_set_only_contains_correct_predictions() {
        let ds = mnist_like(60, 11);
        let mut clf = tiny_classifier();
        // Untrained classifier: most images wrong, but *some* class matches.
        match select_attack_set(&mut clf, &ds, 10, 3) {
            Ok(set) => {
                let preds = clf.predict(&set.images).unwrap();
                assert_eq!(preds, set.labels);
            }
            Err(EvalError::InvalidConfig(_)) => {
                // Acceptable: the random classifier got nothing right.
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn successful_subset_extraction() {
        let images = Tensor::from_fn(Shape::matrix(3, 4), |i| i as f32);
        let outcome =
            AttackOutcome::from_images(&images, images.clone(), vec![true, false, true]).unwrap();
        let (sub, lbls) = successful_examples(&outcome, &[7, 8, 9]).unwrap().unwrap();
        assert_eq!(sub.shape().dims(), &[2, 4]);
        assert_eq!(lbls, vec![7, 9]);
    }

    #[test]
    fn no_success_yields_none() {
        let images = Tensor::zeros(Shape::matrix(2, 4));
        let outcome =
            AttackOutcome::from_images(&images, images.clone(), vec![false, false]).unwrap();
        assert!(successful_examples(&outcome, &[0, 1]).unwrap().is_none());
    }

    #[test]
    fn attack_set_from_parts_validates() {
        let images = Tensor::zeros(Shape::matrix(2, 4));
        assert!(attack_set_from_parts(images.clone(), vec![0]).is_err());
        assert!(attack_set_from_parts(images, vec![0, 1]).is_ok());
    }

    #[test]
    fn fgsm_runs_through_oblivious_protocol() {
        // End-to-end smoke: tiny data, tiny classifier, FGSM, no defense.
        let ds = mnist_like(40, 5);
        let mut clf = tiny_classifier();
        if let Ok(set) = select_attack_set(&mut clf, &ds, 8, 1) {
            let attack = Fgsm::new(0.2).unwrap();
            let outcome = attack.run(&mut clf, &set.images, &set.labels).unwrap();
            assert_eq!(outcome.success.len(), set.labels.len());
        }
    }
}
