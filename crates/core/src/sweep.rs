//! Confidence (κ) sweeps with attack-result caching.
//!
//! A key property of the oblivious setting is that the crafted adversarial
//! examples depend only on the *attack configuration and the undefended
//! classifier* — never on the defense. One attack run per (attack, κ) is
//! therefore shared by every defense variant, every scheme ablation and
//! every table row, and the [`SweepRunner`] caches those runs on disk.

use crate::cache::{attack_cache_path, load_outcome, store_outcome};
use crate::config::Scale;
use crate::experiment::{evaluate_defense, select_attack_set, AttackSet, DefenseEvaluation};
use crate::zoo::{Scenario, Zoo};
use crate::Result;
use adv_attacks::{
    Attack, AttackOutcome, CarliniWagnerL2, CwConfig, DecisionRule, EadConfig, ElasticNetAttack,
};
use adv_magnet::{DefenseScheme, MagnetDefense};
use adv_nn::Sequential;
use adv_store::codec::{DecodeError, Reader, Writer};
use adv_tensor::{Shape, Tensor};

/// An attack family to sweep (κ is supplied per point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackKind {
    /// C&W L2 (EAD with β = 0).
    Cw,
    /// EAD with a decision rule and β.
    Ead {
        /// Decision rule for the reported example.
        rule: DecisionRule,
        /// L1 regularization strength.
        beta: f32,
    },
}

impl AttackKind {
    /// The EAD grid the paper sweeps: both rules × β ∈ {1e-3, 1e-2, 5e-2, 1e-1}.
    pub fn ead_grid() -> Vec<AttackKind> {
        let mut kinds = Vec::new();
        for rule in [DecisionRule::ElasticNet, DecisionRule::L1] {
            for beta in [1e-3f32, 1e-2, 5e-2, 1e-1] {
                kinds.push(AttackKind::Ead { rule, beta });
            }
        }
        kinds
    }

    /// The three attacks plotted in Figures 2–3: C&W plus EAD-L1/EAD-EN at
    /// β = 0.1.
    pub fn figure_trio() -> Vec<AttackKind> {
        vec![
            AttackKind::Cw,
            AttackKind::Ead {
                rule: DecisionRule::L1,
                beta: 0.1,
            },
            AttackKind::Ead {
                rule: DecisionRule::ElasticNet,
                beta: 0.1,
            },
        ]
    }

    /// Legend label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            AttackKind::Cw => "C&W L2 attack".to_string(),
            AttackKind::Ead { rule, beta } => {
                format!("EAD-{} beta={beta}", rule.label())
            }
        }
    }

    /// Builds the concrete attack at a given κ and scale.
    ///
    /// # Errors
    ///
    /// Propagates attack config validation errors.
    pub fn build(&self, kappa: f32, scale: &Scale) -> Result<Box<dyn Attack>> {
        Ok(match self {
            AttackKind::Cw => Box::new(CarliniWagnerL2::new(CwConfig {
                kappa,
                iterations: scale.attack_iterations,
                binary_search_steps: scale.binary_search_steps,
                initial_c: scale.initial_c,
                learning_rate: scale.attack_lr,
            })?),
            AttackKind::Ead { rule, beta } => Box::new(ElasticNetAttack::new(EadConfig {
                kappa,
                beta: *beta,
                rule: *rule,
                iterations: scale.attack_iterations,
                binary_search_steps: scale.binary_search_steps,
                initial_c: scale.initial_c,
                learning_rate: scale.attack_lr,
                ..EadConfig::default()
            })?),
        })
    }
}

/// One point of an accuracy-vs-confidence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Attack confidence κ.
    pub kappa: f32,
    /// Defense classification accuracy (`0..=1`).
    pub accuracy: f32,
}

/// A labelled accuracy-vs-confidence series (one line of a paper figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Legend label.
    pub label: String,
    /// Points in κ order.
    pub points: Vec<CurvePoint>,
}

/// Runs attacks against one scenario's undefended classifier, caching the
/// adversarial examples on disk, and evaluates them against defenses.
#[derive(Debug)]
pub struct SweepRunner {
    scenario: Scenario,
    scale: Scale,
    cache_dir: std::path::PathBuf,
    classifier: Sequential,
    set: AttackSet,
}

impl SweepRunner {
    /// Builds the runner: loads/trains the classifier and selects the attack
    /// set.
    ///
    /// # Errors
    ///
    /// Propagates training errors; fails when the classifier has no correct
    /// predictions to attack.
    pub fn new(zoo: &Zoo, scenario: Scenario) -> Result<Self> {
        let mut classifier = zoo.classifier(scenario)?;
        let data = zoo.data(scenario);
        let set = select_attack_set(
            &mut classifier,
            &data.test,
            zoo.scale().attack_count,
            zoo.scale().seed ^ 0xA77AC4,
        )?;
        Ok(SweepRunner {
            scenario,
            scale: *zoo.scale(),
            cache_dir: zoo.dir().join("attacks"),
            classifier,
            set,
        })
    }

    /// The images under attack.
    pub fn attack_set(&self) -> &AttackSet {
        &self.set
    }

    /// The undefended classifier.
    pub fn classifier_mut(&mut self) -> &mut Sequential {
        &mut self.classifier
    }

    /// The conversion factor from paper-κ to this substrate's logit units.
    pub fn kappa_unit(&self) -> f32 {
        self.scale.kappa_unit(self.scenario)
    }

    /// Runs (or loads from cache) one attack at one paper-κ.
    ///
    /// The κ passed to the attack is `kappa × kappa_unit` — curves stay
    /// labelled with the paper's axis while the confidence requirement is
    /// expressed in this victim's logit scale (see `Scale::kappa_unit_*`).
    ///
    /// # Errors
    ///
    /// Propagates attack errors and cache I/O errors.
    pub fn outcome(&mut self, kind: &AttackKind, kappa: f32) -> Result<AttackOutcome> {
        let attack = kind.build(kappa * self.kappa_unit(), &self.scale)?;
        let path = attack_cache_path(
            &self.cache_dir,
            self.scenario.name(),
            &attack.name(),
            self.set.labels.len(),
            self.scale.attack_iterations,
            self.scale.binary_search_steps,
            self.scale.initial_c,
            self.scale.attack_lr,
            self.scale.seed,
            crate::cache::content_fingerprint(&self.set.images),
        );
        if let Some(outcome) = load_outcome(&path, &self.set.images) {
            return Ok(outcome);
        }
        let outcome = self.craft_journaled(&*attack, &path)?;
        store_outcome(&path, &outcome)?;
        Ok(outcome)
    }

    /// Crafts the attack set one sample at a time, appending each finished
    /// sample to an on-disk journal next to the cache entry. A run killed
    /// mid-sweep replays the journal on the next call and recrafts only the
    /// samples that never reached disk; the journal is deleted once the
    /// assembled outcome lands in the durable `.atk` cache.
    fn craft_journaled(
        &mut self,
        attack: &dyn Attack,
        cache_path: &std::path::Path,
    ) -> Result<AttackOutcome> {
        let n = self.set.labels.len();
        let item = self.set.images.shape().volume() / n.max(1);
        let jpath = cache_path.with_extension("atk.journal");
        let context = crate::cache::content_fingerprint(&self.set.images);
        let mut journal = adv_store::Journal::open(&jpath, context)?;

        let mut adversarial = self.set.images.clone();
        let mut success = vec![false; n];
        let mut done = 0usize;
        let mut stale = false;
        for rec in journal.records() {
            match decode_record(rec, item) {
                Ok((index, ok, values)) if index == done && done < n => {
                    success[done] = ok;
                    adversarial.as_mut_slice()[done * item..(done + 1) * item]
                        .copy_from_slice(&values);
                    done += 1;
                }
                _ => {
                    stale = true;
                    break;
                }
            }
        }
        if stale {
            // Out-of-sequence or malformed payload: the journal predates a
            // format/logic change. Drop it and craft from scratch.
            done = 0;
            adversarial = self.set.images.clone();
            success = vec![false; n];
            journal = adv_store::Journal::open_fresh(&jpath, context)?;
        }
        if done > 0 && done < n {
            adv_store::bump_counter(adv_store::metric_names::RESUMES);
            eprintln!("sweep: resuming {} at sample {done}/{n}", jpath.display());
        }

        let mut sample_dims: Vec<usize> = self.set.images.shape().dims().to_vec();
        if let Some(first) = sample_dims.first_mut() {
            *first = 1;
        }
        for (i, succ) in success.iter_mut().enumerate().skip(done) {
            let xs = &self.set.images.as_slice()[i * item..(i + 1) * item];
            let xi = Tensor::from_vec(xs.to_vec(), Shape::new(sample_dims.clone()))?;
            let out = attack.run(&mut self.classifier, &xi, &[self.set.labels[i]])?;
            *succ = out.success.first().copied().unwrap_or(false);
            let dst = &mut adversarial.as_mut_slice()[i * item..(i + 1) * item];
            dst.copy_from_slice(out.adversarial.as_slice());
            journal.append(&encode_record(i, *succ, out.adversarial.as_slice()))?;
        }

        let outcome = AttackOutcome::from_images(&self.set.images, adversarial, success)?;
        journal.remove()?;
        Ok(outcome)
    }

    /// Evaluates one (attack, κ) against one defense under all schemes.
    ///
    /// # Errors
    ///
    /// Propagates attack and defense errors.
    pub fn evaluate(
        &mut self,
        kind: &AttackKind,
        kappa: f32,
        defense: &mut MagnetDefense,
    ) -> Result<DefenseEvaluation> {
        let outcome = self.outcome(kind, kappa)?;
        evaluate_defense(defense, &outcome, &self.set.labels)
    }

    /// The accuracy-vs-κ curve of one attack against one defense under one
    /// scheme (a single line of Figures 2–13).
    ///
    /// # Errors
    ///
    /// Propagates attack and defense errors.
    pub fn curve(
        &mut self,
        kind: &AttackKind,
        kappas: &[f32],
        defense: &mut MagnetDefense,
        scheme: DefenseScheme,
    ) -> Result<Curve> {
        let mut points = Vec::with_capacity(kappas.len());
        for &kappa in kappas {
            let eval = self.evaluate(kind, kappa, defense)?;
            points.push(CurvePoint {
                kappa,
                accuracy: eval.accuracy_for(scheme),
            });
        }
        Ok(Curve {
            label: kind.label(),
            points,
        })
    }

    /// All four scheme-ablation curves for one attack (one panel of the
    /// supplementary figures).
    ///
    /// # Errors
    ///
    /// Propagates attack and defense errors.
    pub fn scheme_curves(
        &mut self,
        kind: &AttackKind,
        kappas: &[f32],
        defense: &mut MagnetDefense,
    ) -> Result<Vec<Curve>> {
        let mut per_scheme: Vec<Curve> = DefenseScheme::ALL
            .iter()
            .map(|s| Curve {
                label: s.label().to_string(),
                points: Vec::with_capacity(kappas.len()),
            })
            .collect();
        for &kappa in kappas {
            let eval = self.evaluate(kind, kappa, defense)?;
            for (curve, scheme) in per_scheme.iter_mut().zip(DefenseScheme::ALL) {
                curve.points.push(CurvePoint {
                    kappa,
                    accuracy: eval.accuracy_for(scheme),
                });
            }
        }
        Ok(per_scheme)
    }

    /// The best (maximum) defended ASR over a κ grid — the statistic of
    /// Tables IV and VII.
    ///
    /// # Errors
    ///
    /// Propagates attack and defense errors.
    pub fn best_asr(
        &mut self,
        kind: &AttackKind,
        kappas: &[f32],
        defense: &mut MagnetDefense,
    ) -> Result<f32> {
        let mut best = 0.0f32;
        for &kappa in kappas {
            let eval = self.evaluate(kind, kappa, defense)?;
            best = best.max(eval.defended_asr());
        }
        Ok(best)
    }
}

/// One journaled sample: `index u32 | success u8 | values f32…`.
fn encode_record(index: usize, success: bool, values: &[f32]) -> Vec<u8> {
    let mut w = Writer::with_capacity(4 + 1 + values.len() * 4);
    w.u32(index as u32).u8(u8::from(success)).f32s(values);
    w.into_vec()
}

/// Decodes a record of `item` values written by [`encode_record`].
fn decode_record(
    rec: &[u8],
    item: usize,
) -> std::result::Result<(usize, bool, Vec<f32>), DecodeError> {
    let mut r = Reader::new(rec);
    let record = (r.u32()? as usize, r.u8()? != 0, r.f32s(item)?);
    r.finish()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ead_grid_covers_paper_table() {
        let grid = AttackKind::ead_grid();
        assert_eq!(grid.len(), 8);
        assert!(grid.iter().any(|k| matches!(
            k,
            AttackKind::Ead {
                rule: DecisionRule::L1,
                beta
            } if (*beta - 0.05).abs() < 1e-9
        )));
    }

    #[test]
    fn figure_trio_labels() {
        let trio = AttackKind::figure_trio();
        assert_eq!(trio[0].label(), "C&W L2 attack");
        assert_eq!(trio[1].label(), "EAD-L1 beta=0.1");
        assert_eq!(trio[2].label(), "EAD-EN beta=0.1");
    }

    #[test]
    fn kinds_build_attacks_with_kappa() {
        let scale = Scale::smoke();
        let cw = AttackKind::Cw.build(15.0, &scale).unwrap();
        assert!(cw.name().contains("kappa=15"));
        let ead = AttackKind::Ead {
            rule: DecisionRule::ElasticNet,
            beta: 0.01,
        }
        .build(20.0, &scale)
        .unwrap();
        assert!(ead.name().contains("kappa=20"));
        assert!(ead.name().contains("beta=0.01"));
    }

    #[test]
    fn grid_members_have_distinct_labels() {
        let mut labels: Vec<String> = AttackKind::ead_grid().iter().map(|k| k.label()).collect();
        labels.push(AttackKind::Cw.label());
        let before = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), before, "duplicate attack labels");
    }

    #[test]
    fn journaled_crafting_resumes_mid_sweep() {
        let dir = std::env::temp_dir().join("adv_eval_sweep_resume");
        std::fs::remove_dir_all(&dir).ok();
        let zoo = Zoo::new(&dir, Scale::smoke());
        let mut runner = SweepRunner::new(&zoo, Scenario::Mnist).unwrap();
        let kind = AttackKind::Cw;
        let full = runner.outcome(&kind, 0.0).unwrap();

        // Simulate a kill after half the samples: drop the cache entry and
        // plant a journal holding only the first k crafted samples.
        let attack = kind.build(0.0, &runner.scale).unwrap();
        let n = runner.set.labels.len();
        let item = runner.set.images.shape().volume() / n;
        let path = attack_cache_path(
            &runner.cache_dir,
            runner.scenario.name(),
            &attack.name(),
            n,
            runner.scale.attack_iterations,
            runner.scale.binary_search_steps,
            runner.scale.initial_c,
            runner.scale.attack_lr,
            runner.scale.seed,
            crate::cache::content_fingerprint(&runner.set.images),
        );
        std::fs::remove_file(&path).unwrap();
        let jpath = path.with_extension("atk.journal");
        let fp = crate::cache::content_fingerprint(&runner.set.images);
        let k = n / 2;
        let mut journal = adv_store::Journal::open(&jpath, fp).unwrap();
        for i in 0..k {
            let values = &full.adversarial.as_slice()[i * item..(i + 1) * item];
            journal
                .append(&encode_record(i, full.success[i], values))
                .unwrap();
        }
        drop(journal);

        // The rerun must replay the journal, recraft only the tail, and end
        // bit-identical to the uninterrupted run.
        let resumed = runner.outcome(&kind, 0.0).unwrap();
        assert_eq!(resumed.adversarial, full.adversarial);
        assert_eq!(resumed.success, full.success);
        assert!(!jpath.exists(), "journal must be deleted after commit");
        assert!(path.exists(), "cache entry must be rebuilt");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn smoke_sweep_end_to_end() {
        // Full pipeline at smoke scale: zoo → runner → cached attack →
        // defense evaluation. This is the most important integration path.
        let dir = std::env::temp_dir().join("adv_eval_sweep_smoke");
        std::fs::remove_dir_all(&dir).ok();
        let zoo = Zoo::new(&dir, Scale::smoke());
        let mut runner = SweepRunner::new(&zoo, Scenario::Mnist).unwrap();
        let mut defense = zoo
            .defense(Scenario::Mnist, crate::zoo::Variant::Default)
            .unwrap();

        let kind = AttackKind::Ead {
            rule: DecisionRule::ElasticNet,
            beta: 0.01,
        };
        let eval = runner.evaluate(&kind, 0.0, &mut defense).unwrap();
        assert!((0.0..=1.0).contains(&eval.undefended_asr));

        // Second call must hit the cache (same result).
        let eval2 = runner.evaluate(&kind, 0.0, &mut defense).unwrap();
        assert_eq!(eval.undefended_asr, eval2.undefended_asr);

        let curves = runner.scheme_curves(&kind, &[0.0], &mut defense).unwrap();
        assert_eq!(curves.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_record_bytes_are_pinned_and_every_prefix_is_rejected() {
        let values = [0.0, 0.5, -1.25, 3.0e-7];
        let bytes = encode_record(3, true, &values);
        let hash = adv_store::codec::fnv64(&bytes);
        assert_eq!(hash, 0xd2d4_e3dd_f739_a1e5, "{hash:#018x}");
        assert_eq!(decode_record(&bytes, 4), Ok((3, true, values.to_vec())));
        assert!(
            decode_record(&bytes, 3).is_err(),
            "a record longer than an item"
        );
        for cut in 0..bytes.len() {
            assert!(decode_record(&bytes[..cut], 4).is_err(), "prefix {cut}");
        }
        for bad in adv_store::codec::single_bit_flips(&bytes) {
            let _ = decode_record(&bad, 4);
        }
    }
}
