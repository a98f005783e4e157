//! The paper's artifacts and this repository's extension studies, one row
//! each, and the one function that writes them.
//!
//! Every table, figure and study `reproduce_all` regenerates is a row of
//! [`ARTIFACTS`]: the name `reproduce_all --only` selects, the scenarios it
//! covers and the [`Job`] it runs. A row runs as one [`Stage`] per
//! scenario, and [`Stage::output`] derives the one file name a stage writes
//! from the stage name. `experiments_md` reads the outputs of the
//! [`SUMMARISED`] rows, so no other code spells an output file name.

use crate::experiment::{evaluate_defense, select_attack_set, successful_examples};
use crate::figures::{
    defense_comparison, format_panel, loss_ablation, panels_to_csv_rows, scheme_ablation,
    scheme_ablation_grid, Panel,
};
use crate::render::{ascii_pair, write_image};
use crate::report::{opt3, pct, text_table, write_csv};
use crate::sweep::{AttackKind, SweepRunner};
use crate::tables::{
    accuracy_table, arch_tables, best_asr_table, format_accuracy_table, format_best_asr_table,
    format_table1, table1,
};
use crate::zoo::{Scenario, Variant, Zoo};
use crate::{EvalError, Result};
use adv_attacks::{Attack, DecisionRule, EadConfig, ElasticNetAttack};
use adv_magnet::graybox::ReformedModel;
use adv_magnet::{DefenseScheme, Verdict};
use adv_nn::loss::ReconstructionLoss;
use adv_nn::train::gather0;
use std::path::Path;

/// The `tables` or `figures` function behind an artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Job {
    /// Tables II / V: [`arch_tables`], written as text.
    Architectures,
    /// Table I: [`table1`].
    Table1,
    /// Tables III / VI: [`accuracy_table`].
    CleanAccuracy,
    /// Tables IV / VII: [`best_asr_table`].
    BestAsr,
    /// Figure 1: C&W and EAD examples against the default MagNet, as
    /// PGM/PPM images and ASCII pairs.
    Examples,
    /// Figures 2 / 3: [`defense_comparison`].
    DefenseComparison,
    /// Figures 4 / 5: [`scheme_ablation`].
    SchemeAblation,
    /// Figures 6–11: [`scheme_ablation_grid`] against one variant.
    SchemeGrid(Variant),
    /// Figures 12 / 13: [`loss_ablation`].
    LossAblation,
    /// Extension: the Figure 2–3 attacks crafted on the classifier alone
    /// and through the default reformer (gray-box, arXiv:1711.08478), each
    /// against the default MagNet.
    GrayBox,
    /// Extension: EAD with ISTA against FISTA and smaller budgets.
    IstaAblation,
    /// Extension: each detector's detection rate on C&W and EAD examples.
    DetectorBreakdown,
}

/// One table or figure of the paper.
#[derive(Debug)]
pub struct Artifact {
    /// The name `reproduce_all --only` takes, and the stem of its stages.
    pub name: &'static str,
    /// One stage per entry; `None` names the stage after the artifact alone.
    pub scenarios: &'static [Option<Scenario>],
    /// What its stages compute.
    pub job: Job,
}

const fn row(name: &'static str, scenarios: &'static [Option<Scenario>], job: Job) -> Artifact {
    Artifact {
        name,
        scenarios,
        job,
    }
}

const NONE: &[Option<Scenario>] = &[None];
const BOTH: &[Option<Scenario>] = &[Some(Scenario::Mnist), Some(Scenario::Cifar)];
const MNIST: &[Option<Scenario>] = &[Some(Scenario::Mnist)];
const CIFAR: &[Option<Scenario>] = &[Some(Scenario::Cifar)];

/// Every artifact `reproduce_all` regenerates, in run order.
pub const ARTIFACTS: &[Artifact] = &[
    row("tables_2_and_5", NONE, Job::Architectures),
    row("table3", MNIST, Job::CleanAccuracy),
    row("table6", CIFAR, Job::CleanAccuracy),
    row("table1", BOTH, Job::Table1),
    row("table4", MNIST, Job::BestAsr),
    row("table7", CIFAR, Job::BestAsr),
    row("fig1", BOTH, Job::Examples),
    row("fig2", MNIST, Job::DefenseComparison),
    row("fig3", CIFAR, Job::DefenseComparison),
    row("fig4", MNIST, Job::SchemeAblation),
    row("fig5", CIFAR, Job::SchemeAblation),
    row("fig6", MNIST, Job::SchemeGrid(Variant::Default)),
    row("fig7", CIFAR, Job::SchemeGrid(Variant::Default)),
    row("fig8", MNIST, Job::SchemeGrid(Variant::DefaultJsd)),
    row("fig9", MNIST, Job::SchemeGrid(Variant::Robust)),
    row("fig10", MNIST, Job::SchemeGrid(Variant::RobustJsd)),
    row("fig11", CIFAR, Job::SchemeGrid(Variant::Robust)),
    row("fig12", MNIST, Job::LossAblation),
    row("fig13", CIFAR, Job::LossAblation),
    row("graybox", BOTH, Job::GrayBox),
    row("ablation_ista", MNIST, Job::IstaAblation),
    row("detector_breakdown", BOTH, Job::DetectorBreakdown),
];

/// The artifacts whose CSVs `experiments_md` renders (the paper's beside
/// its published numbers, the extensions alone), for every scenario each
/// covers.
pub const SUMMARISED: &[&str] = &[
    "table1",
    "table3",
    "table6",
    "table4",
    "table7",
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig12",
    "graybox",
    "ablation_ista",
    "detector_breakdown",
];

impl Artifact {
    /// The stages this artifact runs as, one per scenario.
    pub fn stages(&'static self) -> impl Iterator<Item = Stage> {
        self.scenarios.iter().map(move |&scenario| Stage {
            artifact: self,
            scenario,
        })
    }
}

/// The artifacts named by a comma-separated `--only` list, in run order.
///
/// # Errors
///
/// [`EvalError::InvalidConfig`] naming the first unknown name and listing
/// the valid ones.
pub fn select(list: &str) -> Result<Vec<&'static Artifact>> {
    let names: Vec<&str> = list.split(',').map(str::trim).collect();
    if let Some(unknown) = names
        .iter()
        .find(|&&n| ARTIFACTS.iter().all(|a| a.name != n))
    {
        let valid: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        return Err(EvalError::InvalidConfig(format!(
            "unknown artifact '{unknown}' (valid: {})",
            valid.join(", ")
        )));
    }
    Ok(ARTIFACTS
        .iter()
        .filter(|a| names.contains(&a.name))
        .collect())
}

/// One artifact for one scenario: the unit `reproduce_all` records in its
/// run manifest.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// The artifact this stage belongs to.
    pub artifact: &'static Artifact,
    /// Its scenario, `None` for an artifact without one.
    pub scenario: Option<Scenario>,
}

impl Stage {
    /// The manifest key, e.g. `table1_mnist` or `tables_2_and_5`.
    pub fn name(&self) -> String {
        let suffix = self
            .scenario
            .map_or(String::new(), |s| format!("_{}", s.name()));
        format!("{}{suffix}", self.artifact.name)
    }

    /// What the stage writes under the output directory: `<stage>.csv`,
    /// `<stage>.txt` for the architecture tables, or for Figure 1 the
    /// prefix `fig1/<scenario>_` of its image files.
    pub fn output(&self) -> String {
        match (self.artifact.job, self.scenario) {
            (Job::Architectures, _) => format!("{}.txt", self.name()),
            (Job::Examples, Some(s)) => format!("{}/{}_", self.artifact.name, s.name()),
            _ => format!("{}.csv", self.name()),
        }
    }

    /// Computes the stage, prints its result and writes [`Stage::output`]
    /// (plus a figure's SVG panels) under `out`.
    ///
    /// # Errors
    ///
    /// Propagates model, attack, defense and filesystem errors.
    pub fn run(&self, zoo: &Zoo, out: &Path) -> Result<()> {
        let path = out.join(self.output());
        println!("=== {} ===", self.name());
        // Tables II / V are the only artifact without a scenario.
        let Some(s) = self.scenario else {
            return write_architectures(zoo, &path);
        };
        let (headers, csv): (Vec<&str>, _) = match self.artifact.job {
            Job::Architectures => return write_architectures(zoo, &path),
            Job::Examples => return write_examples(zoo, s, &path),
            Job::Table1 => table1_csv(zoo, s)?,
            Job::CleanAccuracy => accuracy_csv(zoo, s)?,
            Job::BestAsr => best_asr_csv(zoo, s)?,
            Job::DefenseComparison => self.figure_csv(defense_comparison(zoo, s)?, out)?,
            Job::SchemeAblation => self.figure_csv(scheme_ablation(zoo, s)?, out)?,
            Job::SchemeGrid(v) => self.figure_csv(scheme_ablation_grid(zoo, s, v)?, out)?,
            Job::LossAblation => self.figure_csv(loss_ablation(zoo, s)?, out)?,
            Job::GrayBox => printed(graybox_csv(zoo, s)?),
            Job::IstaAblation => printed(ista_ablation_csv(zoo, s)?),
            Job::DetectorBreakdown => printed(detector_breakdown_csv(zoo, s)?),
        };
        write_csv(&path, &headers, &csv)
    }

    /// Prints a figure's panels, writes them as SVGs and returns its CSV.
    fn figure_csv(&self, panels: Vec<Panel>, out: &Path) -> Result<Csv> {
        for p in &panels {
            println!("{}", format_panel(p));
        }
        crate::plot::write_panels_svg(&panels, out.join("svg"), self.artifact.name)?;
        let headers = vec!["panel", "curve", "kappa", "accuracy"];
        Ok((headers, panels_to_csv_rows(&panels)))
    }
}

/// A CSV's header and rows.
type Csv = (Vec<&'static str>, Vec<Vec<String>>);

fn write_architectures(zoo: &Zoo, path: &Path) -> Result<()> {
    let filters = zoo.scale().robust_filters;
    let text = format!(
        "{}(The paper's variants use 256 filters; this scale uses {filters}.)\n",
        arch_tables(filters)
    );
    println!("{text}");
    std::fs::write(path, text)?;
    Ok(())
}

fn table1_csv(zoo: &Zoo, scenario: Scenario) -> Result<Csv> {
    let rows = table1(zoo, scenario)?;
    println!("{}", format_table1(&rows));
    let stat = |v: Option<f32>| v.map_or_else(|| "-".into(), |v| format!("{v:.4}"));
    let csv = rows
        .iter()
        .map(|r| {
            let beta = r.beta.map_or_else(|| "NA".into(), |b| b.to_string());
            let asr = format!("{:.4}", r.asr);
            vec![
                r.attack.clone(),
                beta,
                r.kappa.to_string(),
                asr,
                stat(r.l1),
                stat(r.l2),
            ]
        })
        .collect();
    let headers = vec!["attack", "beta", "kappa", "asr", "mean_l1", "mean_l2"];
    Ok((headers, csv))
}

fn accuracy_csv(zoo: &Zoo, scenario: Scenario) -> Result<Csv> {
    let rows = accuracy_table(zoo, scenario)?;
    println!("{}", format_accuracy_table(&rows));
    let csv = rows
        .iter()
        .map(|r| {
            let (without, with) = (format!("{:.4}", r.without), format!("{:.4}", r.with));
            vec![r.variant.label().into(), without, with]
        })
        .collect();
    Ok((vec!["variant", "without_magnet", "with_magnet"], csv))
}

fn best_asr_csv(zoo: &Zoo, scenario: Scenario) -> Result<Csv> {
    let rows = best_asr_table(zoo, scenario)?;
    println!("{}", format_best_asr_table(&rows, scenario));
    let mut headers = vec!["rule", "beta"];
    headers.extend(Variant::for_scenario(scenario).iter().map(|v| v.label()));
    let csv = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.rule.label().to_string(), r.beta.to_string()];
            row.extend(r.asr.iter().map(|a| format!("{a:.4}")));
            row
        })
        .collect();
    Ok((headers, csv))
}

/// Prints a CSV as an aligned table and returns it.
fn printed(csv: Csv) -> Csv {
    println!("{}", text_table(&csv.0, &csv.1));
    csv
}

/// The oblivious setting against Carlini & Wagner's gray-box break of
/// MagNet (arXiv:1711.08478): the Figure 2–3 trio crafted on the classifier
/// alone, then through the default reformer (`F(AE(x))`), each scored
/// against the default MagNet. Gray-box examples survive reforming by
/// construction, a stronger threat model than the paper needs.
fn graybox_csv(zoo: &Zoo, scenario: Scenario) -> Result<Csv> {
    let scale = zoo.scale();
    let mut classifier = zoo.classifier(scenario)?;
    let test = zoo.data(scenario).test;
    let set = select_attack_set(
        &mut classifier,
        &test,
        scale.attack_count,
        scale.seed ^ 0x64AB,
    )?;
    let mut defense = zoo.defense(scenario, Variant::Default)?;
    let mse = ReconstructionLoss::MeanSquaredError;
    let reformer = match scenario {
        Scenario::Mnist => zoo.mnist_autoencoders(scale.default_filters, mse)?.ae_one,
        Scenario::Cifar => zoo.cifar_autoencoder(scale.default_filters, mse)?,
    };
    let mut graybox = ReformedModel::new(reformer, classifier.clone());
    let kappa = match scenario {
        Scenario::Mnist => 10.0,
        Scenario::Cifar => 25.0,
    };
    let mut csv = Vec::new();
    for kind in AttackKind::figure_trio() {
        let attack = kind.build(kappa * scale.kappa_unit(scenario), scale)?;
        let mut row = vec![kind.label(), format!("{kappa}")];
        for outcome in [
            attack.run(&mut classifier, &set.images, &set.labels)?,
            attack.run(&mut graybox, &set.images, &set.labels)?,
        ] {
            let eval = evaluate_defense(&mut defense, &outcome, &set.labels)?;
            row.push(pct(eval.undefended_asr));
            row.push(pct(1.0 - eval.accuracy_for(DefenseScheme::Full)));
        }
        csv.push(row);
    }
    let headers = vec![
        "attack",
        "kappa",
        "oblivious_crafted",
        "oblivious_asr",
        "graybox_crafted",
        "graybox_asr",
    ];
    Ok((headers, csv))
}

/// EAD with plain ISTA (paper eq. 4, the default here) against FISTA (the
/// EAD reference code) at equal budgets, then ISTA with one binary-search
/// step and with half the iterations, all at paper-κ 10 on the undefended
/// classifier.
fn ista_ablation_csv(zoo: &Zoo, scenario: Scenario) -> Result<Csv> {
    let scale = zoo.scale();
    let mut classifier = zoo.classifier(scenario)?;
    let test = zoo.data(scenario).test;
    let set = select_attack_set(
        &mut classifier,
        &test,
        scale.attack_count,
        scale.seed ^ 0xAB1A,
    )?;
    let (iters, steps) = (scale.attack_iterations, scale.binary_search_steps);
    let mut csv = Vec::new();
    for (label, fista, iters, steps) in [
        ("ISTA", false, iters, steps),
        ("FISTA", true, iters, steps),
        ("ISTA, 1 bs step", false, iters, 1),
        ("ISTA, half iters", false, iters / 2, steps),
    ] {
        let attack = ElasticNetAttack::new(EadConfig {
            kappa: 10.0 * scale.kappa_unit(scenario),
            beta: 0.01,
            iterations: iters.max(1),
            binary_search_steps: steps,
            initial_c: scale.initial_c,
            learning_rate: scale.attack_lr,
            rule: DecisionRule::ElasticNet,
            fista,
        })?;
        let outcome = attack.run(&mut classifier, &set.images, &set.labels)?;
        csv.push(vec![
            label.to_string(),
            format!("{iters}x{steps}"),
            pct(outcome.success_rate()),
            opt3(outcome.mean_l1_successful()),
            opt3(outcome.mean_l2_successful()),
        ]);
    }
    Ok((vec!["variant", "budget", "asr", "mean_l1", "mean_l2"], csv))
}

/// Which detector catches which attack: each detector's share of the
/// successful C&W and EAD-EN (β = 0.1) examples it flags. MNIST uses
/// D+JSD so that all four detectors appear; CIFAR's default already has
/// them. The paper's mechanism shows as a higher rate for C&W than for EAD
/// on the same detector.
fn detector_breakdown_csv(zoo: &Zoo, scenario: Scenario) -> Result<Csv> {
    let (kappa, variant) = match scenario {
        Scenario::Mnist => (15.0, Variant::DefaultJsd),
        Scenario::Cifar => (50.0, Variant::Default),
    };
    let mut runner = SweepRunner::new(zoo, scenario)?;
    let defense = zoo.defense(scenario, variant)?;
    let labels = runner.attack_set().labels.clone();
    let mut csv = Vec::new();
    for kind in [
        AttackKind::Cw,
        AttackKind::Ead {
            rule: DecisionRule::ElasticNet,
            beta: 0.1,
        },
    ] {
        let outcome = runner.outcome(&kind, kappa)?;
        let Some((adv, _)) = successful_examples(&outcome, &labels)? else {
            continue;
        };
        let n = adv.shape().dim(0) as f32;
        for (detector, flags) in defense.detect_breakdown(&adv)? {
            let rate = flags.iter().filter(|&&f| f).count() as f32 / n;
            csv.push(vec![
                kind.label(),
                format!("{kappa}"),
                detector,
                format!("{:.1}", rate * 100.0),
            ]);
        }
    }
    Ok((vec!["attack", "kappa", "detector", "detection_rate"], csv))
}

/// Figure 1: up to four successful C&W and EAD-EN examples per scenario,
/// each printed beside its original with its MagNet verdict and written as
/// `<prefix><attack>_<i>_{orig,adv}.{pgm,ppm}`.
fn write_examples(zoo: &Zoo, scenario: Scenario, prefix: &Path) -> Result<()> {
    let kappa = match scenario {
        Scenario::Mnist => 15.0,
        Scenario::Cifar => 20.0,
    };
    let mut runner = SweepRunner::new(zoo, scenario)?;
    let defense = zoo.defense(scenario, Variant::Default)?;
    let mut written = 0;
    for kind in [
        AttackKind::Cw,
        AttackKind::Ead {
            rule: DecisionRule::ElasticNet,
            beta: 0.1,
        },
    ] {
        let outcome = runner.outcome(&kind, kappa)?;
        let set = runner.attack_set();
        let Some((adv, adv_labels)) = successful_examples(&outcome, &set.labels)? else {
            println!("{}: no successful examples", kind.label());
            continue;
        };
        let verdicts = defense.classify(&adv, DefenseScheme::Full)?;
        // The attack set index of each successful example, in `adv` order.
        let originals = outcome
            .success
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(j, _)| j);
        println!("\n--- {} (kappa={kappa}) ---", kind.label());
        let shown = originals.zip(verdicts).zip(adv_labels).take(4);
        for (i, ((orig_idx, verdict), label)) in shown.enumerate() {
            let orig = gather0(&set.images, &[orig_idx])?;
            let one = gather0(&adv, &[i])?;
            let status = match verdict {
                Verdict::Detected => "DETECTED by MagNet ✗".to_string(),
                Verdict::Classified(p) if p == label => {
                    format!("reformed to correct class {p} ✗")
                }
                Verdict::Classified(p) => format!("BYPASSES MagNet → class {p} ✓"),
            };
            let header =
                format!("true label {label} | original (left) vs adversarial (right) | {status}");
            println!("{}", ascii_pair(&orig, &one, &header)?);

            let base = format!(
                "{}{}_{i}",
                prefix.display(),
                crate::cache::slug(&kind.label())
            );
            write_image(&orig, &format!("{base}_orig"))?;
            write_image(&one, &format!("{base}_adv"))?;
            written += 1;
        }
    }
    let dir = prefix.parent().unwrap_or(prefix);
    println!("{written} example pair(s) written under {}/", dir.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn all_stages() -> Vec<Stage> {
        ARTIFACTS.iter().flat_map(Artifact::stages).collect()
    }

    #[test]
    fn names_and_outputs_are_unique_and_the_golden_holds_every_file() {
        let names: HashSet<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), ARTIFACTS.len());
        for a in ARTIFACTS {
            assert_eq!(
                a.scenarios == NONE,
                a.job == Job::Architectures,
                "{}",
                a.name
            );
        }
        let mut outputs: Vec<String> = all_stages().iter().map(Stage::output).collect();
        let stages: HashSet<String> = all_stages().iter().map(Stage::name).collect();
        assert_eq!(stages.len(), outputs.len());
        assert_eq!(outputs.iter().collect::<HashSet<_>>().len(), outputs.len());

        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/smoke");
        let mut files: Vec<String> = std::fs::read_dir(golden)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        outputs.retain(|o| o.ends_with(".csv") || o.ends_with(".txt"));
        outputs.sort();
        assert_eq!(files, outputs);
    }

    #[test]
    fn only_resolves_every_name_and_rejects_unknown_ones() {
        let all: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        for name in &all {
            assert_eq!(select(name).unwrap()[0].name, *name);
        }
        assert_eq!(select(&all.join(",")).unwrap().len(), ARTIFACTS.len());
        // A list comes back in run order, once per name.
        let picked: Vec<&str> = select("fig4,table3,fig4")
            .unwrap()
            .iter()
            .map(|a| a.name)
            .collect();
        assert_eq!(picked, ["table3", "fig4"]);
        for bad in ["table2", "", "table1,fig99", "fig1_mnist"] {
            let Err(EvalError::InvalidConfig(msg)) = select(bad) else {
                panic!("'{bad}' was accepted");
            };
            assert!(msg.contains("table1") && msg.contains("fig13"), "{msg}");
        }
    }

    #[test]
    fn every_summarised_csv_is_written_by_exactly_one_stage() {
        let stages = all_stages();
        for stage in select(&SUMMARISED.join(","))
            .unwrap()
            .into_iter()
            .flat_map(Artifact::stages)
        {
            let file = stage.output();
            assert!(file.ends_with(".csv") && stage.scenario.is_some(), "{file}");
            assert_eq!(
                stages.iter().filter(|s| s.output() == file).count(),
                1,
                "{file}"
            );
        }
    }
}
