//! Reproduction of the paper's tables.
//!
//! | Paper table | Function |
//! |---|---|
//! | Table I  | [`table1`] — attacks vs default MagNet: ASR + mean L1/L2 |
//! | Table II/V | [`arch_tables`] — robust auto-encoder architectures |
//! | Table III | [`accuracy_table`] (MNIST) — clean accuracy with/without MagNet |
//! | Table IV | [`best_asr_table`] (MNIST) — best EAD ASR per rule × β × variant |
//! | Table VI | [`accuracy_table`] (CIFAR) |
//! | Table VII | [`best_asr_table`] (CIFAR) |

use crate::figures::kappas_for;
use crate::report::{opt3, pct};
use crate::sweep::{AttackKind, SweepRunner};
use crate::zoo::{classifier_accuracy, defended_clean_accuracy, Scenario, Variant, Zoo};
use crate::Result;
use adv_attacks::DecisionRule;
use adv_magnet::arch;

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Attack description ("C&W (L2)" or "EAD (EN rule)" etc.).
    pub attack: String,
    /// β (None for C&W).
    pub beta: Option<f32>,
    /// The κ at which the defended ASR peaked.
    pub kappa: f32,
    /// Best ASR against the default MagNet (fraction).
    pub asr: f32,
    /// Mean L1 distortion over successful examples.
    pub l1: Option<f32>,
    /// Mean L2 distortion over successful examples.
    pub l2: Option<f32>,
}

/// Computes Table I for one scenario: for every attack configuration, sweep
/// κ against the *default* MagNet and report the best defended ASR with the
/// distortion statistics at that κ.
///
/// # Errors
///
/// Propagates model training, attack and defense errors.
pub fn table1(zoo: &Zoo, scenario: Scenario) -> Result<Vec<Table1Row>> {
    let kappas = kappas_for(zoo, scenario);
    let mut runner = SweepRunner::new(zoo, scenario)?;
    let mut defense = zoo.defense(scenario, Variant::Default)?;

    let mut kinds = vec![AttackKind::Cw];
    kinds.extend(AttackKind::ead_grid());

    let mut rows = Vec::with_capacity(kinds.len());
    for kind in kinds {
        let mut best: Option<Table1Row> = None;
        for &kappa in &kappas {
            let eval = runner.evaluate(&kind, kappa, &mut defense)?;
            let asr = eval.defended_asr();
            if best.as_ref().is_none_or(|b| asr > b.asr) {
                let (attack, beta) = match kind {
                    AttackKind::Cw => ("C&W (L2)".to_string(), None),
                    AttackKind::Ead { rule, beta } => {
                        (format!("EAD ({} rule)", rule.label()), Some(beta))
                    }
                };
                best = Some(Table1Row {
                    attack,
                    beta,
                    kappa,
                    asr,
                    l1: eval.mean_l1,
                    l2: eval.mean_l2,
                });
            }
        }
        rows.push(best.expect("kappa grid is non-empty"));
    }
    Ok(rows)
}

/// Formats Table I rows for the terminal.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.attack.clone(),
                r.beta
                    .map(|b| format!("{b}"))
                    .unwrap_or_else(|| "NA".into()),
                format!("{}", r.kappa),
                pct(r.asr),
                opt3(r.l1),
                opt3(r.l2),
            ]
        })
        .collect();
    crate::report::text_table(
        &["Attack method", "beta", "kappa", "ASR %", "L1", "L2"],
        &body,
    )
}

/// One row of Tables III / VI.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Defense variant.
    pub variant: Variant,
    /// Test accuracy without MagNet (fraction).
    pub without: f32,
    /// Test accuracy with MagNet (detectors may wrongly reject clean data).
    pub with: f32,
}

/// Computes Table III (MNIST) / Table VI (CIFAR): clean test accuracy with
/// and without each MagNet variant.
///
/// # Errors
///
/// Propagates model training and pipeline errors.
pub fn accuracy_table(zoo: &Zoo, scenario: Scenario) -> Result<Vec<AccuracyRow>> {
    let mut classifier = zoo.classifier(scenario)?;
    let data = zoo.data(scenario);
    let without = classifier_accuracy(&mut classifier, &data.test)?;
    let mut rows = Vec::new();
    for &variant in Variant::for_scenario(scenario) {
        let mut defense = zoo.defense(scenario, variant)?;
        let with = defended_clean_accuracy(&mut defense, &data.test)?;
        rows.push(AccuracyRow {
            variant,
            without,
            with,
        });
    }
    Ok(rows)
}

/// Formats accuracy rows for the terminal.
pub fn format_accuracy_table(rows: &[AccuracyRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.variant.label().to_string(), pct(r.without), pct(r.with)])
        .collect();
    crate::report::text_table(&["Variant", "Without MagNet %", "With MagNet %"], &body)
}

/// One row of Tables IV / VII: best EAD ASR per (rule, β) across κ, one
/// column per defense variant.
#[derive(Debug, Clone)]
pub struct BestAsrRow {
    /// Decision rule.
    pub rule: DecisionRule,
    /// β.
    pub beta: f32,
    /// Best ASR per variant (fraction), ordered like
    /// [`Variant::for_scenario`].
    pub asr: Vec<f32>,
}

/// Computes Table IV (MNIST) / Table VII (CIFAR).
///
/// # Errors
///
/// Propagates attack and defense errors.
pub fn best_asr_table(zoo: &Zoo, scenario: Scenario) -> Result<Vec<BestAsrRow>> {
    let kappas = kappas_for(zoo, scenario);
    let variants = Variant::for_scenario(scenario);
    let mut runner = SweepRunner::new(zoo, scenario)?;
    let mut defenses = variants
        .iter()
        .map(|&v| zoo.defense(scenario, v))
        .collect::<Result<Vec<_>>>()?;

    let mut rows = Vec::new();
    for kind in AttackKind::ead_grid() {
        let AttackKind::Ead { rule, beta } = kind else {
            continue;
        };
        let mut asr = Vec::with_capacity(defenses.len());
        for defense in defenses.iter_mut() {
            asr.push(runner.best_asr(&kind, &kappas, defense)?);
        }
        rows.push(BestAsrRow { rule, beta, asr });
    }
    Ok(rows)
}

/// Formats best-ASR rows for the terminal.
pub fn format_best_asr_table(rows: &[BestAsrRow], scenario: Scenario) -> String {
    let mut headers = vec!["Rule", "beta"];
    headers.extend(Variant::for_scenario(scenario).iter().map(|v| v.label()));
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![format!("EAD ({})", r.rule.label()), format!("{}", r.beta)];
            row.extend(r.asr.iter().map(|&a| pct(a)));
            row
        })
        .collect();
    crate::report::text_table(&headers, &body)
}

/// Renders the robust auto-encoder architectures of Tables II and V.
pub fn arch_tables(robust_filters: usize) -> String {
    let mut out = String::new();
    out.push_str("Table II — robust MagNet architecture on MNIST\n");
    out.push_str(&format!(
        "(paper uses 256 filters; this build uses {robust_filters})\n\n"
    ));
    out.push_str("Detector I & Reformer:\n");
    for line in arch::describe(&arch::mnist_ae_one(1, robust_filters)) {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str("Detector II:\n");
    for line in arch::describe(&arch::mnist_ae_two(1, robust_filters)) {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str("\nTable V — robust MagNet architecture on CIFAR-10\n\n");
    out.push_str("Detectors & Reformer:\n");
    for line in arch::describe(&arch::cifar_ae(3, robust_filters)) {
        out.push_str(&format!("  {line}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    #[test]
    fn arch_tables_render() {
        let t = arch_tables(256);
        assert!(t.contains("Table II"));
        assert!(t.contains("Table V"));
        assert!(t.contains("Conv 3x3x256"));
        assert!(t.contains("AveragePooling 2x2"));
    }

    #[test]
    fn format_table1_has_paper_columns() {
        let rows = vec![Table1Row {
            attack: "C&W (L2)".into(),
            beta: None,
            kappa: 15.0,
            asr: 0.10,
            l1: Some(3.553),
            l2: Some(1.477),
        }];
        let s = format_table1(&rows);
        assert!(s.contains("ASR %"));
        assert!(s.contains("10.0"));
        assert!(s.contains("3.553"));
        assert!(s.contains("NA"));
    }

    #[test]
    fn format_best_asr_columns_match_variants() {
        let rows = vec![BestAsrRow {
            rule: DecisionRule::ElasticNet,
            beta: 0.01,
            asr: vec![0.878, 0.34, 0.901, 0.395],
        }];
        let s = format_best_asr_table(&rows, Scenario::Mnist);
        assert!(s.contains("D+256+JSD"));
        assert!(s.contains("87.8"));
    }

    #[test]
    fn smoke_accuracy_table() {
        let dir = std::env::temp_dir().join("adv_eval_tables_smoke");
        std::fs::remove_dir_all(&dir).ok();
        let mut scale = Scale::smoke();
        // Keep this test fast: only the default variant's models get trained.
        scale.robust_filters = scale.default_filters;
        let zoo = Zoo::new(&dir, scale);
        let rows = accuracy_table(&zoo, Scenario::Cifar).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.without));
            assert!((0.0..=1.0).contains(&r.with));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
