//! Reproduction of the paper's figures (as data series; CSV + terminal
//! sparklines rather than pixels).
//!
//! | Paper figure | Function |
//! |---|---|
//! | Fig. 2 (a–d) | [`defense_comparison`] (MNIST, one panel per variant) |
//! | Fig. 3 (a–b) | [`defense_comparison`] (CIFAR) |
//! | Fig. 4 / 5 | [`scheme_ablation`] with the C&W attack |
//! | Fig. 6–11 | [`scheme_ablation_grid`] with the EAD β × rule grid |
//! | Fig. 12 / 13 | [`loss_ablation`] (MSE- vs MAE-trained auto-encoders) |

use crate::sweep::{AttackKind, Curve, SweepRunner};
use crate::zoo::{Scenario, Variant, Zoo};
use crate::Result;
use adv_attacks::DecisionRule;
use adv_magnet::DefenseScheme;

/// One figure panel: a titled set of curves over the κ grid.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Panel title (e.g. "Default (D)" or "L1 decision rule beta=0.01").
    pub title: String,
    /// The curves of this panel.
    pub curves: Vec<Curve>,
}

/// The scale's κ grid for `scenario`.
pub(crate) fn kappas_for(zoo: &Zoo, scenario: Scenario) -> Vec<f32> {
    match scenario {
        Scenario::Mnist => zoo.scale().mnist_kappas(),
        Scenario::Cifar => zoo.scale().cifar_kappas(),
    }
}

/// Figures 2 / 3: defense accuracy (full scheme) vs κ for C&W, EAD-L1 and
/// EAD-EN (β = 0.1), one panel per defense variant.
///
/// # Errors
///
/// Propagates model, attack and defense errors.
pub fn defense_comparison(zoo: &Zoo, scenario: Scenario) -> Result<Vec<Panel>> {
    let kappas = kappas_for(zoo, scenario);
    let mut runner = SweepRunner::new(zoo, scenario)?;
    let mut panels = Vec::new();
    for &variant in Variant::for_scenario(scenario) {
        let mut defense = zoo.defense(scenario, variant)?;
        let mut curves = Vec::new();
        for kind in AttackKind::figure_trio() {
            curves.push(runner.curve(&kind, &kappas, &mut defense, DefenseScheme::Full)?);
        }
        panels.push(Panel {
            title: variant.label().to_string(),
            curves,
        });
    }
    Ok(panels)
}

/// Figures 4 / 5: the four-scheme ablation (no defense / detector /
/// reformer / both) under the C&W attack, one panel per variant.
///
/// # Errors
///
/// Propagates model, attack and defense errors.
pub fn scheme_ablation(zoo: &Zoo, scenario: Scenario) -> Result<Vec<Panel>> {
    let kappas = kappas_for(zoo, scenario);
    let mut runner = SweepRunner::new(zoo, scenario)?;
    let mut panels = Vec::new();
    for &variant in Variant::for_scenario(scenario) {
        let mut defense = zoo.defense(scenario, variant)?;
        let curves = runner.scheme_curves(&AttackKind::Cw, &kappas, &mut defense)?;
        panels.push(Panel {
            title: variant.label().to_string(),
            curves,
        });
    }
    Ok(panels)
}

/// Figures 6–11: the four-scheme ablation under every EAD configuration
/// (β × decision rule), against one defense variant.
///
/// # Errors
///
/// Propagates model, attack and defense errors.
pub fn scheme_ablation_grid(zoo: &Zoo, scenario: Scenario, variant: Variant) -> Result<Vec<Panel>> {
    let kappas = kappas_for(zoo, scenario);
    let mut runner = SweepRunner::new(zoo, scenario)?;
    let mut defense = zoo.defense(scenario, variant)?;
    let mut panels = Vec::new();
    for kind in AttackKind::ead_grid() {
        let AttackKind::Ead { rule, beta } = kind else {
            continue;
        };
        let curves = runner.scheme_curves(&kind, &kappas, &mut defense)?;
        panels.push(Panel {
            title: format!("{} decision rule beta={beta}", rule.label()),
            curves,
        });
    }
    Ok(panels)
}

/// Figures 12 / 13: MSE- vs MAE-trained auto-encoders (default MagNet)
/// against C&W and EAD at β ∈ {1e-3, 1e-1} under both rules, full scheme.
/// Returns two panels: "mean squared error" and "mean absolute error".
///
/// # Errors
///
/// Propagates model, attack and defense errors.
pub fn loss_ablation(zoo: &Zoo, scenario: Scenario) -> Result<Vec<Panel>> {
    let kappas = kappas_for(zoo, scenario);
    let mut runner = SweepRunner::new(zoo, scenario)?;
    let kinds: Vec<AttackKind> = {
        let mut v = vec![AttackKind::Cw];
        for rule in [DecisionRule::L1, DecisionRule::ElasticNet] {
            for beta in [1e-3f32, 1e-1] {
                v.push(AttackKind::Ead { rule, beta });
            }
        }
        v
    };
    let mut panels = Vec::new();
    for (title, variant) in [
        ("mean squared error", Variant::Default),
        ("mean absolute error", Variant::MaeDefault),
    ] {
        let mut defense = zoo.defense(scenario, variant)?;
        let mut curves = Vec::new();
        for kind in &kinds {
            curves.push(runner.curve(kind, &kappas, &mut defense, DefenseScheme::Full)?);
        }
        panels.push(Panel {
            title: title.to_string(),
            curves,
        });
    }
    Ok(panels)
}

/// Renders a panel as an ASCII chart: one row per curve with accuracy per κ.
pub fn format_panel(panel: &Panel) -> String {
    let mut out = format!("── {} ──\n", panel.title);
    if let Some(first) = panel.curves.first() {
        out.push_str("kappa:      ");
        for p in &first.points {
            out.push_str(&format!("{:>6}", p.kappa));
        }
        out.push('\n');
    }
    for curve in &panel.curves {
        out.push_str(&format!("{:<28}", curve.label));
        for p in &curve.points {
            out.push_str(&format!("{:>5.1}%", p.accuracy * 100.0));
        }
        out.push('\n');
    }
    out
}

/// Flattens panels into CSV rows: `panel,curve,kappa,accuracy`.
pub fn panels_to_csv_rows(panels: &[Panel]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for panel in panels {
        for curve in &panel.curves {
            for p in &curve.points {
                rows.push(vec![
                    panel.title.clone(),
                    curve.label.clone(),
                    format!("{}", p.kappa),
                    format!("{:.4}", p.accuracy),
                ]);
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::CurvePoint;

    fn sample_panel() -> Panel {
        Panel {
            title: "Default (D)".into(),
            curves: vec![Curve {
                label: "C&W L2 attack".into(),
                points: vec![
                    CurvePoint {
                        kappa: 0.0,
                        accuracy: 0.95,
                    },
                    CurvePoint {
                        kappa: 10.0,
                        accuracy: 0.90,
                    },
                ],
            }],
        }
    }

    #[test]
    fn panel_formatting() {
        let s = format_panel(&sample_panel());
        assert!(s.contains("Default (D)"));
        assert!(s.contains("95.0%"));
        assert!(s.contains("kappa:"));
    }

    #[test]
    fn csv_rows_flatten_everything() {
        let rows = panels_to_csv_rows(&[sample_panel()]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], "Default (D)");
        assert_eq!(rows[1][2], "10");
    }
}
