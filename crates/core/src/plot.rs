//! Minimal SVG line-chart rendering for the paper's figures.
//!
//! Each [`Panel`] becomes a self-contained SVG with
//! the paper's axes: confidence κ on x, classification accuracy (0–100%) on
//! y, one polyline per curve, and a legend. No external dependencies — the
//! SVG is assembled by hand.

use crate::figures::Panel;
use crate::Result;
use std::fmt::Write as _;
use std::path::Path;

const WIDTH: f32 = 480.0;
const HEIGHT: f32 = 360.0;
const MARGIN_L: f32 = 56.0;
const MARGIN_R: f32 = 16.0;
const MARGIN_T: f32 = 40.0;
const MARGIN_B: f32 = 48.0;

/// A qualitative palette (color-blind friendly).
const COLORS: &[&str] = &[
    "#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#000000",
];

fn x_pos(kappa: f32, kmin: f32, kmax: f32) -> f32 {
    let span = (kmax - kmin).max(1e-6);
    MARGIN_L + (kappa - kmin) / span * (WIDTH - MARGIN_L - MARGIN_R)
}

fn y_pos(accuracy: f32) -> f32 {
    // y grows downward; accuracy 1.0 at the top.
    MARGIN_T + (1.0 - accuracy.clamp(0.0, 1.0)) * (HEIGHT - MARGIN_T - MARGIN_B)
}

/// Renders one panel as an SVG document string.
pub fn panel_to_svg(panel: &Panel) -> String {
    let kmin = panel
        .curves
        .iter()
        .flat_map(|c| c.points.iter().map(|p| p.kappa))
        .fold(f32::INFINITY, f32::min);
    let kmax = panel
        .curves
        .iter()
        .flat_map(|c| c.points.iter().map(|p| p.kappa))
        .fold(f32::NEG_INFINITY, f32::max);
    let (kmin, kmax) = if kmin.is_finite() && kmax.is_finite() {
        (kmin, kmax)
    } else {
        (0.0, 1.0)
    };

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">"#
    );
    let _ = write!(
        svg,
        r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    );
    // Title.
    let _ = write!(
        svg,
        r#"<text x="{}" y="22" font-family="sans-serif" font-size="14" text-anchor="middle">{}</text>"#,
        WIDTH / 2.0,
        escape(&panel.title)
    );
    // Axes.
    let x0 = MARGIN_L;
    let x1 = WIDTH - MARGIN_R;
    let y0 = HEIGHT - MARGIN_B;
    let y1 = MARGIN_T;
    let _ = write!(
        svg,
        r#"<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/><line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>"#
    );
    // Y grid + labels every 20%.
    for i in 0..=5 {
        let acc = i as f32 / 5.0;
        let y = y_pos(acc);
        let _ = write!(
            svg,
            r##"<line x1="{x0}" y1="{y}" x2="{x1}" y2="{y}" stroke="#dddddd"/><text x="{}" y="{}" font-family="sans-serif" font-size="10" text-anchor="end">{}%</text>"##,
            x0 - 6.0,
            y + 3.0,
            (acc * 100.0) as i32
        );
    }
    // X ticks at every distinct κ of the first curve.
    if let Some(first) = panel.curves.first() {
        for p in &first.points {
            let x = x_pos(p.kappa, kmin, kmax);
            let _ = write!(
                svg,
                r#"<line x1="{x}" y1="{y0}" x2="{x}" y2="{}" stroke="black"/><text x="{x}" y="{}" font-family="sans-serif" font-size="10" text-anchor="middle">{}</text>"#,
                y0 + 4.0,
                y0 + 18.0,
                p.kappa
            );
        }
    }
    // Axis titles.
    let _ = write!(
        svg,
        r#"<text x="{}" y="{}" font-family="sans-serif" font-size="12" text-anchor="middle">Confidence</text>"#,
        (x0 + x1) / 2.0,
        HEIGHT - 10.0
    );
    let _ = write!(
        svg,
        r#"<text x="14" y="{}" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 {})">Classification accuracy</text>"#,
        (y0 + y1) / 2.0,
        (y0 + y1) / 2.0
    );
    // Curves.
    for (i, curve) in panel.curves.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let points: Vec<String> = curve
            .points
            .iter()
            .map(|p| format!("{:.1},{:.1}", x_pos(p.kappa, kmin, kmax), y_pos(p.accuracy)))
            .collect();
        let _ = write!(
            svg,
            r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
            points.join(" ")
        );
        for p in &curve.points {
            let _ = write!(
                svg,
                r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>"#,
                x_pos(p.kappa, kmin, kmax),
                y_pos(p.accuracy)
            );
        }
        // Legend entry.
        let ly = MARGIN_T + 8.0 + i as f32 * 14.0;
        let _ = write!(
            svg,
            r#"<line x1="{}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="2"/><text x="{}" y="{}" font-family="sans-serif" font-size="10">{}</text>"#,
            x0 + 8.0,
            x0 + 28.0,
            x0 + 32.0,
            ly + 3.0,
            escape(&curve.label)
        );
    }
    svg.push_str("</svg>");
    svg
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Writes every panel of a figure as `<stem>_<index>.svg` under `dir`.
///
/// # Errors
///
/// Returns filesystem errors.
pub fn write_panels_svg(
    panels: &[Panel],
    dir: impl AsRef<Path>,
    stem: &str,
) -> Result<Vec<String>> {
    std::fs::create_dir_all(dir.as_ref())?;
    let mut written = Vec::with_capacity(panels.len());
    for (i, panel) in panels.iter().enumerate() {
        let name = format!("{stem}_{}.svg", (b'a' + (i as u8 % 26)) as char);
        let path = dir.as_ref().join(&name);
        std::fs::write(&path, panel_to_svg(panel))?;
        written.push(name);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{Curve, CurvePoint};

    fn sample_panel() -> Panel {
        Panel {
            title: "Default (D)".into(),
            curves: vec![
                Curve {
                    label: "C&W L2 attack".into(),
                    points: vec![
                        CurvePoint {
                            kappa: 0.0,
                            accuracy: 0.97,
                        },
                        CurvePoint {
                            kappa: 20.0,
                            accuracy: 0.9,
                        },
                        CurvePoint {
                            kappa: 40.0,
                            accuracy: 0.7,
                        },
                    ],
                },
                Curve {
                    label: "EAD-EN beta=0.1".into(),
                    points: vec![
                        CurvePoint {
                            kappa: 0.0,
                            accuracy: 0.95,
                        },
                        CurvePoint {
                            kappa: 20.0,
                            accuracy: 0.6,
                        },
                        CurvePoint {
                            kappa: 40.0,
                            accuracy: 0.75,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn svg_contains_curves_and_labels() {
        let svg = panel_to_svg(&sample_panel());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("C&amp;W L2 attack"));
        assert!(svg.contains("Default (D)"));
        assert!(svg.contains("Classification accuracy"));
    }

    #[test]
    fn accuracy_one_maps_to_top_of_plot_area() {
        assert!((y_pos(1.0) - MARGIN_T).abs() < 1e-5);
        assert!((y_pos(0.0) - (HEIGHT - MARGIN_B)).abs() < 1e-5);
        assert!(y_pos(0.5) > y_pos(1.0) && y_pos(0.5) < y_pos(0.0));
    }

    #[test]
    fn kappa_positions_are_monotone() {
        let a = x_pos(0.0, 0.0, 40.0);
        let b = x_pos(20.0, 0.0, 40.0);
        let c = x_pos(40.0, 0.0, 40.0);
        assert!(a < b && b < c);
        assert!((c - (WIDTH - MARGIN_R)).abs() < 1e-4);
    }

    #[test]
    fn writes_one_file_per_panel() {
        let dir = std::env::temp_dir().join("adv_eval_plot_test");
        std::fs::remove_dir_all(&dir).ok();
        let names = write_panels_svg(&[sample_panel(), sample_panel()], &dir, "fig2").unwrap();
        assert_eq!(names, vec!["fig2_a.svg", "fig2_b.svg"]);
        assert!(dir.join("fig2_a.svg").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_panel_is_valid_svg() {
        let svg = panel_to_svg(&Panel {
            title: "empty".into(),
            curves: vec![],
        });
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
    }
}
