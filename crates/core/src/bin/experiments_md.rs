//! Generates `EXPERIMENTS.md` from the CSVs under `results/` (produced by
//! `reproduce_all`), placing measured numbers side-by-side with the paper's
//! published values for every table, plus per-figure qualitative checks.
//!
//! Run after `reproduce_all`:
//!
//! ```text
//! cargo run --release -p adv-eval --bin experiments_md [--out results]
//! ```
//!
//! If any CSV it reads is missing, it names each one, writes nothing and
//! exits with status 1.

use adv_eval::config::CliArgs;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// Paper Table I (MNIST): (attack, beta, ASR%).
const PAPER_T1_MNIST: &[(&str, &str, f32)] = &[
    ("C&W (L2)", "NA", 10.0),
    ("EAD (EN rule)", "0.001", 46.2),
    ("EAD (EN rule)", "0.01", 87.8),
    ("EAD (EN rule)", "0.05", 90.1),
    ("EAD (EN rule)", "0.1", 90.2),
    ("EAD (L1 rule)", "0.001", 70.2),
    ("EAD (L1 rule)", "0.01", 84.5),
    ("EAD (L1 rule)", "0.05", 80.5),
    ("EAD (L1 rule)", "0.1", 83.8),
];

/// Paper Table I (CIFAR): (attack, beta, ASR%).
const PAPER_T1_CIFAR: &[(&str, &str, f32)] = &[
    ("C&W (L2)", "NA", 52.0),
    ("EAD (EN rule)", "0.001", 69.2),
    ("EAD (EN rule)", "0.01", 74.5),
    ("EAD (EN rule)", "0.05", 77.0),
    ("EAD (EN rule)", "0.1", 78.6),
    ("EAD (L1 rule)", "0.001", 60.5),
    ("EAD (L1 rule)", "0.01", 66.7),
    ("EAD (L1 rule)", "0.05", 75.9),
    ("EAD (L1 rule)", "0.1", 79.8),
];

/// Paper Table III (MNIST clean accuracy %): (variant, without, with).
const PAPER_T3: &[(&str, f32, f32)] = &[
    ("Default (D)", 99.42, 99.13),
    ("D+JSD", 99.42, 97.75),
    ("D+256", 99.42, 99.24),
    ("D+256+JSD", 99.42, 97.55),
];

/// Paper Table VI (CIFAR clean accuracy %).
const PAPER_T6: &[(&str, f32, f32)] = &[("Default (D)", 86.91, 83.33), ("D+256", 86.91, 83.4)];

/// Paper Table IV (best EAD ASR % on MNIST): rule, beta, D, D+JSD, D+256, D+256+JSD.
const PAPER_T4: &[(&str, &str, [f32; 4])] = &[
    ("EN", "0.001", [46.2, 7.5, 31.2, 1.9]),
    ("EN", "0.01", [87.8, 34.0, 90.1, 39.5]),
    ("EN", "0.05", [90.1, 51.6, 93.6, 60.0]),
    ("EN", "0.1", [90.2, 55.6, 94.3, 65.1]),
    ("L1", "0.001", [70.2, 18.9, 72.9, 14.1]),
    ("L1", "0.01", [84.5, 38.8, 92.6, 49.5]),
    ("L1", "0.05", [80.5, 48.8, 90.3, 62.6]),
    ("L1", "0.1", [83.8, 51.0, 92.1, 66.3]),
];

/// Paper Table VII (best EAD ASR % on CIFAR): rule, beta, D, D+256.
const PAPER_T7: &[(&str, &str, [f32; 2])] = &[
    ("EN", "0.001", [69.2, 55.6]),
    ("EN", "0.01", [74.5, 72.0]),
    ("EN", "0.05", [77.0, 86.3]),
    ("EN", "0.1", [78.6, 91.5]),
    ("L1", "0.001", [60.5, 49.2]),
    ("L1", "0.01", [66.7, 71.8]),
    ("L1", "0.05", [75.9, 90.9]),
    ("L1", "0.1", [79.8, 93.7]),
];

/// The results directory, and the CSVs asked of it that it lacks.
struct Inputs<'a> {
    dir: &'a Path,
    missing: Vec<String>,
}

impl Inputs<'_> {
    /// The rows of `name`, or `None` (noted as missing) when it cannot be
    /// read.
    fn read(&mut self, name: &str) -> Option<Vec<Vec<String>>> {
        let rows = read_csv(&self.dir.join(name));
        if rows.is_none() {
            self.missing.push(name.to_string());
        }
        rows
    }
}

/// Parses a CSV (as written by `adv_eval::report::write_csv`) into rows of
/// cells, skipping the header.
fn read_csv(path: &Path) -> Option<Vec<Vec<String>>> {
    let content = std::fs::read_to_string(path).ok()?;
    let mut rows = Vec::new();
    for line in content.lines().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        rows.push(
            line.split(',')
                .map(|c| c.trim_matches('"').to_string())
                .collect(),
        );
    }
    Some(rows)
}

fn pct_of(cell: &str) -> String {
    cell.parse::<f32>()
        .map(|v| format!("{:.1}", v * 100.0))
        .unwrap_or_else(|_| "?".into())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliArgs::from_env();
    let mut inputs = Inputs {
        dir: Path::new(&args.out_dir),
        missing: Vec::new(),
    };
    let mut md = String::new();

    writeln!(md, "# EXPERIMENTS — paper vs measured\n")?;
    writeln!(
        md,
        "Generated by `experiments_md` from the CSVs under `{}/` (produced by\n\
         `reproduce_all` at scale `{:?}`-ish; see the scale block in DESIGN.md §3b\n\
         for the κ-unit and detector calibration that maps the paper's axes onto\n\
         this substrate). Absolute percentages are **not** expected to match — the\n\
         substrate is synthetic and scaled down — but orderings, gaps and curve\n\
         shapes are.\n",
        args.out_dir, args.scale
    )?;

    // ---------------- Table I ------------------------------------------------
    for (scenario, paper) in [("mnist", PAPER_T1_MNIST), ("cifar", PAPER_T1_CIFAR)] {
        writeln!(md, "## Table I ({scenario}): best ASR vs default MagNet\n")?;
        writeln!(
            md,
            "| attack | beta | paper ASR % | measured ASR % | measured L1 | measured L2 |"
        )?;
        writeln!(md, "|---|---|---|---|---|---|")?;
        let measured = inputs.read(&format!("table1_{scenario}.csv"));
        let lookup: HashMap<(String, String), Vec<String>> = measured
            .unwrap_or_default()
            .into_iter()
            .map(|r| ((r[0].clone(), r[1].clone()), r))
            .collect();
        for (attack, beta, asr) in paper {
            let m = lookup.get(&(attack.to_string(), beta.to_string()));
            writeln!(
                md,
                "| {attack} | {beta} | {asr} | {} | {} | {} |",
                m.map(|r| pct_of(&r[3])).unwrap_or_else(|| "n/a".into()),
                m.map(|r| r[4].clone()).unwrap_or_else(|| "n/a".into()),
                m.map(|r| r[5].clone()).unwrap_or_else(|| "n/a".into()),
            )?;
        }
        writeln!(md)?;
    }

    // ---------------- Tables III / VI ---------------------------------------
    for (name, scenario, paper) in [
        ("Table III", "mnist", PAPER_T3),
        ("Table VI", "cifar", PAPER_T6),
    ] {
        writeln!(md, "## {name} ({scenario}): clean test accuracy\n")?;
        writeln!(
            md,
            "| variant | paper w/o | paper w/ | measured w/o | measured w/ |"
        )?;
        writeln!(md, "|---|---|---|---|---|")?;
        let file = if scenario == "mnist" {
            "table3_mnist.csv"
        } else {
            "table6_cifar.csv"
        };
        let measured = inputs.read(file).unwrap_or_default();
        let lookup: HashMap<String, Vec<String>> =
            measured.into_iter().map(|r| (r[0].clone(), r)).collect();
        for (variant, without, with) in paper {
            let m = lookup.get(*variant);
            writeln!(
                md,
                "| {variant} | {without} | {with} | {} | {} |",
                m.map(|r| pct_of(&r[1])).unwrap_or_else(|| "n/a".into()),
                m.map(|r| pct_of(&r[2])).unwrap_or_else(|| "n/a".into()),
            )?;
        }
        writeln!(md)?;
    }

    // ---------------- Tables IV / VII ----------------------------------------
    writeln!(md, "## Table IV (mnist): best EAD ASR % per variant\n")?;
    writeln!(
        md,
        "| rule | beta | paper D / D+JSD / D+256 / D+256+JSD | measured |"
    )?;
    writeln!(md, "|---|---|---|---|")?;
    let t4 = inputs.read("table4_mnist.csv").unwrap_or_default();
    let l4: HashMap<(String, String), Vec<String>> = t4
        .into_iter()
        .map(|r| ((r[0].clone(), r[1].clone()), r))
        .collect();
    for (rule, beta, vals) in PAPER_T4 {
        let m = l4.get(&(rule.to_string(), beta.to_string()));
        let measured = m
            .map(|r| {
                r[2..]
                    .iter()
                    .map(|c| pct_of(c))
                    .collect::<Vec<_>>()
                    .join(" / ")
            })
            .unwrap_or_else(|| "n/a".into());
        writeln!(
            md,
            "| {rule} | {beta} | {} | {measured} |",
            vals.map(|v| v.to_string()).join(" / ")
        )?;
    }
    writeln!(md)?;

    writeln!(md, "## Table VII (cifar): best EAD ASR % per variant\n")?;
    writeln!(md, "| rule | beta | paper D / D+256 | measured |")?;
    writeln!(md, "|---|---|---|---|")?;
    let t7 = inputs.read("table7_cifar.csv").unwrap_or_default();
    let l7: HashMap<(String, String), Vec<String>> = t7
        .into_iter()
        .map(|r| ((r[0].clone(), r[1].clone()), r))
        .collect();
    for (rule, beta, vals) in PAPER_T7 {
        let m = l7.get(&(rule.to_string(), beta.to_string()));
        let measured = m
            .map(|r| {
                r[2..]
                    .iter()
                    .map(|c| pct_of(c))
                    .collect::<Vec<_>>()
                    .join(" / ")
            })
            .unwrap_or_else(|| "n/a".into());
        writeln!(
            md,
            "| {rule} | {beta} | {} | {measured} |",
            vals.map(|v| v.to_string()).join(" / ")
        )?;
    }
    writeln!(md)?;

    // ---------------- Figures: qualitative checks ----------------------------
    writeln!(md, "## Figures 2–13: qualitative shape checks\n")?;
    let mut checks: Vec<(String, bool)> = Vec::new();
    // Fig 2 default panel: C&W min accuracy should stay above EAD min accuracy.
    if let Some(rows) = inputs.read("fig2_mnist.csv") {
        let min_acc = |curve: &str| {
            rows.iter()
                .filter(|r| r[0] == "Default (D)" && r[1] == curve)
                .filter_map(|r| r[3].parse::<f32>().ok())
                .fold(f32::INFINITY, f32::min)
        };
        let cw = min_acc("C&W L2 attack");
        let ead = min_acc("EAD-EN beta=0.1");
        checks.push((
            format!(
                "Fig 2(a): min accuracy C&W {:.1}% > EAD-EN {:.1}% (paper: 90% vs ~10%)",
                cw * 100.0,
                ead * 100.0
            ),
            cw > ead,
        ));
    }
    if let Some(rows) = inputs.read("fig3_cifar.csv") {
        let min_acc = |curve: &str| {
            rows.iter()
                .filter(|r| r[0] == "Default (D)" && r[1] == curve)
                .filter_map(|r| r[3].parse::<f32>().ok())
                .fold(f32::INFINITY, f32::min)
        };
        let cw = min_acc("C&W L2 attack");
        let ead = min_acc("EAD-L1 beta=0.1");
        checks.push((
            format!(
                "Fig 3(a): min accuracy C&W {:.1}% > EAD-L1 {:.1}%",
                cw * 100.0,
                ead * 100.0
            ),
            cw > ead,
        ));
    }
    // Fig 4: detector curve rises with κ for C&W on the default variant.
    if let Some(rows) = inputs.read("fig4_mnist.csv") {
        let det: Vec<f32> = rows
            .iter()
            .filter(|r| r[0] == "Default (D)" && r[1] == "With detector")
            .filter_map(|r| r[3].parse::<f32>().ok())
            .collect();
        if det.len() >= 2 {
            checks.push((
                format!(
                    "Fig 4(a): C&W detector accuracy rises with κ ({:.1}% → {:.1}%)",
                    det[0] * 100.0,
                    det.last().expect("detection series is empty") * 100.0
                ),
                det.last().expect("detection series is empty") >= &det[0],
            ));
        }
    }
    // Fig 6: reformer effectiveness falls with κ for EAD β=0.1 (EN).
    if let Some(rows) = inputs.read("fig6_mnist.csv") {
        let refo: Vec<f32> = rows
            .iter()
            .filter(|r| r[0] == "EN decision rule beta=0.1" && r[1] == "With reformer")
            .filter_map(|r| r[3].parse::<f32>().ok())
            .collect();
        if refo.len() >= 2 {
            checks.push((
                format!(
                    "Fig 6(h): EAD reformer accuracy falls with κ ({:.1}% → {:.1}%)",
                    refo[0] * 100.0,
                    refo.last().expect("reformer series is empty") * 100.0
                ),
                refo.last().expect("reformer series is empty") <= &refo[0],
            ));
        }
    }
    // Fig 12: MAE-trained AEs behave like MSE ones (both defend C&W).
    if let Some(rows) = inputs.read("fig12_mnist.csv") {
        let min_cw = |panel: &str| {
            rows.iter()
                .filter(|r| r[0] == panel && r[1] == "C&W L2 attack")
                .filter_map(|r| r[3].parse::<f32>().ok())
                .fold(f32::INFINITY, f32::min)
        };
        let mse = min_cw("mean squared error");
        let mae = min_cw("mean absolute error");
        checks.push((
            format!(
                "Fig 12: C&W stays defended under both losses (MSE {:.1}%, MAE {:.1}%)",
                mse * 100.0,
                mae * 100.0
            ),
            mse > 0.5 && mae > 0.5,
        ));
    }

    for (desc, ok) in &checks {
        writeln!(md, "- [{}] {desc}", if *ok { "x" } else { " " })?;
    }
    writeln!(
        md,
        "\n(Checked boxes = the paper's qualitative claim holds on this substrate.)\n"
    )?;

    writeln!(md, "## Reproduction notes\n")?;
    writeln!(
        md,
        "- Datasets are procedural stand-ins (DESIGN.md §3); victim and\n\
          auto-encoder sizes, iteration counts and sample counts are scaled\n\
          (DESIGN.md §3b). Run with `--scale paper --fine` for the original\n\
          settings.\n\
        - The paper's Table I lists L1 < L2 for some MNIST rows, which is\n\
          impossible for a single vector; our L1/L2 columns are plain norms of\n\
          the same perturbation and therefore always satisfy L1 ≥ L2.\n\
        - ASR percentages here are measured against the defense's *full*\n\
          scheme on successfully crafted examples, matching §III-A.\n\
        - **Known residual gaps** (DESIGN.md §3b.5): (1) on CIFAR the\n\
          substrate's no-bottleneck 3-filter auto-encoder over smooth\n\
          synthetic scenes never develops the detector response the real-data\n\
          MagNet has, so C&W is held only by the reformer (≈40–50% accuracy,\n\
          close to the paper's 48%) and EAD keeps a modest rather than\n\
          20–30-point edge; (2) the D+256 analogue (8 wide filters on the\n\
          easy synthetic MNIST manifold) is a *stronger* defense than the\n\
          paper's 256-filter variant on real MNIST — it suppresses EAD to\n\
          single digits where the paper still measured 90%+ ASR; (3) the\n\
          CIFAR reformer that holds C&W near-flat is a strong smoother and\n\
          costs far more clean accuracy (Table VI \"with\" column) than the\n\
          paper's 3.5 points — without the real CIFAR manifold the substrate\n\
          cannot have both; and (4) the MAE-trained auto-encoders (Figs\n\
          12–13) converge more slowly than MSE at the reduced epoch budget,\n\
          so their high-κ C&W defense is weaker than the paper's. The\n\
          default-MagNet headline (EAD ≫ C&W) is unaffected."
    )?;

    if !inputs.missing.is_empty() {
        for name in &inputs.missing {
            eprintln!("experiments_md: missing {}/{name}", args.out_dir);
        }
        eprintln!("run reproduce_all first; EXPERIMENTS.md not written");
        std::process::exit(1);
    }
    std::fs::write("EXPERIMENTS.md", &md)?;
    println!("EXPERIMENTS.md written ({} bytes)", md.len());
    Ok(())
}
