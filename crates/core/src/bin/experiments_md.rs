//! Generates `EXPERIMENTS.md` from the CSVs under `results/` (produced by
//! `reproduce_all`), placing measured numbers side-by-side with the paper's
//! published values for every table, plus per-figure qualitative checks and
//! the extension studies' tables.
//! It reads the CSVs of the `adv_eval::artifacts::SUMMARISED` rows, under
//! the file names the artifact table gives them.
//!
//! Run after `reproduce_all`, with the same flags:
//!
//! ```text
//! cargo run --release -p adv-eval --bin experiments_md [--scale quick] [--out results]
//! ```
//!
//! If any CSV it reads is missing, it names each one, writes nothing and
//! exits with status 1.

use adv_eval::artifacts::{self, Artifact, SUMMARISED};
use adv_eval::config::{CliArgs, Scale};
use adv_eval::zoo::Scenario::{self, Cifar, Mnist};
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
const PAPER_T4: &[(&str, &str, &[f32])] = &[
    ("EN", "0.001", &[46.2, 7.5, 31.2, 1.9]),
    ("EN", "0.01", &[87.8, 34.0, 90.1, 39.5]),
    ("EN", "0.05", &[90.1, 51.6, 93.6, 60.0]),
    ("EN", "0.1", &[90.2, 55.6, 94.3, 65.1]),
    ("L1", "0.001", &[70.2, 18.9, 72.9, 14.1]),
    ("L1", "0.01", &[84.5, 38.8, 92.6, 49.5]),
    ("L1", "0.05", &[80.5, 48.8, 90.3, 62.6]),
    ("L1", "0.1", &[83.8, 51.0, 92.1, 66.3]),
];

/// Paper Table VII (best EAD ASR % on CIFAR): rule, beta, D, D+256.
const PAPER_T7: &[(&str, &str, &[f32])] = &[
    ("EN", "0.001", &[69.2, 55.6]),
    ("EN", "0.01", &[74.5, 72.0]),
    ("EN", "0.05", &[77.0, 86.3]),
    ("EN", "0.1", &[78.6, 91.5]),
    ("L1", "0.001", &[60.5, 49.2]),
    ("L1", "0.01", &[66.7, 71.8]),
    ("L1", "0.05", &[75.9, 90.9]),
    ("L1", "0.1", &[79.8, 93.7]),
];

/// The extension studies: artifact, section title, what it measures, and
/// the column headers of its CSV.
const EXTENSIONS: &[(&str, &str, &str, &[&str])] = &[
    (
        "graybox",
        "Oblivious vs gray-box crafting",
        "The Figure 2–3 attacks crafted on the classifier alone (oblivious) and\n\
         through the default reformer, `F(AE(x))` (gray-box, Carlini & Wagner,\n\
         arXiv:1711.08478), each scored against the default MagNet.",
        &[
            "attack",
            "κ",
            "oblivious crafted %",
            "oblivious defended ASR %",
            "gray-box crafted %",
            "gray-box defended ASR %",
        ],
    ),
    (
        "ablation_ista",
        "EAD optimizer and budget",
        "EAD-EN (β = 0.01, κ = 10) on the undefended classifier: plain ISTA\n\
         (paper eq. 4, the default here) against FISTA (the EAD reference code)\n\
         at equal budgets, then ISTA with one binary-search step and with half\n\
         the iterations.",
        &[
            "variant",
            "iterations × steps",
            "ASR %",
            "mean L1",
            "mean L2",
        ],
    ),
    (
        "detector_breakdown",
        "Per-detector detection rates",
        "The share of successful C&W and EAD-EN (β = 0.1) examples each detector\n\
         flags (MNIST: D+JSD, so all four detectors appear). The paper's\n\
         mechanism shows as a higher rate for C&W than for EAD on the same\n\
         detector.",
        &["attack", "κ", "detector", "detection %"],
    ),
];

/// The rows of each CSV `experiments_md` reads, by artifact and scenario.
type Inputs = HashMap<(&'static str, Scenario), Vec<Vec<String>>>;

/// Reads the CSVs of `summarised` under `dir`, or names each one that
/// cannot be read.
fn read_inputs(dir: &Path, summarised: &[&'static Artifact]) -> Result<Inputs, Vec<String>> {
    let mut rows = HashMap::new();
    let mut missing = Vec::new();
    for stage in summarised.iter().flat_map(|a| a.stages()) {
        let Some(scenario) = stage.scenario else {
            continue;
        };
        let file = stage.output();
        match read_csv(&dir.join(&file)) {
            Some(r) => {
                rows.insert((stage.artifact.name, scenario), r);
            }
            None => missing.push(format!("{}/{file}", dir.display())),
        }
    }
    if missing.is_empty() {
        Ok(rows)
    } else {
        Err(missing)
    }
}

/// Parses a CSV (as written by `adv_eval::report::write_csv`) into rows of
/// cells, skipping the header.
fn read_csv(path: &Path) -> Option<Vec<Vec<String>>> {
    let content = std::fs::read_to_string(path).ok()?;
    let rows = content.lines().skip(1).filter(|l| !l.trim().is_empty());
    Some(rows.map(split_csv_line).collect())
}

/// Splits one CSV line into cells, unquoting `"…"` cells (`""` is a quote).
fn split_csv_line(line: &str) -> Vec<String> {
    let (mut cells, mut cell, mut quoted) = (Vec::new(), String::new(), false);
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                cell.push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => cells.push(std::mem::take(&mut cell)),
            _ => cell.push(c),
        }
    }
    cells.push(cell);
    cells
}

/// The accuracies of `curve` in `panel` of a figure CSV, in κ order.
fn series(rows: &[Vec<String>], panel: &str, curve: &str) -> Vec<f32> {
    rows.iter()
        .filter(|r| r[0] == panel && r[1] == curve)
        .filter_map(|r| r[3].parse::<f32>().ok())
        .collect()
}

fn lowest(series: Vec<f32>) -> f32 {
    series.into_iter().fold(f32::INFINITY, f32::min)
}

fn pct_of(cell: &str) -> String {
    cell.parse::<f32>()
        .map(|v| format!("{:.1}", v * 100.0))
        .unwrap_or_else(|_| "?".into())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliArgs::from_env();
    let summarised = artifacts::select(&SUMMARISED.join(","))?;
    let inputs = match read_inputs(Path::new(&args.out_dir), &summarised) {
        Ok(inputs) => inputs,
        Err(missing) => {
            for path in &missing {
                eprintln!("experiments_md: missing {path}");
            }
            eprintln!("run reproduce_all first; EXPERIMENTS.md not written");
            std::process::exit(1);
        }
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = if argv.is_empty() {
        String::new()
    } else {
        format!(" -- {}", argv.join(" "))
    };
    let preset = ["smoke", "quick", "paper"]
        .into_iter()
        .find(|&n| Scale::from_name(n) == Some(args.scale))
        .map_or_else(|| "a custom".to_string(), |n| format!("the `{n}`"));
    let mut md = String::new();

    writeln!(md, "# EXPERIMENTS — paper vs measured\n")?;
    writeln!(
        md,
        "Generated at {preset} scale preset by\n\n\
         ```sh\n\
         cargo run --release -p adv-eval --bin reproduce_all{flags}\n\
         cargo run --release -p adv-eval --bin experiments_md{flags}\n\
         ```\n\n\
         `experiments_md` reads the CSVs `reproduce_all` wrote under `{}/`. See\n\
         the scale block in DESIGN.md §3b for the κ-unit and detector calibration\n\
         that maps the paper's axes onto this substrate. Absolute percentages are\n\
         **not** expected to match — the substrate is synthetic and scaled down —\n\
         but orderings, gaps and curve shapes are.\n",
        args.out_dir
    )?;

    // ---------------- Table I ------------------------------------------------
    for (scenario, paper) in [(Mnist, PAPER_T1_MNIST), (Cifar, PAPER_T1_CIFAR)] {
        writeln!(
            md,
            "## Table I ({}): best ASR vs default MagNet\n",
            scenario.name()
        )?;
        writeln!(
            md,
            "| attack | beta | paper ASR % | measured ASR % | measured L1 | measured L2 |"
        )?;
        writeln!(md, "|---|---|---|---|---|---|")?;
        let lookup: HashMap<(&str, &str), &Vec<String>> = inputs[&("table1", scenario)]
            .iter()
            .map(|r| ((r[0].as_str(), r[1].as_str()), r))
            .collect();
        for (attack, beta, asr) in paper {
            let m = lookup.get(&(*attack, *beta));
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
    for (title, name, scenario, paper) in [
        ("Table III", "table3", Mnist, PAPER_T3),
        ("Table VI", "table6", Cifar, PAPER_T6),
    ] {
        writeln!(
            md,
            "## {title} ({}): clean test accuracy\n",
            scenario.name()
        )?;
        writeln!(
            md,
            "| variant | paper w/o | paper w/ | measured w/o | measured w/ |"
        )?;
        writeln!(md, "|---|---|---|---|---|")?;
        let lookup: HashMap<&str, &Vec<String>> = inputs[&(name, scenario)]
            .iter()
            .map(|r| (r[0].as_str(), r))
            .collect();
        for (variant, without, with) in paper {
            let m = lookup.get(variant);
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
    for (title, name, scenario, columns, paper) in [
        (
            "Table IV",
            "table4",
            Mnist,
            "D / D+JSD / D+256 / D+256+JSD",
            PAPER_T4,
        ),
        ("Table VII", "table7", Cifar, "D / D+256", PAPER_T7),
    ] {
        writeln!(
            md,
            "## {title} ({}): best EAD ASR % per variant\n",
            scenario.name()
        )?;
        writeln!(md, "| rule | beta | paper {columns} | measured |")?;
        writeln!(md, "|---|---|---|---|")?;
        let lookup: HashMap<(&str, &str), &Vec<String>> = inputs[&(name, scenario)]
            .iter()
            .map(|r| ((r[0].as_str(), r[1].as_str()), r))
            .collect();
        for (rule, beta, vals) in paper {
            let measured = lookup
                .get(&(*rule, *beta))
                .map(|r| {
                    r[2..]
                        .iter()
                        .map(|c| pct_of(c))
                        .collect::<Vec<_>>()
                        .join(" / ")
                })
                .unwrap_or_else(|| "n/a".into());
            let paper_vals: Vec<String> = vals.iter().map(f32::to_string).collect();
            writeln!(
                md,
                "| {rule} | {beta} | {} | {measured} |",
                paper_vals.join(" / ")
            )?;
        }
        writeln!(md)?;
    }

    // ---------------- Figures: qualitative checks ----------------------------
    writeln!(md, "## Figures 2–13: qualitative shape checks\n")?;
    let mut checks: Vec<(String, bool)> = Vec::new();
    // Figs 2(a) / 3(a), default panel: C&W's lowest accuracy stays above
    // EAD's.
    for (fig, name, scenario, ead, note) in [
        ("Fig 2(a)", "fig2", Mnist, "EAD-EN", " (paper: 90% vs ~10%)"),
        ("Fig 3(a)", "fig3", Cifar, "EAD-L1", ""),
    ] {
        let rows = &inputs[&(name, scenario)];
        let cw = lowest(series(rows, "Default (D)", "C&W L2 attack"));
        let ead_min = lowest(series(rows, "Default (D)", &format!("{ead} beta=0.1")));
        checks.push((
            format!(
                "{fig}: min accuracy C&W {:.1}% > {ead} {:.1}%{note}",
                cw * 100.0,
                ead_min * 100.0
            ),
            cw > ead_min,
        ));
    }
    // Fig 4(a): C&W's detector accuracy rises with κ on the default
    // variant. Fig 6(h): the reformer's accuracy against EAD-EN β=0.1 falls.
    for (claim, name, panel, curve, rises) in [
        (
            "Fig 4(a): C&W detector accuracy rises",
            "fig4",
            "Default (D)",
            "With detector",
            true,
        ),
        (
            "Fig 6(h): EAD reformer accuracy falls",
            "fig6",
            "EN decision rule beta=0.1",
            "With reformer",
            false,
        ),
    ] {
        if let [first, .., last] = series(&inputs[&(name, Mnist)], panel, curve)[..] {
            checks.push((
                format!(
                    "{claim} with κ ({:.1}% → {:.1}%)",
                    first * 100.0,
                    last * 100.0
                ),
                if rises { last >= first } else { last <= first },
            ));
        }
    }
    // Fig 12: MAE-trained AEs behave like MSE ones (both defend C&W).
    let rows = &inputs[&("fig12", Mnist)];
    let min_cw = |panel| lowest(series(rows, panel, "C&W L2 attack"));
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

    for (desc, ok) in &checks {
        writeln!(md, "- [{}] {desc}", if *ok { "x" } else { " " })?;
    }
    writeln!(
        md,
        "\n(Checked boxes = the paper's qualitative claim holds on this substrate.)\n"
    )?;

    // ---------------- Extensions --------------------------------------------
    writeln!(md, "## Extensions (beyond the paper)\n")?;
    writeln!(
        md,
        "Studies the paper does not run, so there are no paper columns. Each is\n\
         a `reproduce_all` row: `--only {}`.\n",
        EXTENSIONS
            .iter()
            .map(|(name, ..)| *name)
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for (name, title, about, headers) in EXTENSIONS {
        writeln!(md, "### {title}\n\n{about}\n")?;
        writeln!(md, "| scenario | {} |", headers.join(" | "))?;
        writeln!(md, "|---|{}", "---|".repeat(headers.len()))?;
        for scenario in [Mnist, Cifar] {
            for row in inputs.get(&(*name, scenario)).into_iter().flatten() {
                writeln!(md, "| {} | {} |", scenario.name(), row.join(" | "))?;
            }
        }
        writeln!(md)?;
    }

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

    std::fs::write("EXPERIMENTS.md", &md)?;
    println!("EXPERIMENTS.md written ({} bytes)", md.len());
    Ok(())
}
