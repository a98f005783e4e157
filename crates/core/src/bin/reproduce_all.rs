//! Regenerates every table and figure of the paper at the configured scale
//! and writes a summary of all outputs under the results directory.
//!
//! ```text
//! cargo run --release -p adv-eval --bin reproduce_all [--scale quick|paper] [--fine]
//! ```
//!
//! The run is resumable: each table/figure stage is recorded in a
//! `run.manifest` journal under the output directory as it completes, and a
//! rerun after a crash or kill skips the recorded stages. The manifest is
//! keyed by a fingerprint of the scale and directories, so changing the
//! configuration starts a fresh run; it is deleted once every stage is done.

use adv_eval::config::CliArgs;
use adv_eval::figures::{
    defense_comparison, format_panel, loss_ablation, panels_to_csv_rows, scheme_ablation,
    scheme_ablation_grid,
};
use adv_eval::report::write_csv;
use adv_eval::tables::{
    accuracy_table, arch_tables, best_asr_table, format_accuracy_table, format_best_asr_table,
    format_table1, table1,
};
use adv_eval::zoo::{Scenario, Variant, Zoo};
use std::time::Instant;

type AnyError = Box<dyn std::error::Error>;

/// Fingerprints the run configuration: a manifest recorded under one scale
/// or directory layout must never satisfy a rerun under another.
fn run_context(args: &CliArgs) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let key = format!("{:?}|{}|{}", args.scale, args.models_dir, args.out_dir);
    for b in key.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn main() -> Result<(), AnyError> {
    let args = CliArgs::from_env();
    let obs = adv_eval::obs::ObsSession::from_args(&args);
    let zoo = Zoo::new(&args.models_dir, args.scale);
    let out = args.out_dir.clone();
    let out = out.as_str();
    #[expect(
        clippy::disallowed_methods,
        reason = "total reproduction wall-clock is printed in the final summary"
    )]
    let t_total = Instant::now();
    let headers = ["panel", "curve", "kappa", "accuracy"];

    println!(
        "Reproducing all tables and figures at scale {:?}\n",
        args.scale
    );

    std::fs::create_dir_all(out)?;
    let mut manifest =
        adv_store::RunManifest::open(format!("{out}/run.manifest"), run_context(&args))?;
    if manifest.completed() > 0 {
        println!(
            "Resuming interrupted run: {} stage(s) already complete\n",
            manifest.completed()
        );
    }

    // --- Architecture tables (II, V) -------------------------------------
    let stage = "tables_2_and_5";
    let skipped = manifest.run_stage(stage, || -> Result<(), AnyError> {
        let arch = arch_tables(args.scale.robust_filters);
        println!("{arch}");
        std::fs::write(format!("{out}/tables_2_and_5.txt"), &arch)?;
        Ok(())
    })?;
    if skipped {
        println!("[{stage} already complete — skipped]\n");
    }

    // --- Tables III / VI: clean accuracy ----------------------------------
    for (scenario, name) in [(Scenario::Mnist, "table3"), (Scenario::Cifar, "table6")] {
        let stage = format!("{name}_{}", scenario.name());
        let skipped = manifest.run_stage(&stage, || -> Result<(), AnyError> {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-stage wall-clock is part of the reproduction report"
            )]
            let t0 = Instant::now();
            println!("=== {} (clean accuracy, {}) ===", name, scenario.name());
            let rows = accuracy_table(&zoo, scenario)?;
            println!("{}", format_accuracy_table(&rows));
            let csv: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.variant.label().into(),
                        format!("{:.4}", r.without),
                        format!("{:.4}", r.with),
                    ]
                })
                .collect();
            write_csv(
                format!("{out}/{name}_{}.csv", scenario.name()),
                &["variant", "without_magnet", "with_magnet"],
                &csv,
            )?;
            println!("[{name} done in {:.1?}]\n", t0.elapsed());
            Ok(())
        })?;
        if skipped {
            println!("[{stage} already complete — skipped]\n");
        }
    }

    // --- Table I -----------------------------------------------------------
    for scenario in [Scenario::Mnist, Scenario::Cifar] {
        let stage = format!("table1_{}", scenario.name());
        let skipped = manifest.run_stage(&stage, || -> Result<(), AnyError> {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-stage wall-clock is part of the reproduction report"
            )]
            let t0 = Instant::now();
            println!("=== Table I ({}) ===", scenario.name());
            let rows = table1(&zoo, scenario)?;
            println!("{}", format_table1(&rows));
            let csv: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.attack.clone(),
                        r.beta.map(|b| b.to_string()).unwrap_or_else(|| "NA".into()),
                        r.kappa.to_string(),
                        format!("{:.4}", r.asr),
                        r.l1.map(|v| format!("{v:.4}"))
                            .unwrap_or_else(|| "-".into()),
                        r.l2.map(|v| format!("{v:.4}"))
                            .unwrap_or_else(|| "-".into()),
                    ]
                })
                .collect();
            write_csv(
                format!("{out}/table1_{}.csv", scenario.name()),
                &["attack", "beta", "kappa", "asr", "mean_l1", "mean_l2"],
                &csv,
            )?;
            println!(
                "[table1 {} done in {:.1?}]\n",
                scenario.name(),
                t0.elapsed()
            );
            Ok(())
        })?;
        if skipped {
            println!("[{stage} already complete — skipped]\n");
        }
    }

    // --- Tables IV / VII ----------------------------------------------------
    for (scenario, name) in [(Scenario::Mnist, "table4"), (Scenario::Cifar, "table7")] {
        let stage = format!("{name}_{}", scenario.name());
        let skipped = manifest.run_stage(&stage, || -> Result<(), AnyError> {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-stage wall-clock is part of the reproduction report"
            )]
            let t0 = Instant::now();
            println!("=== {} (best EAD ASR, {}) ===", name, scenario.name());
            let rows = best_asr_table(&zoo, scenario)?;
            println!("{}", format_best_asr_table(&rows, scenario));
            let variants = Variant::for_scenario(scenario);
            let mut hdr: Vec<String> = vec!["rule".into(), "beta".into()];
            hdr.extend(variants.iter().map(|v| v.label().to_string()));
            let hdr_refs: Vec<&str> = hdr.iter().map(String::as_str).collect();
            let csv: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    let mut row = vec![r.rule.label().to_string(), r.beta.to_string()];
                    row.extend(r.asr.iter().map(|a| format!("{a:.4}")));
                    row
                })
                .collect();
            write_csv(
                format!("{out}/{name}_{}.csv", scenario.name()),
                &hdr_refs,
                &csv,
            )?;
            println!("[{name} done in {:.1?}]\n", t0.elapsed());
            Ok(())
        })?;
        if skipped {
            println!("[{stage} already complete — skipped]\n");
        }
    }

    // --- Figures 2 / 3 -------------------------------------------------------
    for (scenario, name) in [(Scenario::Mnist, "fig2"), (Scenario::Cifar, "fig3")] {
        let stage = format!("{name}_{}", scenario.name());
        let skipped = manifest.run_stage(&stage, || -> Result<(), AnyError> {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-stage wall-clock is part of the reproduction report"
            )]
            let t0 = Instant::now();
            println!("=== {} ({}) ===", name, scenario.name());
            let panels = defense_comparison(&zoo, scenario)?;
            for p in &panels {
                println!("{}", format_panel(p));
            }
            write_csv(
                format!("{out}/{name}_{}.csv", scenario.name()),
                &headers,
                &panels_to_csv_rows(&panels),
            )?;
            adv_eval::plot::write_panels_svg(&panels, format!("{out}/svg"), name)?;
            println!("[{name} done in {:.1?}]\n", t0.elapsed());
            Ok(())
        })?;
        if skipped {
            println!("[{stage} already complete — skipped]\n");
        }
    }

    // --- Figures 4 / 5 --------------------------------------------------------
    for (scenario, name) in [(Scenario::Mnist, "fig4"), (Scenario::Cifar, "fig5")] {
        let stage = format!("{name}_{}", scenario.name());
        let skipped = manifest.run_stage(&stage, || -> Result<(), AnyError> {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-stage wall-clock is part of the reproduction report"
            )]
            let t0 = Instant::now();
            println!(
                "=== {} (C&W scheme ablation, {}) ===",
                name,
                scenario.name()
            );
            let panels = scheme_ablation(&zoo, scenario)?;
            for p in &panels {
                println!("{}", format_panel(p));
            }
            write_csv(
                format!("{out}/{name}_{}.csv", scenario.name()),
                &headers,
                &panels_to_csv_rows(&panels),
            )?;
            adv_eval::plot::write_panels_svg(&panels, format!("{out}/svg"), name)?;
            println!("[{name} done in {:.1?}]\n", t0.elapsed());
            Ok(())
        })?;
        if skipped {
            println!("[{stage} already complete — skipped]\n");
        }
    }

    // --- Figures 6–11 -----------------------------------------------------------
    let grid_jobs = [
        (Scenario::Mnist, Variant::Default, "fig6"),
        (Scenario::Cifar, Variant::Default, "fig7"),
        (Scenario::Mnist, Variant::DefaultJsd, "fig8"),
        (Scenario::Mnist, Variant::Robust, "fig9"),
        (Scenario::Mnist, Variant::RobustJsd, "fig10"),
        (Scenario::Cifar, Variant::Robust, "fig11"),
    ];
    for (scenario, variant, name) in grid_jobs {
        let stage = format!("{name}_{}", scenario.name());
        let skipped = manifest.run_stage(&stage, || -> Result<(), AnyError> {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-stage wall-clock is part of the reproduction report"
            )]
            let t0 = Instant::now();
            println!(
                "=== {} (EAD grid vs schemes, {} {}) ===",
                name,
                scenario.name(),
                variant.label()
            );
            let panels = scheme_ablation_grid(&zoo, scenario, variant)?;
            for p in &panels {
                println!("{}", format_panel(p));
            }
            write_csv(
                format!("{out}/{name}_{}.csv", scenario.name()),
                &headers,
                &panels_to_csv_rows(&panels),
            )?;
            adv_eval::plot::write_panels_svg(&panels, format!("{out}/svg"), name)?;
            println!("[{name} done in {:.1?}]\n", t0.elapsed());
            Ok(())
        })?;
        if skipped {
            println!("[{stage} already complete — skipped]\n");
        }
    }

    // --- Figures 12 / 13 -----------------------------------------------------
    for (scenario, name) in [(Scenario::Mnist, "fig12"), (Scenario::Cifar, "fig13")] {
        let stage = format!("{name}_{}", scenario.name());
        let skipped = manifest.run_stage(&stage, || -> Result<(), AnyError> {
            #[expect(
                clippy::disallowed_methods,
                reason = "per-stage wall-clock is part of the reproduction report"
            )]
            let t0 = Instant::now();
            println!("=== {} (MSE vs MAE, {}) ===", name, scenario.name());
            let panels = loss_ablation(&zoo, scenario)?;
            for p in &panels {
                println!("{}", format_panel(p));
            }
            write_csv(
                format!("{out}/{name}_{}.csv", scenario.name()),
                &headers,
                &panels_to_csv_rows(&panels),
            )?;
            adv_eval::plot::write_panels_svg(&panels, format!("{out}/svg"), name)?;
            println!("[{name} done in {:.1?}]\n", t0.elapsed());
            Ok(())
        })?;
        if skipped {
            println!("[{stage} already complete — skipped]\n");
        }
    }

    // Every stage is recorded; the manifest has nothing left to resume.
    manifest.remove()?;

    println!(
        "All tables and figures regenerated in {:.1?}. CSVs in {out}/.",
        t_total.elapsed()
    );
    if let Some(obs) = obs {
        obs.finish()?;
    }
    Ok(())
}
