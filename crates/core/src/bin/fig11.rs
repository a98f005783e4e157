//! Reproduces **Figure 11**: EAD grid vs the four defense schemes on CIFAR,
//! against the D+256 MagNet (wide auto-encoders).

use adv_eval::config::CliArgs;
use adv_eval::figures::{format_panel, panels_to_csv_rows, scheme_ablation_grid};
use adv_eval::report::write_csv;
use adv_eval::zoo::{Scenario, Variant, Zoo};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliArgs::from_env();
    let zoo = Zoo::new(&args.models_dir, args.scale);
    println!("=== Figure 11 (CIFAR: EAD grid vs schemes, D+256 MagNet) ===\n");
    let panels = scheme_ablation_grid(&zoo, Scenario::Cifar, Variant::Robust)?;
    for panel in &panels {
        println!("{}", format_panel(panel));
    }
    write_csv(
        format!("{}/fig11_cifar.csv", args.out_dir),
        &["panel", "curve", "kappa", "accuracy"],
        &panels_to_csv_rows(&panels),
    )?;
    let svgs = adv_eval::plot::write_panels_svg(&panels, format!("{}/svg", args.out_dir), "fig11")?;
    println!("SVG panels written: {svgs:?} under {}/svg/", args.out_dir);
    Ok(())
}
