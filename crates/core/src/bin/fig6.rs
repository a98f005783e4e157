//! Reproduces **Figure 6**: EAD (β × decision-rule grid) vs the four
//! defense schemes on MNIST, against the *default* MagNet.

use adv_eval::config::CliArgs;
use adv_eval::figures::{format_panel, panels_to_csv_rows, scheme_ablation_grid};
use adv_eval::report::write_csv;
use adv_eval::zoo::{Scenario, Variant, Zoo};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliArgs::from_env();
    let zoo = Zoo::new(&args.models_dir, args.scale);
    println!("=== Figure 6 (MNIST: EAD grid vs schemes, default MagNet) ===\n");
    let panels = scheme_ablation_grid(&zoo, Scenario::Mnist, Variant::Default)?;
    for panel in &panels {
        println!("{}", format_panel(panel));
    }
    write_csv(
        format!("{}/fig6_mnist.csv", args.out_dir),
        &["panel", "curve", "kappa", "accuracy"],
        &panels_to_csv_rows(&panels),
    )?;
    let svgs = adv_eval::plot::write_panels_svg(&panels, format!("{}/svg", args.out_dir), "fig6")?;
    println!("SVG panels written: {svgs:?} under {}/svg/", args.out_dir);
    Ok(())
}
