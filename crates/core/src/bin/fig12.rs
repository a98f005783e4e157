//! Reproduces **Figure 12**: defense comparison on MNIST when the default
//! MagNet's auto-encoders are trained with MSE vs MAE reconstruction loss.

use adv_eval::config::CliArgs;
use adv_eval::figures::{format_panel, loss_ablation, panels_to_csv_rows};
use adv_eval::report::write_csv;
use adv_eval::zoo::{Scenario, Zoo};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliArgs::from_env();
    let zoo = Zoo::new(&args.models_dir, args.scale);
    println!("=== Figure 12 (MNIST: MSE vs MAE auto-encoder training) ===\n");
    let panels = loss_ablation(&zoo, Scenario::Mnist)?;
    for panel in &panels {
        println!("{}", format_panel(panel));
    }
    write_csv(
        format!("{}/fig12_mnist.csv", args.out_dir),
        &["panel", "curve", "kappa", "accuracy"],
        &panels_to_csv_rows(&panels),
    )?;
    let svgs = adv_eval::plot::write_panels_svg(&panels, format!("{}/svg", args.out_dir), "fig12")?;
    println!("SVG panels written: {svgs:?} under {}/svg/", args.out_dir);
    Ok(())
}
