//! A miniature version of the paper's whole study, on CIFAR-like data:
//! sweep the attack confidence κ and watch the default MagNet hold against
//! C&W while EAD walks through it.
//!
//! ```text
//! cargo run --release --example transfer_study
//! ```

use magnet_l1::eval::config::Scale;
use magnet_l1::eval::sweep::{AttackKind, SweepRunner};
use magnet_l1::eval::zoo::{Scenario, Variant, Zoo};
use magnet_l1::magnet::DefenseScheme;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small scale so this example finishes in a couple of minutes;
    // `reproduce_all` (e.g. `--only table1,fig2`) runs the real thing.
    let mut scale = Scale::smoke();
    scale.train_size = 1200;
    scale.valid_size = 250;
    scale.test_size = 250;
    scale.attack_count = 16;
    scale.attack_iterations = 50;
    scale.binary_search_steps = 3;
    scale.classifier_epochs = 3;
    scale.ae_epochs = 4;

    let zoo = Zoo::new("models-example", scale);
    let scenario = Scenario::Cifar;
    println!("training victim classifier and MagNet (cached under models-example/)…");
    let bundle = zoo.bundle(scenario)?;
    println!(
        "clean test accuracy without defense: {:.1}%",
        bundle.clean_accuracy * 100.0
    );
    let mut defense = zoo.defense(scenario, Variant::Default)?;
    let mut runner = SweepRunner::new(&zoo, scenario)?;

    let kappas = [0.0f32, 10.0, 20.0, 40.0];
    println!(
        "\n{:<22} {}",
        "attack",
        kappas.map(|k| format!("k={k:<5}")).join(" ")
    );
    for kind in AttackKind::figure_trio() {
        let mut cells = Vec::new();
        for &kappa in &kappas {
            let eval = runner.evaluate(&kind, kappa, &mut defense)?;
            cells.push(format!(
                "{:>5.1}%",
                eval.accuracy_for(DefenseScheme::Full) * 100.0
            ));
        }
        println!("{:<22} {}", kind.label(), cells.join(" "));
    }
    println!(
        "\nRows are MagNet's classification accuracy on the crafted examples\n\
         (higher = better defense). The C&W row should stay high while the\n\
         EAD rows collapse — the paper's headline result."
    );
    Ok(())
}
