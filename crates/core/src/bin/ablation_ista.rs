//! Ablation (extension): ISTA (paper eq. 4) vs FISTA (the EAD reference
//! implementation) at equal iteration budgets, and the effect of the
//! binary-search depth on attack quality.
//!
//! Reports ASR and mean distortions on the MNIST victim so the design choice
//! documented in DESIGN.md ("plain ISTA by default") is backed by numbers.

use adv_attacks::{Attack, DecisionRule, EadConfig, ElasticNetAttack};
use adv_eval::config::CliArgs;
use adv_eval::experiment::select_attack_set;
use adv_eval::report::{opt3, pct, text_table, write_csv};
use adv_eval::zoo::{Scenario, Zoo};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliArgs::from_env();
    let zoo = Zoo::new(&args.models_dir, args.scale);
    let mut classifier = zoo.classifier(Scenario::Mnist)?;
    let data = zoo.data(Scenario::Mnist);
    let set = select_attack_set(
        &mut classifier,
        &data.test,
        zoo.scale().attack_count,
        zoo.scale().seed ^ 0xAB1A,
    )?;

    let kappa = 10.0 * zoo.scale().kappa_unit_mnist;
    let mut rows = Vec::new();
    for (label, fista, iters, bs) in [
        (
            "ISTA",
            false,
            zoo.scale().attack_iterations,
            zoo.scale().binary_search_steps,
        ),
        (
            "FISTA",
            true,
            zoo.scale().attack_iterations,
            zoo.scale().binary_search_steps,
        ),
        ("ISTA, 1 bs step", false, zoo.scale().attack_iterations, 1),
        (
            "ISTA, half iters",
            false,
            zoo.scale().attack_iterations / 2,
            zoo.scale().binary_search_steps,
        ),
    ] {
        let attack = ElasticNetAttack::new(EadConfig {
            kappa,
            beta: 0.01,
            iterations: iters.max(1),
            binary_search_steps: bs,
            initial_c: zoo.scale().initial_c,
            learning_rate: zoo.scale().attack_lr,
            rule: DecisionRule::ElasticNet,
            fista,
        })?;
        #[expect(
            clippy::disallowed_methods,
            reason = "attack wall-clock per ISTA configuration is the probe's output"
        )]
        let t0 = Instant::now();
        let outcome = attack.run(&mut classifier, &set.images, &set.labels)?;
        rows.push(vec![
            label.to_string(),
            format!("{iters}x{bs}"),
            pct(outcome.success_rate()),
            opt3(outcome.mean_l1_successful()),
            opt3(outcome.mean_l2_successful()),
            format!("{:.1}s", t0.elapsed().as_secs_f32()),
        ]);
    }

    println!("=== EAD optimizer / search-depth ablation (MNIST, paper-kappa 10) ===\n");
    println!(
        "{}",
        text_table(
            &[
                "variant",
                "iters x bs",
                "ASR %",
                "mean L1",
                "mean L2",
                "wall"
            ],
            &rows
        )
    );
    write_csv(
        format!("{}/ablation_ista.csv", args.out_dir),
        &["variant", "budget", "asr", "mean_l1", "mean_l2", "wall"],
        &rows,
    )?;
    Ok(())
}
