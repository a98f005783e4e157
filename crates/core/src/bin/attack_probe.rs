//! Developer utility: inspects why/whether attacks succeed on the victim —
//! logit margins, and ASR across initial_c / iteration settings.

use adv_attacks::{Attack, DecisionRule, EadConfig, ElasticNetAttack};
use adv_eval::config::CliArgs;
use adv_eval::experiment::select_attack_set;
use adv_eval::obs::ObsSession;
use adv_eval::zoo::{Scenario, Zoo};
use adv_nn::Mode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliArgs::from_env();
    let obs = ObsSession::from_args(&args);
    let zoo = Zoo::new(&args.models_dir, args.scale);
    for scenario in [Scenario::Mnist, Scenario::Cifar] {
        let mut clf = zoo.classifier(scenario)?;
        let data = zoo.data(scenario);
        let set = select_attack_set(&mut clf, &data.test, 16, 1)?;
        let logits = clf.forward(&set.images, Mode::Eval)?;
        let margins = adv_attacks::loss::adversarial_margins(&logits, &set.labels)?;
        let mean_margin: f32 = margins.iter().sum::<f32>() / margins.len() as f32;
        println!(
            "{}: logit margin mean {:.2}, min {:.2}, max {:.2}",
            scenario.name(),
            mean_margin,
            margins.iter().cloned().fold(f32::INFINITY, f32::min),
            margins.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
        );
        for (c0, iters, bs) in [
            (1e-3f32, 60, 4),
            (0.1, 60, 4),
            (1.0, 100, 4),
            (10.0, 100, 4),
            (1.0, 200, 6),
        ] {
            let attack = ElasticNetAttack::new(EadConfig {
                kappa: 10.0,
                beta: 0.01,
                iterations: iters,
                binary_search_steps: bs,
                initial_c: c0,
                learning_rate: 0.01,
                rule: DecisionRule::ElasticNet,
                fista: false,
            })?;
            #[expect(
                clippy::disallowed_methods,
                reason = "attack wall-clock is the probe's output"
            )]
            let t0 = std::time::Instant::now();
            let o = attack.run(&mut clf, &set.images, &set.labels)?;
            println!(
                "  c0={c0:<6} iters={iters:<4} bs={bs}: ASR {:>5.1}%  L1 {:?}  L2 {:?}  ({:.1?})",
                o.success_rate() * 100.0,
                o.mean_l1_successful().map(|v| (v * 100.0).round() / 100.0),
                o.mean_l2_successful().map(|v| (v * 100.0).round() / 100.0),
                t0.elapsed()
            );
        }
    }
    if let Some(obs) = obs {
        obs.finish()?;
    }
    Ok(())
}
