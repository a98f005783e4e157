//! Developer utility: measures the cost of the building blocks (classifier
//! training, AE training, one attack run) at the configured scale, so the
//! default `quick` constants stay honest on the target machine.

use adv_eval::config::CliArgs;
use adv_eval::obs::ObsSession;
use adv_eval::sweep::{AttackKind, SweepRunner};
use adv_eval::zoo::{Scenario, Variant, Zoo};
use adv_profile::StageScope;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CliArgs::from_env();
    let obs = ObsSession::from_args(&args);
    let zoo = Zoo::new(&args.models_dir, args.scale);
    println!("scale: {:?}", zoo.scale());

    for scenario in [Scenario::Mnist, Scenario::Cifar] {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock measurement is this probe's purpose"
        )]
        let t0 = Instant::now();
        let bundle = {
            let _span = StageScope::enter("probe/bundle");
            zoo.bundle(scenario)?
        };
        println!(
            "{}: classifier ready in {:.1?}; clean accuracy {:.1}%",
            scenario.name(),
            t0.elapsed(),
            bundle.clean_accuracy * 100.0
        );

        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock measurement is this probe's purpose"
        )]
        let t0 = Instant::now();
        {
            let _span = StageScope::enter("probe/defense");
            let _defense = zoo.defense(scenario, Variant::Default)?;
        }
        println!(
            "{}: default defense in {:.1?}",
            scenario.name(),
            t0.elapsed()
        );

        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock measurement is this probe's purpose"
        )]
        let t0 = Instant::now();
        let mut runner = SweepRunner::new(&zoo, scenario)?;
        let kind = AttackKind::Ead {
            rule: adv_attacks::DecisionRule::ElasticNet,
            beta: 0.01,
        };
        let outcome = {
            let _span = StageScope::enter("probe/ead");
            runner.outcome(&kind, 10.0)?
        };
        println!(
            "{}: one EAD run ({} images) in {:.1?}; undefended ASR {:.1}%",
            scenario.name(),
            outcome.success.len(),
            t0.elapsed(),
            outcome.success_rate() * 100.0
        );

        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock measurement is this probe's purpose"
        )]
        let t0 = Instant::now();
        let cw = {
            let _span = StageScope::enter("probe/cw");
            runner.outcome(&AttackKind::Cw, 10.0)?
        };
        println!(
            "{}: one C&W run in {:.1?}; undefended ASR {:.1}%",
            scenario.name(),
            t0.elapsed(),
            cw.success_rate() * 100.0
        );
    }
    if let Some(obs) = obs {
        obs.finish()?;
    }
    Ok(())
}
