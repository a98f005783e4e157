//! Shape-level assertions about the paper's headline claims.
//!
//! The smoke-scale tests assert only what is stable at tiny scale (attacks
//! craft, pipelines run, curves are well-formed). The `#[ignore]`d test runs
//! at the default `quick` scale and asserts the actual paper shape. Under the
//! test profile it takes ~28 s on 2 vCPUs when it trains from an empty
//! `models/` cache — run it manually with
//! `cargo test --test paper_shape -- --ignored`.

use magnet_l1::eval::config::Scale;
use magnet_l1::eval::sweep::{AttackKind, SweepRunner};
use magnet_l1::eval::zoo::{Scenario, Variant, Zoo};
use magnet_l1::magnet::DefenseScheme;

#[test]
fn smoke_curves_are_well_formed() {
    let dir = std::env::temp_dir().join("magnet_l1_shape_smoke");
    std::fs::remove_dir_all(&dir).ok();
    let zoo = Zoo::new(&dir, Scale::smoke());
    let mut runner = SweepRunner::new(&zoo, Scenario::Cifar).unwrap();
    let mut defense = zoo.defense(Scenario::Cifar, Variant::Default).unwrap();
    let kappas = [0.0f32, 50.0];
    for kind in AttackKind::figure_trio() {
        let curve = runner
            .curve(&kind, &kappas, &mut defense, DefenseScheme::Full)
            .unwrap();
        assert_eq!(curve.points.len(), 2);
        for p in &curve.points {
            assert!((0.0..=1.0).contains(&p.accuracy), "{}: {p:?}", curve.label);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn smoke_ead_crafts_adversarial_examples() {
    let dir = std::env::temp_dir().join("magnet_l1_shape_ead");
    std::fs::remove_dir_all(&dir).ok();
    // Smoke training is short but the classifier still earns real margins;
    // give the attack a budget that can cross them.
    let mut scale = Scale::smoke();
    scale.attack_iterations = 60;
    scale.binary_search_steps = 3;
    scale.initial_c = 1.0;
    scale.attack_lr = 0.05;
    let zoo = Zoo::new(&dir, scale);
    let mut runner = SweepRunner::new(&zoo, Scenario::Cifar).unwrap();
    let outcome = runner
        .outcome(
            &AttackKind::Ead {
                rule: magnet_l1::attacks::DecisionRule::ElasticNet,
                beta: 0.01,
            },
            0.0,
        )
        .unwrap();
    assert!(
        outcome.success_rate() > 0.5,
        "EAD undefended ASR {} too low even at kappa 0",
        outcome.success_rate()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The paper's headline, asserted at `quick` scale (MNIST): the default
/// MagNet holds C&W above the level it holds EAD to, with a real gap at the
/// medium confidence levels.
#[test]
#[ignore = "quick-scale: ~28 s on 2 vCPUs from an empty models/ cache; run with -- --ignored"]
fn mnist_ead_beats_cw_against_default_magnet() {
    let zoo = Zoo::new("models", Scale::quick());
    let mut runner = SweepRunner::new(&zoo, Scenario::Mnist).unwrap();
    let mut defense = zoo.defense(Scenario::Mnist, Variant::Default).unwrap();
    let kappas = [10.0f32, 15.0, 20.0];
    let min_acc = |runner: &mut SweepRunner, kind: &AttackKind, defense: &mut _| {
        kappas
            .iter()
            .map(|&k| {
                runner
                    .evaluate(kind, k, defense)
                    .unwrap()
                    .accuracy_for(DefenseScheme::Full)
            })
            .fold(f32::INFINITY, f32::min)
    };
    let cw = min_acc(&mut runner, &AttackKind::Cw, &mut defense);
    let ead = min_acc(
        &mut runner,
        &AttackKind::Ead {
            rule: magnet_l1::attacks::DecisionRule::ElasticNet,
            beta: 0.1,
        },
        &mut defense,
    );
    assert!(
        cw > ead + 0.1,
        "expected a >=10-point defense gap: C&W min accuracy {cw}, EAD {ead}"
    );
    assert!(cw > 0.85, "C&W should stay well-defended, got {cw}");
}
