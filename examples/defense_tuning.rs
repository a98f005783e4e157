//! Detector calibration study: how MagNet's detector thresholds trade
//! false positives on clean data against detection of adversarial examples,
//! across the FPR budget and across detector types.
//!
//! ```text
//! cargo run --release --example defense_tuning
//! ```

use magnet_l1::attacks::{Attack, DecisionRule, EadConfig, ElasticNetAttack};
use magnet_l1::data::synth::mnist_like;
use magnet_l1::magnet::variants::{train_mnist_autoencoders, TrainSpec};
use magnet_l1::magnet::{Detector, JsdDetector, ReconstructionDetector, ReconstructionNorm};
use magnet_l1::nn::optim::Adam;
use magnet_l1::nn::train::{fit_classifier, gather0, TrainConfig};
use magnet_l1::nn::Sequential;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train = mnist_like(1500, 21);
    let valid = mnist_like(300, 22);
    let test = mnist_like(150, 23);

    let specs = magnet_l1::magnet::arch::mnist_classifier(28, 1, 6, 12, 48, 10);
    let mut classifier = Sequential::from_specs(&specs, 9)?;
    let mut opt = Adam::with_defaults(1e-3);
    fit_classifier(
        &mut classifier,
        &mut opt,
        train.images(),
        train.labels(),
        &TrainConfig {
            epochs: 3,
            batch_size: 32,
            seed: 1,
            label_smoothing: 0.0,
            verbose: false,
            checkpoint: None,
        },
    )?;

    let aes = train_mnist_autoencoders(
        1,
        &TrainSpec {
            epochs: 5,
            ..TrainSpec::default()
        },
        train.images(),
    )?;

    // Craft one batch of adversarial examples to measure detection rates on.
    let preds = classifier.predict(test.images())?;
    let correct: Vec<usize> = preds
        .iter()
        .zip(test.labels())
        .enumerate()
        .filter(|(_, (p, l))| p == l)
        .map(|(i, _)| i)
        .take(24)
        .collect();
    let x = gather0(test.images(), &correct)?;
    let labels: Vec<usize> = correct.iter().map(|&i| test.labels()[i]).collect();
    let attack = ElasticNetAttack::new(EadConfig {
        kappa: 20.0,
        beta: 0.01,
        iterations: 60,
        binary_search_steps: 3,
        initial_c: 0.1,
        rule: DecisionRule::ElasticNet,
        ..EadConfig::default()
    })?;
    let outcome = attack.run(&mut classifier, &x, &labels)?;
    println!(
        "crafted {} adversarial examples (ASR {:.0}%)\n",
        outcome.success.iter().filter(|&&s| s).count(),
        outcome.success_rate() * 100.0
    );

    let ae_one = Arc::new(aes.ae_one);
    let classifier = Arc::new(classifier);
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(ReconstructionDetector::new(
            Arc::clone(&ae_one),
            ReconstructionNorm::L2,
        )),
        Box::new(ReconstructionDetector::new(
            Arc::new(aes.ae_two),
            ReconstructionNorm::L1,
        )),
        Box::new(JsdDetector::new(
            Arc::clone(&ae_one),
            Arc::clone(&classifier),
            10.0,
        )?),
        Box::new(JsdDetector::new(ae_one, classifier, 40.0)?),
    ];

    println!(
        "{:<12} {:>8} {:>14} {:>16}",
        "detector", "fpr", "threshold", "detection rate"
    );
    for fpr in [0.005f32, 0.01, 0.02, 0.05, 0.1] {
        for det in detectors.iter_mut() {
            let threshold = det.calibrate(valid.images(), fpr)?;
            let flags = det.flags(&outcome.adversarial)?;
            let rate = flags
                .iter()
                .zip(&outcome.success)
                .filter(|(&f, &s)| f && s)
                .count() as f32
                / outcome.success.iter().filter(|&&s| s).count().max(1) as f32;
            println!(
                "{:<12} {:>8.3} {:>14.4} {:>15.1}%",
                det.name(),
                fpr,
                threshold,
                rate * 100.0
            );
        }
        println!();
    }
    println!(
        "Raising the FPR budget lowers the thresholds and catches more\n\
         adversarial examples — at the price of rejecting clean inputs.\n\
         This is the trade-off behind MagNet's Table III accuracy drop."
    );
    Ok(())
}
