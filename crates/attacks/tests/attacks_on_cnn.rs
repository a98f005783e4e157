//! Integration: every attack against a small CNN trained on synthetic
//! digits — the realistic setting (convolutions, pooling, ReLU) rather than
//! the linear toy models of the unit tests.

use adv_attacks::{
    Attack, CarliniWagnerL2, CwConfig, DecisionRule, DeepFool, DeepFoolConfig, EadConfig,
    ElasticNetAttack, Fgsm, IterativeFgsm,
};
use adv_data::synth::mnist_like;
use adv_nn::optim::Adam;
use adv_nn::train::{fit_classifier, gather0, TrainConfig};
use adv_nn::{Activation, LayerSpec, Sequential};
use adv_tensor::ops::Conv2dSpec;
use adv_tensor::Tensor;

/// Trains a small CNN to high accuracy on synthetic digits and returns it
/// with a batch of correctly-classified images.
fn trained_cnn_with_batch(n: usize) -> (Sequential, Tensor, Vec<usize>) {
    let train = mnist_like(700, 31);
    let test = mnist_like(120, 32);
    let specs = [
        LayerSpec::Conv2d(Conv2dSpec::same(1, 6, 3)),
        LayerSpec::Activation(Activation::Relu),
        LayerSpec::MaxPool2d { k: 2 },
        LayerSpec::Conv2d(Conv2dSpec::same(6, 12, 3)),
        LayerSpec::Activation(Activation::Relu),
        LayerSpec::MaxPool2d { k: 2 },
        LayerSpec::Flatten,
        LayerSpec::Dense {
            inputs: 12 * 7 * 7,
            outputs: 10,
        },
    ];
    let mut net = Sequential::from_specs(&specs, 8).unwrap();
    let mut opt = Adam::with_defaults(1e-3);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 32,
        seed: 2,
        label_smoothing: 0.0,
        verbose: false,
        checkpoint: None,
    };
    fit_classifier(&mut net, &mut opt, train.images(), train.labels(), &cfg).unwrap();

    let preds = net.predict(test.images()).unwrap();
    let correct: Vec<usize> = preds
        .iter()
        .zip(test.labels())
        .enumerate()
        .filter(|(_, (p, l))| p == l)
        .map(|(i, _)| i)
        .take(n)
        .collect();
    assert!(correct.len() >= n, "classifier too weak for the test");
    let x = gather0(test.images(), &correct).unwrap();
    let labels = correct.iter().map(|&i| test.labels()[i]).collect();
    (net, x, labels)
}

#[test]
fn ead_fools_the_cnn_and_examples_verify() {
    let (mut net, x, labels) = trained_cnn_with_batch(6);
    let attack = ElasticNetAttack::new(EadConfig {
        kappa: 0.0,
        beta: 0.01,
        iterations: 40,
        binary_search_steps: 3,
        initial_c: 0.5,
        learning_rate: 0.02,
        rule: DecisionRule::ElasticNet,
        fista: false,
    })
    .unwrap();
    let outcome = attack.run(&mut net, &x, &labels).unwrap();
    assert!(
        outcome.success_rate() > 0.6,
        "ASR {}",
        outcome.success_rate()
    );
    let preds = net.predict(&outcome.adversarial).unwrap();
    for (i, &ok) in outcome.success.iter().enumerate() {
        if ok {
            assert_ne!(preds[i], labels[i], "example {i} not adversarial");
        }
    }
}

#[test]
fn ead_l1_rule_produces_sparser_perturbations_than_cw() {
    let (mut net, x, labels) = trained_cnn_with_batch(5);
    let ead = ElasticNetAttack::new(EadConfig {
        kappa: 0.0,
        beta: 0.05,
        iterations: 50,
        binary_search_steps: 3,
        initial_c: 0.5,
        learning_rate: 0.02,
        rule: DecisionRule::L1,
        fista: false,
    })
    .unwrap();
    let cw = CarliniWagnerL2::new(CwConfig {
        kappa: 0.0,
        iterations: 50,
        binary_search_steps: 3,
        initial_c: 0.5,
        learning_rate: 0.02,
    })
    .unwrap();
    let eo = ead.run(&mut net, &x, &labels).unwrap();
    let co = cw.run(&mut net, &x, &labels).unwrap();

    // Compare mean L0 (pixels touched) over examples where both succeeded —
    // the paper's central geometric claim.
    let mut ead_l0 = 0usize;
    let mut cw_l0 = 0usize;
    let mut counted = 0usize;
    for i in 0..labels.len() {
        if eo.success[i] && co.success[i] {
            let de = eo.adversarial.index_axis0(i).unwrap();
            let xe = x.index_axis0(i).unwrap();
            let dc = co.adversarial.index_axis0(i).unwrap();
            ead_l0 += adv_tensor::norms::l0_norm(&de.sub(&xe).unwrap(), 1e-3);
            cw_l0 += adv_tensor::norms::l0_norm(&dc.sub(&xe).unwrap(), 1e-3);
            counted += 1;
        }
    }
    assert!(counted > 0, "no common successes to compare");
    assert!(
        ead_l0 < cw_l0,
        "EAD touched {ead_l0} pixels vs C&W {cw_l0} over {counted} examples — expected sparser"
    );
}

#[test]
fn fgsm_family_fools_the_cnn_at_large_epsilon() {
    let (mut net, x, labels) = trained_cnn_with_batch(6);
    let fgsm = Fgsm::new(0.25).unwrap();
    let o = fgsm.run(&mut net, &x, &labels).unwrap();
    // FGSM is crude; just require it fools something and stays bounded.
    assert!(o.linf.iter().all(|&v| v <= 0.25 + 1e-5));

    let ifgsm = IterativeFgsm::new(0.25, 0.05, 10).unwrap();
    let oi = ifgsm.run(&mut net, &x, &labels).unwrap();
    assert!(
        oi.success_rate() >= o.success_rate(),
        "I-FGSM ({}) should be at least as strong as FGSM ({})",
        oi.success_rate(),
        o.success_rate()
    );
}

#[test]
fn deepfool_finds_small_perturbations() {
    let (mut net, x, labels) = trained_cnn_with_batch(4);
    let attack = DeepFool::new(DeepFoolConfig {
        max_iterations: 40,
        overshoot: 0.02,
    })
    .unwrap();
    let o = attack.run(&mut net, &x, &labels).unwrap();
    assert!(o.success_rate() > 0.5, "ASR {}", o.success_rate());
    // DeepFool aims for minimal perturbations: distortions stay moderate.
    for (i, &ok) in o.success.iter().enumerate() {
        if ok && o.l2[i] > 0.0 {
            assert!(
                o.l2[i] < 10.0,
                "example {i} L2 {} implausibly large",
                o.l2[i]
            );
        }
    }
}

#[test]
fn confidence_increases_distortion_on_cnn() {
    let (mut net, x, labels) = trained_cnn_with_batch(4);
    let mut run = |kappa: f32| {
        let attack = ElasticNetAttack::new(EadConfig {
            kappa,
            beta: 0.01,
            iterations: 50,
            binary_search_steps: 3,
            initial_c: 1.0,
            learning_rate: 0.02,
            rule: DecisionRule::ElasticNet,
            fista: false,
        })
        .unwrap();
        let o = attack.run(&mut net, &x, &labels).unwrap();
        (o.success_rate(), o.mean_l2_successful())
    };
    let (asr0, d0) = run(0.0);
    let (_, d3) = run(3.0);
    assert!(asr0 > 0.5);
    if let (Some(a), Some(b)) = (d0, d3) {
        assert!(
            b >= a * 0.8,
            "κ=3 distortion {b} unexpectedly below κ=0 {a}"
        );
    }
}

#[test]
fn crafting_a_batch_equals_crafting_each_image_alone() {
    // The evaluation harness crafts whole batches; the paper's numbers are
    // per-image, so each image must get the bits and the success flag it
    // gets when attacked alone.
    let (mut net, x, labels) = trained_cnn_with_batch(4);
    let ead = ElasticNetAttack::new(EadConfig {
        kappa: 0.0,
        beta: 0.01,
        iterations: 30,
        binary_search_steps: 3,
        initial_c: 0.5,
        learning_rate: 0.02,
        rule: DecisionRule::ElasticNet,
        fista: false,
    })
    .unwrap();
    let cw = CarliniWagnerL2::new(CwConfig {
        kappa: 0.0,
        iterations: 30,
        binary_search_steps: 3,
        initial_c: 0.5,
        learning_rate: 0.02,
    })
    .unwrap();
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let attacks: [&dyn Attack; 2] = [&ead, &cw];
    for attack in attacks {
        let batch = attack.run(&mut net, &x, &labels).unwrap();
        assert!(
            batch.success.contains(&true),
            "{} found nothing",
            attack.name()
        );
        for i in 0..labels.len() {
            let xi = Tensor::stack(&[x.index_axis0(i).unwrap()]).unwrap();
            let alone = attack.run(&mut net, &xi, &labels[i..=i]).unwrap();
            let name = attack.name();
            assert_eq!(batch.success[i], alone.success[0], "{name} image {i}");
            let b = batch.adversarial.index_axis0(i).unwrap();
            let a = alone.adversarial.as_slice();
            assert_eq!(bits(b.as_slice()), bits(a), "{name} image {i}");
        }
    }
}
