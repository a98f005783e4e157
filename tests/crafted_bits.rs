//! Pins the bits of crafted images. The smoke golden reports accuracies
//! over a few images, which a change to the crafting arithmetic can leave
//! unmoved; here one EAD-EN and one C&W image, crafted against a
//! fixed-seed MNIST-shaped classifier, must hash to committed values
//! together with the classifier's logits on them. The hinge losses'
//! gradients do not depend on the logits' values, so the image alone
//! pins the input-gradient kernels and the attacks' updates, and the
//! logits pin the forward kernels: a change to any of them that moves a
//! single bit fails.

use magnet_l1::attacks::{
    Attack, AttackOutcome, CarliniWagnerL2, CwConfig, DecisionRule, EadConfig, ElasticNetAttack,
};
use magnet_l1::data::synth::mnist_like;
use magnet_l1::magnet::arch::mnist_classifier;
use magnet_l1::nn::Sequential;

/// FNV-1a over the little-endian bytes of each value's bits.
fn fnv64<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Crafts against the victim shape the zoo serves at MNIST (1→8 and
/// 8→16 convolutions, a 784→64 and a 64→10 dense layer), untrained from
/// seed 7, attacking the class it predicts for one synthetic digit.
/// Returns the outcome and the hash of the adversarial image's bits
/// followed by its logits' bits.
fn craft(attack: &dyn Attack) -> (AttackOutcome, u64) {
    let mut net = Sequential::from_specs(&mnist_classifier(28, 1, 8, 16, 64, 10), 7)
        .expect("classifier builds");
    let digits = mnist_like(1, 11);
    let label = net.predict(digits.images()).expect("prediction")[0];
    let outcome = attack
        .run(&mut net, digits.images(), &[label])
        .expect("attack runs");
    let logits = net.infer(&outcome.adversarial).expect("inference");
    let image = outcome.adversarial.as_slice();
    let hash = fnv64(image.iter().chain(logits.as_slice()));
    (outcome, hash)
}

#[test]
fn ead_en_image_bits_are_pinned() {
    let attack = ElasticNetAttack::new(EadConfig {
        iterations: 10,
        binary_search_steps: 2,
        beta: 1e-3,
        learning_rate: 0.05,
        initial_c: 10.0,
        rule: DecisionRule::ElasticNet,
        ..EadConfig::default()
    })
    .expect("valid config");
    let (outcome, hash) = craft(&attack);
    assert_eq!(outcome.success, vec![true]);
    assert_eq!(hash, 0xb927_0551_715c_488a);
}

#[test]
fn cw_image_bits_are_pinned() {
    let attack = CarliniWagnerL2::new(CwConfig {
        iterations: 10,
        binary_search_steps: 2,
        learning_rate: 0.05,
        initial_c: 10.0,
        ..CwConfig::default()
    })
    .expect("valid config");
    let (outcome, hash) = craft(&attack);
    assert_eq!(outcome.success, vec![true]);
    assert_eq!(hash, 0x2629_f891_94c3_0a07);
}
