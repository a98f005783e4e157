//! Public-API surface guarantees for the facade crate: the types a
//! downstream user builds against exist under the documented paths and
//! implement the traits the guidelines promise (Debug everywhere, Send/Sync
//! on errors, Clone on models, std::error::Error on error types).

use magnet_l1::attacks::{AttackError, AttackOutcome, CarliniWagnerL2, ElasticNetAttack};
use magnet_l1::data::{DataError, Dataset};
use magnet_l1::eval::EvalError;
use magnet_l1::magnet::{Autoencoder, MagnetDefense, MagnetError};
use magnet_l1::nn::{NnError, Sequential};
use magnet_l1::tensor::{Shape, Tensor, TensorError};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: std::error::Error>() {}
fn assert_clone<T: Clone>() {}
fn assert_debug<T: std::fmt::Debug>() {}

#[test]
fn error_types_are_well_behaved() {
    assert_error::<TensorError>();
    assert_error::<NnError>();
    assert_error::<DataError>();
    assert_error::<MagnetError>();
    assert_error::<AttackError>();
    assert_error::<EvalError>();
    assert_send_sync::<TensorError>();
    assert_send_sync::<NnError>();
    assert_send_sync::<DataError>();
    assert_send_sync::<MagnetError>();
    assert_send_sync::<AttackError>();
    assert_send_sync::<EvalError>();
}

#[test]
fn core_types_implement_common_traits() {
    assert_clone::<Tensor>();
    assert_clone::<Shape>();
    assert_clone::<Dataset>();
    assert_clone::<Sequential>();
    assert_clone::<Autoencoder>();
    assert_clone::<AttackOutcome>();
    assert_clone::<ElasticNetAttack>();
    assert_clone::<CarliniWagnerL2>();
    assert_debug::<Tensor>();
    assert_debug::<MagnetDefense>();
    assert_send_sync::<Tensor>();
    assert_send_sync::<Dataset>();
}

#[test]
fn models_are_sendable_for_parallel_evaluation() {
    fn assert_send<T: Send>() {}
    assert_send::<Sequential>();
    assert_send::<Autoencoder>();
    assert_send::<MagnetDefense>();
}

#[test]
fn attack_trait_objects_compose() {
    // Attacks must be usable as boxed trait objects (the sweep machinery
    // relies on it).
    use magnet_l1::attacks::{Attack, CwConfig, EadConfig};
    let attacks: Vec<Box<dyn Attack>> = vec![
        Box::new(CarliniWagnerL2::new(CwConfig::default()).unwrap()),
        Box::new(ElasticNetAttack::new(EadConfig::default()).unwrap()),
    ];
    assert_eq!(attacks.len(), 2);
    assert!(attacks[0].name().contains("C&W"));
    assert!(attacks[1].name().contains("EAD"));
}

#[test]
fn detectors_compose_as_trait_objects() {
    use magnet_l1::magnet::{Detector, ReconstructionDetector, ReconstructionNorm};
    use magnet_l1::nn::loss::ReconstructionLoss;
    let ae = std::sync::Arc::new(
        Autoencoder::new(
            &magnet_l1::magnet::arch::mnist_ae_two(1, 2),
            ReconstructionLoss::MeanSquaredError,
            0.1,
            0,
        )
        .unwrap(),
    );
    let detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(ReconstructionDetector::new(
            std::sync::Arc::clone(&ae),
            ReconstructionNorm::L1,
        )),
        Box::new(ReconstructionDetector::new(ae, ReconstructionNorm::L2)),
    ];
    assert_eq!(detectors[0].name(), "recon-l1");
    assert_eq!(detectors[1].name(), "recon-l2");
}
