//! The MagNet defense (Meng & Chen, CCS 2017), as evaluated by the paper.
//!
//! MagNet is a two-pronged, classifier-agnostic defense:
//!
//! 1. **Detectors** flag inputs that sit far from the training-data manifold.
//!    Two detector families are implemented, matching the original:
//!    - [`ReconstructionDetector`]: the Lᵖ reconstruction error
//!      `‖x − AE(x)‖ₚ` of a defensive auto-encoder (`p ∈ {1, 2}`),
//!    - [`JsdDetector`]: the Jensen–Shannon divergence between
//!      `softmax(logits(x)/T)` and `softmax(logits(AE(x))/T)` at a
//!      temperature `T` (the paper uses `T = 10` and `T = 40`).
//!
//!    Thresholds are calibrated to a false-positive-rate budget on clean
//!    validation data ([`threshold`]).
//! 2. **Reformer**: inputs that pass the detectors are replaced by their
//!    auto-encoding `AE(x)`, projecting them back toward the data manifold
//!    before classification.
//!
//! [`MagnetDefense`] composes both stages and scores the paper's metric:
//! *classification accuracy* = fraction of inputs either detected or
//! correctly classified after reforming. [`variants`] builds the exact
//! defense configurations the paper evaluates (default, D+JSD, D+256,
//! D+256+JSD, and MAE-trained auto-encoders).
//!
//! Their roles share models, so [`MagnetDefense::new`] plans the pass once
//! from the models each [`Detector`] names, and runs each shared one once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod autoencoder;
mod defense;
mod detector;
mod error;
mod plan;

pub mod arch;
pub mod fork;
pub mod graybox;
pub mod jsd;
pub mod threshold;
pub mod variants;

pub use autoencoder::Autoencoder;
pub use defense::{
    DefensePipeline, DefenseScheme, MagnetDefense, StageTimings, Verdict, MIN_CHUNK_ROWS,
    STAGE_CHUNK, STAGE_CLASSIFY, STAGE_DETECT, STAGE_REFORM,
};
pub use detector::{Detector, JsdDetector, ReconstructionDetector, ReconstructionNorm};
pub use error::MagnetError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MagnetError>;
