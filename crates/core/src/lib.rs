//! Evaluation harness reproducing the paper's experiments.
//!
//! This crate orchestrates everything the paper's §III does:
//!
//! 1. [`zoo`] trains (and caches to disk) the victim classifiers, the MagNet
//!    auto-encoders for every defense variant, and assembles calibrated
//!    defenses.
//! 2. [`experiment`] implements the **oblivious attack protocol**: pick test
//!    images the undefended classifier gets right, craft adversarial
//!    examples against the *undefended* model, then measure each defense
//!    variant's classification accuracy (= detected ∨ correctly classified)
//!    on the successfully crafted examples.
//! 3. [`sweep`] runs confidence sweeps and β sweeps, caching attack results
//!    on disk ([`cache`]) so that every table and figure that shares an
//!    attack configuration reuses the same adversarial examples.
//! 4. [`tables`] and [`figures`] format the paper's Tables I/III/IV/VI/VII
//!    and the series behind Figures 2–13; [`render`] writes the Figure 1
//!    image grids (PGM/PPM + ASCII).
//!
//! [`artifacts`] maps every table and figure to its function and its one
//! output file; `reproduce_all` runs that list (`--only` picks rows) at the
//! configured scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod artifacts;
pub mod cache;
pub mod config;
pub mod experiment;
pub mod figures;
pub mod obs;
pub mod plot;
pub mod render;
pub mod report;
pub mod sweep;
pub mod tables;
pub mod zoo;

pub use config::Scale;
pub use error::EvalError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EvalError>;
