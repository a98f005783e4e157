//! Neural-network substrate with manual backpropagation.
//!
//! This crate implements everything the MagNet/EAD reproduction needs from a
//! deep-learning framework, in plain Rust:
//!
//! - [`Layer`]: forward/backward with explicit caches; `backward` returns the
//!   gradient **with respect to the layer input**, and `backward_input`
//!   returns only that, with no parameter gradients. Chained by
//!   [`Differentiable`], it lets the attack crates differentiate a loss
//!   through a whole network down to the image pixels,
//! - layers: dense, 2-D convolution, ReLU/sigmoid/tanh activations, max/avg
//!   pooling, nearest upsampling, flatten/reshape (in [`layers`]),
//! - losses: softmax cross-entropy, MSE and MAE (in [`loss`]) — MSE and MAE
//!   are the two auto-encoder reconstruction losses the paper compares in
//!   Figures 12–13,
//! - optimizers: SGD with momentum, Adam (in [`optim`]),
//! - [`Sequential`]: a network container with an architecture spec
//!   ([`LayerSpec`]) so models round-trip through the binary codec in
//!   [`serialize`],
//! - a training loop ([`train::fit_classifier`] / [`train::fit_autoencoder`])
//!   driving epochs/minibatches reproducibly from a seed.
//!
//! Every layer's backward pass is validated against central finite
//! differences in the test suite — wrong input gradients would silently break
//! every attack built on top.
//!
//! # Example
//!
//! ```
//! use adv_nn::{LayerSpec, Sequential, Activation};
//! use adv_tensor::{Shape, Tensor};
//!
//! let mut net = Sequential::from_specs(
//!     &[
//!         LayerSpec::Dense { inputs: 4, outputs: 8 },
//!         LayerSpec::Activation(Activation::Relu),
//!         LayerSpec::Dense { inputs: 8, outputs: 3 },
//!     ],
//!     42,
//! )?;
//! let x = Tensor::zeros(Shape::matrix(2, 4));
//! let logits = net.forward(&x, adv_nn::Mode::Eval)?;
//! assert_eq!(logits.shape().dims(), &[2, 3]);
//! # Ok::<(), adv_nn::NnError>(())
//! ```

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

mod error;
mod layer;
mod network;

pub mod checkpoint;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod serialize;
pub mod softmax;
pub mod summary;
pub mod train;

pub use checkpoint::CheckpointCfg;
pub use error::NnError;
pub use layer::{Layer, Mode, Param};
pub use layers::Activation;
pub use network::{Differentiable, LayerSpec, Sequential};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
