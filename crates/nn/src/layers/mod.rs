//! Concrete layer implementations.
//!
//! All layers obey the [`Layer`](crate::Layer) contract: `forward` caches,
//! `backward` consumes the cache and returns the input gradient, and
//! `backward_input` returns the same input gradient without touching the
//! parameter gradients.

mod activation;
mod conv;
mod dense;
mod dropout;
mod pool;
mod reshape;
mod upsample;

pub use activation::{Activation, ActivationLayer};
pub use conv::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use pool::{AvgPool2d, MaxPool2d};
pub use reshape::{Flatten, Reshape};
pub use upsample::Upsample2d;
