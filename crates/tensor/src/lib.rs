//! Dense `f32` tensor substrate for the MagNet/EAD reproduction.
//!
//! This crate provides the numerical foundation every other crate in the
//! workspace builds on:
//!
//! - [`Tensor`]: a dense, row-major, `f32` n-dimensional array with
//!   elementwise arithmetic, reductions and shape manipulation,
//! - [`Shape`]: a validated dimension list with stride computation,
//! - convolution / pooling / upsampling kernels in [`ops`] (the exact
//!   forward *and* backward kernels used by `adv-nn` layers),
//! - blocked matrix multiplication in [`ops::matmul()`],
//! - distortion norms (L0/L1/L2/L∞) in [`norms`] — the metrics the paper
//!   reports in Table I,
//! - seeded weight initializers in [`init`],
//! - `f32` transcendentals with host-independent bits in [`math`].
//!
//! Everything is deterministic given a seed; no global state is used.
//!
//! # Example
//!
//! ```
//! use adv_tensor::{Tensor, Shape};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::new(vec![2, 2]))?;
//! let b = Tensor::ones(Shape::new(vec![2, 2]));
//! let c = a.add(&b)?;
//! assert_eq!(c.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
//! # Ok::<(), adv_tensor::TensorError>(())
//! ```

#![deny(unsafe_code)]
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
mod shape;
mod tensor;

pub mod init;
pub mod math;
pub mod norms;
pub mod ops;
pub mod stats;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
