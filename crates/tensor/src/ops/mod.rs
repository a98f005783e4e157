//! Numerical kernels: matrix multiplication, convolution, pooling and
//! upsampling, each with the backward passes the `adv-nn` layers need.

pub mod conv;
#[expect(
    unsafe_code,
    reason = "the one call into a kernel body's AVX2 copy, made after the CPU reported AVX2"
)]
pub(crate) mod isa;
pub mod matmul;
pub mod pool;

pub use conv::{col2im, conv2d, conv2d_backward, conv2d_backward_input, im2col, Conv2dSpec};
pub use matmul::{matmul, matmul_a_bt, matmul_at_b};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, max_pool2d, max_pool2d_backward, max_pool2d_with_argmax,
    upsample2d_nearest, upsample2d_nearest_backward, Pool2dSpec,
};
