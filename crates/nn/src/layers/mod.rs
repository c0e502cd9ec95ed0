//! Neural-network layers with manual backpropagation.
//!
//! All layers implement [`crate::Layer`]. Convolutional layers expect
//! 4-D `[batch, channels, height, width]` tensors; [`Linear`] expects
//! 2-D `[batch, features]`; [`Flatten`] bridges the two.
//!
//! [`ConvBlock`] is the pooled convolution block of the paper's
//! classifier trunk (Table I) and auto-encoder encoder (Fig. 3):
//! conv → ReLU → 2×2 max-pool fused into the convolution's per-sample
//! pass, bit-identical to [`Conv2d`], [`Relu`] and `MaxPool2d::new(2)`
//! chained. The standalone layers stay for the decoder and for
//! comparisons against the unfused chain.

mod activation;
mod conv;
mod linear;
mod pool;
mod shape;
mod upsample;

pub use activation::{stable_sigmoid, Relu, Sigmoid};
pub use conv::{Conv2d, ConvBlock};
pub use linear::Linear;
pub use pool::MaxPool2d;
pub use shape::Flatten;
pub use upsample::Upsample2d;
