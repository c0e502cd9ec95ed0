//! Neural-network layers with manual backpropagation.
//!
//! All layers implement [`crate::Layer`]. Convolutional layers expect
//! 4-D `[batch, channels, height, width]` tensors; [`Linear`] expects
//! 2-D `[batch, features]`; [`Flatten`] bridges the two.

mod activation;
mod conv;
mod convtranspose;
mod linear;
mod pool;
mod shape;
mod upsample;

pub use activation::{stable_sigmoid, Relu, Sigmoid};
pub use conv::Conv2d;
pub use convtranspose::ConvTranspose2d;
pub use linear::Linear;
pub use pool::MaxPool2d;
pub use shape::Flatten;
pub use upsample::Upsample2d;
