use serde::{Deserialize, Serialize};

use crate::{Layer, Tensor};

/// Flatten `[N, ...]` to `[N, prod(...)]`, bridging convolutional and
/// fully-connected stages.
///
/// # Example
///
/// ```
/// use nn::{layers::Flatten, Layer, Tensor};
///
/// let mut flat = Flatten::new();
/// let y = flat.forward(&Tensor::zeros(&[2, 3, 4, 4]));
/// assert_eq!(y.shape(), &[2, 48]);
/// ```
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Flatten {
    #[serde(skip)]
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// New flatten layer.
    #[must_use]
    pub fn new() -> Self {
        Flatten { input_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.input_shape = Some(input.shape().to_vec());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert!(shape.len() >= 2, "Flatten expects at least [N, ...]");
        input.reshaped(&[shape[0], shape[1..].iter().product()])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self.input_shape.as_ref().expect("backward before forward");
        grad_output.reshaped(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_shape_and_data() {
        let mut flat = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let y = flat.forward(&x);
        assert_eq!(y.shape(), &[2, 12]);
        let back = flat.backward(&y);
        assert_eq!(back.shape(), x.shape());
        assert_eq!(back.data(), x.data());
    }

    #[test]
    fn already_flat_is_identity() {
        let mut flat = Flatten::new();
        let x = Tensor::zeros(&[5, 7]);
        let y = flat.forward(&x);
        assert_eq!(y.shape(), &[5, 7]);
    }
}
