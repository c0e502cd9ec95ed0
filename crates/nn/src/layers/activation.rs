use crate::{Layer, Tensor};

/// Rectified linear unit: `y = max(0, x)`, applied elementwise.
///
/// # Example
///
/// ```
/// use nn::{layers::Relu, Layer, Tensor};
///
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[2]));
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// New ReLU activation.
    #[must_use]
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        // `max(v, 0) > 0` exactly when `v > 0`, so the output carries
        // the mask.
        self.mask = Some(out.data().iter().map(|&v| v > 0.0).collect());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward before forward");
        assert_eq!(grad_output.numel(), mask.len(), "bad grad shape for Relu");
        let data =
            grad_output.data().iter().zip(mask).map(|(&g, &on)| if on { g } else { 0.0 }).collect();
        Tensor::from_vec(data, grad_output.shape())
    }
}

/// Logistic sigmoid: `y = 1 / (1 + e^{-x})`, applied elementwise.
///
/// Used by the selection head `g` (a single sigmoid neuron in the
/// paper's Fig. 2) and the auto-encoder output.
///
/// # Example
///
/// ```
/// use nn::{layers::Sigmoid, Layer, Tensor};
///
/// let mut s = Sigmoid::new();
/// let y = s.forward(&Tensor::from_vec(vec![0.0], &[1]));
/// assert_eq!(y.data(), &[0.5]);
/// ```
#[derive(Debug, Default)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// New sigmoid activation.
    #[must_use]
    pub fn new() -> Self {
        Sigmoid { output: None }
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.output = Some(out.clone());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        input.map(stable_sigmoid)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let out = self.output.as_ref().expect("backward before forward");
        assert_eq!(grad_output.numel(), out.numel(), "bad grad shape for Sigmoid");
        let data =
            grad_output.data().iter().zip(out.data()).map(|(&g, &y)| g * y * (1.0 - y)).collect();
        Tensor::from_vec(data, grad_output.shape())
    }
}

/// Numerically stable sigmoid.
#[must_use]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives_and_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[3]);
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 3.0]);
        let g = relu.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        assert!((stable_sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(stable_sigmoid(-100.0) < 1e-6);
        assert!(stable_sigmoid(-100.0) >= 0.0);
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn sigmoid_gradient_matches_formula() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![0.7], &[1]);
        let y = s.forward(&x);
        let g = s.backward(&Tensor::from_vec(vec![1.0], &[1]));
        let expect = y.data()[0] * (1.0 - y.data()[0]);
        assert!((g.data()[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_gradient_check() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![0.3, -1.2], &[2]);
        let _ = s.forward(&x);
        let g = s.backward(&Tensor::from_vec(vec![1.0, 1.0], &[2]));
        let eps = 1e-3;
        for i in 0..2 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let numeric =
                (stable_sigmoid(xp.data()[i]) - stable_sigmoid(xm.data()[i])) / (2.0 * eps);
            assert!((g.data()[i] - numeric).abs() < 1e-4);
        }
    }
}
