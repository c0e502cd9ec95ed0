use rand::Rng;

use crate::gemm::{sgemm, sgemm_nt, sgemm_tn};
use crate::{init, Layer, Param, Tensor};

/// Fully-connected layer: `y = x Wᵀ + b` with `W` stored `[out, in]`.
///
/// # Example
///
/// ```
/// use nn::{layers::Linear, Layer, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut fc = Linear::new(8, 4, &mut rng);
/// let y = fc.forward(&Tensor::zeros(&[2, 8]));
/// assert_eq!(y.shape(), &[2, 4]);
/// ```
#[derive(Debug)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// New layer with He-initialized weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(in_features > 0 && out_features > 0, "linear dims must be non-zero");
        let weight = Param::new(init::he(&[out_features, in_features], in_features, rng));
        let bias = Param::new(Tensor::zeros(&[out_features]));
        Linear { in_features, out_features, weight, bias, cached_input: None }
    }

    /// Input feature count.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.cached_input = Some(input.clone());
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Linear expects [batch, features]");
        let batch = input.shape()[0];
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "Linear expects {} input features",
            self.in_features
        );
        let mut out = Tensor::zeros(&[batch, self.out_features]);
        // y[i,j] = Σ_p x[i,p] · W[j,p]  (W stored [out,in])
        sgemm_nt(
            batch,
            self.in_features,
            self.out_features,
            input.data(),
            self.weight.value.data(),
            out.data_mut(),
        );
        for row in out.data_mut().chunks_exact_mut(self.out_features) {
            for (o, b) in row.iter_mut().zip(self.bias.value.data()) {
                *o += b;
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let batch = input.shape()[0];
        assert_eq!(grad_output.shape(), &[batch, self.out_features], "bad grad shape");
        // dW[j,p] += Σ_i dY[i,j] · X[i,p]
        sgemm_tn(
            self.out_features,
            batch,
            self.in_features,
            grad_output.data(),
            input.data(),
            self.weight.grad.data_mut(),
        );
        // db[j] += Σ_i dY[i,j]
        for row in grad_output.data().chunks_exact(self.out_features) {
            for (g, d) in self.bias.grad.data_mut().iter_mut().zip(row) {
                *g += d;
            }
        }
        // dX[i,p] = Σ_j dY[i,j] · W[j,p]
        let mut grad_input = Tensor::zeros(&[batch, self.in_features]);
        sgemm(
            batch,
            self.out_features,
            self.in_features,
            grad_output.data(),
            self.weight.value.data(),
            grad_input.data_mut(),
        );
        grad_input
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::loss::mse;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut fc = Linear::new(3, 2, &mut rng);
        fc.bias.value.data_mut().copy_from_slice(&[1.0, -1.0]);
        let y = fc.forward(&Tensor::zeros(&[4, 3]));
        assert_eq!(y.shape(), &[4, 2]);
        // Zero input -> output equals bias.
        for row in y.data().chunks_exact(2) {
            assert_eq!(row, &[1.0, -1.0]);
        }
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut fc = Linear::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let target = Tensor::randn(&[2, 3], 1.0, &mut rng);

        let y = fc.forward(&x);
        let (_, grad) = mse(&y, &target);
        fc.zero_grad();
        let grad_input = fc.backward(&grad);

        let eps = 1e-3f32;
        // Check input gradient on a few coordinates.
        for idx in [0usize, 3, 5] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let (lp, _) = mse(&fc.forward(&xp), &target);
            let (lm, _) = mse(&fc.forward(&xm), &target);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_input.data()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "input grad mismatch at {idx}: {numeric} vs {analytic}"
            );
        }

        // Check a weight gradient coordinate.
        let analytic_w = {
            let mut val = 0.0;
            let mut i = 0;
            fc.visit_params(&mut |p| {
                if i == 0 {
                    val = p.grad.data()[1];
                }
                i += 1;
            });
            val
        };
        let perturb = |fc: &mut Linear, delta: f32| {
            let mut i = 0;
            fc.visit_params(&mut |p| {
                if i == 0 {
                    p.value.data_mut()[1] += delta;
                }
                i += 1;
            });
        };
        perturb(&mut fc, eps);
        let (lp, _) = mse(&fc.forward(&x), &target);
        perturb(&mut fc, -2.0 * eps);
        let (lm, _) = mse(&fc.forward(&x), &target);
        perturb(&mut fc, eps);
        let numeric_w = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric_w - analytic_w).abs() < 1e-2,
            "weight grad mismatch: {numeric_w} vs {analytic_w}"
        );
    }

    #[test]
    fn param_count_is_correct() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut fc = Linear::new(10, 5, &mut rng);
        assert_eq!(fc.param_count(), 10 * 5 + 5);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut fc = Linear::new(2, 2, &mut rng);
        let _ = fc.backward(&Tensor::zeros(&[1, 2]));
    }
}
