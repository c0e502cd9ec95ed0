//! A binary soft-margin kernel SVM trained with simplified SMO
//! (Platt's algorithm in the form popularized by the Stanford CS229
//! notes): repeatedly pick a multiplier violating the KKT conditions,
//! pair it with a random second multiplier, and solve the
//! two-variable subproblem analytically.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// SVM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// `K(a, b) = aᵀb`.
    Linear,
    /// `K(a, b) = exp(−γ‖a − b‖²)`.
    Rbf {
        /// Kernel width γ.
        gamma: f32,
    },
}

impl Kernel {
    /// Evaluate the kernel on two feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    #[must_use]
    pub fn eval(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "kernel dimension mismatch");
        match *self {
            Kernel::Linear => a.iter().zip(b).map(|(x, y)| x * y).sum(),
            Kernel::Rbf { gamma } => {
                let d2: f32 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
        }
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvmParams {
    /// Soft-margin penalty `C`.
    pub c: f32,
    /// Kernel.
    pub kernel: Kernel,
    /// KKT violation tolerance.
    pub tol: f32,
    /// Stop after this many consecutive passes without updates.
    pub max_passes: usize,
    /// Hard cap on total passes over the data.
    pub max_iter: usize,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            c: 1.0,
            kernel: Kernel::Rbf { gamma: 0.05 },
            tol: 1e-3,
            max_passes: 3,
            max_iter: 60,
        }
    }
}

/// A trained binary SVM: support vectors, dual coefficients and bias.
///
/// # Example
///
/// ```
/// use baseline::{Kernel, Svm, SvmParams};
///
/// // Linearly separable 1-D data.
/// let x = vec![vec![-2.0], vec![-1.5], vec![1.5], vec![2.0]];
/// let y = vec![-1.0, -1.0, 1.0, 1.0];
/// let params = SvmParams { kernel: Kernel::Linear, ..SvmParams::default() };
/// let svm = Svm::train(&x, &y, &params, 0);
/// assert!(svm.decision(&[3.0]) > 0.0);
/// assert!(svm.decision(&[-3.0]) < 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Svm {
    support_vectors: Vec<Vec<f32>>,
    /// `α_i · y_i` for each support vector.
    coefficients: Vec<f32>,
    bias: f32,
    kernel: Kernel,
}

impl Svm {
    /// Train on feature rows `x` and labels `y ∈ {−1, +1}`.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty, lengths mismatch, labels are not
    /// ±1, or only one class is present.
    #[must_use]
    pub fn train(x: &[Vec<f32>], y: &[f32], params: &SvmParams, seed: u64) -> Self {
        let n = x.len();
        assert!(n > 0, "cannot train on no samples");
        assert_eq!(y.len(), n, "labels length mismatch");
        assert!(y.iter().all(|&v| v == 1.0 || v == -1.0), "labels must be ±1");
        assert!(y.contains(&1.0) && y.contains(&-1.0), "need both classes to train");

        // Precompute the kernel matrix (training sets here are small
        // enough; 2000² f32 = 16 MB).
        let k: Vec<f32> = {
            let mut k = vec![0.0f32; n * n];
            for i in 0..n {
                for j in i..n {
                    let v = params.kernel.eval(&x[i], &x[j]);
                    k[i * n + j] = v;
                    k[j * n + i] = v;
                }
            }
            k
        };

        let mut alpha = vec![0.0f32; n];
        let mut b = 0.0f32;
        let mut rng = StdRng::seed_from_u64(seed);
        let decision = |alpha: &[f32], b: f32, idx: usize, k: &[f32]| -> f32 {
            let mut s = b;
            for (j, &a) in alpha.iter().enumerate() {
                if a != 0.0 {
                    s += a * y[j] * k[idx * n + j];
                }
            }
            s
        };

        let mut passes = 0usize;
        let mut iter = 0usize;
        while passes < params.max_passes && iter < params.max_iter {
            iter += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let ei = decision(&alpha, b, i, &k) - y[i];
                let violates = (y[i] * ei < -params.tol && alpha[i] < params.c)
                    || (y[i] * ei > params.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                // Pick j != i at random.
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = decision(&alpha, b, j, &k) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if y[i] == y[j] {
                    ((ai_old + aj_old - params.c).max(0.0), (ai_old + aj_old).min(params.c))
                } else {
                    ((aj_old - ai_old).max(0.0), (params.c + aj_old - ai_old).min(params.c))
                };
                if lo >= hi - 1e-8 {
                    continue;
                }
                let eta = 2.0 * k[i * n + j] - k[i * n + i] - k[j * n + j];
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                let b1 = b
                    - ei
                    - y[i] * (ai - ai_old) * k[i * n + i]
                    - y[j] * (aj - aj_old) * k[i * n + j];
                let b2 = b
                    - ej
                    - y[i] * (ai - ai_old) * k[i * n + j]
                    - y[j] * (aj - aj_old) * k[j * n + j];
                b = if ai > 0.0 && ai < params.c {
                    b1
                } else if aj > 0.0 && aj < params.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        // Keep only support vectors.
        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-8 {
                support_vectors.push(x[i].clone());
                coefficients.push(alpha[i] * y[i]);
            }
        }
        Svm { support_vectors, coefficients, bias: b, kernel: params.kernel }
    }

    /// Signed decision value; positive means class `+1`.
    #[must_use]
    pub fn decision(&self, x: &[f32]) -> f32 {
        let mut s = self.bias;
        for (sv, &c) in self.support_vectors.iter().zip(&self.coefficients) {
            s += c * self.kernel.eval(sv, x);
        }
        s
    }

    /// Hard classification: `+1` or `−1`.
    #[must_use]
    pub fn predict(&self, x: &[f32]) -> f32 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_dataset(n: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        // Inner disc = +1, outer ring = −1: not linearly separable.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let theta = i as f32 * 0.7;
            let r = if i % 2 == 0 { 0.5 } else { 2.0 };
            x.push(vec![r * theta.cos(), r * theta.sin()]);
            y.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        (x, y)
    }

    #[test]
    fn linear_svm_separates_linear_data() {
        let x: Vec<Vec<f32>> =
            (0..40).map(|i| vec![i as f32 / 10.0 - 2.0, (i % 7) as f32 / 7.0]).collect();
        let y: Vec<f32> = x.iter().map(|p| if p[0] > 0.0 { 1.0 } else { -1.0 }).collect();
        let params = SvmParams { kernel: Kernel::Linear, ..SvmParams::default() };
        let svm = Svm::train(&x, &y, &params, 1);
        let correct = x.iter().zip(&y).filter(|(xi, &yi)| svm.predict(xi) == yi).count();
        assert!(correct >= 38, "linear SVM only got {correct}/40");
    }

    #[test]
    fn rbf_svm_separates_ring_data() {
        let (x, y) = ring_dataset(60);
        let params = SvmParams { kernel: Kernel::Rbf { gamma: 1.0 }, ..SvmParams::default() };
        let svm = Svm::train(&x, &y, &params, 2);
        let correct = x.iter().zip(&y).filter(|(xi, &yi)| svm.predict(xi) == yi).count();
        assert!(correct >= 57, "RBF SVM only got {correct}/60");
    }

    #[test]
    fn linear_svm_cannot_separate_ring_but_rbf_can() {
        let (x, y) = ring_dataset(60);
        let lin =
            Svm::train(&x, &y, &SvmParams { kernel: Kernel::Linear, ..SvmParams::default() }, 3);
        let lin_correct = x.iter().zip(&y).filter(|(xi, &yi)| lin.predict(xi) == yi).count();
        assert!(lin_correct < 45, "linear should fail on rings: {lin_correct}/60");
    }

    #[test]
    fn decision_margin_sign_far_from_boundary() {
        let x = vec![vec![-1.0f32], vec![1.0]];
        let y = vec![-1.0, 1.0];
        let params = SvmParams { kernel: Kernel::Linear, ..SvmParams::default() };
        let svm = Svm::train(&x, &y, &params, 4);
        assert!(svm.decision(&[10.0]) > svm.decision(&[0.5]));
    }

    #[test]
    fn kernel_values() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let rbf = Kernel::Rbf { gamma: 0.5 };
        assert!((rbf.eval(&[0.0], &[0.0]) - 1.0).abs() < 1e-6);
        assert!(rbf.eval(&[0.0], &[10.0]) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_rejected() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![1.0, 1.0];
        let _ = Svm::train(&x, &y, &SvmParams::default(), 5);
    }

    #[test]
    fn sparse_model_keeps_few_support_vectors() {
        // Well-separated clusters need only boundary points.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..50 {
            x.push(vec![-5.0 - (i % 5) as f32, 0.0]);
            y.push(-1.0);
            x.push(vec![5.0 + (i % 5) as f32, 0.0]);
            y.push(1.0);
        }
        let params = SvmParams { kernel: Kernel::Linear, ..SvmParams::default() };
        let svm = Svm::train(&x, &y, &params, 6);
        let count = svm.support_vectors.len();
        assert!(count < 30, "too many SVs: {count}");
    }
}
