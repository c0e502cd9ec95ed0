//! Loss functions and their gradients.
//!
//! Each reduced loss returns `(scalar, gradient)` where the gradient
//! already includes the reduction factor, so `Layer::backward` can be
//! called with it directly. The *per-sample* helpers return unreduced
//! values and unscaled gradients — the building blocks the selective
//! loss (paper eqs. (6)–(9)) composes with its own data-dependent
//! normalizers.

use crate::Tensor;

/// Reusable buffers for the fused cross-entropy path.
///
/// One instance lives next to each training loop; every buffer grows
/// to the largest batch seen and is then reused, so steady-state
/// training performs no loss-side allocation (the crate-level
/// workspace memory model — see [`crate::workspace`]).
#[derive(Debug, Default)]
pub struct CeScratch {
    probs: Tensor,
    grad: Tensor,
    losses: Vec<f32>,
}

/// Row-wise softmax of a `[N, C]` logits tensor.
///
/// # Panics
///
/// Panics if `logits` is not 2-D.
#[must_use]
pub fn softmax(logits: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    softmax_into(logits, &mut out);
    out
}

/// [`softmax`] into a caller-provided tensor (resized in place,
/// allocation-free once warmed).
///
/// # Panics
///
/// Panics if `logits` is not 2-D.
pub fn softmax_into(logits: &Tensor, out: &mut Tensor) {
    assert_eq!(logits.shape().len(), 2, "softmax expects [N, C]");
    let c = logits.shape()[1];
    out.refill_from(logits);
    for row in out.data_mut().chunks_exact_mut(c) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Per-sample cross-entropy `−log p[label]` from softmax probabilities,
/// into a caller-provided vector (cleared and refilled,
/// allocation-free once warmed).
///
/// Probabilities are floored at `1e-12` for numerical safety.
///
/// # Panics
///
/// Panics if shapes disagree or any label is out of range.
pub fn cross_entropy_per_sample_into(probs: &Tensor, labels: &[usize], out: &mut Vec<f32>) {
    let (n, c) = (probs.shape()[0], probs.shape()[1]);
    assert_eq!(labels.len(), n, "labels length mismatch");
    out.clear();
    out.extend(labels.iter().enumerate().map(|(i, &y)| {
        assert!(y < c, "label {y} out of range for {c} classes");
        -(probs.data()[i * c + y].max(1e-12)).ln()
    }));
}

/// Unscaled per-sample gradient of cross-entropy w.r.t. logits, into a
/// caller-provided tensor (resized in place, allocation-free once
/// warmed): row `i` is `p_i − onehot(y_i)`.
///
/// Multiply rows by per-sample coefficients and a reduction factor to
/// build any weighted CE variant.
///
/// # Panics
///
/// Panics if shapes disagree or any label is out of range.
pub fn cross_entropy_grad_rows_into(probs: &Tensor, labels: &[usize], out: &mut Tensor) {
    let (n, c) = (probs.shape()[0], probs.shape()[1]);
    assert_eq!(labels.len(), n, "labels length mismatch");
    out.refill_from(probs);
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < c, "label {y} out of range for {c} classes");
        out.data_mut()[i * c + y] -= 1.0;
    }
}

/// Fused weighted softmax cross-entropy with mean reduction.
///
/// Returns the weighted mean loss `Σ w_i · ce_i / Σ w_i` and its
/// gradient w.r.t. the logits. With `weights = None` all samples weigh
/// 1 (plain mean CE — the paper's eq. (1) up to the standard sign
/// convention).
///
/// # Panics
///
/// Panics on shape mismatch, out-of-range labels, or non-positive
/// total weight.
#[must_use]
pub fn softmax_cross_entropy(
    logits: &Tensor,
    labels: &[usize],
    weights: Option<&[f32]>,
) -> (f32, Tensor) {
    let mut scratch = CeScratch::default();
    let loss = softmax_cross_entropy_into(logits, labels, weights, &mut scratch);
    (loss, scratch.grad)
}

/// [`softmax_cross_entropy`] computed through reusable scratch. The
/// gradient is left in the returned reference (backed by `scratch`);
/// computes bit-identical numbers to the allocating variant.
///
/// # Panics
///
/// Panics on shape mismatch, out-of-range labels, or non-positive
/// total weight.
pub fn softmax_cross_entropy_scratch<'s>(
    logits: &Tensor,
    labels: &[usize],
    weights: Option<&[f32]>,
    scratch: &'s mut CeScratch,
) -> (f32, &'s mut Tensor) {
    let loss = softmax_cross_entropy_into(logits, labels, weights, scratch);
    (loss, &mut scratch.grad)
}

fn softmax_cross_entropy_into(
    logits: &Tensor,
    labels: &[usize],
    weights: Option<&[f32]>,
    scratch: &mut CeScratch,
) -> f32 {
    let n = logits.shape()[0];
    let c = logits.shape()[1];
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "weights length mismatch");
    }
    softmax_into(logits, &mut scratch.probs);
    cross_entropy_per_sample_into(&scratch.probs, labels, &mut scratch.losses);
    let total_weight: f32 = match weights {
        Some(w) => w.iter().sum(),
        None => n as f32,
    };
    assert!(total_weight > 0.0, "total sample weight must be positive");
    let loss = scratch
        .losses
        .iter()
        .enumerate()
        .map(|(i, l)| l * weights.map_or(1.0, |w| w[i]))
        .sum::<f32>()
        / total_weight;
    cross_entropy_grad_rows_into(&scratch.probs, labels, &mut scratch.grad);
    for (i, row) in scratch.grad.data_mut().chunks_exact_mut(c).enumerate() {
        let coef = weights.map_or(1.0, |w| w[i]) / total_weight;
        row.iter_mut().for_each(|v| *v *= coef);
    }
    loss
}

/// Fraction of rows whose argmax equals the label.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size.
#[must_use]
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let (n, c) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), n, "labels length mismatch");
    if n == 0 {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|(i, &y)| argmax(&logits.data()[i * c..(i + 1) * c]) == y)
        .count();
    correct as f32 / n as f32
}

/// Index of the largest element (first on ties).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn argmax(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Mean-squared error and its gradient: `L = mean((p − t)²)`,
/// `dL/dp = 2 (p − t) / numel`.
///
/// # Panics
///
/// Panics on shape mismatch.
#[must_use]
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.numel() as f32;
    let mut grad = pred.clone();
    let mut loss = 0.0f32;
    for (g, &t) in grad.data_mut().iter_mut().zip(target.data()) {
        let d = *g - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(0);
        let logits = Tensor::randn(&[5, 7], 3.0, &mut rng);
        let p = softmax(&logits);
        for row in p.data().chunks_exact(7) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let logits = Tensor::from_vec(vec![1000.0, 1001.0, 999.0], &[1, 3]);
        let p = softmax(&logits);
        assert!(p.is_finite());
        let shifted = softmax(&Tensor::from_vec(vec![0.0, 1.0, -1.0], &[1, 3]));
        for (a, b) in p.data().iter().zip(shifted.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_near_zero() {
        let logits = Tensor::from_vec(vec![50.0, 0.0, 0.0], &[1, 3]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0], None);
        assert!(loss < 1e-6);
    }

    #[test]
    fn uniform_prediction_loss_is_ln_c() {
        let logits = Tensor::zeros(&[4, 8]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2, 3], None);
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let logits = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let labels = [2usize, 0, 3];
        let (_, grad) = softmax_cross_entropy(&logits, &labels, None);
        let eps = 1e-3f32;
        for idx in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels, None);
            let (fm, _) = softmax_cross_entropy(&lm, &labels, None);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[idx]).abs() < 1e-3,
                "grad mismatch at {idx}: {numeric} vs {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn weights_reweight_the_loss() {
        let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0, 2.0], &[2, 2]);
        // Sample 0 correct, sample 1 label 0 (wrong-ish).
        let (hi, _) = softmax_cross_entropy(&logits, &[0, 0], Some(&[1.0, 1.0]));
        let (lo, _) = softmax_cross_entropy(&logits, &[0, 0], Some(&[1.0, 0.1]));
        // Down-weighting the bad sample must reduce the mean loss.
        assert!(lo < hi);
    }

    #[test]
    fn weighted_ce_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let logits = Tensor::randn(&[3, 3], 1.0, &mut rng);
        let labels = [0usize, 1, 2];
        let weights = [1.0f32, 0.25, 0.5];
        let (_, grad) = softmax_cross_entropy(&logits, &labels, Some(&weights));
        let eps = 1e-3f32;
        for idx in [0usize, 4, 8] {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels, Some(&weights));
            let (fm, _) = softmax_cross_entropy(&lm, &labels, Some(&weights));
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - grad.data()[idx]).abs() < 1e-3);
        }
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.9, 0.1], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-6);
        assert!((accuracy(&logits, &[1, 0, 1]) - 0.0).abs() < 1e-6);
        assert!((accuracy(&logits, &[0, 0, 0]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn mse_known_answer_and_gradient() {
        let pred = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let target = Tensor::from_vec(vec![0.0, 0.0], &[2]);
        let (loss, grad) = mse(&pred, &target);
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.data(), &[1.0, 2.0]);
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1);
    }
}
