use serde::{Deserialize, Serialize};

/// Outcome of the selective classifier on one wafer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectivePrediction {
    /// Predicted class index (argmax of the prediction head) — only
    /// meaningful when [`SelectivePrediction::selected`] is true.
    pub label: usize,
    /// Softmax probability of the predicted class.
    pub confidence: f32,
    /// Selection-head score `g(x)` in `(0, 1)`.
    pub selection_score: f32,
    /// Whether `g(x)` cleared the threshold (the model commits).
    pub selected: bool,
}

/// Pick a selection threshold τ targeting a given empirical coverage
/// on a calibration set of `g` scores.
///
/// SelectiveNet calibrates the inference threshold the same way: sort
/// the validation scores and cut at the `(1 − coverage)` quantile so a
/// fraction `coverage` of samples clears it. Clamps `coverage` into
/// `[0, 1]`. A NaN score is never selected (`NaN >= τ` is false), so it
/// counts towards the set's size but never towards the kept scores;
/// returns 0.5 when no score is a number.
///
/// # Guarantee
///
/// The empirical coverage of the rule `s >= τ` on the calibration
/// scores is **exact or under** the target, never over: at most
/// `floor(len · coverage)` scores clear the returned τ, and exactly
/// that many do when no calibration score ties with the score at the
/// cut. When scores tie at the cut, τ steps up to the next distinct
/// value so *every* duplicate is excluded — deterministically, rather
/// than keeping all of them and silently overshooting the target.
/// (Over-coverage is the harmful direction for a selective model: it
/// admits exactly the low-confidence wafers the reject option exists
/// to abstain on.)
///
/// # Example
///
/// ```
/// use selective::calibrate_threshold;
///
/// let scores = [0.1, 0.2, 0.6, 0.8, 0.9];
/// let tau = calibrate_threshold(&scores, 0.4);
/// let kept = scores.iter().filter(|&&s| s >= tau).count();
/// assert_eq!(kept, 2);
///
/// // Ties at the cut are excluded rather than overshooting: a naive
/// // quantile cut at 0.8 would keep 3 of 4 samples here (75%
/// // coverage against a 50% target).
/// let tied = [0.1, 0.8, 0.8, 0.9];
/// let tau = calibrate_threshold(&tied, 0.5);
/// let kept = tied.iter().filter(|&&s| s >= tau).count();
/// assert_eq!(kept, 1);
/// ```
#[must_use]
pub fn calibrate_threshold(scores: &[f32], coverage: f64) -> f32 {
    let coverage = coverage.clamp(0.0, 1.0);
    let keep = ((scores.len() as f64) * coverage).floor() as usize;
    let mut sorted: Vec<f32> = scores.iter().copied().filter(|s| !s.is_nan()).collect();
    if sorted.is_empty() {
        return 0.5;
    }
    sorted.sort_by(f32::total_cmp);
    let n = sorted.len();
    if keep == 0 {
        return above(sorted[n - 1]);
    }
    if keep >= n {
        return sorted[0];
    }
    // Keep the `keep` largest scores: cut at element n-keep.
    let cut = sorted[n - keep];
    if sorted[n - keep - 1] < cut {
        // No tie across the cut: exactly `keep` scores satisfy s >= cut.
        return cut;
    }
    // Duplicates of the cut score extend below the cut index, so
    // `s >= cut` would keep more than `keep`. Exclude the whole tie
    // group: τ becomes the next distinct value above the cut (or a
    // value above the maximum when the tie reaches the top).
    match sorted[n - keep..].iter().find(|&&s| s > cut) {
        Some(&next) => next,
        None => above(sorted[n - 1]),
    }
}

/// A threshold strictly above `max` (no score clears it).
fn above(max: f32) -> f32 {
    max + f32::EPSILON.max(max.abs() * 1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_coverage_keeps_everything() {
        let scores = [0.3, 0.1, 0.9];
        let tau = calibrate_threshold(&scores, 1.0);
        assert!(scores.iter().all(|&s| s >= tau));
    }

    #[test]
    fn zero_coverage_rejects_everything() {
        let scores = [0.3, 0.1, 0.9];
        let tau = calibrate_threshold(&scores, 0.0);
        assert!(scores.iter().all(|&s| s < tau));
    }

    #[test]
    fn half_coverage_keeps_half() {
        let scores: Vec<f32> = (0..10).map(|i| i as f32 / 10.0).collect();
        let tau = calibrate_threshold(&scores, 0.5);
        let kept = scores.iter().filter(|&&s| s >= tau).count();
        assert_eq!(kept, 5);
    }

    #[test]
    fn empty_scores_default() {
        assert_eq!(calibrate_threshold(&[], 0.5), 0.5);
    }

    #[test]
    fn out_of_range_coverage_is_clamped() {
        let scores = [0.2, 0.4];
        assert!(scores.iter().all(|&s| s >= calibrate_threshold(&scores, 5.0)));
        let tau = calibrate_threshold(&scores, -1.0);
        assert!(scores.iter().all(|&s| s < tau));
    }

    #[test]
    fn ties_at_the_cut_are_excluded_not_overshot() {
        // Target 50% of 6 = 3, but the value at the cut (0.7) has three
        // copies spanning it; keeping all of them would cover 4/6.
        let scores = [0.1, 0.2, 0.7, 0.7, 0.7, 0.9];
        let tau = calibrate_threshold(&scores, 0.5);
        let kept = scores.iter().filter(|&&s| s >= tau).count();
        assert_eq!(kept, 1, "only the strictly-above-tie score survives");
        assert!(tau > 0.7 && tau <= 0.9);
    }

    #[test]
    fn tie_group_reaching_the_maximum_rejects_everything() {
        let scores = [0.3, 0.8, 0.8, 0.8];
        // keep = 2, the cut is 0.8 and every score from the cut up ties.
        let tau = calibrate_threshold(&scores, 0.5);
        assert_eq!(scores.iter().filter(|&&s| s >= tau).count(), 0);
    }

    #[test]
    fn all_equal_scores_under_partial_coverage_reject_everything() {
        let scores = [0.6; 8];
        let tau = calibrate_threshold(&scores, 0.5);
        assert_eq!(scores.iter().filter(|&&s| s >= tau).count(), 0);
        // Full coverage still keeps everything.
        let tau = calibrate_threshold(&scores, 1.0);
        assert_eq!(scores.iter().filter(|&&s| s >= tau).count(), 8);
    }

    #[test]
    fn calibration_is_deterministic_under_permutation() {
        let a = [0.5, 0.1, 0.5, 0.9, 0.5, 0.3];
        let mut b = a;
        b.reverse();
        for cov in [0.2, 1.0 / 3.0, 0.5, 0.8] {
            assert_eq!(calibrate_threshold(&a, cov), calibrate_threshold(&b, cov));
        }
    }
}
