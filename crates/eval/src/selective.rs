use serde::{Deserialize, Serialize};

use crate::ConfusionMatrix;

/// Outcome of a selective classifier on one sample: a predicted class
/// or abstention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectiveOutcome {
    /// The model committed to a class label.
    Predicted(usize),
    /// The model abstained (rejected the sample).
    Abstained,
}

impl SelectiveOutcome {
    /// The predicted label, if the model did not abstain.
    #[must_use]
    pub fn label(self) -> Option<usize> {
        match self {
            SelectiveOutcome::Predicted(c) => Some(c),
            SelectiveOutcome::Abstained => None,
        }
    }
}

/// Aggregated metrics for a selective classifier: coverage and
/// accuracy on the covered (selected) subset, overall and per class.
///
/// This reproduces the columns of the paper's Table II: per-class
/// precision / recall / F1 **computed over selected samples only**,
/// per-class coverage counts, overall selective accuracy, and total
/// coverage.
///
/// # Example
///
/// ```
/// use eval::{SelectiveMetrics, SelectiveOutcome};
///
/// let mut m = SelectiveMetrics::new(2);
/// m.record(0, SelectiveOutcome::Predicted(0));
/// m.record(1, SelectiveOutcome::Abstained);
/// assert!((m.coverage() - 0.5).abs() < 1e-9);
/// assert!((m.selective_accuracy() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectiveMetrics {
    n_classes: usize,
    /// Confusion matrix over selected samples only.
    selected: ConfusionMatrix,
    /// Per-true-class totals (selected + abstained).
    totals: Vec<u64>,
    /// Per-true-class abstention counts.
    abstained: Vec<u64>,
}

impl SelectiveMetrics {
    /// New empty metrics for `n_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes` is zero.
    #[must_use]
    pub fn new(n_classes: usize) -> Self {
        SelectiveMetrics {
            n_classes,
            selected: ConfusionMatrix::new(n_classes),
            totals: vec![0; n_classes],
            abstained: vec![0; n_classes],
        }
    }

    /// Record the outcome for one sample with the given true class.
    ///
    /// # Panics
    ///
    /// Panics if `true_class` (or a predicted class) is out of range.
    pub fn record(&mut self, true_class: usize, outcome: SelectiveOutcome) {
        assert!(true_class < self.n_classes, "true class out of range");
        self.totals[true_class] += 1;
        match outcome {
            SelectiveOutcome::Predicted(p) => self.selected.record(true_class, p),
            SelectiveOutcome::Abstained => self.abstained[true_class] += 1,
        }
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total samples seen (selected + abstained).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Samples the model committed to (empirical coverage numerator).
    #[must_use]
    pub fn selected_count(&self) -> u64 {
        self.selected.total()
    }

    /// Empirical coverage `φ(g) = selected / total` (paper eq. (6));
    /// 0 when no samples were recorded.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.selected_count() as f64 / total as f64
        }
    }

    /// Accuracy over selected samples (the paper's headline "99%
    /// under selective learning"); 0 when nothing was selected.
    #[must_use]
    pub fn selective_accuracy(&self) -> f64 {
        self.selected.accuracy()
    }

    /// Selective risk = 1 − selective accuracy (0/1-loss form of the
    /// paper's eq. (7)).
    #[must_use]
    pub fn selective_risk(&self) -> f64 {
        if self.selected_count() == 0 {
            0.0
        } else {
            1.0 - self.selective_accuracy()
        }
    }

    /// The confusion matrix over selected samples.
    #[must_use]
    pub fn selected_matrix(&self) -> &ConfusionMatrix {
        &self.selected
    }

    /// Number of selected samples of a true class (the "Cov" counts in
    /// Table II).
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[must_use]
    pub fn class_selected(&self, class: usize) -> u64 {
        assert!(class < self.n_classes, "class out of range");
        self.totals[class] - self.abstained[class]
    }

    /// Per-class coverage fraction; 0 for classes with no samples.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[must_use]
    pub fn class_coverage(&self, class: usize) -> f64 {
        assert!(class < self.n_classes, "class out of range");
        if self.totals[class] == 0 {
            0.0
        } else {
            self.class_selected(class) as f64 / self.totals[class] as f64
        }
    }

    /// Recall of `class` over **selected** samples (the "Selective
    /// Recall" column of Table IV).
    #[must_use]
    pub fn selective_recall(&self, class: usize) -> f64 {
        self.selected.recall(class)
    }

    /// Precision of `class` over selected samples.
    #[must_use]
    pub fn selective_precision(&self, class: usize) -> f64 {
        self.selected.precision(class)
    }

    /// F1 of `class` over selected samples.
    #[must_use]
    pub fn selective_f1(&self, class: usize) -> f64 {
        self.selected.f1(class)
    }
}

/// One point on a risk–coverage curve (Fig. 5 plots selective accuracy
/// and coverage against the target coverage `c0`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RiskCoveragePoint {
    /// Target coverage `c0` the model was trained/calibrated for.
    pub target_coverage: f64,
    /// Achieved empirical coverage on the evaluation set.
    pub coverage: f64,
    /// Accuracy over selected samples.
    pub selective_accuracy: f64,
    /// Selective risk (1 − selective accuracy for 0/1 loss).
    pub selective_risk: f64,
}

impl RiskCoveragePoint {
    /// Build a curve point from metrics at a given target coverage.
    #[must_use]
    pub fn from_metrics(target_coverage: f64, metrics: &SelectiveMetrics) -> Self {
        RiskCoveragePoint {
            target_coverage,
            coverage: metrics.coverage(),
            selective_accuracy: metrics.selective_accuracy(),
            selective_risk: metrics.selective_risk(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> SelectiveMetrics {
        let mut m = SelectiveMetrics::new(3);
        // class 0: 4 samples, 3 selected (2 right, 1 wrong), 1 abstained
        m.record(0, SelectiveOutcome::Predicted(0));
        m.record(0, SelectiveOutcome::Predicted(0));
        m.record(0, SelectiveOutcome::Predicted(1));
        m.record(0, SelectiveOutcome::Abstained);
        // class 1: 2 samples, both abstained
        m.record(1, SelectiveOutcome::Abstained);
        m.record(1, SelectiveOutcome::Abstained);
        // class 2: 2 samples, both selected and right
        m.record(2, SelectiveOutcome::Predicted(2));
        m.record(2, SelectiveOutcome::Predicted(2));
        m
    }

    #[test]
    fn coverage_and_accuracy() {
        let m = build();
        assert_eq!(m.total(), 8);
        assert_eq!(m.selected_count(), 5);
        assert!((m.coverage() - 5.0 / 8.0).abs() < 1e-9);
        assert!((m.selective_accuracy() - 4.0 / 5.0).abs() < 1e-9);
        assert!((m.selective_risk() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn per_class_coverage() {
        let m = build();
        assert_eq!(m.class_selected(0), 3);
        assert!((m.class_coverage(0) - 0.75).abs() < 1e-9);
        assert_eq!(m.class_selected(1), 0);
        assert_eq!(m.class_coverage(1), 0.0);
        assert!((m.class_coverage(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn selective_scores_use_selected_only() {
        let m = build();
        assert!((m.selective_recall(0) - 2.0 / 3.0).abs() < 1e-9);
        // Class 1 never selected => recall over selected = 0.
        assert_eq!(m.selective_recall(1), 0.0);
        assert!((m.selective_precision(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_zero_not_nan() {
        let m = SelectiveMetrics::new(2);
        assert_eq!(m.coverage(), 0.0);
        assert_eq!(m.selective_accuracy(), 0.0);
        assert_eq!(m.selective_risk(), 0.0);
    }

    #[test]
    fn risk_coverage_point_snapshot() {
        let m = build();
        let p = RiskCoveragePoint::from_metrics(0.5, &m);
        assert_eq!(p.target_coverage, 0.5);
        assert!((p.coverage - m.coverage()).abs() < 1e-12);
        assert!((p.selective_risk + p.selective_accuracy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn abstain_outcome_has_no_label() {
        assert_eq!(SelectiveOutcome::Abstained.label(), None);
        assert_eq!(SelectiveOutcome::Predicted(4).label(), Some(4));
    }
}
