use serde::{Deserialize, Serialize};

/// A square confusion matrix with rows = true class, columns =
/// predicted class (the layout of the paper's Table III).
///
/// # Example
///
/// ```
/// use eval::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::new(2);
/// cm.record(0, 0);
/// cm.record(0, 1);
/// cm.record(1, 1);
/// assert_eq!(cm.count(0, 1), 1);
/// assert!((cm.precision(1) - 0.5).abs() < 1e-6);
/// assert!((cm.recall(0) - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    n_classes: usize,
    /// Row-major `[true][pred]` counts.
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// An empty `n_classes x n_classes` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes` is zero.
    #[must_use]
    pub fn new(n_classes: usize) -> Self {
        assert!(n_classes > 0, "need at least one class");
        ConfusionMatrix { n_classes, counts: vec![0; n_classes * n_classes] }
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Record one `(true, predicted)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, true_class: usize, predicted: usize) {
        assert!(true_class < self.n_classes, "true class {true_class} out of range");
        assert!(predicted < self.n_classes, "predicted class {predicted} out of range");
        self.counts[true_class * self.n_classes + predicted] += 1;
    }

    /// Count of samples with the given true and predicted class.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn count(&self, true_class: usize, predicted: usize) -> u64 {
        assert!(true_class < self.n_classes && predicted < self.n_classes, "index out of range");
        self.counts[true_class * self.n_classes + predicted]
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of true samples of `class` (row sum).
    #[must_use]
    pub fn support(&self, class: usize) -> u64 {
        (0..self.n_classes).map(|p| self.count(class, p)).sum()
    }

    /// Number of predictions of `class` (column sum).
    #[must_use]
    pub fn predicted(&self, class: usize) -> u64 {
        (0..self.n_classes).map(|t| self.count(t, class)).sum()
    }

    /// Overall accuracy (trace / total); 0 when empty.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.n_classes).map(|i| self.count(i, i)).sum();
        correct as f64 / total as f64
    }

    /// Accuracy restricted to the true classes for which `keep`
    /// returns true. The paper uses this with `keep = is_defect` to
    /// report the "correct detection rate for defect classes".
    #[must_use]
    pub fn accuracy_over<F: Fn(usize) -> bool>(&self, keep: F) -> f64 {
        let mut total = 0u64;
        let mut correct = 0u64;
        for t in 0..self.n_classes {
            if !keep(t) {
                continue;
            }
            total += self.support(t);
            correct += self.count(t, t);
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Precision of `class`; 0 when the class was never predicted.
    #[must_use]
    pub fn precision(&self, class: usize) -> f64 {
        let predicted = self.predicted(class);
        if predicted == 0 {
            0.0
        } else {
            self.count(class, class) as f64 / predicted as f64
        }
    }

    /// Recall of `class`; 0 when the class has no true samples.
    #[must_use]
    pub fn recall(&self, class: usize) -> f64 {
        let support = self.support(class);
        if support == 0 {
            0.0
        } else {
            self.count(class, class) as f64 / support as f64
        }
    }

    /// F1 score of `class`; 0 when precision + recall is 0.
    #[must_use]
    pub fn f1(&self, class: usize) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Unweighted mean of per-class F1 scores (macro-F1) — more
    /// informative than accuracy under class imbalance, which is the
    /// core difficulty of the wafer dataset.
    #[must_use]
    pub fn macro_f1(&self) -> f64 {
        let sum: f64 = (0..self.n_classes).map(|c| self.f1(c)).sum();
        sum / self.n_classes as f64
    }

    /// Render the matrix as an aligned text table with the given row /
    /// column labels (truncated to 9 characters).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != n_classes`.
    #[must_use]
    pub fn to_table(&self, labels: &[&str]) -> String {
        assert_eq!(labels.len(), self.n_classes, "label count mismatch");
        let trunc = |s: &str| -> String { s.chars().take(9).collect() };
        let mut out = String::new();
        out.push_str(&format!("{:>10}", ""));
        for l in labels {
            out.push_str(&format!("{:>10}", trunc(l)));
        }
        out.push('\n');
        for (t, l) in labels.iter().enumerate() {
            out.push_str(&format!("{:>10}", trunc(l)));
            for p in 0..self.n_classes {
                out.push_str(&format!("{:>10}", self.count(t, p)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new(3);
        // true 0: 8 correct, 2 -> class 1
        for _ in 0..8 {
            cm.record(0, 0);
        }
        for _ in 0..2 {
            cm.record(0, 1);
        }
        // true 1: 5 correct, 5 -> class 2
        for _ in 0..5 {
            cm.record(1, 1);
        }
        for _ in 0..5 {
            cm.record(1, 2);
        }
        // true 2: all 10 correct
        for _ in 0..10 {
            cm.record(2, 2);
        }
        cm
    }

    #[test]
    fn totals_and_accuracy() {
        let cm = sample_matrix();
        assert_eq!(cm.total(), 30);
        assert!((cm.accuracy() - 23.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn per_class_scores() {
        let cm = sample_matrix();
        // class 1: TP=5, FP=2, FN=5.
        assert!((cm.precision(1) - 5.0 / 7.0).abs() < 1e-9);
        assert!((cm.recall(1) - 0.5).abs() < 1e-9);
        let f1 = cm.f1(1);
        let expect = 2.0 * (5.0 / 7.0) * 0.5 / ((5.0 / 7.0) + 0.5);
        assert!((f1 - expect).abs() < 1e-9);
    }

    #[test]
    fn empty_class_edge_cases() {
        let mut cm = ConfusionMatrix::new(3);
        cm.record(0, 0);
        // Class 2 never appears.
        assert_eq!(cm.precision(2), 0.0);
        assert_eq!(cm.recall(2), 0.0);
        assert_eq!(cm.f1(2), 0.0);
    }

    #[test]
    fn accuracy_over_subset() {
        let cm = sample_matrix();
        // Excluding class 2 (the "None"-like easy class).
        let acc = cm.accuracy_over(|c| c != 2);
        assert!((acc - 13.0 / 20.0).abs() < 1e-9);
    }

    #[test]
    fn table_rendering_contains_counts() {
        let cm = sample_matrix();
        let table = cm.to_table(&["alpha", "beta", "gamma"]);
        assert!(table.contains("alpha"));
        assert!(table.contains('8'));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_validates_indices() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(2, 0);
    }

    #[test]
    fn macro_f1_averages_all_classes() {
        let cm = sample_matrix();
        let expect = (cm.f1(0) + cm.f1(1) + cm.f1(2)) / 3.0;
        assert!((cm.macro_f1() - expect).abs() < 1e-12);
    }
}
