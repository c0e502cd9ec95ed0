//! Risk–coverage curve utilities.
//!
//! Fig. 5 of the paper retrains a model per target coverage `c0`; the
//! threshold sweep here is the complementary *inference-time* view: a
//! single trained selective model traces an entire risk–coverage
//! curve by varying the selection threshold τ.

use eval::RiskCoveragePoint;
use wafermap::Dataset;

use crate::SelectiveModel;

/// Evaluate `model` at every threshold in `thresholds`, returning one
/// risk–coverage point per threshold (the `target_coverage` field of
/// each point records the threshold used).
///
/// Scores are computed once, so the sweep costs a single forward pass
/// over the dataset plus cheap re-thresholding.
///
/// # Panics
///
/// Panics if the dataset grid does not match the model's.
#[must_use]
pub fn threshold_sweep(
    model: &SelectiveModel,
    dataset: &Dataset,
    thresholds: &[f32],
) -> Vec<RiskCoveragePoint> {
    use eval::{SelectiveMetrics, SelectiveOutcome};

    let n_classes = model.config().n_classes;

    // One forward pass: collect (true label, predicted label, score).
    let triples: Vec<(usize, usize, f32)> = dataset
        .samples()
        .iter()
        .zip(model.infer_dataset(dataset, 0.0))
        .map(|(s, p)| (s.label.index(), p.label, p.selection_score))
        .collect();

    thresholds
        .iter()
        .map(|&tau| {
            let mut metrics = SelectiveMetrics::new(n_classes);
            for &(true_class, pred, score) in &triples {
                let outcome = if score >= tau {
                    SelectiveOutcome::Predicted(pred)
                } else {
                    SelectiveOutcome::Abstained
                };
                metrics.record(true_class, outcome);
            }
            RiskCoveragePoint::from_metrics(f64::from(tau), &metrics)
        })
        .collect()
}

/// Uniformly spaced thresholds over `(0, 1)` suitable for
/// [`threshold_sweep`].
///
/// # Panics
///
/// Panics if `count` is zero.
#[must_use]
pub fn uniform_thresholds(count: usize) -> Vec<f32> {
    assert!(count > 0, "need at least one threshold");
    (0..count).map(|i| (i as f32 + 0.5) / count as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SelectiveConfig, TrainConfig, Trainer};
    use wafermap::gen::SyntheticWm811k;

    #[test]
    fn sweep_coverage_is_monotone_in_threshold() {
        let (train, test) = SyntheticWm811k::new(16).scale(0.002).seed(1).build();
        let config = SelectiveConfig::for_grid(16).with_conv_channels([4, 4, 4]).with_fc(16);
        let mut model = crate::SelectiveModel::new(&config, 2);
        let _ = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 32,
            learning_rate: 3e-3,
            target_coverage: 0.5,
            ..TrainConfig::default()
        })
        .run(&mut model, &train);
        let points = threshold_sweep(&model, &test, &[0.0, 0.25, 0.5, 0.75, 0.999]);
        assert_eq!(points.len(), 5);
        for pair in points.windows(2) {
            assert!(
                pair[0].coverage >= pair[1].coverage - 1e-12,
                "coverage not monotone: {pair:?}"
            );
        }
        // τ = 0 covers everything.
        assert!((points[0].coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_thresholds_are_strictly_increasing_in_unit_interval() {
        let ts = uniform_thresholds(10);
        assert_eq!(ts.len(), 10);
        for pair in ts.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert!(ts[0] > 0.0 && ts[9] < 1.0);
    }
}
