//! One-vs-one multiclass SVM over wafer-map features — the full
//! "SVM \[2\]" baseline pipeline.

use serde::{Deserialize, Serialize};

use crate::features::{extract, FeatureConfig};
use crate::{Standardizer, Svm, SvmParams};
use eval::ConfusionMatrix;
use wafermap::{Dataset, DefectClass, WaferMap};

/// The trained baseline: feature extractor config, standardizer, and
/// a one-vs-one committee of binary SVMs with majority voting
/// (decision-value sum as tie-break).
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SvmBaseline {
    feature_config: FeatureConfig,
    scaler: Standardizer,
    /// `(class_a, class_b, svm)` where the SVM labels `class_a` as +1.
    machines: Vec<(usize, usize, Svm)>,
    classes: Vec<usize>,
}

impl SvmBaseline {
    /// Extract features, fit the standardizer, and train the
    /// one-vs-one committee on `dataset`.
    ///
    /// Classes absent from the dataset are skipped (they can never be
    /// predicted).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or contains fewer than two
    /// classes.
    #[must_use]
    pub fn train(
        dataset: &Dataset,
        feature_config: &FeatureConfig,
        params: &SvmParams,
        seed: u64,
    ) -> Self {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let maps: Vec<&wafermap::WaferMap> = dataset.iter().map(|s| &s.map).collect();
        let rows = crate::features::extract_batch(&maps, feature_config);
        let labels: Vec<usize> = dataset.iter().map(|s| s.label.index()).collect();
        let scaler = Standardizer::fit(&rows);
        let rows = scaler.transform_all(&rows);

        let counts = dataset.class_counts();
        let classes: Vec<usize> = (0..DefectClass::COUNT).filter(|&c| counts[c] > 0).collect();
        assert!(classes.len() >= 2, "need at least two classes to train");

        let mut machines = Vec::new();
        for (i, &a) in classes.iter().enumerate() {
            for &b in &classes[i + 1..] {
                let mut x = Vec::new();
                let mut y = Vec::new();
                for (row, &label) in rows.iter().zip(&labels) {
                    if label == a {
                        x.push(row.clone());
                        y.push(1.0);
                    } else if label == b {
                        x.push(row.clone());
                        y.push(-1.0);
                    }
                }
                let svm = Svm::train(&x, &y, params, seed ^ ((a as u64) << 32 | b as u64));
                machines.push((a, b, svm));
            }
        }
        SvmBaseline { feature_config: *feature_config, scaler, machines, classes }
    }

    /// Classes the committee can predict (those present at training).
    #[must_use]
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }

    /// Predict the defect class of one wafer map by majority vote.
    #[must_use]
    pub fn predict(&self, map: &WaferMap) -> DefectClass {
        let features = self.scaler.transform(&extract(map, &self.feature_config));
        let mut votes = [0u32; DefectClass::COUNT];
        let mut margins = [0.0f32; DefectClass::COUNT];
        for (a, b, svm) in &self.machines {
            let d = svm.decision(&features);
            if d >= 0.0 {
                votes[*a] += 1;
                margins[*a] += d;
            } else {
                votes[*b] += 1;
                margins[*b] -= d;
            }
        }
        let best = self
            .classes
            .iter()
            .copied()
            .max_by(|&p, &q| {
                votes[p]
                    .cmp(&votes[q])
                    .then(margins[p].partial_cmp(&margins[q]).unwrap_or(std::cmp::Ordering::Equal))
            })
            .expect("at least one class");
        DefectClass::from_index(best).expect("valid class index")
    }

    /// Evaluate on a labeled dataset, returning the confusion matrix
    /// over all nine classes (rows/columns for absent classes stay
    /// zero).
    #[must_use]
    pub fn evaluate(&self, dataset: &Dataset) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new(DefectClass::COUNT);
        for s in dataset {
            let pred = self.predict(&s.map);
            cm.record(s.label.index(), pred.index());
        }
        cm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafermap::gen::SyntheticWm811k;

    #[test]
    fn committee_size_matches_class_pairs() {
        let (train, _) = SyntheticWm811k::new(16).scale(0.001).seed(1).build();
        let model = SvmBaseline::train(&train, &FeatureConfig::default(), &SvmParams::default(), 2);
        // All nine classes present: 9·8/2 = 36 machines.
        assert_eq!(model.machines.len(), 36);
        assert_eq!(model.classes().len(), 9);
    }

    #[test]
    fn learns_separable_classes_well_above_chance() {
        let (train, test) = SyntheticWm811k::new(16).scale(0.003).seed(3).build();
        let model = SvmBaseline::train(&train, &FeatureConfig::default(), &SvmParams::default(), 4);
        let cm = model.evaluate(&test);
        assert!(cm.accuracy() > 0.6, "baseline far below expectation: {:.3}", cm.accuracy());
    }

    #[test]
    fn two_class_committee_works() {
        let (train, test) = SyntheticWm811k::new(16).scale(0.002).seed(5).build();
        let keep = |c: DefectClass| c == DefectClass::None || c == DefectClass::NearFull;
        let train2 = train.filtered(keep);
        let test2 = test.filtered(keep);
        let model =
            SvmBaseline::train(&train2, &FeatureConfig::default(), &SvmParams::default(), 6);
        assert_eq!(model.machines.len(), 1);
        let cm = model.evaluate(&test2);
        assert!(cm.accuracy() > 0.9, "easy pair accuracy {:.3}", cm.accuracy());
    }

    #[test]
    fn evaluate_covers_every_sample() {
        let (train, test) = SyntheticWm811k::new(16).scale(0.001).seed(7).build();
        let model = SvmBaseline::train(&train, &FeatureConfig::default(), &SvmParams::default(), 8);
        let cm = model.evaluate(&test);
        assert_eq!(cm.total() as usize, test.len());
    }
}
