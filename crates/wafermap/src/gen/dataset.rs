//! Labeled datasets of synthetic wafer maps and the WM-811K-mixture
//! builder used by every experiment.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use super::{generate, GenConfig};
use crate::{DefectClass, WaferMap};

/// One labeled wafer-map sample.
///
/// `weight` participates in the training loss: original samples carry
/// weight 1.0 while synthetic (augmented) samples carry the paper's
/// `w < 1` so that "the objective function \[is penalized\] 1/w more
/// when an original sample is misclassified compared to when a
/// synthetic sample is".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// The wafer map.
    pub map: WaferMap,
    /// Ground-truth defect class.
    pub label: DefectClass,
    /// Loss weight (1.0 for original, `w < 1` for synthetic samples).
    pub weight: f32,
    /// Whether this sample was produced by data augmentation.
    pub synthetic: bool,
}

impl Sample {
    /// A new original (non-synthetic, unit-weight) sample.
    #[must_use]
    pub fn original(map: WaferMap, label: DefectClass) -> Self {
        Sample { map, label, weight: 1.0, synthetic: false }
    }

    /// A new synthetic sample with the given loss weight.
    #[must_use]
    pub fn synthetic(map: WaferMap, label: DefectClass, weight: f32) -> Self {
        Sample { map, label, weight, synthetic: true }
    }
}

/// A collection of labeled wafer-map samples sharing one grid size.
///
/// # Example
///
/// ```
/// use wafermap::gen::{SyntheticWm811k, Dataset};
///
/// let (train, test) = SyntheticWm811k::new(16).scale(0.002).seed(1).build();
/// assert!(train.len() > 0 && test.len() > 0);
/// assert_eq!(train.grid(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    grid: usize,
    samples: Vec<Sample>,
}

impl Dataset {
    /// Create an empty dataset for `grid x grid` wafers.
    ///
    /// # Panics
    ///
    /// Panics if `grid == 0`.
    #[must_use]
    pub fn new(grid: usize) -> Self {
        assert!(grid > 0, "grid must be non-zero");
        Dataset { grid, samples: Vec::new() }
    }

    /// Grid side length shared by all samples.
    #[must_use]
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Append a sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample's grid does not match the dataset's.
    pub fn push(&mut self, sample: Sample) {
        assert_eq!(sample.map.width(), self.grid, "sample grid mismatch");
        assert_eq!(sample.map.height(), self.grid, "sample grid mismatch");
        self.samples.push(sample);
    }

    /// Samples in insertion order.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterate over samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// Shuffle samples in place.
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.samples.shuffle(rng);
    }

    /// Per-class sample counts indexed by [`DefectClass::index`].
    #[must_use]
    pub fn class_counts(&self) -> [usize; DefectClass::COUNT] {
        let mut counts = [0usize; DefectClass::COUNT];
        for s in &self.samples {
            counts[s.label.index()] += 1;
        }
        counts
    }

    /// Samples belonging to one class.
    #[must_use]
    pub fn of_class(&self, class: DefectClass) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.label == class).collect()
    }

    /// Dataset restricted to samples whose class satisfies `keep`.
    #[must_use]
    pub fn filtered<F: Fn(DefectClass) -> bool>(&self, keep: F) -> Dataset {
        Dataset {
            grid: self.grid,
            samples: self.samples.iter().filter(|s| keep(s.label)).cloned().collect(),
        }
    }

    /// Split into `(front, back)` where `front` holds `fraction` of the
    /// samples **per class** (stratified), after a seeded shuffle of
    /// each class bucket.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    #[must_use]
    pub fn stratified_split<R: Rng + ?Sized>(
        &self,
        fraction: f64,
        rng: &mut R,
    ) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let mut front = Dataset::new(self.grid);
        let mut back = Dataset::new(self.grid);
        for class in DefectClass::ALL {
            let mut bucket: Vec<Sample> =
                self.samples.iter().filter(|s| s.label == class).cloned().collect();
            bucket.shuffle(rng);
            let cut = ((bucket.len() as f64) * fraction).round() as usize;
            for (i, s) in bucket.into_iter().enumerate() {
                if i < cut {
                    front.push(s);
                } else {
                    back.push(s);
                }
            }
        }
        (front, back)
    }

    /// Merge another dataset into this one.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ.
    pub fn extend_from(&mut self, other: &Dataset) {
        assert_eq!(self.grid, other.grid, "grid mismatch");
        self.samples.extend(other.samples.iter().cloned());
    }
}

impl Extend<Sample> for Dataset {
    fn extend<T: IntoIterator<Item = Sample>>(&mut self, iter: T) {
        for s in iter {
            self.push(s);
        }
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Sample;
    type IntoIter = std::slice::Iter<'a, Sample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

/// Builder for a synthetic WM-811K-style dataset with the paper's
/// Table II class mixture.
///
/// `scale` multiplies the per-class Table II counts, so `scale = 1.0`
/// reproduces the full 43,484-train / 10,871-test mixture and smaller
/// values produce CPU-friendly datasets with identical imbalance.
/// Every class is guaranteed at least one sample in each split.
///
/// # Example
///
/// ```
/// use wafermap::{gen::SyntheticWm811k, DefectClass};
///
/// let (train, test) = SyntheticWm811k::new(24).scale(0.01).seed(7).build();
/// let counts = train.class_counts();
/// // None dominates, as in the real dataset.
/// assert!(counts[DefectClass::None.index()] > counts[DefectClass::Donut.index()]);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWm811k {
    grid: usize,
    scale: f64,
    seed: u64,
    config: GenConfig,
}

impl SyntheticWm811k {
    /// Builder for `grid x grid` wafers with nominal generation
    /// parameters, scale 1.0 and seed 0.
    #[must_use]
    pub fn new(grid: usize) -> Self {
        SyntheticWm811k { grid, scale: 1.0, seed: 0, config: GenConfig::new(grid) }
    }

    /// Multiply all Table II class counts by `scale` (rounded, min 1).
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0`.
    #[must_use]
    pub fn scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.scale = scale;
        self
    }

    /// Seed for deterministic generation.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the generation config (noise ranges, pattern strength).
    ///
    /// # Panics
    ///
    /// Panics if the config grid disagrees with the builder grid.
    #[must_use]
    pub fn config(mut self, config: GenConfig) -> Self {
        assert_eq!(config.grid, self.grid, "config grid mismatch");
        self.config = config;
        self
    }

    /// Number of training samples this builder will generate for a
    /// class.
    #[must_use]
    pub fn train_count(&self, class: DefectClass) -> usize {
        scaled(class.paper_training_count(), self.scale)
    }

    /// Number of test samples this builder will generate for a class.
    #[must_use]
    pub fn test_count(&self, class: DefectClass) -> usize {
        scaled(class.paper_testing_count(), self.scale)
    }

    /// Generate `(train, test)` datasets.
    #[must_use]
    pub fn build(&self) -> (Dataset, Dataset) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut train = Dataset::new(self.grid);
        let mut test = Dataset::new(self.grid);
        for class in DefectClass::ALL {
            for _ in 0..self.train_count(class) {
                train.push(Sample::original(generate(class, &self.config, &mut rng), class));
            }
            for _ in 0..self.test_count(class) {
                test.push(Sample::original(generate(class, &self.config, &mut rng), class));
            }
        }
        (train, test)
    }
}

fn scaled(count: usize, scale: f64) -> usize {
    (((count as f64) * scale).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn builder_respects_table_ii_mixture() {
        let b = SyntheticWm811k::new(16).scale(0.01);
        // 1% of 29357 ≈ 294, of 49 → max(1, 0) = 1.
        assert_eq!(b.train_count(DefectClass::None), 294);
        assert_eq!(b.train_count(DefectClass::NearFull), 1);
        assert_eq!(b.test_count(DefectClass::EdgeRing), 18);
    }

    #[test]
    fn build_is_deterministic() {
        let (a_train, a_test) = SyntheticWm811k::new(16).scale(0.001).seed(9).build();
        let (b_train, b_test) = SyntheticWm811k::new(16).scale(0.001).seed(9).build();
        assert_eq!(a_train, b_train);
        assert_eq!(a_test, b_test);
    }

    #[test]
    fn class_counts_match_builder_promises() {
        let b = SyntheticWm811k::new(16).scale(0.005).seed(2);
        let (train, test) = b.build();
        let counts = train.class_counts();
        for class in DefectClass::ALL {
            assert_eq!(counts[class.index()], b.train_count(class), "{class}");
        }
        let tcounts = test.class_counts();
        for class in DefectClass::ALL {
            assert_eq!(tcounts[class.index()], b.test_count(class), "{class}");
        }
    }

    #[test]
    fn stratified_split_keeps_class_proportions() {
        let (train, _) = SyntheticWm811k::new(16).scale(0.01).seed(3).build();
        let mut rng = StdRng::seed_from_u64(4);
        let (front, back) = train.stratified_split(0.8, &mut rng);
        assert_eq!(front.len() + back.len(), train.len());
        let fc = front.class_counts();
        let tc = train.class_counts();
        for class in DefectClass::ALL {
            let expected = ((tc[class.index()] as f64) * 0.8).round() as usize;
            assert_eq!(fc[class.index()], expected, "{class}");
        }
    }

    #[test]
    fn filtered_drops_requested_classes() {
        let (train, _) = SyntheticWm811k::new(8).scale(0.002).seed(6).build();
        let no_nearfull = train.filtered(|c| c != DefectClass::NearFull);
        assert_eq!(no_nearfull.class_counts()[DefectClass::NearFull.index()], 0);
        assert!(no_nearfull.len() < train.len());
    }

    #[test]
    #[should_panic(expected = "grid mismatch")]
    fn push_rejects_wrong_grid() {
        let mut ds = Dataset::new(8);
        ds.push(Sample::original(WaferMap::blank(9, 9), DefectClass::None));
    }
}
