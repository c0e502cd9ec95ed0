use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of the two-head CNN.
///
/// Defaults reproduce the paper's Table I exactly: three convolutions
/// with 64/32/32 filters of size 5×5/3×3/3×3, each followed by 2×2
/// max-pooling, a 256-unit fully-connected layer, and `n_classes`
/// output neurons. Smaller settings are provided for tests and
/// CPU-budget experiments.
///
/// # Example
///
/// ```
/// use selective::SelectiveConfig;
///
/// let paper = SelectiveConfig::for_grid(32);
/// assert_eq!(paper.conv_channels, [64, 32, 32]);
/// assert_eq!(paper.fc, 256);
/// let tiny = paper.with_conv_channels([8, 8, 8]).with_fc(32);
/// assert_eq!(tiny.fc, 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectiveConfig {
    /// Input wafer grid side length (images are `1 x grid x grid`).
    pub grid: usize,
    /// Number of target classes `n_c`.
    pub n_classes: usize,
    /// Filter counts of the three convolution stages (Table I).
    pub conv_channels: [usize; 3],
    /// Kernel sizes of the three convolution stages (Table I).
    pub kernels: [usize; 3],
    /// Width of the fully-connected trunk layer.
    pub fc: usize,
    /// Attach a SelectiveNet-style auxiliary prediction head trained
    /// with plain cross-entropy. The paper folds the auxiliary task
    /// into the main head `f` (its eq. (9) reuses `r(f|D)`); enabling
    /// this reproduces the original SelectiveNet architecture instead
    /// and is exposed for ablation.
    pub aux_head: bool,
}

impl SelectiveConfig {
    /// The paper's Table I architecture for a given input grid and the
    /// full 9-class problem.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is not a positive multiple of 8 (three 2×2
    /// pooling stages shrink the grid by 8×).
    #[must_use]
    pub fn for_grid(grid: usize) -> Self {
        SelectiveConfig {
            grid,
            n_classes: wafermap::DefectClass::COUNT,
            conv_channels: [64, 32, 32],
            kernels: [5, 3, 3],
            fc: 256,
            aux_head: false,
        }
        .checked()
    }

    /// The architecture rule every buildable configuration follows:
    /// `grid` is a positive multiple of 8 (three 2×2 pooling stages),
    /// `n_classes` is in `1..=DefectClass::COUNT` (every class has a
    /// name to route to), the channel counts and `fc` are non-zero, and
    /// the kernels are odd (same-padded convolutions).
    ///
    /// # Errors
    ///
    /// Returns a description of the first broken clause.
    pub fn validate(&self) -> Result<(), String> {
        let max_classes = wafermap::DefectClass::COUNT;
        if self.grid == 0 || !self.grid.is_multiple_of(8) {
            Err(format!("grid must be a positive multiple of 8, got {}", self.grid))
        } else if !(1..=max_classes).contains(&self.n_classes) {
            Err(format!("n_classes must be in 1..={max_classes}, got {}", self.n_classes))
        } else if self.conv_channels.contains(&0) || self.fc == 0 {
            Err(format!(
                "channel counts and fc width must be non-zero, got {:?} and {}",
                self.conv_channels, self.fc
            ))
        } else if self.kernels.iter().any(|k| k % 2 == 0) {
            Err(format!("kernels must be odd, got {:?}", self.kernels))
        } else {
            Ok(())
        }
    }

    /// `self`, after asserting [`SelectiveConfig::validate`].
    pub(crate) fn checked(self) -> Self {
        if let Err(why) = self.validate() {
            panic!("invalid SelectiveConfig: {why}");
        }
        self
    }

    /// Enable the SelectiveNet-style auxiliary head (see the field
    /// docs on [`SelectiveConfig::aux_head`]).
    #[must_use]
    pub fn with_aux_head(mut self) -> Self {
        self.aux_head = true;
        self
    }

    /// Override the number of classes (e.g. 8 for the Table IV
    /// leave-one-class-out experiment).
    ///
    /// # Panics
    ///
    /// Panics if `n_classes` is zero or more than
    /// [`wafermap::DefectClass::COUNT`].
    #[must_use]
    pub fn with_classes(mut self, n_classes: usize) -> Self {
        self.n_classes = n_classes;
        self.checked()
    }

    /// Override the convolution filter counts.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    #[must_use]
    pub fn with_conv_channels(mut self, channels: [usize; 3]) -> Self {
        self.conv_channels = channels;
        self.checked()
    }

    /// Override the fully-connected width.
    ///
    /// # Panics
    ///
    /// Panics if `fc` is zero.
    #[must_use]
    pub fn with_fc(mut self, fc: usize) -> Self {
        self.fc = fc;
        self.checked()
    }

    /// Spatial side length after the three 2×2 pooling stages.
    #[must_use]
    pub fn pooled_side(&self) -> usize {
        self.grid / 8
    }

    /// Flattened feature count entering the FC layer.
    #[must_use]
    pub fn flat_features(&self) -> usize {
        self.conv_channels[2] * self.pooled_side() * self.pooled_side()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_i() {
        let c = SelectiveConfig::for_grid(64);
        assert_eq!(c.conv_channels, [64, 32, 32]);
        assert_eq!(c.kernels, [5, 3, 3]);
        assert_eq!(c.fc, 256);
        assert_eq!(c.n_classes, 9);
        assert_eq!(c.pooled_side(), 8);
        assert_eq!(c.flat_features(), 32 * 64);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn grid_must_be_poolable() {
        let _ = SelectiveConfig::for_grid(20);
    }

    #[test]
    #[should_panic(expected = "n_classes must be in 1..=9")]
    fn classes_must_have_names() {
        let _ = SelectiveConfig::for_grid(16).with_classes(10);
    }

    #[test]
    fn validate_names_the_broken_clause() {
        let ok = SelectiveConfig::for_grid(16);
        assert_eq!(ok.validate(), Ok(()));
        let broken = [
            (SelectiveConfig { grid: 0, ..ok }, "grid"),
            (SelectiveConfig { grid: 12, ..ok }, "grid"),
            (SelectiveConfig { n_classes: 0, ..ok }, "n_classes"),
            (SelectiveConfig { n_classes: 10, ..ok }, "n_classes"),
            (SelectiveConfig { conv_channels: [4, 0, 4], ..ok }, "channel"),
            (SelectiveConfig { fc: 0, ..ok }, "fc"),
            (SelectiveConfig { kernels: [5, 4, 3], ..ok }, "kernels"),
        ];
        for (config, clause) in broken {
            let why = config.validate().expect_err("broken config");
            assert!(why.contains(clause), "{config:?}: {why}");
        }
    }

    #[test]
    fn builder_overrides() {
        let c =
            SelectiveConfig::for_grid(16).with_classes(8).with_conv_channels([4, 4, 4]).with_fc(16);
        assert_eq!(c.n_classes, 8);
        assert_eq!(c.flat_features(), 4 * 2 * 2);
    }
}
