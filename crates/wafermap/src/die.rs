use serde::{Deserialize, Serialize};

/// State of a single die location on a wafer map.
///
/// WM-811K encodes wafer maps as grey-scale images with three pixel
/// levels; this enum is the typed equivalent:
///
/// | Variant | WM-811K pixel level | Meaning |
/// |---|---|---|
/// | [`Die::OffWafer`] | 0 | location outside the circular wafer |
/// | [`Die::Pass`] | 127 | die that passed electrical test |
/// | [`Die::Fail`] | 255 | die that failed electrical test |
///
/// # Example
///
/// ```
/// use wafermap::Die;
///
/// assert_eq!(Die::Fail.pixel_level(), 255);
/// assert!(Die::Fail.is_on_wafer());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Die {
    /// Location not part of the wafer (pixel level 0).
    #[default]
    OffWafer,
    /// Die that passed test (pixel level 127).
    Pass,
    /// Die that failed test (pixel level 255).
    Fail,
}

impl Die {
    /// The WM-811K grey-scale pixel level for this die state.
    #[must_use]
    pub const fn pixel_level(self) -> u8 {
        match self {
            Die::OffWafer => 0,
            Die::Pass => 127,
            Die::Fail => 255,
        }
    }

    /// Normalized intensity in `[0, 1]` used when feeding a wafer map
    /// to a neural network (`0.0`, `0.5`, `1.0`).
    #[must_use]
    pub const fn intensity(self) -> f32 {
        match self {
            Die::OffWafer => 0.0,
            Die::Pass => 0.5,
            Die::Fail => 1.0,
        }
    }

    /// Inverse of [`Die::intensity`]: quantize a continuous value (as
    /// produced by e.g. an auto-encoder decoder) to the nearest die
    /// state. Values are clamped to `[0, 1]` first.
    #[must_use]
    pub fn from_intensity(value: f32) -> Self {
        let v = if value.is_nan() { 0.0 } else { value.clamp(0.0, 1.0) };
        if v < 0.25 {
            Die::OffWafer
        } else if v < 0.75 {
            Die::Pass
        } else {
            Die::Fail
        }
    }

    /// Whether the location is part of the wafer at all.
    #[must_use]
    pub const fn is_on_wafer(self) -> bool {
        !matches!(self, Die::OffWafer)
    }

    /// Whether the die failed test.
    #[must_use]
    pub const fn is_fail(self) -> bool {
        matches!(self, Die::Fail)
    }

    /// Flip a pass die to fail and vice versa; off-wafer is unchanged.
    ///
    /// This is the primitive used by salt-and-pepper noise in the
    /// paper's Algorithm 1 ("switch a pass to fail and vice versa").
    #[must_use]
    pub const fn flipped(self) -> Self {
        match self {
            Die::OffWafer => Die::OffWafer,
            Die::Pass => Die::Fail,
            Die::Fail => Die::Pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_roundtrip() {
        for die in [Die::OffWafer, Die::Pass, Die::Fail] {
            assert_eq!(Die::from_intensity(die.intensity()), die);
        }
    }

    #[test]
    fn from_intensity_clamps_out_of_range() {
        assert_eq!(Die::from_intensity(-3.0), Die::OffWafer);
        assert_eq!(Die::from_intensity(7.5), Die::Fail);
        assert_eq!(Die::from_intensity(f32::NAN), Die::OffWafer);
    }

    #[test]
    fn flip_is_involution_on_wafer() {
        assert_eq!(Die::Pass.flipped(), Die::Fail);
        assert_eq!(Die::Fail.flipped(), Die::Pass);
        assert_eq!(Die::OffWafer.flipped(), Die::OffWafer);
        for die in [Die::Pass, Die::Fail] {
            assert_eq!(die.flipped().flipped(), die);
        }
    }

    #[test]
    fn default_is_off_wafer() {
        assert_eq!(Die::default(), Die::OffWafer);
    }
}
