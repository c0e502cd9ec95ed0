//! Parametric synthetic generators for the nine WM-811K defect
//! pattern classes.
//!
//! The real WM-811K dataset is not redistributable here, so this module
//! implements the closest synthetic equivalent: each class is a
//! spatial stochastic model over the circular die grid whose draws
//! reproduce the geometry the paper's Fig. 1 shows — centre blobs,
//! donut rings, edge arcs and rings, local clusters, scratch streaks,
//! uniform random failures, near-full wafers, and clean wafers with
//! only background yield loss. Intra-class variation (position, size,
//! orientation, density) and class imbalance (Table II mixture) are
//! both preserved, which is what the classifier, the selective head,
//! the augmentation pipeline and the SVM baseline actually exercise.

mod dataset;
mod patterns;

pub use dataset::{Dataset, Sample, SyntheticWm811k};
pub use patterns::PatternParams;

use rand::Rng;

use crate::{DefectClass, WaferMap};

/// Configuration shared by all pattern generators.
///
/// # Example
///
/// ```
/// use wafermap::gen::GenConfig;
///
/// let cfg = GenConfig::new(32);
/// assert_eq!(cfg.grid, 32);
/// let quiet = cfg.with_background_fail_rate(0.0, 0.0);
/// assert_eq!(quiet.background_lo, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// Side length of the (square) die grid.
    pub grid: usize,
    /// Lower bound of the per-wafer background fail probability.
    pub background_lo: f32,
    /// Upper bound of the per-wafer background fail probability.
    pub background_hi: f32,
    /// Multiplier on systematic-pattern fail densities; 1.0 matches
    /// the nominal models, values below weaken patterns (used by the
    /// concept-shift experiment).
    pub pattern_strength: f32,
}

impl GenConfig {
    /// Nominal configuration for a `grid x grid` wafer.
    ///
    /// # Panics
    ///
    /// Panics if `grid < 8`; smaller grids cannot carry the patterns.
    #[must_use]
    pub fn new(grid: usize) -> Self {
        assert!(grid >= 8, "wafer grid must be at least 8x8");
        GenConfig { grid, background_lo: 0.005, background_hi: 0.03, pattern_strength: 1.0 }
    }

    /// Override the background (yield-loss) fail-rate range.
    #[must_use]
    pub fn with_background_fail_rate(mut self, lo: f32, hi: f32) -> Self {
        self.background_lo = lo.clamp(0.0, 1.0);
        self.background_hi = hi.clamp(self.background_lo, 1.0);
        self
    }

    /// Override the systematic-pattern strength multiplier.
    #[must_use]
    pub fn with_pattern_strength(mut self, strength: f32) -> Self {
        self.pattern_strength = strength.max(0.0);
        self
    }
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig::new(32)
    }
}

/// Draw one wafer map of the given defect class.
///
/// Each call samples fresh pattern parameters (position, size,
/// orientation, density) so repeated calls produce the intra-class
/// variation a classifier must generalize over.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use wafermap::{gen::{generate, GenConfig}, DefectClass};
///
/// let mut rng = StdRng::seed_from_u64(42);
/// let cfg = GenConfig::new(32);
/// let wafer = generate(DefectClass::Scratch, &cfg, &mut rng);
/// assert!(wafer.fail_count() > 0);
/// ```
#[must_use]
pub fn generate<R: Rng + ?Sized>(class: DefectClass, cfg: &GenConfig, rng: &mut R) -> WaferMap {
    let params = PatternParams::sample(class, cfg, rng);
    generate_with_params(&params, cfg, rng)
}

/// Draw one wafer map from explicit, pre-sampled pattern parameters.
#[must_use]
fn generate_with_params<R: Rng + ?Sized>(
    params: &PatternParams,
    cfg: &GenConfig,
    rng: &mut R,
) -> WaferMap {
    let mut map = WaferMap::blank(cfg.grid, cfg.grid);
    patterns::paint(&mut map, params, cfg, rng);
    let background = rng.gen_range(cfg.background_lo..=cfg.background_hi);
    patterns::sprinkle_background(&mut map, background, rng);
    map
}

/// Draw a wafer exhibiting **two** superimposed defect patterns.
///
/// The paper motivates the reject option partly by wafers that "exhibit
/// more than one defect pattern which can overwhelm the classification
/// model"; this generator produces exactly those ambiguous samples for
/// the concept-shift and abstention experiments.
#[must_use]
pub fn generate_mixed<R: Rng + ?Sized>(
    a: DefectClass,
    b: DefectClass,
    cfg: &GenConfig,
    rng: &mut R,
) -> WaferMap {
    let pa = PatternParams::sample(a, cfg, rng);
    let pb = PatternParams::sample(b, cfg, rng);
    let mut map = WaferMap::blank(cfg.grid, cfg.grid);
    patterns::paint(&mut map, &pa, cfg, rng);
    patterns::paint(&mut map, &pb, cfg, rng);
    let background = rng.gen_range(cfg.background_lo..=cfg.background_hi);
    patterns::sprinkle_background(&mut map, background, rng);
    map
}

/// Standard-normal sample via the Box–Muller transform.
///
/// `rand_distr` is outside the allowed dependency set, so the few
/// places that need Gaussian noise use this helper.
#[must_use]
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        return r * (2.0 * std::f32::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDAC2020)
    }

    #[test]
    fn every_class_generates_valid_wafers() {
        let cfg = GenConfig::new(32);
        let mut rng = rng();
        for class in DefectClass::ALL {
            let map = generate(class, &cfg, &mut rng);
            assert_eq!(map.width(), 32);
            assert_eq!(map.height(), 32);
            assert!(map.on_wafer_count() > 600, "{class}: wafer mask broken");
        }
    }

    #[test]
    fn near_full_is_mostly_failing_and_none_mostly_passing() {
        let cfg = GenConfig::new(32);
        let mut rng = rng();
        for _ in 0..10 {
            let nf = generate(DefectClass::NearFull, &cfg, &mut rng);
            assert!(nf.fail_ratio() > 0.6, "near-full too sparse: {}", nf.fail_ratio());
            let none = generate(DefectClass::None, &cfg, &mut rng);
            assert!(none.fail_ratio() < 0.08, "none too dense: {}", none.fail_ratio());
        }
    }

    #[test]
    fn center_failures_concentrate_near_centre() {
        let cfg = GenConfig::new(32);
        let mut rng = rng();
        let mut inner = 0usize;
        let mut outer = 0usize;
        for _ in 0..20 {
            let map = generate(DefectClass::Center, &cfg, &mut rng);
            let (cx, cy) = map.center();
            let half = map.radius() * 0.5;
            for (x, y, die) in map.iter_on_wafer() {
                if die.is_fail() {
                    let d = ((x as f32 - cx).powi(2) + (y as f32 - cy).powi(2)).sqrt();
                    if d <= half {
                        inner += 1;
                    } else {
                        outer += 1;
                    }
                }
            }
        }
        assert!(inner > outer * 2, "center pattern not central: {inner} vs {outer}");
    }

    #[test]
    fn edge_ring_failures_concentrate_near_edge() {
        let cfg = GenConfig::new(32);
        let mut rng = rng();
        let mut edge = 0usize;
        let mut interior = 0usize;
        for _ in 0..20 {
            let map = generate(DefectClass::EdgeRing, &cfg, &mut rng);
            let (cx, cy) = map.center();
            let band = map.radius() * 0.75;
            for (x, y, die) in map.iter_on_wafer() {
                if die.is_fail() {
                    let d = ((x as f32 - cx).powi(2) + (y as f32 - cy).powi(2)).sqrt();
                    if d >= band {
                        edge += 1;
                    } else {
                        interior += 1;
                    }
                }
            }
        }
        assert!(edge > interior * 3, "edge-ring not at edge: {edge} vs {interior}");
    }

    #[test]
    fn donut_has_a_hole() {
        let cfg = GenConfig::new(32).with_background_fail_rate(0.0, 0.0);
        let mut rng = rng();
        for _ in 0..10 {
            let map = generate(DefectClass::Donut, &cfg, &mut rng);
            let (cx, cy) = map.center();
            let hole = map.radius() * 0.15;
            let hole_fails = map
                .iter_on_wafer()
                .filter(|(x, y, die)| {
                    die.is_fail()
                        && ((*x as f32 - cx).powi(2) + (*y as f32 - cy).powi(2)).sqrt() < hole
                })
                .count();
            assert!(hole_fails <= 2, "donut hole contains {hole_fails} failures");
        }
    }

    #[test]
    fn scratch_is_thin_but_long() {
        let cfg = GenConfig::new(32).with_background_fail_rate(0.0, 0.0);
        let mut rng = rng();
        for _ in 0..10 {
            let map = generate(DefectClass::Scratch, &cfg, &mut rng);
            let fails = map.fail_count();
            assert!(fails >= 8, "scratch too short: {fails}");
            assert!((map.fail_ratio()) < 0.15, "scratch too thick: ratio {}", map.fail_ratio());
        }
    }

    #[test]
    fn mixed_pattern_carries_both_signatures() {
        let cfg = GenConfig::new(32).with_background_fail_rate(0.0, 0.0);
        let mut rng = rng();
        let mixed = generate_mixed(DefectClass::Center, DefectClass::EdgeRing, &cfg, &mut rng);
        let single = generate(DefectClass::Center, &cfg, &mut rng);
        assert!(mixed.fail_count() > single.fail_count());
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = rng();
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "gaussian mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "gaussian variance {var}");
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        let cfg = GenConfig::new(32);
        let a = generate(DefectClass::Donut, &cfg, &mut StdRng::seed_from_u64(5));
        let b = generate(DefectClass::Donut, &cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
