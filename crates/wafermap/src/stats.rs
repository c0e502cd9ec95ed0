//! Descriptive statistics over wafer maps: radial fail profiles.
//! Useful for sanity checking generated data and for characterizing
//! distribution shift.

use crate::WaferMap;

/// Radial fail-density profile: the wafer is split into `n_bins`
/// concentric annuli of equal radial width and each bin reports the
/// fraction of its on-wafer dies that fail.
///
/// Center patterns peak in the inner bins, edge rings in the outer
/// ones — a compact, interpretable signature.
///
/// # Panics
///
/// Panics if `n_bins` is zero.
#[must_use]
pub fn radial_profile(map: &WaferMap, n_bins: usize) -> Vec<f32> {
    assert!(n_bins > 0, "need at least one radial bin");
    let (cx, cy) = map.center();
    let radius = map.radius();
    let mut fails = vec![0u32; n_bins];
    let mut totals = vec![0u32; n_bins];
    for (x, y, die) in map.iter_on_wafer() {
        let d = ((x as f32 - cx).powi(2) + (y as f32 - cy).powi(2)).sqrt();
        let bin = ((d / radius) * n_bins as f32).clamp(0.0, n_bins as f32 - 1.0) as usize;
        totals[bin] += 1;
        if die.is_fail() {
            fails[bin] += 1;
        }
    }
    (0..n_bins)
        .map(|b| if totals[b] == 0 { 0.0 } else { fails[b] as f32 / totals[b] as f32 })
        .collect()
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::{DefectClass, Die};

    #[test]
    fn center_peaks_inner_edge_ring_peaks_outer() {
        let cfg = GenConfig::new(32).with_background_fail_rate(0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let center = generate(DefectClass::Center, &cfg, &mut rng);
        let ring = generate(DefectClass::EdgeRing, &cfg, &mut rng);
        let pc = radial_profile(&center, 5);
        let pr = radial_profile(&ring, 5);
        assert!(pc[0] > pc[4], "center profile not decreasing: {pc:?}");
        assert!(pr[4] > pr[0], "edge-ring profile not increasing: {pr:?}");
    }

    #[test]
    fn uniform_failures_give_flat_profiles() {
        let mut map = WaferMap::blank(20, 20);
        let coords: Vec<(usize, usize)> = map.iter_on_wafer().map(|(x, y, _)| (x, y)).collect();
        for (x, y) in coords {
            map.set(x, y, Die::Fail);
        }
        for v in radial_profile(&map, 4) {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }
}
