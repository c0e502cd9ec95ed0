//! Image operations on wafer maps: the rotation and salt-and-pepper
//! noise of the paper's data-augmentation Algorithm 1.

use rand::Rng;

use crate::{Die, WaferMap};

/// Rotate a wafer map by `degrees` (counter-clockwise) about the wafer
/// centre using nearest-neighbour sampling, then re-impose the wafer
/// mask of the input: every die that is off-wafer in `map` stays
/// off-wafer in the result, and no on-wafer die is ever masked out.
///
/// Algorithm 1 rotates each synthetic image by `i * 360 / n_r`; because
/// the wafer is circular, rotation keeps the map physically plausible.
/// The mask is taken from the *input* (not an idealized circle), so
/// maps with irregular masks — e.g. real wafers with notches or
/// flats — keep their exact footprint. Destination dies
/// whose source falls off-grid or off-wafer become [`Die::Pass`]
/// (background), mirroring how WM-811K renders rotated wafers.
///
/// # Example
///
/// ```
/// use wafermap::{ops::rotate, Die, WaferMap};
///
/// let mut map = WaferMap::blank(17, 17);
/// map.set(8, 2, Die::Fail); // north of centre
/// let quarter = rotate(&map, 90.0);
/// assert_eq!(quarter.fail_count(), 1);
/// assert_eq!(quarter.get(14, 8), Die::Fail); // now east of centre
/// ```
#[must_use]
pub fn rotate(map: &WaferMap, degrees: f32) -> WaferMap {
    let radians = degrees.to_radians();
    let (sin, cos) = radians.sin_cos();
    let (cx, cy) = map.center();
    let mut out = map.clone();
    for y in 0..map.height() {
        for x in 0..map.width() {
            if !map.get(x, y).is_on_wafer() {
                continue;
            }
            // Inverse rotation: sample the source location that maps
            // onto (x, y) under a CCW rotation by `degrees`.
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            let sx = (cos * dx + sin * dy + cx).round();
            let sy = (-sin * dx + cos * dy + cy).round();
            let die = if sx >= 0.0
                && sy >= 0.0
                && (sx as usize) < map.width()
                && (sy as usize) < map.height()
            {
                match map.get(sx as usize, sy as usize) {
                    Die::OffWafer => Die::Pass,
                    d => d,
                }
            } else {
                Die::Pass
            };
            out.set(x, y, die);
        }
    }
    out
}

/// Add salt-and-pepper noise: flip approximately `rate * on_wafer_count`
/// randomly chosen on-wafer dies from pass to fail or vice versa
/// (Algorithm 1, line 9).
///
/// `rate` is clamped to `[0, 1]`. Off-wafer locations are never
/// touched, so the wafer mask is preserved. The flipped locations are
/// **distinct** (sampled without replacement via a partial
/// Fisher–Yates shuffle), so exactly `round(rate * on_wafer_count)`
/// dies change state — sampling with replacement would silently
/// undershoot the requested noise rate whenever a location repeats.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use wafermap::{ops::salt_and_pepper, WaferMap};
///
/// let map = WaferMap::blank(24, 24);
/// let mut rng = StdRng::seed_from_u64(1);
/// let noisy = salt_and_pepper(&map, 0.02, &mut rng);
/// assert!(noisy.fail_count() > 0);
/// assert_eq!(noisy.on_wafer_count(), map.on_wafer_count());
/// ```
#[must_use]
pub fn salt_and_pepper<R: Rng + ?Sized>(map: &WaferMap, rate: f32, rng: &mut R) -> WaferMap {
    let rate = rate.clamp(0.0, 1.0);
    let mut out = map.clone();
    let mut coords: Vec<(usize, usize)> = map.iter_on_wafer().map(|(x, y, _)| (x, y)).collect();
    let n = coords.len();
    // `rate <= 1.0`, so `flips <= n` and the partial shuffle below
    // never indexes past the end.
    let flips = ((n as f32) * rate).round() as usize;
    // Partial Fisher–Yates: one `gen_range` per flip (the same RNG
    // stream discipline as the old with-replacement draw), but each
    // chosen coordinate is distinct.
    for i in 0..flips {
        let j = rng.gen_range(i..n);
        coords.swap(i, j);
        let (x, y) = coords[i];
        let die = out.get(x, y);
        out.set(x, y, die.flipped());
    }
    out
}

/// Fraction of on-wafer dies on which two maps disagree. Useful for
/// measuring how far a synthetic sample drifted from its source.
///
/// # Panics
///
/// Panics if the two maps have different grid dimensions.
#[must_use]
pub fn die_disagreement(a: &WaferMap, b: &WaferMap) -> f32 {
    assert_eq!(a.width(), b.width(), "maps must share a grid");
    assert_eq!(a.height(), b.height(), "maps must share a grid");
    let mut on = 0usize;
    let mut differ = 0usize;
    for (da, db) in a.dies().iter().zip(b.dies()) {
        if da.is_on_wafer() && db.is_on_wafer() {
            on += 1;
            if da != db {
                differ += 1;
            }
        }
    }
    if on == 0 {
        0.0
    } else {
        differ as f32 / on as f32
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn rotate_zero_is_identity_on_wafer() {
        let mut map = WaferMap::blank(15, 15);
        map.set(7, 3, Die::Fail);
        map.set(4, 9, Die::Fail);
        let same = rotate(&map, 0.0);
        assert_eq!(die_disagreement(&map, &same), 0.0);
    }

    #[test]
    fn rotate_full_circle_is_identity() {
        let mut map = WaferMap::blank(21, 21);
        map.set(10, 4, Die::Fail);
        let back = rotate(&map, 360.0);
        assert_eq!(die_disagreement(&map, &back), 0.0);
    }

    #[test]
    fn rotate_preserves_mask_and_approx_fail_count() {
        let mut map = WaferMap::blank(25, 25);
        for x in 10..15 {
            for y in 10..15 {
                map.set(x, y, Die::Fail);
            }
        }
        let rot = rotate(&map, 45.0);
        assert_eq!(rot.on_wafer_count(), map.on_wafer_count());
        let delta = (rot.fail_count() as i64 - map.fail_count() as i64).abs();
        assert!(delta <= 6, "rotation changed fail count too much: {delta}");
    }

    #[test]
    fn four_quarter_turns_compose_to_identity() {
        let mut map = WaferMap::blank(19, 19);
        map.set(9, 2, Die::Fail);
        map.set(12, 6, Die::Fail);
        let mut cur = map.clone();
        for _ in 0..4 {
            cur = rotate(&cur, 90.0);
        }
        assert_eq!(die_disagreement(&map, &cur), 0.0);
    }

    #[test]
    fn rotate_preserves_irregular_non_circular_mask() {
        // A square wafer with one corner notched off-wafer — nothing
        // like the idealized circle `WaferMap::blank` produces.
        let w = 9;
        let mut dies = vec![Die::Pass; w * w];
        for y in 0..3 {
            for x in 0..3 {
                dies[y * w + x] = Die::OffWafer;
            }
        }
        let mut map = WaferMap::from_dies(w, w, dies).expect("valid grid");
        map.set(4, 1, Die::Fail);
        let rot = rotate(&map, 90.0);
        // The notch must survive: no off-wafer die becomes Pass, and
        // the on-wafer footprint is exactly the input's.
        assert_eq!(rot.on_wafer_count(), map.on_wafer_count());
        for y in 0..w {
            for x in 0..w {
                assert_eq!(
                    rot.get(x, y).is_on_wafer(),
                    map.get(x, y).is_on_wafer(),
                    "mask changed at ({x}, {y})"
                );
            }
        }
        // The defect still rotated: the quarter turn sends (4, 1)
        // north of centre to (7, 4) east of it.
        assert_eq!(rot.fail_count(), 1);
        assert_eq!(rot.get(7, 4), Die::Fail);
    }

    #[test]
    fn rotate_samples_off_wafer_sources_as_pass() {
        // A die whose rotated source lands in the notch gets Pass,
        // not the source's OffWafer marker.
        let w = 9;
        let mut dies = vec![Die::Pass; w * w];
        dies[4] = Die::OffWafer; // (4, 0): north of centre
        let map = WaferMap::from_dies(w, w, dies).expect("valid grid");
        let rot = rotate(&map, 90.0);
        // (8, 4) samples from the off-wafer (4, 0) under this turn.
        assert_eq!(rot.get(8, 4), Die::Pass);
        assert_eq!(rot.get(4, 0), Die::OffWafer, "mask untouched");
    }

    #[test]
    fn salt_and_pepper_zero_rate_is_identity() {
        let map = WaferMap::blank(16, 16);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(salt_and_pepper(&map, 0.0, &mut rng), map);
    }

    #[test]
    fn salt_and_pepper_rate_scales_flips() {
        let map = WaferMap::blank(32, 32);
        let mut rng = StdRng::seed_from_u64(3);
        let noisy = salt_and_pepper(&map, 0.05, &mut rng);
        let expected = (map.on_wafer_count() as f32 * 0.05).round() as usize;
        // Flip locations are sampled without replacement, and every
        // die starts as Pass, so the fail count is exactly the
        // requested number of flips — no collision undershoot.
        assert_eq!(noisy.fail_count(), expected);
    }

    #[test]
    fn salt_and_pepper_flips_exactly_rate_fraction_at_any_rate() {
        let map = WaferMap::blank(20, 20);
        for rate in [0.01f32, 0.1, 0.5, 1.0] {
            let mut rng = StdRng::seed_from_u64(7);
            let noisy = salt_and_pepper(&map, rate, &mut rng);
            let expected = (map.on_wafer_count() as f32 * rate).round() as usize;
            assert_eq!(noisy.fail_count(), expected, "rate {rate}");
        }
    }

    #[test]
    fn salt_and_pepper_clamps_rate() {
        let map = WaferMap::blank(8, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let noisy = salt_and_pepper(&map, 42.0, &mut rng);
        assert_eq!(noisy.on_wafer_count(), map.on_wafer_count());
    }

    #[test]
    fn disagreement_is_zero_for_identical_maps() {
        let map = WaferMap::blank(10, 10);
        assert_eq!(die_disagreement(&map, &map), 0.0);
    }
}
