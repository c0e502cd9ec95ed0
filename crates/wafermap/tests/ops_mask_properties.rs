//! Property tests for the mask contract of every `ops` transform and
//! of the image round trip: whatever irregular wafer footprint goes
//! in — notches, flats, scattered off-wafer dies — exactly that
//! footprint comes out.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wafermap::{ops, Die, WaferMap};

/// Build an arbitrary irregular wafer: a square grid with a random
/// rectangular notch, random scattered off-wafer dies, and random
/// failures on what remains.
fn irregular_map(grid: usize, seed: u64) -> WaferMap {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dies = vec![Die::Pass; grid * grid];
    // Rectangular notch anchored at a random corner.
    let nw = rng.gen_range(0..grid / 2);
    let nh = rng.gen_range(0..grid / 2);
    let (x0, y0) = (
        if rng.gen_bool(0.5) { 0 } else { grid - nw },
        if rng.gen_bool(0.5) { 0 } else { grid - nh },
    );
    for y in y0..(y0 + nh).min(grid) {
        for x in x0..(x0 + nw).min(grid) {
            dies[y * grid + x] = Die::OffWafer;
        }
    }
    // Scattered defects and isolated off-wafer dies.
    for die in dies.iter_mut() {
        if *die == Die::Pass {
            if rng.gen_bool(0.05) {
                *die = Die::OffWafer;
            } else if rng.gen_bool(0.15) {
                *die = Die::Fail;
            }
        }
    }
    // Keep at least one on-wafer die so the map is a valid wafer.
    dies[(grid / 2) * grid + grid / 2] = Die::Pass;
    WaferMap::from_dies(grid, grid, dies).expect("valid grid")
}

/// Assert `b` has exactly `a`'s on-wafer footprint.
fn assert_same_mask(a: &WaferMap, b: &WaferMap, what: &str) {
    assert_eq!(a.on_wafer_count(), b.on_wafer_count(), "{what}: on-wafer count changed");
    for y in 0..a.height() {
        for x in 0..a.width() {
            assert_eq!(
                a.get(x, y).is_on_wafer(),
                b.get(x, y).is_on_wafer(),
                "{what}: mask changed at ({x}, {y})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rotate_preserves_arbitrary_masks(
        seed in any::<u64>(),
        grid in prop_oneof![Just(9usize), Just(12), Just(17)],
        angle in prop_oneof![Just(30.0f32), Just(45.0), Just(90.0), Just(137.0), Just(270.0)],
    ) {
        let map = irregular_map(grid, seed);
        assert_same_mask(&map, &ops::rotate(&map, angle), "rotate");
    }

    #[test]
    fn salt_and_pepper_preserves_arbitrary_masks_and_flip_count(
        seed in any::<u64>(),
        grid in prop_oneof![Just(9usize), Just(12), Just(17)],
        rate in prop_oneof![Just(0.0f32), Just(0.05), Just(0.3), Just(1.0)],
    ) {
        let map = irregular_map(grid, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let noisy = ops::salt_and_pepper(&map, rate, &mut rng);
        assert_same_mask(&map, &noisy, "salt_and_pepper");
        // Distinct sampling: exactly round(rate * on_wafer) dies differ.
        let expected = (map.on_wafer_count() as f32 * rate).round() as usize;
        let differing = map
            .dies()
            .iter()
            .zip(noisy.dies())
            .filter(|(a, b)| a != b)
            .count();
        prop_assert_eq!(differing, expected, "flip count must match the requested rate exactly");
    }

    #[test]
    fn quantize_round_trip_preserves_arbitrary_masks(
        seed in any::<u64>(),
        grid in prop_oneof![Just(9usize), Just(12), Just(17)],
    ) {
        let map = irregular_map(grid, seed);
        // Round-trip through the continuous image representation, as
        // the auto-encoder pipeline does (decode -> quantize).
        let image = map.to_image();
        let back = WaferMap::from_image_masked(&image, &map).expect("matching grid");
        assert_same_mask(&map, &back, "quantize round-trip");
        prop_assert_eq!(&back, &map, "exact round-trip through image space");
    }
}
