//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use wm_dsl::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every generated wafer keeps the circular mask intact and only
    /// ever fails on-wafer dies, for every class / seed / grid size.
    #[test]
    fn generated_wafers_are_well_formed(
        seed in any::<u64>(),
        class_idx in 0usize..9,
        grid in prop_oneof![Just(16usize), Just(24), Just(32)],
    ) {
        let class = DefectClass::from_index(class_idx).expect("valid index");
        let cfg = wafermap::gen::GenConfig::new(grid);
        let mut rng = StdRng::seed_from_u64(seed);
        let map = wafermap::gen::generate(class, &cfg, &mut rng);
        let blank = WaferMap::blank(grid, grid);
        prop_assert_eq!(map.on_wafer_count(), blank.on_wafer_count());
        prop_assert!(map.fail_count() <= map.on_wafer_count());
        // Image round-trip is lossless.
        let back = WaferMap::from_image_masked(&map.to_image(), &map).expect("same shape");
        prop_assert_eq!(back, map);
    }

    /// Rotation never changes the wafer mask, and rotating by 360°
    /// reproduces the original map exactly.
    #[test]
    fn rotation_preserves_mask(
        seed in any::<u64>(),
        class_idx in 0usize..9,
        angle in 0.0f32..360.0,
    ) {
        let class = DefectClass::from_index(class_idx).expect("valid index");
        let cfg = wafermap::gen::GenConfig::new(24);
        let mut rng = StdRng::seed_from_u64(seed);
        let map = wafermap::gen::generate(class, &cfg, &mut rng);
        let rot = wafermap::ops::rotate(&map, angle);
        prop_assert_eq!(rot.on_wafer_count(), map.on_wafer_count());
        let full = wafermap::ops::rotate(&map, 360.0);
        prop_assert_eq!(full, map);
    }

    /// The selective loss gradient w.r.t. g always matches finite
    /// differences (random logits, scores, labels, weights).
    #[test]
    fn selective_loss_gradient_is_exact(
        seed in any::<u64>(),
        c0 in 0.1f32..1.0,
        n in 2usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = nn::Tensor::randn(&[n, 4], 1.0, &mut rng);
        let g: Vec<f32> = (0..n).map(|i| 0.1 + 0.8 * (i as f32 / n as f32)).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let weights: Vec<f32> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { 0.5 }).collect();
        let loss = selective::SelectiveLoss::new(c0);
        let (_, _, grad_g) = loss.compute(&logits, &g, &labels, &weights);
        let eps = 1e-3f32;
        for idx in 0..n {
            let mut gp = g.clone();
            gp[idx] += eps;
            let mut gm = g.clone();
            gm[idx] -= eps;
            let lp = loss.compute(&logits, &gp, &labels, &weights).0.total;
            let lm = loss.compute(&logits, &gm, &labels, &weights).0.total;
            let numeric = (lp - lm) / (2.0 * eps);
            prop_assert!((numeric - grad_g[idx]).abs() < 2e-3,
                "grad mismatch at {}: {} vs {}", idx, numeric, grad_g[idx]);
        }
    }

    /// Threshold calibration is coverage-exact-or-under: it never
    /// overshoots the target, and it is exact when no score ties with
    /// the score at the cut (continuous scores are distinct with
    /// probability 1).
    #[test]
    fn calibration_is_exact_or_under(
        scores in proptest::collection::vec(0.0f32..1.0, 1..200),
        coverage in 0.0f64..1.0,
    ) {
        let tau = selective::calibrate_threshold(&scores, coverage);
        let kept = scores.iter().filter(|&&s| s >= tau).count();
        let want = ((scores.len() as f64) * coverage).floor() as usize;
        prop_assert!(kept <= want, "kept {} > want {}", kept, want);
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if sorted.windows(2).all(|w| w[0] != w[1]) {
            prop_assert_eq!(kept, want, "distinct scores must calibrate exactly");
        }
    }

    /// NaN selection scores (a diverged model) neither panic the
    /// calibration sort nor count as selected: coverage stays
    /// exact-or-under over the whole set, NaNs included.
    #[test]
    fn calibration_never_selects_nan_scores(
        draws in proptest::collection::vec((0.0f32..1.0, 0usize..4), 1..200),
        nan_at in any::<usize>(),
        coverage in 0.0f64..1.0,
    ) {
        // About a quarter of the scores, and at least one, are NaN.
        let mut scores: Vec<f32> =
            draws.iter().map(|&(s, roll)| if roll == 0 { f32::NAN } else { s }).collect();
        let len = scores.len();
        scores[nan_at % len] = f32::NAN;
        let tau = selective::calibrate_threshold(&scores, coverage);
        let kept = scores.iter().filter(|&&s| s >= tau).count();
        let want = ((len as f64) * coverage).floor() as usize;
        prop_assert!(kept <= want, "kept {} > want {}", kept, want);
    }

    /// With heavily duplicated scores (the tie-at-the-cut regression),
    /// calibration still never overshoots, excludes the whole tie
    /// group deterministically, and keeps every score strictly above
    /// the returned threshold.
    #[test]
    fn calibration_handles_duplicated_scores(
        levels in proptest::collection::vec(0usize..5, 1..150),
        coverage in 0.0f64..1.0,
    ) {
        // Scores drawn from 5 discrete levels force massive tie groups.
        let scores: Vec<f32> =
            levels.iter().map(|&i| [0.05f32, 0.25, 0.5, 0.75, 0.95][i]).collect();
        let tau = selective::calibrate_threshold(&scores, coverage);
        let kept = scores.iter().filter(|&&s| s >= tau).count();
        let want = ((scores.len() as f64) * coverage).floor() as usize;
        prop_assert!(kept <= want, "kept {} overshoots want {}", kept, want);
        // Deterministic: same multiset, any order, same threshold.
        let mut reversed = scores.clone();
        reversed.reverse();
        prop_assert_eq!(selective::calibrate_threshold(&reversed, coverage), tau);
        // Under-coverage is bounded by the tie group at the cut: the
        // shortfall is strictly smaller than the number of copies of
        // the largest excluded score.
        if kept < want {
            let boundary = scores
                .iter()
                .copied()
                .filter(|&s| s < tau)
                .fold(f32::MIN, f32::max);
            let group = scores.iter().filter(|&&s| s == boundary).count();
            prop_assert!(want - kept < group,
                "shortfall {} not explained by tie group of {}", want - kept, group);
        }
    }

    /// Confusion-matrix derived metrics stay within [0, 1] and
    /// accuracy equals the weighted mean of per-class recalls.
    #[test]
    fn confusion_matrix_invariants(
        observations in proptest::collection::vec((0usize..5, 0usize..5), 1..300),
    ) {
        let mut cm = eval::ConfusionMatrix::new(5);
        for &(t, p) in &observations {
            cm.record(t, p);
        }
        prop_assert_eq!(cm.total() as usize, observations.len());
        let mut recall_weighted = 0.0f64;
        for class in 0..5 {
            prop_assert!((0.0..=1.0).contains(&cm.precision(class)));
            prop_assert!((0.0..=1.0).contains(&cm.recall(class)));
            prop_assert!((0.0..=1.0).contains(&cm.f1(class)));
            recall_weighted += cm.recall(class) * cm.support(class) as f64;
        }
        let acc = cm.accuracy();
        prop_assert!((acc - recall_weighted / cm.total() as f64).abs() < 1e-9);
    }

    /// Salt-and-pepper noise of rate 0 is the identity; any rate keeps
    /// the wafer mask intact.
    #[test]
    fn salt_and_pepper_invariants(seed in any::<u64>(), rate in 0.0f32..0.5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = wafermap::gen::GenConfig::new(16);
        let map = wafermap::gen::generate(DefectClass::Location, &cfg, &mut rng);
        let noisy = wafermap::ops::salt_and_pepper(&map, rate, &mut rng);
        prop_assert_eq!(noisy.on_wafer_count(), map.on_wafer_count());
        let same = wafermap::ops::salt_and_pepper(&map, 0.0, &mut rng);
        prop_assert_eq!(same, map);
    }
}
