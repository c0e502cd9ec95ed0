//! Property-based tests on the numerical substrate.

use nn::layers::{Conv2d, Linear, MaxPool2d, Relu};
use nn::loss::{mse, softmax, softmax_cross_entropy};
use nn::{Layer, Sequential, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(shape, 1.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Softmax output is a probability row-distribution and is
    /// invariant to per-row shifts.
    #[test]
    fn softmax_is_shift_invariant_distribution(
        seed in any::<u64>(),
        n in 1usize..5,
        c in 2usize..6,
        shift in -50.0f32..50.0,
    ) {
        let logits = rand_tensor(&[n, c], seed);
        let p = softmax(&logits);
        for row in p.data().chunks_exact(c) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        let shifted = softmax(&logits.map(|v| v + shift));
        for (a, b) in p.data().iter().zip(shifted.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Cross-entropy is minimized at the true label: boosting the true
    /// logit never increases the loss.
    #[test]
    fn boosting_true_logit_reduces_ce(seed in any::<u64>(), c in 2usize..6) {
        let logits = rand_tensor(&[1, c], seed);
        let label = (seed as usize) % c;
        let (base, _) = softmax_cross_entropy(&logits, &[label], None);
        let mut boosted = logits.clone();
        boosted.data_mut()[label] += 1.0;
        let (better, _) = softmax_cross_entropy(&boosted, &[label], None);
        prop_assert!(better <= base + 1e-6);
    }

    /// A Linear layer is exactly linear: f(ax) = a·f(x) − (a−1)·bias.
    #[test]
    fn linear_layer_is_affine(seed in any::<u64>(), scale in -2.0f32..2.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fc = Linear::new(3, 2, &mut rng);
        let x = rand_tensor(&[1, 3], seed ^ 7);
        let fx = fc.forward(&x);
        let fax = fc.forward(&x.map(|v| v * scale));
        let f0 = fc.forward(&Tensor::zeros(&[1, 3]));
        // f(ax) = a·(f(x) − f(0)) + f(0)
        for i in 0..2 {
            let expect = scale * (fx.data()[i] - f0.data()[i]) + f0.data()[i];
            prop_assert!((fax.data()[i] - expect).abs() < 1e-3);
        }
    }

    /// MaxPool output is bounded by the input range and its backward
    /// pass conserves the gradient mass.
    #[test]
    fn maxpool_bounds_and_gradient_mass(seed in any::<u64>()) {
        let x = rand_tensor(&[1, 2, 6, 6], seed);
        let mut pool = MaxPool2d::new(2);
        let y = pool.forward(&x);
        let x_max = x.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let y_max = y.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(y_max <= x_max + 1e-6);
        let grad = rand_tensor(y.shape(), seed ^ 9).map(f32::abs);
        let gi = pool.backward(&grad);
        prop_assert!((gi.sum() - grad.sum()).abs() < 1e-3);
    }

    /// End-to-end backward gradients match finite differences on a
    /// small random conv network.
    #[test]
    fn conv_net_gradcheck(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new()
            .with(Conv2d::same(1, 2, 3, &mut rng))
            .with(Relu::new())
            .with(MaxPool2d::new(2));
        let x = Tensor::randn(&[1, 1, 6, 6], 1.0, &mut rng);
        let y = net.forward(&x);
        let target = Tensor::randn(y.shape(), 1.0, &mut rng);
        let (_, grad) = mse(&y, &target);
        net.zero_grad();
        let gx = net.backward(&grad);
        // Small epsilon: the network is piecewise-linear (ReLU + max
        // pooling), and a large step can straddle a kink where the
        // two-sided difference averages two regimes.
        let eps = 1e-3f32;
        // Spot-check three input coordinates.
        for idx in [0usize, 17, 35] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let (lp, _) = mse(&net.forward(&xp), &target);
            let (lm, _) = mse(&net.forward(&xm), &target);
            let numeric = (lp - lm) / (2.0 * eps);
            prop_assert!(
                (numeric - gx.data()[idx]).abs() < 3e-2,
                "grad mismatch at {}: {} vs {}", idx, numeric, gx.data()[idx]
            );
        }
    }
}
