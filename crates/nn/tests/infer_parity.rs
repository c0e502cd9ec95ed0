//! The inference-only forward pass (`Layer::infer`) must be
//! bit-identical to the training forward pass for every layer —
//! serving reuses training weights, so any numeric drift between the
//! two paths would silently change deployed predictions and invalidate
//! the calibrated threshold. Each layer computes its output in `infer`
//! and `forward` only adds cache capture; the properties below pin that
//! per layer over random shapes, and pin `MaxPool2d`'s tie rule.

use nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu, Sigmoid, Upsample2d};
use nn::{Layer, Sequential, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A paper-shaped trunk: three conv/relu/pool stages, then FC.
fn trunk(rng: &mut StdRng) -> Sequential {
    Sequential::new()
        .with(Conv2d::same(1, 4, 3, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(2))
        .with(Conv2d::same(4, 8, 3, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(2))
        .with(Flatten::new())
        .with(Linear::new(8 * 4 * 4, 16, rng))
        .with(Relu::new())
        .with(Linear::new(16, 1, rng))
        .with(Sigmoid::new())
}

#[test]
fn infer_matches_forward_bitwise_through_a_full_chain() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = trunk(&mut rng);
    let x = Tensor::randn(&[5, 1, 16, 16], 1.0, &mut rng);
    let trained_path = net.forward(&x);
    let serving_path = net.infer(&x);
    assert_eq!(trained_path.shape(), serving_path.shape());
    assert_eq!(trained_path.data(), serving_path.data(), "infer must be bit-identical to forward");
}

#[test]
fn infer_per_sample_matches_batched_forward_bitwise() {
    // The serving engine runs samples individually (sample-major);
    // per-sample results must still match the batched training pass.
    let mut rng = StdRng::seed_from_u64(8);
    let mut net = trunk(&mut rng);
    let x = Tensor::randn(&[4, 1, 16, 16], 1.0, &mut rng);
    let batched = net.forward(&x);
    let sample_len = 16 * 16;
    for i in 0..4 {
        let sample = Tensor::from_vec(
            x.data()[i * sample_len..(i + 1) * sample_len].to_vec(),
            &[1, 1, 16, 16],
        );
        let y = net.infer(&sample);
        assert_eq!(y.data(), &batched.data()[i..i + 1], "sample {i} diverged");
    }
}

#[test]
fn infer_leaves_backward_state_untouched() {
    // An interleaved inference call must not clobber the caches the
    // next backward pass depends on.
    let mut rng = StdRng::seed_from_u64(9);
    let mut net = Sequential::new().with(Linear::new(4, 3, &mut rng)).with(Relu::new());
    let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
    let y = net.forward(&x);
    let probe = Tensor::randn(&[6, 4], 1.0, &mut rng);
    let _ = net.infer(&probe);
    let grad = net.backward(&Tensor::full(&[2, 3], 1.0));
    assert_eq!(grad.shape(), x.shape());
    assert_eq!(y.shape(), &[2, 3]);
}

/// `infer(x)` and `forward(x)` must agree bit for bit, shape included.
fn assert_parity(layer: &mut dyn Layer, x: &Tensor) {
    let served = layer.infer(x);
    let trained = layer.forward(x);
    assert_eq!(served.shape(), trained.shape(), "{layer:?}");
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&served), bits(&trained), "{layer:?} on {:?}", x.shape());
}

/// First-maximum reference for `MaxPool2d::backward`: each output
/// gradient goes to the first element, in row-major window order, that
/// equals the window's maximum.
fn naive_pool_backward(x: &Tensor, window: usize, grad: &Tensor) -> Vec<f32> {
    let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
    let (oh, ow) = (h / window, w / window);
    let mut gi = vec![0.0f32; x.numel()];
    for nc in 0..n * c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut cells = (0..window * window).map(|d| {
                    nc * h * w + (oy * window + d / window) * w + ox * window + d % window
                });
                let max = cells.clone().map(|i| x.data()[i]).fold(f32::NEG_INFINITY, f32::max);
                let first = cells.find(|&i| x.data()[i] == max).expect("non-empty");
                gi[first] += grad.data()[(nc * oh + oy) * ow + ox];
            }
        }
    }
    gi
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv2d_infer_matches_forward(
        seed in any::<u64>(),
        batch in 1usize..4,
        c_in in 1usize..4,
        c_out in 1usize..5,
        kernel in prop_oneof![Just(1usize), Just(3), Just(5)],
        same in any::<bool>(),
        hw in (2usize..7, 2usize..7),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pad = if same { kernel / 2 } else { 0 };
        let mut conv = Conv2d::new(c_in, c_out, kernel, pad, &mut rng);
        // Odd sizes from 5 to 13, so even a 5×5 valid kernel fits.
        let (h, w) = (2 * hw.0 + 1, 2 * hw.1 + 1);
        assert_parity(&mut conv, &Tensor::randn(&[batch, c_in, h, w], 1.0, &mut rng));
    }

    #[test]
    fn maxpool2d_infer_matches_forward_and_backward_routes_to_first_max(
        seed in any::<u64>(),
        batch in 1usize..3,
        channels in 1usize..4,
        hw in (1usize..6, 1usize..6),
        ties in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (h, w) = (2 * hw.0 + 1, 2 * hw.1 + 1);
        let shape = [batch, channels, h, w];
        let numel = shape.iter().product();
        // Values from {0, 1, 2} make most windows hold tied maxima.
        let x = if ties {
            Tensor::from_vec((0..numel).map(|_| rng.gen_range(0..3) as f32).collect(), &shape)
        } else {
            Tensor::randn(&shape, 1.0, &mut rng)
        };
        let mut pool = MaxPool2d::new(2);
        assert_parity(&mut pool, &x);
        let y = pool.forward(&x);
        let grad = Tensor::randn(y.shape(), 1.0, &mut rng);
        let gi = pool.backward(&grad);
        prop_assert_eq!(gi.data(), naive_pool_backward(&x, 2, &grad).as_slice());
    }

    #[test]
    fn dense_and_elementwise_layers_infer_match_forward(
        seed in any::<u64>(),
        batch in 1usize..5,
        features in (1usize..20, 1usize..20),
        spatial in (1usize..6, 1usize..6),
        factor in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (c, h, w) = (features.1 % 3 + 1, spatial.0, spatial.1);
        let image = Tensor::randn(&[batch, c, h, w], 1.0, &mut rng);
        let rows = Tensor::randn(&[batch, features.0], 1.0, &mut rng);
        assert_parity(&mut Linear::new(features.0, features.1, &mut rng), &rows);
        assert_parity(&mut Relu::new(), &image);
        assert_parity(&mut Sigmoid::new(), &image);
        assert_parity(&mut Flatten::new(), &image);
        assert_parity(&mut Upsample2d::new(factor), &image);
    }
}
