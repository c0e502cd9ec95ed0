//! The inference-only forward pass (`Layer::infer`) must be
//! bit-identical to the training forward pass for every layer on the
//! serving path — serving reuses training weights, so any numeric
//! drift between the two paths would silently change deployed
//! predictions and invalidate the calibrated threshold.

use nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu, Sigmoid};
use nn::{Layer, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
