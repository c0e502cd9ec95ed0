//! `ConvBlock` fuses conv → ReLU → 2×2 max-pool into one layer and must
//! be bit-identical to the unfused chain it replaces in the Table I
//! trunk and the auto-encoder encoder: `Conv2d`, `Relu`,
//! `MaxPool2d::new(2)`. The property below compares `forward`, `infer`,
//! the input gradient and the accumulated weight and bias gradients bit
//! for bit, over inputs built to hit the edge cases of the fusion: tied
//! window maxima, ±0.0 inputs and gradients, windows whose maximum is
//! ≤ 0, odd spatial sizes (the trailing row or column is dropped), a
//! single sample, and a smaller (ragged) batch after a larger one.
//! Batches run up to 9 samples, so a pass spans up to three sample
//! groups, a ragged last one included, and `infer` fans them out
//! across the pool as `forward` does.
//!
//! `backward_params` (parameter gradients only, no input gradient) must
//! leave the same weight and bias gradients as `backward`, bit for bit,
//! on `Conv2d`, `ConvBlock` and a three-block `Sequential` over the
//! same value classes, checked against the unfused chain and, for the
//! bias, against `Iterator::sum` per channel.

use nn::layers::{Conv2d, ConvBlock, MaxPool2d, Relu};
use nn::{Layer, Sequential, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// How parameters, inputs and gradients are drawn.
#[derive(Debug, Clone, Copy)]
enum Values {
    /// Gaussian: distinct values almost surely.
    Random,
    /// Small integers and ±0.0: integer pre-activations, so windows
    /// often hold tied maxima and exact zeros.
    Ties,
    /// Non-negative inputs, non-positive weights and biases: every
    /// pre-activation is ≤ 0, so ReLU passes no gradient anywhere.
    NonPositive,
}

fn pick(rng: &mut StdRng, from: &[f32]) -> f32 {
    from[rng.gen_range(0..from.len())]
}

fn draw(rng: &mut StdRng, len: usize, from: Option<&[f32]>) -> Vec<f32> {
    (0..len)
        .map(|_| match from {
            Some(from) => pick(rng, from),
            None => rng.gen_range(-1.0f32..1.0),
        })
        .collect()
}

fn input(rng: &mut StdRng, shape: &[usize], values: Values) -> Tensor {
    let len = shape.iter().product();
    let data = match values {
        Values::Random => draw(rng, len, None),
        Values::Ties => draw(rng, len, Some(&[-1.0, -0.0, 0.0, 1.0, 2.0])),
        Values::NonPositive => draw(rng, len, Some(&[0.0, 1.0, 2.0])),
    };
    Tensor::from_vec(data, shape)
}

/// A gradient with a quarter of its entries ±0.0.
fn grad(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    let data = (0..len)
        .map(|_| match rng.gen_range(0..8) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// Overwrite `layer`'s parameters (weight, then bias) with `values`.
fn load(layer: &mut dyn Layer, values: &[Vec<f32>]) {
    let mut next = values.iter();
    layer.visit_params(&mut |p| {
        p.value.data_mut().copy_from_slice(next.next().expect("one vector per parameter"));
    });
}

fn grads(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(bits(p.grad.data())));
    out
}

/// Parameters for one `c_in → c_out` convolution of the value class.
fn conv_params(
    rng: &mut StdRng,
    c_in: usize,
    c_out: usize,
    kernel: usize,
    values: Values,
) -> Vec<Vec<f32>> {
    let fan_in = c_in * kernel * kernel;
    let from: Option<&[f32]> = match values {
        Values::Random => None,
        Values::Ties => Some(&[-1.0, -0.0, 0.0, 1.0]),
        Values::NonPositive => Some(&[-1.0, -0.0, 0.0]),
    };
    vec![draw(rng, c_out * fan_in, from), draw(rng, c_out, from)]
}

/// Layers whose gradients start at -0.0: an accumulation that adds
/// nothing but -0.0 sums keeps that sign, so a wrong start value of a
/// bias sum shows in the bits.
fn neg_zero_grads(layers: &mut [&mut dyn Layer]) {
    for layer in layers {
        layer.visit_params(&mut |p| p.grad.fill(-0.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn conv_block_matches_conv_relu_maxpool_bitwise(
        seed in any::<u64>(),
        batches in (1usize..10, 1usize..10),
        c_in in 1usize..4,
        c_out in 1usize..5,
        kernel in prop_oneof![Just(1usize), Just(3), Just(5)],
        same in any::<bool>(),
        hw in (0usize..8, 0usize..8),
        values in prop_oneof![Just(Values::Random), Just(Values::Ties), Just(Values::NonPositive)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pad = if same { kernel / 2 } else { 0 };
        // Conv outputs from 2×2 to 9×9, odd sizes included.
        let (h, w) = (kernel - 1 - 2 * pad + 2 + hw.0, kernel - 1 - 2 * pad + 2 + hw.1);
        let params = conv_params(&mut rng, c_in, c_out, kernel, values);
        let mut block = ConvBlock::new(Conv2d::new(c_in, c_out, kernel, pad, &mut rng));
        let mut chain = Sequential::new()
            .with(Conv2d::new(c_in, c_out, kernel, pad, &mut rng))
            .with(Relu::new())
            .with(MaxPool2d::new(2));
        load(&mut block, &params);
        load(&mut chain, &params);
        block.zero_grad();
        chain.zero_grad();

        // Two rounds, the second batch possibly smaller than the first;
        // parameter gradients accumulate across both.
        for n in [batches.0, batches.1] {
            let x = input(&mut rng, &[n, c_in, h, w], values);
            let served = block.infer(&x);
            let fused = block.forward(&x);
            let reference = chain.forward(&x);
            prop_assert_eq!(fused.shape(), reference.shape());
            prop_assert_eq!(bits(fused.data()), bits(reference.data()));
            prop_assert_eq!(bits(served.data()), bits(reference.data()));

            let g = grad(&mut rng, reference.shape());
            let gx_fused = block.backward(&g);
            let gx_reference = chain.backward(&g);
            prop_assert_eq!(bits(gx_fused.data()), bits(gx_reference.data()));
            if matches!(values, Values::NonPositive) {
                prop_assert!(gx_fused.data().iter().all(|v| v.to_bits() == 0));
            }
        }
        prop_assert_eq!(grads(&mut block), grads(&mut chain));
    }
}

/// Pooled output sizes from 1×1 to 3×3 after three blocks: each
/// block's "same" convolution keeps the size, its pool halves it (odd
/// sizes drop a row or column).
fn three_blocks(
    rng: &mut StdRng,
    channels: [usize; 4],
    kernel: usize,
    values: Values,
) -> (Sequential, Sequential, Sequential) {
    let mut fused = Sequential::new();
    let mut params_only = Sequential::new();
    let mut chain = Sequential::new();
    for pair in channels.windows(2) {
        let (c_in, c_out) = (pair[0], pair[1]);
        let params = conv_params(rng, c_in, c_out, kernel, values);
        let mut a = ConvBlock::new(Conv2d::same(c_in, c_out, kernel, rng));
        let mut b = ConvBlock::new(Conv2d::same(c_in, c_out, kernel, rng));
        let mut conv = Conv2d::same(c_in, c_out, kernel, rng);
        load(&mut a, &params);
        load(&mut b, &params);
        load(&mut conv, &params);
        fused = fused.with(a);
        params_only = params_only.with(b);
        chain = chain.with(conv).with(Relu::new()).with(MaxPool2d::new(2));
    }
    (fused, params_only, chain)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn backward_params_matches_backward_bitwise(
        seed in any::<u64>(),
        batches in (1usize..10, 1usize..10),
        c_in in 1usize..4,
        c_out in 1usize..10,
        kernel in prop_oneof![Just(1usize), Just(3), Just(5)],
        same in any::<bool>(),
        hw in (0usize..8, 0usize..8),
        values in prop_oneof![Just(Values::Random), Just(Values::Ties), Just(Values::NonPositive)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pad = if same { kernel / 2 } else { 0 };
        let (h, w) = (kernel - 1 - 2 * pad + 2 + hw.0, kernel - 1 - 2 * pad + 2 + hw.1);
        let (oh, ow) = (h + 2 * pad + 1 - kernel, w + 2 * pad + 1 - kernel);
        let params = conv_params(&mut rng, c_in, c_out, kernel, values);

        // Unpooled: `backward` vs `backward_params`, and the bias
        // against per-channel `Iterator::sum`s added in sample order.
        let mut conv = Conv2d::new(c_in, c_out, kernel, pad, &mut rng);
        let mut conv_params_only = Conv2d::new(c_in, c_out, kernel, pad, &mut rng);
        load(&mut conv, &params);
        load(&mut conv_params_only, &params);
        neg_zero_grads(&mut [&mut conv, &mut conv_params_only]);
        let mut expect_db = vec![-0.0f32; c_out];
        // Pooled: the block both ways, and the unfused chain.
        let mut block = ConvBlock::new(Conv2d::new(c_in, c_out, kernel, pad, &mut rng));
        let mut block_params_only = ConvBlock::new(Conv2d::new(c_in, c_out, kernel, pad, &mut rng));
        let mut chain = Sequential::new()
            .with(Conv2d::new(c_in, c_out, kernel, pad, &mut rng))
            .with(Relu::new())
            .with(MaxPool2d::new(2));
        load(&mut block, &params);
        load(&mut block_params_only, &params);
        load(&mut chain, &params);
        neg_zero_grads(&mut [&mut block, &mut block_params_only, &mut chain]);

        for n in [batches.0, batches.1] {
            let x = input(&mut rng, &[n, c_in, h, w], values);

            let y = conv.forward(&x);
            let _ = conv_params_only.forward(&x);
            let mut g = grad(&mut rng, y.shape());
            // Channel 0 all -0.0: its sum keeps the start value's sign.
            for sample in g.data_mut().chunks_exact_mut(c_out * oh * ow) {
                sample[..oh * ow].fill(-0.0);
            }
            let _ = conv.backward(&g);
            conv_params_only.backward_params(&g);
            for (co, row) in g.data().chunks_exact(oh * ow).enumerate() {
                expect_db[co % c_out] += row.iter().sum::<f32>();
            }

            let pooled = block.forward(&x);
            let _ = block_params_only.forward(&x);
            let _ = chain.forward(&x);
            let g = grad(&mut rng, pooled.shape());
            let _ = block.backward(&g);
            block_params_only.backward_params(&g);
            let _ = chain.backward(&g);
        }
        let conv_grads = grads(&mut conv);
        prop_assert_eq!(&grads(&mut conv_params_only), &conv_grads);
        prop_assert_eq!(&conv_grads[1], &bits(&expect_db));
        let block_grads = grads(&mut block);
        prop_assert_eq!(&grads(&mut block_params_only), &block_grads);
        prop_assert_eq!(&grads(&mut chain), &block_grads);
    }

    #[test]
    fn sequential_backward_params_matches_backward_bitwise(
        seed in any::<u64>(),
        batches in (1usize..4, 1usize..4),
        channels in (1usize..4, 1usize..6, 1usize..6),
        kernel in prop_oneof![Just(1usize), Just(3)],
        hw in (8usize..14, 8usize..14),
        values in prop_oneof![Just(Values::Random), Just(Values::Ties), Just(Values::NonPositive)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (c1, c2, c3) = channels;
        let (mut fused, mut params_only, mut chain) =
            three_blocks(&mut rng, [1, c1, c2, c3], kernel, values);
        neg_zero_grads(&mut [&mut fused, &mut params_only, &mut chain]);
        for n in [batches.0, batches.1] {
            let x = input(&mut rng, &[n, 1, hw.0, hw.1], values);
            let y = fused.forward(&x);
            let _ = params_only.forward(&x);
            let reference = chain.forward(&x);
            prop_assert_eq!(bits(y.data()), bits(reference.data()));
            let g = grad(&mut rng, y.shape());
            let _ = fused.backward(&g);
            params_only.backward_params(&g);
            let _ = chain.backward(&g);
        }
        let fused_grads = grads(&mut fused);
        prop_assert_eq!(&grads(&mut params_only), &fused_grads);
        prop_assert_eq!(&grads(&mut chain), &fused_grads);
    }
}
