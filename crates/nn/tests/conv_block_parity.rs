//! `ConvBlock` fuses conv → ReLU → 2×2 max-pool into one layer and must
//! be bit-identical to the unfused chain it replaces in the Table I
//! trunk and the auto-encoder encoder: `Conv2d`, `Relu`,
//! `MaxPool2d::new(2)`. The property below compares `forward`, `infer`,
//! the input gradient and the accumulated weight and bias gradients bit
//! for bit, over inputs built to hit the edge cases of the fusion: tied
//! window maxima, ±0.0 inputs and gradients, windows whose maximum is
//! ≤ 0, odd spatial sizes (the trailing row or column is dropped), a
//! single sample, and a smaller (ragged) batch after a larger one.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn conv_block_matches_conv_relu_maxpool_bitwise(
        seed in any::<u64>(),
        batches in (1usize..5, 1usize..5),
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
        let fan_in = c_in * kernel * kernel;
        let params = match values {
            Values::Random => {
                vec![draw(&mut rng, c_out * fan_in, None), draw(&mut rng, c_out, None)]
            }
            Values::Ties => vec![
                draw(&mut rng, c_out * fan_in, Some(&[-1.0, -0.0, 0.0, 1.0])),
                draw(&mut rng, c_out, Some(&[-1.0, -0.0, 0.0, 1.0])),
            ],
            Values::NonPositive => vec![
                draw(&mut rng, c_out * fan_in, Some(&[-1.0, -0.0, 0.0])),
                draw(&mut rng, c_out, Some(&[-1.0, -0.0, 0.0])),
            ],
        };
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
