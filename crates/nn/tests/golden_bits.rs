//! Golden bits of the convolution layers on the paper's shapes.
//!
//! The Table I trunk's three pooled blocks (conv1–3 as `ConvBlock`, at
//! inference batch 4) and two unpooled `Conv2d`s shaped like the
//! auto-encoder decoder's, plus one small pooled block with odd spatial
//! sizes, one pooled and one unpooled layer at a ragged batch of 7, and
//! three layers at the seams of the unfolded operand (no padding, a
//! 45-wide plane, 4-wide output rows) run `infer`, `forward`, `backward` and `backward_params` on
//! parameters, inputs and gradients drawn from an in-test LCG (with
//! ±0.0 and tied small values mixed in). Every result is hashed bit for
//! bit and compared against constants pinned when the test was added.
//!
//! Nothing here calls `exp`/`ln` or any other libm function, so the
//! hashes depend only on the kernels' arithmetic: the same on every
//! thread count and SIMD arm (the bit-identity contract), and a change
//! to a kernel that moves a single bit fails this test. Regenerate the
//! constants only for a change that is meant to alter results, and say
//! so where the change is recorded.

use nn::layers::{Conv2d, ConvBlock};
use nn::{Layer, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 64-bit LCG (Knuth's MMIX constants); the high bits are the output.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    /// A value in `[-1, 1)`: one in eight is ±0.0 and one in eight one
    /// of five small values, so windows hold tied maxima and exact
    /// zeros. Exact integer-to-float conversions only.
    fn value(&mut self) -> f32 {
        let r = self.next();
        match r % 16 {
            0 => -0.0,
            1 => 0.0,
            2 | 3 => ((r >> 4) % 5) as f32 * 0.25 - 0.5,
            _ => (r >> 8) as f32 / (1u32 << 22) as f32 - 1.0,
        }
    }

    fn tensor(&mut self, shape: &[usize]) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_vec((0..len).map(|_| self.value()).collect(), shape)
    }
}

/// FNV-1a over the values' bit patterns, one 32-bit word at a time.
fn hash<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hash of every parameter gradient, in `visit_params` order.
fn grad_hash(layer: &mut dyn Layer) -> u64 {
    let mut all = Vec::new();
    layer.visit_params(&mut |p| all.extend_from_slice(p.grad.data()));
    hash(&all)
}

/// One layer's digest: `[forward, infer, backward's input gradient,
/// backward's parameter gradients, backward_params' parameter
/// gradients]`.
fn digest(make: impl Fn() -> Box<dyn Layer>, input_shape: [usize; 4], seed: u64) -> [u64; 5] {
    let mut rng = Lcg(seed);
    let mut params = Vec::new();
    make().visit_params(&mut |p| params.push(rng.tensor(p.value.shape())));
    let load = |layer: &mut dyn Layer| {
        let mut next = params.iter();
        layer.visit_params(&mut |p| {
            p.value.data_mut().copy_from_slice(next.next().expect("one per parameter").data());
        });
    };
    let x = rng.tensor(&input_shape);

    let mut layer = make();
    load(&mut *layer);
    let served = layer.infer(&x);
    let y = layer.forward(&x);
    let g = rng.tensor(y.shape());
    layer.zero_grad();
    let gx = layer.backward(&g);

    let mut twin = make();
    load(&mut *twin);
    let _ = twin.forward(&x);
    twin.zero_grad();
    twin.backward_params(&g);

    [
        hash(y.data()),
        hash(served.data()),
        hash(gx.data()),
        grad_hash(&mut *layer),
        grad_hash(&mut *twin),
    ]
}

fn conv(c_in: usize, c_out: usize, k: usize) -> Conv2d {
    Conv2d::same(c_in, c_out, k, &mut StdRng::seed_from_u64(0))
}

/// Compare each named digest with its pinned `[forward, infer, input
/// gradient, parameter gradients]` hashes; every actual digest is
/// printed first (`--nocapture`), so one failing run shows them all.
fn check(cases: &[(&str, [u64; 5], [u64; 4])]) {
    for (name, [fwd, inf, gx, grads, _], _) in cases {
        eprintln!("{name}: [{fwd:#018x}, {inf:#018x}, {gx:#018x}, {grads:#018x}]");
    }
    for &(name, [fwd, inf, gx, grads, params_grads], expect) in cases {
        assert_eq!([fwd, inf, gx, grads], expect, "{name}");
        assert_eq!(
            params_grads, grads,
            "{name}: backward_params left other gradients than backward"
        );
    }
}

#[test]
fn table1_conv_blocks_keep_their_bits() {
    check(&[
        (
            "conv1",
            digest(|| Box::new(ConvBlock::new(conv(1, 64, 5))), [4, 1, 32, 32], 1),
            [0x6510aeb66b679a34, 0x6510aeb66b679a34, 0x44abae68b3555457, 0xb737474f30c693db],
        ),
        (
            "conv2",
            digest(|| Box::new(ConvBlock::new(conv(64, 32, 3))), [4, 64, 16, 16], 2),
            [0x97479c138bdbcab9, 0x97479c138bdbcab9, 0xf78d8b1c97cd7f45, 0x72a94fbd53b4538e],
        ),
        (
            "conv3",
            digest(|| Box::new(ConvBlock::new(conv(32, 32, 3))), [4, 32, 8, 8], 3),
            [0xef4053ee2775ec9f, 0xef4053ee2775ec9f, 0x55651eb372a4e7c1, 0x56ea3a875c0e2cb9],
        ),
    ]);
}

#[test]
fn decoder_convs_keep_their_bits() {
    check(&[
        (
            "decoder 8→16",
            digest(|| Box::new(conv(8, 16, 5)), [4, 8, 16, 16], 4),
            [0x63ad1b06ff546008, 0x63ad1b06ff546008, 0xe87e5e7cfc8ad87a, 0x9bc5a668159b7c8d],
        ),
        (
            "decoder 16→1",
            digest(|| Box::new(conv(16, 1, 5)), [4, 16, 32, 32], 5),
            [0x445c378986859453, 0x445c378986859453, 0x4ee644cdfc136d61, 0xd020fb422f97ae71],
        ),
    ]);
}

#[test]
fn odd_sized_block_keeps_its_bits() {
    let odd = digest(|| Box::new(ConvBlock::new(conv(3, 5, 3))), [3, 3, 7, 9], 6);
    check(&[(
        "odd block",
        odd,
        [0x0441cc9c0ec918c5, 0x0441cc9c0ec918c5, 0xbb6f4f30b0b41ae8, 0x07f27a71f6150631],
    )]);
}

/// Batch 7 splits into sample groups of 4 and 3, so the last group is
/// ragged: its samples must reuse the group's buffers exactly like a
/// full group's.
#[test]
fn ragged_batch_keeps_its_bits() {
    check(&[
        (
            "conv2 at batch 7",
            digest(|| Box::new(ConvBlock::new(conv(64, 32, 3))), [7, 64, 16, 16], 7),
            [0x528048b5fa3376e5, 0x528048b5fa3376e5, 0x9ad03ccdaceb396d, 0xd586c17e8027b87f],
        ),
        (
            "decoder 8→16 at batch 7",
            digest(|| Box::new(conv(8, 16, 5)), [7, 8, 16, 16], 8),
            [0x598d0f5904ba3541, 0x598d0f5904ba3541, 0x763c9cca787bc519, 0x646b3b55dec3fcb2],
        ),
    ]);
}

/// Shapes at the seams of a conv's unfolded operand: no padding, an
/// output row wider than one 32-column GEMM panel whose width is not a
/// multiple of 8 (so panels start mid-row), and grid 16's conv3 block,
/// whose 4-pixel output rows are shorter than one 8-float chunk.
#[test]
fn operand_seams_keep_their_bits() {
    check(&[
        (
            "pad 0",
            digest(
                || Box::new(Conv2d::new(3, 4, 3, 0, &mut StdRng::seed_from_u64(0))),
                [3, 3, 10, 10],
                9,
            ),
            [0x75fc7886d8d778ae, 0x75fc7886d8d778ae, 0x686dcf02184d257f, 0xd8cb00b2d6a291c1],
        ),
        (
            "45-wide plane",
            digest(|| Box::new(conv(3, 4, 5)), [2, 3, 5, 45], 10),
            [0xdfd3504458918c88, 0xdfd3504458918c88, 0xfc7085dfb9ada1aa, 0x07ff915c563fab57],
        ),
        (
            "grid 16 conv3",
            digest(|| Box::new(ConvBlock::new(conv(32, 32, 3))), [4, 32, 4, 4], 11),
            [0x77afb2e69653ba57, 0x77afb2e69653ba57, 0x2afe21c78aed1f46, 0xe4500065e478bdda],
        ),
    ]);
}
