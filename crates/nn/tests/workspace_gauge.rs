//! `hotpath_scratch_bytes` reports the bytes held by live scratch
//! buffers: a growth adds to it, and dropping a buffer subtracts what it
//! held, so building and dropping layers does not ratchet it up.
//!
//! One test on purpose: the gauge is process-global, so a concurrently
//! running test that grows its own buffers would move it.

use nn::layers::{Conv2d, ConvBlock};
use nn::workspace::Scratch;
use nn::{Layer, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn gauge() -> f64 {
    telemetry::global()
        .snapshot()
        .gauges
        .into_iter()
        .find(|g| g.name == "hotpath_scratch_bytes")
        .map_or(0.0, |g| g.value)
}

#[test]
fn scratch_gauge_tracks_live_bytes() {
    let mut buf = Scratch::<u32>::new();
    buf.reserve(1);
    let base = gauge() - 4.0;
    buf.reserve(1000);
    assert_eq!(gauge(), base + 4000.0);
    buf.reserve(10);
    assert_eq!(gauge(), base + 4000.0, "a smaller request holds the same bytes");
    let moved = std::mem::take(&mut buf);
    drop(buf);
    assert_eq!(gauge(), base + 4000.0, "moving a buffer out keeps its bytes");
    drop(moved);
    assert_eq!(gauge(), base);

    // Training a conv layer grows only its own workspace, whichever
    // workers run its samples, by exactly the sizes `ConvScratch`
    // documents (conv.rs), so dropping it gives every byte back. No pass
    // holds an im2col unfolding: the forward keeps the padded input (and
    // a pooled block's argmax) plus one pre-activation plane per group
    // of `SAMPLE_BLOCK` samples; `backward_params` adds the gradient
    // partials, and only a `backward` that returns the input gradient
    // adds one `dcol` buffer per group.
    nn::pool::set_thread_limit(4);
    let (n, groups, ckk, plane) = (32, 32 / nn::pool::SAMPLE_BLOCK, 64 * 3 * 3, 16 * 16);
    let forward = n * 64 * 18 * 18 // input, zero-padded
        + groups * 32 * plane // planes
        + n * 32 * 8 * 8; // argmax
    let partials = n * 32 * ckk // dw_partials
        + n * 32; // db_partials
    let dcol = groups * ckk * plane;
    let before = gauge();
    let mut block = ConvBlock::new(Conv2d::same(64, 32, 3, &mut StdRng::seed_from_u64(0)));
    let y = block.forward(&Tensor::zeros(&[32, 64, 16, 16]));
    assert_eq!(gauge() - before, (forward * 4) as f64, "a training forward holds its workspace");
    block.backward_params(&Tensor::zeros(y.shape()));
    assert_eq!(
        gauge() - before,
        ((forward + partials) * 4) as f64,
        "backward_params holds no dcol buffer"
    );
    block.backward(&Tensor::zeros(y.shape()));
    assert_eq!(
        gauge() - before,
        ((forward + partials + dcol) * 4) as f64,
        "a layer holds its documented workspace"
    );
    drop(block);
    assert_eq!(gauge(), before, "dropping the layer released every byte training grew");

    // `infer` runs the same kernel on the calling thread's own
    // workspace: one group's padded inputs and plane, and no argmax or
    // partials, which only `backward` reads. Batch 4 is one group, so
    // it runs on this thread, whose workspace is still empty.
    let block = ConvBlock::new(Conv2d::same(64, 32, 3, &mut StdRng::seed_from_u64(0)));
    let x = Tensor::zeros(&[4, 64, 16, 16]);
    let before = gauge();
    let _ = block.infer(&x);
    let elements = 4 * 64 * 18 * 18 // input, zero-padded
        + 32 * plane; // planes
    assert_eq!(gauge() - before, (elements * 4) as f64, "a thread holds its documented workspace");
    let grows = nn::workspace::grow_count();
    let _ = block.infer(&x);
    assert_eq!(nn::workspace::grow_count(), grows, "a second infer of the same shape grew");
}
