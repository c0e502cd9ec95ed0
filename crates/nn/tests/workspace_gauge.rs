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

    // A trained layer's own workspace goes with it. The per-thread
    // scratch stays (it serves every layer on its thread), so warm it
    // first with the same shapes, on this thread only.
    nn::pool::set_thread_limit(1);
    let x = Tensor::zeros(&[2, 1, 8, 8]);
    let run = || {
        let mut block = ConvBlock::new(Conv2d::same(1, 4, 3, &mut StdRng::seed_from_u64(0)));
        let y = block.forward(&x);
        block.backward(&Tensor::zeros(y.shape()));
        block
    };
    drop(run());
    let warm = gauge();
    let block = run();
    assert!(gauge() > warm, "a live layer holds its workspace");
    drop(block);
    assert_eq!(gauge(), warm, "dropping the layer released every byte it held");
}
