//! The workspace-growth contract of the training hot path.
//!
//! Every internal scratch buffer on the batch path (im2col columns,
//! conv gradient partials, loss scratch) is sized
//! through `nn::workspace::reserve`, which grows a buffer at most
//! once per high-water mark and counts each growth. After a warm-up
//! epoch has visited every shape, further training must not grow any
//! workspace buffer: the process-wide grow counter (`grow_count`)
//! stays flat.
//!
//! The contract covers those buffers only, not every heap allocation:
//! layer outputs, gradients and caches are still allocated per batch.
//! perfbench's counting allocator reports the real heap counts as
//! `process.allocs_per_step` and `process.allocs_per_wafer`.
//!
//! This file holds a single test on purpose: the counter is
//! process-global, so a concurrently running test that warms its own
//! buffers would show up as a spurious delta.

use selective::{SelectiveConfig, SelectiveModel, TrainConfig, Trainer};
use wafermap::gen::{generate, GenConfig, Sample};
use wafermap::{Dataset, DefectClass};

fn dataset(per_class: usize, seed: u64) -> Dataset {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let cfg = GenConfig::new(16);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(16);
    for _ in 0..per_class {
        for class in [DefectClass::NearFull, DefectClass::None, DefectClass::Center] {
            ds.push(Sample::original(generate(class, &cfg, &mut rng), class));
        }
    }
    ds
}

#[test]
fn steady_state_training_grows_no_workspace_buffers() {
    let config = SelectiveConfig::for_grid(16).with_conv_channels([4, 4, 4]).with_fc(16);
    let train = dataset(8, 1);
    let trainer = Trainer::new(TrainConfig {
        epochs: 4,
        batch_size: 8,
        learning_rate: 1e-3,
        target_coverage: 0.5,
        ..TrainConfig::default()
    });

    // Warm-up: epoch 0 visits every batch shape (incl. the ragged
    // final batch) and grows each workspace buffer to its high-water
    // mark.
    let mut model = SelectiveModel::new(&config, 7);
    let (_, bundle) = trainer.run_to_checkpoint(&mut model, &train, 1);

    let before = nn::workspace::grow_count();
    trainer.resume(&mut model, &train, &bundle).expect("resume from warm checkpoint");
    let after = nn::workspace::grow_count();
    assert_eq!(
        after - before,
        0,
        "steady-state training grew a hot-path scratch buffer {} time(s) after warmup",
        after - before
    );
}
