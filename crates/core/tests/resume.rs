//! Regression test for the broken persistence contract: a
//! checkpoint-then-resume run must be **bit-identical** to an
//! uninterrupted one. Before the Adam step counter was persisted,
//! the resumed run silently restarted bias correction at `t = 0`
//! and diverged.

use rand::rngs::StdRng;
use rand::SeedableRng;

use nn::Tensor;
use selective::{
    BundleError, CheckpointBundle, SelectiveConfig, SelectiveModel, TrainConfig, Trainer,
};
use wafermap::gen::{generate, GenConfig, Sample};
use wafermap::{Dataset, DefectClass};

fn tiny_config() -> SelectiveConfig {
    SelectiveConfig::for_grid(16).with_conv_channels([4, 4, 4]).with_fc(16)
}

fn small_dataset(per_class: usize, seed: u64) -> Dataset {
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

fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 8,
        learning_rate: 5e-3,
        target_coverage: 0.7,
        seed: 17,
        ..TrainConfig::default()
    }
}

#[test]
fn checkpoint_then_resume_is_bit_identical_to_straight_run() {
    let dataset = small_dataset(8, 21);
    let total_epochs = 6;
    let stop_at = 3;
    let cfg = train_config(total_epochs);

    // Straight run: all epochs in one go.
    let mut straight = SelectiveModel::new(&tiny_config(), 33);
    let straight_report = Trainer::new(cfg).run(&mut straight, &dataset);

    // Interrupted run: train to epoch `stop_at`, bundle through a
    // file (so serialization must also be bit-exact), resume into a
    // *fresh* model.
    let mut first_leg = SelectiveModel::new(&tiny_config(), 33);
    let (partial, bundle) = Trainer::new(cfg).run_to_checkpoint(&mut first_leg, &dataset, stop_at);
    assert_eq!(partial.epochs.len(), stop_at);
    assert_eq!(partial.epochs[..], straight_report.epochs[..stop_at]);

    let dir = std::env::temp_dir().join("core_resume_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("bundle.json");
    bundle.save(&path).expect("save");
    let loaded = CheckpointBundle::load(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, bundle, "bundle JSON roundtrip must be exact");

    let mut resumed = SelectiveModel::new(&tiny_config(), 999); // different init: overwritten
    let resumed_report =
        Trainer::new(cfg).resume(&mut resumed, &dataset, &loaded).expect("valid bundle");

    // Bit-identical: same per-epoch stats and same final weights.
    assert_eq!(resumed_report, straight_report);
    assert_eq!(resumed.state_dict().values(), straight.state_dict().values());
}

#[test]
fn resume_without_step_counter_would_diverge() {
    // Non-vacuity check for the test above: resuming the same weights
    // with a *fresh* optimizer (the old, buggy behaviour — `t` reset,
    // and here the moments restart at zero too) produces different
    // weights.
    let dataset = small_dataset(6, 5);
    let cfg = train_config(4);

    let mut straight = SelectiveModel::new(&tiny_config(), 7);
    let straight_report = Trainer::new(cfg).run(&mut straight, &dataset);

    let mut broken = SelectiveModel::new(&tiny_config(), 7);
    let (_, bundle) = Trainer::new(cfg).run_to_checkpoint(&mut broken, &dataset, 2);
    // Simulate the pre-fix path: re-run the *last two* epochs as a
    // fresh 2-epoch job from the checkpointed weights (t restarts at 0,
    // shuffle stream restarts from the seed).
    let mut model = bundle.build_model().expect("bundle fits");
    let tail_cfg = TrainConfig { epochs: 2, ..cfg };
    let _ = Trainer::new(tail_cfg).run(&mut model, &dataset);
    assert_ne!(
        model.state_dict().values(),
        straight.state_dict().values(),
        "stale-optimizer resume should diverge; the exactness test would be vacuous"
    );
    assert_eq!(straight_report.epochs.len(), 4);
}

#[test]
fn resume_validates_bundle_compatibility() {
    let dataset = small_dataset(4, 9);
    let cfg = train_config(3);
    let mut model = SelectiveModel::new(&tiny_config(), 1);
    let (_, bundle) = Trainer::new(cfg).run_to_checkpoint(&mut model, &dataset, 1);

    // Mismatched training config is refused.
    let other = TrainConfig { learning_rate: 1e-4, ..cfg };
    let mut fresh = SelectiveModel::new(&tiny_config(), 2);
    assert!(matches!(
        Trainer::new(other).resume(&mut fresh, &dataset, &bundle),
        Err(BundleError::ConfigMismatch { .. })
    ));

    // Mismatched model architecture is refused.
    let wide = tiny_config().with_fc(32);
    let mut wrong_arch = SelectiveModel::new(&wide, 3);
    assert!(matches!(
        Trainer::new(cfg).resume(&mut wrong_arch, &dataset, &bundle),
        Err(BundleError::ModelMismatch { .. })
    ));

    // An inference-only export cannot resume training.
    let export = CheckpointBundle::export(&mut model);
    let mut fresh2 = SelectiveModel::new(&tiny_config(), 4);
    assert!(matches!(
        Trainer::new(cfg).resume(&mut fresh2, &dataset, &export),
        Err(BundleError::NotResumable)
    ));
}

/// A bundle can be well-formed — it survives the serde round trip
/// through a file — and still carry optimizer moments that do not fit
/// the model. Resuming from it must fail before training, not let
/// Adam update a shortened moment and silently skip the tail of the
/// parameter.
#[test]
fn resume_rejects_moments_that_do_not_fit_the_model() {
    let dataset = small_dataset(4, 11);
    let cfg = train_config(3);
    let mut model = SelectiveModel::new(&tiny_config(), 5);
    let (_, bundle) = Trainer::new(cfg).run_to_checkpoint(&mut model, &dataset, 1);
    let resume = bundle.resume().expect("captured mid-training");
    let dir = std::env::temp_dir().join("core_resume_moments_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("bundle_{}.json", std::process::id()));

    let mut shortened = resume.optimizer.clone();
    let first = &shortened.m[0];
    let keep = first.numel() - 1;
    shortened.m[0] = Tensor::from_vec(first.data()[..keep].to_vec(), &[keep]);
    let mut dropped = resume.optimizer.clone();
    dropped.v.pop();
    for (what, state) in [("shortened m", shortened), ("missing v", dropped)] {
        CheckpointBundle::capture(&mut model, state, resume.progress.clone())
            .save(&path)
            .expect("save");
        let loaded = CheckpointBundle::load(&path).expect("well-formed bundle loads");
        let mut fresh = SelectiveModel::new(&tiny_config(), 6);
        assert!(
            matches!(
                Trainer::new(cfg).resume(&mut fresh, &dataset, &loaded),
                Err(BundleError::Restore(_))
            ),
            "{what}: resume must refuse moments that do not fit the model"
        );
    }
    let _ = std::fs::remove_file(&path);
}
