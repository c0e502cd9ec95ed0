//! Integration: model checkpointing across crates — train, snapshot,
//! restore into a fresh model, and verify byte-identical behaviour.

use wm_dsl::prelude::*;

#[test]
fn save_load_roundtrip_preserves_predictions() {
    let (train, test) = SyntheticWm811k::new(16).scale(0.002).seed(8).build();
    let config = SelectiveConfig::for_grid(16).with_conv_channels([6, 6, 6]).with_fc(24);
    let mut model = SelectiveModel::new(&config, 4);
    let _ = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 32,
        learning_rate: 3e-3,
        target_coverage: 0.5,
        ..TrainConfig::default()
    })
    .run(&mut model, &train);

    // Export to disk and restore into a differently seeded model.
    let bundle = CheckpointBundle::export(&mut model);
    let dir = std::env::temp_dir().join("wm_dsl_ckpt_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("model.json");
    bundle.save(&path).expect("save checkpoint");
    let loaded = CheckpointBundle::load(&path).expect("load checkpoint");
    let mut restored = SelectiveModel::new(&config, 999);
    restored.load_state_dict(loaded.params()).expect("restore");

    let a = model.evaluate(&test, 0.5);
    let b = restored.evaluate(&test, 0.5);
    assert_eq!(a, b, "restored model behaves differently");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn restore_into_wrong_architecture_fails_cleanly() {
    let config = SelectiveConfig::for_grid(16).with_conv_channels([6, 6, 6]).with_fc(24);
    let mut model = SelectiveModel::new(&config, 1);
    let snapshot = model.state_dict();
    let other = SelectiveConfig::for_grid(16).with_conv_channels([4, 4, 4]).with_fc(24);
    let mut wrong = SelectiveModel::new(&other, 1);
    assert!(wrong.load_state_dict(&snapshot).is_err());
}
