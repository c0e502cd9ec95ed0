//! Chaos end-to-end: train → checkpoint a generation chain → corrupt
//! the newest generations with `faultsim` → the serving layer must
//! come back via fallback loading and serve decisions bit-identical
//! to an uncorrupted run. Crash recovery is allowed to lose recency
//! (an older model serves), never integrity (a corrupt model never
//! serves) and never availability (no panic while any generation is
//! intact).

use std::path::PathBuf;
use std::time::Duration;

use faultsim::{flip_bit_at, truncate_at, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selective::{
    CheckpointBundle, LoadError, SelectiveConfig, SelectiveModel, TrainConfig, Trainer,
};
use serve::{load_bundle_with_retry, Engine, RetryPolicy, ServeConfig};
use wafermap::gen::{generate, GenConfig, Sample};
use wafermap::{Dataset, DefectClass, WaferMap};

const GRID: usize = 16;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_chaos_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn dataset(per_class: usize, seed: u64) -> Dataset {
    let cfg = GenConfig::new(GRID);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(GRID);
    for _ in 0..per_class {
        for class in [DefectClass::None, DefectClass::Center, DefectClass::EdgeRing] {
            ds.push(Sample::original(generate(class, &cfg, &mut rng), class));
        }
    }
    ds
}

/// Train briefly, exporting a bundle after each third of the run —
/// a generation chain where newer really means better-trained.
fn generation_chain() -> Vec<CheckpointBundle> {
    let config = SelectiveConfig::for_grid(GRID).with_conv_channels([2, 2, 2]).with_fc(8);
    let mut model = SelectiveModel::new(&config, 7);
    let train = dataset(8, 1);
    let mut generations = Vec::new();
    for stage in 0..3 {
        let _ = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 12,
            learning_rate: 5e-3,
            target_coverage: 0.7,
            seed: 100 + stage,
            ..TrainConfig::default()
        })
        .run(&mut model, &train);
        generations.push(CheckpointBundle::export(&mut model));
    }
    generations
}

fn workload(n: usize, seed: u64) -> Vec<WaferMap> {
    let cfg = GenConfig::new(GRID);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let class = DefectClass::from_index(i % DefectClass::COUNT).expect("valid");
            generate(class, &cfg, &mut rng)
        })
        .collect()
}

#[test]
fn corrupted_generations_recover_and_serve_identically() {
    let dir = temp_dir("recover");
    let generations = generation_chain();
    let paths: Vec<PathBuf> =
        (0..generations.len()).map(|g| dir.join(format!("bundle_gen{g}.json"))).collect();
    for (bundle, path) in generations.iter().zip(&paths) {
        bundle.save(path).expect("save generation");
    }

    // A crash tore the newest bundle mid-write and bit rot got the
    // middle one; only the oldest generation survives intact.
    let newest_len = std::fs::metadata(&paths[2]).expect("meta").len();
    truncate_at(&paths[2], newest_len / 3).expect("inject truncation");
    flip_bit_at(&paths[1], 40, 3).expect("inject bit flip");

    let newest_first: Vec<&PathBuf> = paths.iter().rev().collect();
    let recovered = CheckpointBundle::load_with_fallback(newest_first[0], &newest_first[1..])
        .expect("one intact generation remains");
    assert_eq!(recovered.source_index, 2, "must step back to the oldest generation");
    assert_eq!(recovered.failures.len(), 2, "both corrupt generations are reported");
    assert!(
        matches!(recovered.failures[0].1, LoadError::Truncated { .. }),
        "newest failed by truncation: {:?}",
        recovered.failures[0].1
    );
    assert!(
        matches!(recovered.failures[1].1, LoadError::ChecksumMismatch { .. }),
        "middle failed by checksum: {:?}",
        recovered.failures[1].1
    );
    assert_eq!(recovered.bundle, generations[0], "recovered bytes are the oldest export");

    // The recovered engine serves exactly what an engine built from
    // the pristine in-memory generation would serve.
    let config = ServeConfig { micro_batch: 8, ..ServeConfig::default() };
    let stream = workload(24, 9);
    let mut pristine = Engine::from_bundle(&generations[0], config).expect("valid bundle");
    let mut after_crash = Engine::from_bundle(&recovered.bundle, config).expect("valid bundle");
    let expected = pristine.submit(&stream).expect("grid matches");
    let got = after_crash.submit(&stream).expect("grid matches");
    assert_eq!(expected, got, "recovery must not perturb a single decision");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_chain_is_a_typed_error_listing_every_failure() {
    let dir = temp_dir("exhausted");
    let generations = generation_chain();
    let a = dir.join("gen_a.json");
    let b = dir.join("gen_b.json");
    generations[0].save(&a).expect("save");
    generations[1].save(&b).expect("save");
    let mut plan = FaultPlan::new(13);
    plan.truncate_file(&a).expect("inject");
    plan.flip_file_bit(&b).expect("inject");
    let missing = dir.join("never_written.json");

    let err = CheckpointBundle::load_with_fallback(&b, &[&a, &missing])
        .expect_err("no intact generation");
    assert_eq!(err.failures.len(), 3, "every candidate's failure is reported");
    assert!(err.failures.iter().any(|(p, _)| p == &missing));
    assert!(err
        .failures
        .iter()
        .all(|(_, e)| !matches!(e, LoadError::Malformed(m) if m.contains("panic"))));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_load_failures_retry_with_bounded_backoff() {
    let dir = temp_dir("retry");
    let generations = generation_chain();
    let path = dir.join("bundle.json");

    // Missing file: a transient I/O failure — retried with the
    // documented backoff schedule, then surfaced typed.
    let mut sleeps = Vec::new();
    let policy = RetryPolicy {
        attempts: 4,
        initial_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(12),
    };
    let err =
        load_bundle_with_retry(&path, policy, |d| sleeps.push(d)).expect_err("nothing on disk yet");
    assert!(matches!(err, LoadError::Io { .. }));
    assert_eq!(
        sleeps,
        vec![Duration::from_millis(5), Duration::from_millis(10), Duration::from_millis(12)],
        "backoff doubles from the initial value and caps at the maximum"
    );

    // Corruption is not transient: no retries, immediate typed error.
    generations[0].save(&path).expect("save");
    let len = std::fs::metadata(&path).expect("meta").len();
    truncate_at(&path, len / 2).expect("inject");
    let mut sleeps = Vec::new();
    let err = load_bundle_with_retry(&path, policy, |d| sleeps.push(d))
        .expect_err("corrupt file must not load");
    assert!(matches!(err, LoadError::Truncated { .. }));
    assert!(sleeps.is_empty(), "deterministic corruption must not be retried");

    // An intact file loads on the first attempt, no backoff.
    generations[0].save(&path).expect("save");
    let mut sleeps = Vec::new();
    let bundle =
        load_bundle_with_retry(&path, policy, |d| sleeps.push(d)).expect("intact file loads");
    assert_eq!(bundle, generations[0]);
    assert!(sleeps.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-container a valid bundle's payload with its first `from` field
/// text replaced by `to`: the checksum is valid, the architecture is
/// not. Returns the load error.
fn load_crafted(tag: &str, from: &str, to: &str) -> LoadError {
    let dir = temp_dir(tag);
    let path = dir.join("crafted.json");
    let config = SelectiveConfig::for_grid(GRID).with_conv_channels([2, 2, 2]).with_fc(8);
    CheckpointBundle::export(&mut SelectiveModel::new(&config, 3)).save(&path).expect("save");
    let payload = nn::serialize::read_container(&path).expect("intact container");
    let text = String::from_utf8(payload).expect("JSON payload");
    let crafted = text.replacen(from, to, 1);
    assert_ne!(crafted, text, "payload has no {from}");
    nn::serialize::write_container(&path, crafted.as_bytes()).expect("re-container");
    let err = CheckpointBundle::load(&path).expect_err("invalid architecture must not load");
    let _ = std::fs::remove_dir_all(&dir);
    err
}

fn assert_invalid_architecture(err: &LoadError, field: &str) {
    assert!(
        matches!(err, LoadError::Malformed(why) if why.contains(field)),
        "expected a malformed-architecture error naming {field}, got {err:?}"
    );
}

#[test]
fn crafted_zero_grid_is_a_typed_load_error() {
    let err = load_crafted("zero_grid", &format!("\"grid\":{GRID},"), "\"grid\":0,");
    assert_invalid_architecture(&err, "grid");
}

#[test]
fn crafted_zero_classes_is_a_typed_load_error() {
    let err = load_crafted("zero_classes", "\"n_classes\":9,", "\"n_classes\":0,");
    assert_invalid_architecture(&err, "n_classes");
}

#[test]
fn crafted_zero_fc_is_a_typed_load_error() {
    let err = load_crafted("zero_fc", "\"fc\":8,", "\"fc\":0,");
    assert_invalid_architecture(&err, "fc");
}
