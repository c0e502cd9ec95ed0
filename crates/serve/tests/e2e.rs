//! End-to-end serving path: train a tiny selective model, export its
//! checkpoint bundle through a file, load it in the serving engine,
//! calibrate the threshold, and stream workloads — an in-distribution
//! stream that should serve quietly and a concept-shifted stream that
//! must trip the coverage alarm (paper Section IV-A / IV-D), plus
//! bit-identical batched inference across worker-pool sizes.

use nn::pool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selective::{SelectiveConfig, SelectiveModel, TrainConfig, Trainer};
use serve::{Engine, ServeConfig};
use wafermap::gen::{generate, GenConfig, Sample};
use wafermap::shift::{shifted_dataset, ShiftConfig};
use wafermap::{Dataset, DefectClass, WaferMap};

const GRID: usize = 16;

/// In-distribution dataset over three well-separated classes.
fn nominal_dataset(per_class: usize, seed: u64) -> Dataset {
    let cfg = GenConfig::new(GRID);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(GRID);
    for _ in 0..per_class {
        for class in [DefectClass::NearFull, DefectClass::None, DefectClass::Center] {
            ds.push(Sample::original(generate(class, &cfg, &mut rng), class));
        }
    }
    ds
}

fn trained_bundle_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("serve_e2e_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{tag}.json"))
}

/// Train a small selective model and export its bundle through disk.
///
/// The training set mixes easy in-distribution wafers with a slice of
/// severely noisy/ambiguous ones: the selective objective pays risk on
/// every selected sample, so with coverage to spare the selection head
/// learns to score the noisy slice low — which is what later lets the
/// deployed monitor detect a shift toward such wafers.
fn train_and_export(tag: &str) -> selective::CheckpointBundle {
    let config = SelectiveConfig::for_grid(GRID).with_conv_channels([4, 4, 4]).with_fc(16);
    let mut model = SelectiveModel::new(&config, 42);
    let mut train = nominal_dataset(16, 1);
    train.extend_from(&shifted_dataset(GRID, 4, &ShiftConfig::severe(), 11));
    let _ = Trainer::new(TrainConfig {
        epochs: 30,
        batch_size: 16,
        learning_rate: 5e-3,
        target_coverage: 0.55,
        seed: 2,
        ..TrainConfig::default()
    })
    .run(&mut model, &train);
    let bundle = selective::CheckpointBundle::export(&mut model);
    let path = trained_bundle_path(tag);
    bundle.save(&path).expect("save bundle");
    let loaded = selective::CheckpointBundle::load(&path).expect("load bundle");
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, bundle, "bundle must survive the file roundtrip exactly");
    loaded
}

#[test]
fn shifted_workload_trips_the_coverage_alarm() {
    let bundle = train_and_export("alarm");
    let mut engine = Engine::from_bundle(
        &bundle,
        ServeConfig {
            micro_batch: 16,
            target_coverage: 0.8,
            monitor_window: 48,
            alarm_fraction: 0.6,
            ..ServeConfig::default()
        },
    )
    .expect("valid bundle");

    // Calibrate τ on held-out in-distribution data at 90% coverage.
    let calibration = nominal_dataset(16, 3);
    let tau = engine.calibrate(&calibration, 0.9).expect("valid calibration set");
    assert!(tau.is_finite());

    // A healthy in-distribution stream serves without alarms.
    let nominal: Vec<WaferMap> =
        nominal_dataset(32, 4).samples().iter().map(|s| s.map.clone()).collect();
    let healthy = engine.submit(&nominal).expect("grid matches");
    assert!(
        healthy.iter().all(|d| d.alarm.is_none()),
        "in-distribution stream should not alarm (rolling coverage {})",
        engine.report().rolling_coverage
    );
    let healthy_coverage = engine.report().rolling_coverage;

    // Concept shift: heavy noise, weak patterns, mixed-pattern wafers.
    let shifted: Vec<WaferMap> = shifted_dataset(GRID, 24, &ShiftConfig::severe(), 5)
        .samples()
        .iter()
        .map(|s| s.map.clone())
        .collect();
    let decisions = engine.submit(&shifted).expect("grid matches");
    let report = engine.report();
    assert!(
        report.alarms > 0,
        "severe shift must trip the coverage alarm (healthy coverage {healthy_coverage}, \
         rolling coverage {}, alarm line {})",
        report.rolling_coverage,
        report.alarm_line
    );
    // The alarm is attached to the wafer that tripped it.
    assert!(decisions.iter().any(|d| d.alarm.is_some()));
    // And the JSON report reflects it.
    let json = engine.report_json();
    assert!(json.contains("\"alarms\""), "report JSON must carry the alarm count");
}

#[test]
fn batched_inference_is_bit_identical_across_thread_limits() {
    let bundle = train_and_export("threads");
    let workload: Vec<WaferMap> = {
        let mut maps: Vec<WaferMap> =
            nominal_dataset(8, 7).samples().iter().map(|s| s.map.clone()).collect();
        maps.extend(
            shifted_dataset(GRID, 2, &ShiftConfig::severe(), 8)
                .samples()
                .iter()
                .map(|s| s.map.clone()),
        );
        maps
    };

    let run = |micro_batch: usize, limit: usize| {
        pool::set_thread_limit(limit);
        let mut engine =
            Engine::from_bundle(&bundle, ServeConfig { micro_batch, ..ServeConfig::default() })
                .expect("valid bundle");
        engine.submit(&workload).expect("grid matches")
    };
    // Micro-batch size is a throughput lever, never an accuracy lever:
    // one wafer per batch, a ragged 17, and one batch holding the whole
    // 26-wafer workload must all route like the serial reference.
    let serial = run(8, 1);
    for micro_batch in [1, 8, 17, 64] {
        for limit in [1, 4] {
            let pooled = run(micro_batch, limit);
            assert_eq!(serial.len(), pooled.len());
            for (i, (a, b)) in serial.iter().zip(&pooled).enumerate() {
                assert_eq!(a.route, b.route, "route diverged at wafer {i}");
                assert_eq!(a.confidence, b.confidence, "confidence diverged at wafer {i}");
                assert_eq!(
                    a.selection_score, b.selection_score,
                    "selection score diverged at wafer {i}"
                );
            }
        }
    }
    pool::set_thread_limit(pool::default_thread_limit());
}
