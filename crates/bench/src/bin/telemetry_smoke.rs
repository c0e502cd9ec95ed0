//! CI smoke check for the telemetry layer: run a telemetry-enabled
//! miniature train + augment + serve pass, then hold every exposition
//! surface to its format contract.
//!
//! Exits non-zero (with a message on stderr) if any registry comes
//! back empty, the JSON snapshot fails to round-trip, or a Prometheus
//! rendering fails [`telemetry::parse_exposition`].
//!
//! Also asserts the workspace-growth instrumentation is live (it counts
//! scratch-buffer growths only, not heap allocations; perfbench's
//! `process.allocs_per_{wafer,step}` count those): the
//! process-global registry must carry the workspace scratch counters
//! (`hotpath_scratch_grows_total` > 0 after a training run — buffers
//! grew during warm-up — and a non-zero `hotpath_scratch_bytes`
//! high-water gauge), and the serve registry must expose the per-wafer
//! `serve_wafer_compute_seconds` histogram with one observation per
//! wafer.

use std::process::ExitCode;

use augment::{AugmentConfig, Augmenter};
use selective::{CheckpointBundle, SelectiveConfig, SelectiveModel, TrainConfig, Trainer};
use serve::{Engine, ServeConfig};
use telemetry::{parse_exposition, Registry, Snapshot};
use wafermap::gen::SyntheticWm811k;
use wafermap::WaferMap;

/// Validate one subsystem's registry: non-empty, JSON round-trips,
/// Prometheus parses. Returns the sample count for the summary line.
fn check(what: &str, registry: &Registry) -> Result<usize, String> {
    let snapshot = registry.snapshot();
    if snapshot.is_empty() {
        return Err(format!("{what}: telemetry registry is empty"));
    }
    let json = serde_json::to_string(&snapshot)
        .map_err(|e| format!("{what}: snapshot failed to serialize: {e}"))?;
    let back: Snapshot = serde_json::from_str(&json)
        .map_err(|e| format!("{what}: snapshot failed to deserialize: {e}"))?;
    if back != snapshot {
        return Err(format!("{what}: JSON snapshot did not round-trip"));
    }
    let text = registry.prometheus();
    let exposition = parse_exposition(&text)
        .map_err(|e| format!("{what}: invalid Prometheus exposition: {e}\n---\n{text}"))?;
    println!(
        "  {what:<10} {:>3} families {:>4} samples  ok",
        exposition.families.len(),
        exposition.samples
    );
    Ok(exposition.samples)
}

/// The process-global registry must show the workspace scratch
/// instrumentation: growth events happened (warm-up sized the hot-path
/// buffers) and the high-water gauge tracks live bytes.
fn check_workspace_metrics(snapshot: &Snapshot) -> Result<(), String> {
    let grows = snapshot
        .counters
        .iter()
        .find(|c| c.name == "hotpath_scratch_grows_total")
        .ok_or("pool: hotpath_scratch_grows_total missing from the global registry")?;
    if grows.value == 0 {
        return Err("pool: hotpath_scratch_grows_total is 0 after a training run".to_string());
    }
    let bytes = snapshot
        .gauges
        .iter()
        .find(|g| g.name == "hotpath_scratch_bytes")
        .ok_or("pool: hotpath_scratch_bytes missing from the global registry")?;
    if bytes.value <= 0.0 {
        return Err("pool: hotpath_scratch_bytes gauge is 0 after a training run".to_string());
    }
    println!("  workspace   {} grow(s), {:.0} scratch bytes  ok", grows.value, bytes.value);
    Ok(())
}

/// The serve registry must carry the per-wafer compute histogram, one
/// observation per submitted wafer.
fn check_serve_compute_metric(snapshot: &Snapshot, wafers: u64) -> Result<(), String> {
    let hist = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "serve_wafer_compute_seconds")
        .ok_or("serve: serve_wafer_compute_seconds missing from the engine registry")?;
    if hist.summary.count != wafers {
        return Err(format!(
            "serve: serve_wafer_compute_seconds has {} observations, expected {} (one per wafer)",
            hist.summary.count, wafers
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let grid = 16;
    let (train, _) = SyntheticWm811k::new(grid).scale(0.002).seed(2020).build();

    // Train: two epochs of the selective objective, instrumented.
    let train_registry = Registry::new();
    let config = SelectiveConfig::for_grid(grid).with_conv_channels([4, 4, 4]).with_fc(16);
    let mut model = SelectiveModel::new(&config, 2020);
    let report = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 16,
        learning_rate: 3e-3,
        target_coverage: 0.75,
        seed: 2020,
        ..TrainConfig::default()
    })
    .with_telemetry(train_registry.clone())
    .run(&mut model, &train);
    if !report.last().loss.is_finite() {
        return Err("train: non-finite final loss".to_string());
    }

    // Augment: rebalance the training set, instrumented.
    let augment_registry = Registry::new();
    let augmented = Augmenter::new(
        AugmentConfig::new(train.len() / 4).with_channels([4, 4, 4]).with_ae_epochs(1),
        2020,
    )
    .with_telemetry(augment_registry.clone())
    .balance(&train);
    if augmented.len() < train.len() {
        return Err("augment: balancing shrank the dataset".to_string());
    }

    // Serve: stream the wafers back through the engine (its registry
    // is built in; the pool feeds the process-global registry).
    let bundle = CheckpointBundle::export(&mut model);
    let mut engine =
        Engine::from_bundle(&bundle, ServeConfig { micro_batch: 8, ..ServeConfig::default() })
            .map_err(|e| format!("serve: {e}"))?;
    engine.calibrate(&train, 0.9).map_err(|e| format!("serve: calibrate failed: {e}"))?;
    let workload: Vec<WaferMap> = train.samples().iter().map(|s| s.map.clone()).collect();
    engine.submit(&workload).map_err(|e| format!("serve: {e}"))?;

    println!("telemetry_smoke: exposition checks");
    check("train", &train_registry)?;
    check("augment", &augment_registry)?;
    check("serve", engine.telemetry())?;
    check("pool", &telemetry::global())?;
    check_serve_compute_metric(&engine.telemetry().snapshot(), workload.len() as u64)?;
    check_workspace_metrics(&telemetry::global().snapshot())?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("telemetry_smoke: all exposition surfaces valid");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("telemetry_smoke: FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}
