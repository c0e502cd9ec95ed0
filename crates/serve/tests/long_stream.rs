//! Long-stream serving: the engine must hold O(window) state no
//! matter how many batches flow through it.
//!
//! Regression suite for the unbounded-stats bug where the serving stats
//! pushed every batch latency and batch size into growing `Vec`s —
//! a deployed engine leaked memory linearly in stream length — and for
//! the alarm log, which once grew by one entry per wafer while coverage
//! stayed below the alarm line.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selective::{CheckpointBundle, SelectiveConfig, SelectiveModel};
use serve::{Engine, ServeConfig};
use wafermap::gen::{generate, GenConfig};
use wafermap::{DefectClass, WaferMap};

const GRID: usize = 16;
const WINDOW: usize = 8;

/// A small pool of wafers to cycle through; serving behaviour is
/// what's under test, not the model, so no training is needed.
fn workload(count: usize) -> Vec<WaferMap> {
    let cfg = GenConfig::new(GRID);
    let mut rng = StdRng::seed_from_u64(9);
    let pool: Vec<WaferMap> = [DefectClass::Center, DefectClass::None, DefectClass::EdgeRing]
        .iter()
        .map(|&class| generate(class, &cfg, &mut rng))
        .collect();
    (0..count).map(|i| pool[i % pool.len()].clone()).collect()
}

#[test]
fn engine_state_stays_bounded_over_long_streams() {
    let config = SelectiveConfig::for_grid(GRID).with_conv_channels([2, 2, 2]).with_fc(8);
    let bundle = CheckpointBundle::export(&mut SelectiveModel::new(&config, 7));
    let mut engine = Engine::from_bundle(
        &bundle,
        ServeConfig { micro_batch: 1, stats_window: WINDOW, ..ServeConfig::default() },
    )
    .expect("valid bundle");

    // Stream 100x the retention window: 800 micro-batches of 1 wafer.
    let batches = 100 * WINDOW;
    for chunk in workload(batches).chunks(50) {
        engine.submit(chunk).expect("grid matches");
    }

    let report = engine.report();

    // Exact stream totals survive the bounded window.
    assert_eq!(report.serving.batches, batches as u64);
    assert_eq!(report.serving.wafers, batches as u64);
    assert_eq!(
        report.serving.predicted + report.serving.abstained,
        batches as u64,
        "every wafer is either predicted or abstained"
    );

    // Retained distribution state never exceeds the configured window.
    assert_eq!(report.serving.latency_window_capacity, WINDOW);
    assert!(
        report.serving.latency_window_len <= WINDOW,
        "latency window grew past its bound: {} > {WINDOW}",
        report.serving.latency_window_len
    );

    // The telemetry histograms ride the same bound while keeping
    // exact stream counts.
    for hist in &report.telemetry.histograms {
        assert!(
            hist.summary.window_len <= WINDOW,
            "{} window grew past its bound: {} > {WINDOW}",
            hist.name,
            hist.summary.window_len
        );
        assert_eq!(hist.summary.window_capacity, WINDOW, "{}", hist.name);
    }
    let batch_seconds = report
        .telemetry
        .histograms
        .iter()
        .find(|h| h.name == "serve_batch_seconds")
        .expect("engine registers a batch latency histogram");
    assert_eq!(batch_seconds.summary.count, batches as u64, "exact count despite windowing");
}

#[test]
fn sustained_shift_is_one_alarm_incident_not_one_per_wafer() {
    let config = SelectiveConfig::for_grid(GRID).with_conv_channels([2, 2, 2]).with_fc(8);
    let bundle = CheckpointBundle::export(&mut SelectiveModel::new(&config, 7));
    // A threshold above any selection score: the model abstains on
    // every wafer, so rolling coverage stays at 0 for the whole stream.
    let monitor_window = 16;
    let mut engine = Engine::from_bundle(
        &bundle,
        ServeConfig { threshold: 2.0, monitor_window, ..ServeConfig::default() },
    )
    .expect("valid bundle");
    let wafers = 100 * monitor_window;
    for chunk in workload(wafers).chunks(64) {
        engine.submit(chunk).expect("grid matches");
    }
    let report = engine.report();
    assert_eq!(report.serving.abstained, wafers as u64);
    assert_eq!(engine.alarms().len(), 1, "the alarm log must not grow with the stream");
    assert_eq!(report.alarms, 1);
    assert_eq!(
        engine.alarms()[0].observed,
        monitor_window as u64,
        "first alarm on the first full window"
    );
}
