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
    let batch_latency = &report.serving.batch_latency;
    assert_eq!(batch_latency.window_capacity, WINDOW);
    assert!(
        batch_latency.window_len <= WINDOW,
        "latency window grew past its bound: {} > {WINDOW}",
        batch_latency.window_len
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

#[test]
fn flapping_coverage_keeps_the_alarm_log_bounded_and_the_count_exact() {
    let config = SelectiveConfig::for_grid(GRID).with_conv_channels([2, 2, 2]).with_fc(8);
    let bundle = CheckpointBundle::export(&mut SelectiveModel::new(&config, 7));
    // Probe the three cycled wafers' selection scores, then pick a
    // threshold that selects only the highest-scoring one: coverage
    // follows the period-3 pattern 1, 0, 0, 1, 0, 0, …
    let mut probe = Engine::from_bundle(&bundle, ServeConfig::default()).expect("valid bundle");
    let mut scores: Vec<f32> = probe
        .submit(&workload(3))
        .expect("grid matches")
        .iter()
        .map(|d| d.selection_score)
        .collect();
    scores.sort_by(f32::total_cmp);
    assert!(scores[1] < scores[2], "probe wafers need distinct top scores: {scores:?}");
    let threshold = scores[1] + (scores[2] - scores[1]) / 2.0;
    // A 4-wafer window then holds one or two selections, so rolling
    // coverage alternates between 0.25 and 0.5 around the 0.4 line and
    // every third wafer opens a new incident.
    let monitor_window = 4;
    let mut engine = Engine::from_bundle(
        &bundle,
        ServeConfig {
            threshold,
            monitor_window,
            target_coverage: 0.8,
            alarm_fraction: 0.5,
            stats_window: WINDOW,
            ..ServeConfig::default()
        },
    )
    .expect("valid bundle");
    let wafers = 200 * monitor_window;
    let mut raised = Vec::new();
    for chunk in workload(wafers).chunks(64) {
        let decisions = engine.submit(chunk).expect("grid matches");
        raised.extend(decisions.iter().filter_map(|d| d.alarm));
    }
    let report = engine.report();
    assert!(raised.len() > 10 * WINDOW, "the stream must flap: {} incidents", raised.len());
    assert_eq!(report.alarms, raised.len() as u64, "the counter counts every incident");
    assert!(engine.alarms().len() <= WINDOW, "alarm log grew past stats_window");
    assert_eq!(engine.alarms(), &raised[raised.len() - WINDOW..], "the most recent are kept");
    assert_eq!(report.last_alarm, raised.last().copied());
}
