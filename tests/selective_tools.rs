//! Integration: the selective-learning tool belt — threshold sweeps
//! and the deployment coverage monitor — driven by a real trained
//! model on real generated data.

use wm_dsl::prelude::*;

fn trained_model() -> (SelectiveModel, wafermap::Dataset) {
    let (train, test) = SyntheticWm811k::new(16).scale(0.003).seed(77).build();
    let config = SelectiveConfig::for_grid(16).with_conv_channels([6, 6, 6]).with_fc(24);
    let mut model = SelectiveModel::new(&config, 5);
    let _ = Trainer::new(TrainConfig {
        epochs: 4,
        batch_size: 32,
        learning_rate: 3e-3,
        target_coverage: 0.5,
        ..TrainConfig::default()
    })
    .run(&mut model, &train);
    (model, test)
}

#[test]
fn threshold_sweep_traces_a_valid_curve() {
    let (model, test) = trained_model();
    let thresholds = selective::uniform_thresholds(8);
    let points = selective::threshold_sweep(&model, &test, &thresholds);
    assert_eq!(points.len(), 8);
    // Coverage decreases as the threshold rises; all metrics bounded.
    for pair in points.windows(2) {
        assert!(pair[0].coverage >= pair[1].coverage - 1e-12);
    }
    for p in &points {
        assert!((0.0..=1.0).contains(&p.coverage));
        assert!((0.0..=1.0).contains(&p.selective_accuracy));
        assert!((p.selective_risk + p.selective_accuracy - 1.0).abs() < 1e-9 || p.coverage == 0.0);
    }
}

#[test]
fn sweep_agrees_with_direct_evaluation() {
    let (model, test) = trained_model();
    let tau = 0.5f32;
    let sweep = selective::threshold_sweep(&model, &test, &[tau]);
    let direct = model.evaluate(&test, tau);
    assert!((sweep[0].coverage - direct.coverage()).abs() < 1e-12);
    assert!((sweep[0].selective_accuracy - direct.selective_accuracy()).abs() < 1e-12);
}

#[test]
fn monitor_flags_shifted_stream_but_not_nominal() {
    let (model, test) = trained_model();
    let nominal_cov = model.evaluate(&test, 0.5).coverage();
    // Window of 40, alarm at 30% of the model's own nominal coverage:
    // the nominal stream must stay quiet.
    let mut monitor = selective::CoverageMonitor::new(nominal_cov.max(0.05), 40, 0.3);
    let pixels = 16 * 16;
    let mut alarms = 0;
    for chunk in test.samples().chunks(32) {
        let mut data = Vec::with_capacity(chunk.len() * pixels);
        for s in chunk {
            data.extend(s.map.to_image());
        }
        let images = nn::Tensor::from_vec(data, &[chunk.len(), 1, 16, 16]);
        for p in model.infer_predict(&images, 0.5) {
            if monitor.observe(p.selected).is_some() {
                alarms += 1;
            }
        }
    }
    // A handful of transient dips are tolerable; a persistent alarm
    // storm is not.
    let observed = monitor.observed();
    assert!(
        (alarms as f64) < 0.2 * observed as f64,
        "nominal stream alarmed {alarms}/{observed} times"
    );

    // A stream where the model abstains everywhere must alarm.
    let mut shifted_monitor = selective::CoverageMonitor::new(nominal_cov.max(0.05), 40, 0.3);
    let mut fired = false;
    for _ in 0..200 {
        fired |= shifted_monitor.observe(false).is_some();
    }
    assert!(fired, "all-abstain stream never alarmed");
}
