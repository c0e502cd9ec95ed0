//! Concept-shift detection (paper Sections IV-A and IV-D, application
//! (iii)): when the incoming wafer distribution drifts away from the
//! training distribution, the selective model's coverage collapses —
//! a deployable "retrain me" alarm — while the accuracy on the wafers
//! it still labels stays high.
//!
//! Run with `cargo run --release --example concept_shift`.

use wafermap::shift::{shifted_dataset, ShiftConfig};
use wm_dsl::prelude::*;

fn main() {
    let (train, test) = SyntheticWm811k::new(32).scale(0.008).seed(11).build();
    println!("training selective model (c0 = 0.5) on {} wafers ...", train.len());
    let config = SelectiveConfig::for_grid(32).with_conv_channels([16, 16, 16]).with_fc(64);
    let mut model = SelectiveModel::new(&config, 8);
    let _ = Trainer::new(TrainConfig {
        epochs: 8,
        batch_size: 32,
        learning_rate: 2e-3,
        target_coverage: 0.5,
        ..TrainConfig::default()
    })
    .run(&mut model, &train);
    // Calibrate τ so that half of the training wafers clear it: the
    // coverage the model was trained for.
    let tau = selective::calibrate_threshold(&model.selection_scores(&train), 0.5);
    println!("calibrated threshold τ = {tau:.3e}");

    let per_class = (test.len() / 9).max(5);
    let splits = [
        ("in-distribution", test.clone()),
        ("moderate shift", shifted_dataset(32, per_class, &ShiftConfig::moderate(), 100)),
        ("severe shift", shifted_dataset(32, per_class, &ShiftConfig::severe(), 101)),
    ];

    println!("\n{:>16} {:>10} {:>20}", "split", "coverage", "selective accuracy");
    let mut coverages = Vec::new();
    for (name, split) in &splits {
        let m = model.evaluate(split, tau);
        println!(
            "{:>16} {:>9.1}% {:>19.1}%",
            name,
            m.coverage() * 100.0,
            m.selective_accuracy() * 100.0
        );
        coverages.push(m.coverage());
    }

    // The deployment rule the paper suggests: alarm when coverage
    // falls well below the trained target. `CoverageMonitor` packages
    // it as a rolling-window stream monitor.
    let mut monitor = selective::CoverageMonitor::new(coverages[0], 50, 0.5);
    println!("\nstreaming shifted wafers through a rolling coverage monitor ...");
    let shifted = &splits[2].1;
    let mut alarm = None;
    for chunk in shifted.samples().chunks(16) {
        let mut data = Vec::new();
        for s in chunk {
            data.extend(s.map.to_image());
        }
        let images = nn::Tensor::from_vec(data, &[chunk.len(), 1, 32, 32]);
        for p in model.infer_predict(&images, tau) {
            if alarm.is_none() {
                alarm = monitor.observe(p.selected);
            }
        }
        if alarm.is_some() {
            break;
        }
    }
    match alarm {
        Some(a) => println!(
            "ALARM after {} wafers: rolling coverage {:.1}% < alarm line {:.1}% — \
             distribution has shifted, retrain.",
            a.observed,
            a.rolling_coverage * 100.0,
            a.alarm_line * 100.0
        ),
        None => println!("no alarm fired — shift too mild for this monitor setting."),
    }
}
