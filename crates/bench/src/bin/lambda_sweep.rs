//! Sensitivity study: the coverage-penalty weight λ.
//!
//! The paper sets `λ = 0.5` (eq. (8)); the SelectiveNet paper it
//! builds on uses `λ = 32`. With a fully converged, highly accurate
//! model the two behave similarly — nearly all samples have tiny loss,
//! so coverage rises to the target for free. With a CPU-budget model
//! that still misclassifies a chunk of the data, λ decides whether the
//! optimizer honours the coverage constraint or sacrifices coverage
//! for selective risk. This harness trains one model per λ at a fixed
//! `c0` and reports achieved coverage and selective accuracy.

use serde::Serialize;
use wm_bench::pipeline::{prepare, train_selective};
use wm_bench::{save_json, ExperimentArgs};

#[derive(Serialize)]
struct LambdaRow {
    lambda: f32,
    train_coverage: f32,
    test_coverage: f64,
    selective_accuracy: f64,
}

fn main() {
    let mut args = ExperimentArgs::parse();
    let c0 = 0.75f32;
    eprintln!(
        "lambda_sweep: scale {} grid {} epochs {} c0 {c0}",
        args.scale, args.grid, args.epochs
    );
    let data = prepare(&args);

    let lambdas = [0.5f32, 4.0, 32.0];
    println!("\nλ sensitivity at c0 = {c0} (paper: λ = 0.5; SelectiveNet: λ = 32)\n");
    println!(
        "{:>8} {:>15} {:>14} {:>20}",
        "lambda", "train coverage", "test coverage", "selective accuracy"
    );
    let mut rows = Vec::new();
    for &lambda in &lambdas {
        args.lambda = lambda;
        eprintln!("training with lambda = {lambda} ...");
        let (model, report) = train_selective(&args, &data.train, c0);
        let metrics = model.evaluate(&data.test, 0.5);
        println!(
            "{:>8} {:>14.1}% {:>13.1}% {:>19.1}%",
            lambda,
            report.last().coverage * 100.0,
            metrics.coverage() * 100.0,
            metrics.selective_accuracy() * 100.0
        );
        rows.push(LambdaRow {
            lambda,
            train_coverage: report.last().coverage,
            test_coverage: metrics.coverage(),
            selective_accuracy: metrics.selective_accuracy(),
        });
    }
    println!(
        "\nexpected shape: larger λ pulls achieved coverage toward the target c0 at the\n\
         cost of selective accuracy (more borderline samples get covered); tiny λ lets\n\
         coverage collapse onto the easiest classes."
    );
    save_json(&args.out_dir, "lambda_sweep", &rows);
}
