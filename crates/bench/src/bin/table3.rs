//! Table III reproduction: confusion matrices of the full-coverage
//! CNN (ours) and the Radon+geometry SVM baseline (Wu et al., "SVM
//! \[2\]") on the same test set, plus overall and defect-only
//! accuracies.

use baseline::{FeatureConfig, SvmBaseline, SvmParams};
use serde::Serialize;
use wafermap::DefectClass;
use wm_bench::pipeline::{prepare, train_selective};
use wm_bench::{save_json, ExperimentArgs};

#[derive(Serialize)]
struct Table3 {
    cnn_accuracy: f64,
    cnn_defect_accuracy: f64,
    svm_accuracy: f64,
    svm_defect_accuracy: f64,
    cnn_confusion: Vec<Vec<u64>>,
    svm_confusion: Vec<Vec<u64>>,
}

fn main() {
    let args = ExperimentArgs::parse();
    eprintln!(
        "table3: scale {} grid {} epochs {} (paper: 94% CNN vs 91% SVM; defects 86% vs 72%)",
        args.scale, args.grid, args.epochs
    );
    let data = prepare(&args);
    let labels: Vec<&str> = DefectClass::ALL.iter().map(|c| c.name()).collect();

    // Full-coverage CNN (plain cross-entropy, threshold 0 keeps all).
    eprintln!("training full-coverage CNN ...");
    let (model, report) = train_selective(&args, &data.train, 1.0);
    eprintln!(
        "  final epoch: loss {:.4}, train acc {:.3}",
        report.last().loss,
        report.last().accuracy
    );
    let cnn_metrics = model.evaluate(&data.test, 0.0);
    let cnn = cnn_metrics.selected_matrix();

    // SVM baseline trained on the *raw* (unaugmented) training set, as
    // in the original Wu et al. pipeline.
    eprintln!("training SVM baseline ({} machines) ...", 36);
    let svm = SvmBaseline::train(
        &data.train_raw,
        &FeatureConfig::default(),
        &SvmParams::default(),
        args.seed,
    );
    let svm_cm = svm.evaluate(&data.test);

    let is_defect = |c: usize| DefectClass::from_index(c).is_some_and(DefectClass::is_defect);

    println!("\nTable III — proposed CNN (full coverage) confusion matrix\n");
    println!("{}", cnn.to_table(&labels));
    println!(
        "CNN overall accuracy = {:.1}%   defect-class detection rate = {:.1}%\n",
        cnn.accuracy() * 100.0,
        cnn.accuracy_over(is_defect) * 100.0
    );
    println!("Table III — SVM [2] baseline confusion matrix\n");
    println!("{}", svm_cm.to_table(&labels));
    println!(
        "SVM overall accuracy = {:.1}%   defect-class detection rate = {:.1}%",
        svm_cm.accuracy() * 100.0,
        svm_cm.accuracy_over(is_defect) * 100.0
    );
    println!("\npaper reference: CNN 94% (defects 86%) vs SVM 91% (defects 72%)");

    let dump = |cm: &eval::ConfusionMatrix| -> Vec<Vec<u64>> {
        (0..cm.n_classes()).map(|t| (0..cm.n_classes()).map(|p| cm.count(t, p)).collect()).collect()
    };
    save_json(
        &args.out_dir,
        "table3",
        &Table3 {
            cnn_accuracy: cnn.accuracy(),
            cnn_defect_accuracy: cnn.accuracy_over(is_defect),
            svm_accuracy: svm_cm.accuracy(),
            svm_defect_accuracy: svm_cm.accuracy_over(is_defect),
            cnn_confusion: dump(cnn),
            svm_confusion: dump(&svm_cm),
        },
    );
}
