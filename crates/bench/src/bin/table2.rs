//! Table II reproduction: dataset statistics and selective-learning
//! results at target coverages `c0 ∈ {0.2, 0.5, 0.75}`.
//!
//! For each `c0`, trains a selective model on the Algorithm-1-balanced
//! training set and reports per-class precision / recall / F1 over the
//! **selected** test samples, per-class selected counts ("Cov"), and
//! the overall selective accuracy and total coverage.
//!
//! The per-class block uses a selection threshold calibrated on the
//! training scores to hit `c0` (SelectiveNet's inference protocol);
//! the overall summary reports both the calibrated and the fixed
//! τ = 0.5 protocols.

use selective::calibrate_threshold;
use serde::Serialize;
use wafermap::DefectClass;
use wm_bench::pipeline::{prepare, train_selective};
use wm_bench::{fmt_score, save_json, ExperimentArgs};

#[derive(Serialize)]
struct ClassRow {
    class: String,
    training: usize,
    testing: usize,
    train_aug: usize,
    per_c0: Vec<ClassAtC0>,
}

#[derive(Serialize)]
struct ClassAtC0 {
    c0: f32,
    precision: f64,
    recall: f64,
    f1: f64,
    covered: u64,
}

#[derive(Serialize)]
struct Overall {
    c0: f32,
    selective_accuracy: f64,
    coverage: f64,
    covered: u64,
    fixed_tau_accuracy: f64,
    fixed_tau_coverage: f64,
}

fn main() {
    let args = ExperimentArgs::parse();
    eprintln!(
        "table2: scale {} grid {} epochs {} (paper: full WM-811K, 100 epochs)",
        args.scale, args.grid, args.epochs
    );
    let data = prepare(&args);
    let raw_counts = data.train_raw.class_counts();
    let aug_counts = data.train.class_counts();
    let test_counts = data.test.class_counts();

    let coverages = [0.2f32, 0.5, 0.75];
    let mut calibrated_metrics = Vec::new();
    let mut fixed_metrics = Vec::new();
    for &c0 in &coverages {
        eprintln!("training selective model at c0 = {c0} ...");
        let (model, report) = train_selective(&args, &data.train, c0);
        eprintln!(
            "  final epoch: loss {:.4}, train coverage {:.3}, train acc {:.3}",
            report.last().loss,
            report.last().coverage,
            report.last().accuracy
        );
        let scores = model.selection_scores(&data.train);
        let tau = calibrate_threshold(&scores, f64::from(c0));
        calibrated_metrics.push(model.evaluate(&data.test, tau));
        fixed_metrics.push(model.evaluate(&data.test, 0.5));
    }

    // Header.
    println!("\nTable II — dataset and selective learning results (reproduction)");
    println!("(per-class block: threshold calibrated to c0 on training scores)\n");
    print!("{:>10} {:>9} {:>8} {:>9}", "class", "Training", "Testing", "Train_aug");
    for &c0 in &coverages {
        print!(" | c0={c0:<4} Pre   Rec    f1    Cov");
    }
    println!();

    let mut rows = Vec::new();
    for class in DefectClass::ALL {
        let idx = class.index();
        print!(
            "{:>10} {:>9} {:>8} {:>9}",
            class.name(),
            raw_counts[idx],
            test_counts[idx],
            aug_counts[idx]
        );
        let mut per_c0 = Vec::new();
        for (m, &c0) in calibrated_metrics.iter().zip(&coverages) {
            let covered = m.class_selected(idx);
            let predicted = m.selected_matrix().predicted(idx) > 0;
            let has_cov = covered > 0;
            print!(
                " |      {:>5} {:>5} {:>5} {:>6}",
                fmt_score(m.selective_precision(idx), predicted),
                fmt_score(m.selective_recall(idx), has_cov),
                fmt_score(m.selective_f1(idx), predicted || has_cov),
                covered
            );
            per_c0.push(ClassAtC0 {
                c0,
                precision: m.selective_precision(idx),
                recall: m.selective_recall(idx),
                f1: m.selective_f1(idx),
                covered,
            });
        }
        println!();
        rows.push(ClassRow {
            class: class.name().to_owned(),
            training: raw_counts[idx],
            testing: test_counts[idx],
            train_aug: aug_counts[idx],
            per_c0,
        });
    }

    println!();
    let mut overall = Vec::new();
    for ((cal, fixed), &c0) in calibrated_metrics.iter().zip(&fixed_metrics).zip(&coverages) {
        println!(
            "c0={c0:<5} calibrated: acc {:.1}% @ cov {} ({:.1}%)   fixed τ=0.5: acc {:.1}% @ cov {:.1}%",
            cal.selective_accuracy() * 100.0,
            cal.selected_count(),
            cal.coverage() * 100.0,
            fixed.selective_accuracy() * 100.0,
            fixed.coverage() * 100.0
        );
        overall.push(Overall {
            c0,
            selective_accuracy: cal.selective_accuracy(),
            coverage: cal.coverage(),
            covered: cal.selected_count(),
            fixed_tau_accuracy: fixed.selective_accuracy(),
            fixed_tau_coverage: fixed.coverage(),
        });
    }
    println!(
        "\npaper reference: c0=0.2 -> 99.1% acc @ 27.2% cov; c0=0.5 -> 99.0% @ 57.9%; \
         c0=0.75 -> 96.6% @ 89.1%"
    );

    #[derive(Serialize)]
    struct Table2 {
        rows: Vec<ClassRow>,
        overall: Vec<Overall>,
    }
    save_json(&args.out_dir, "table2", &Table2 { rows, overall });
}
