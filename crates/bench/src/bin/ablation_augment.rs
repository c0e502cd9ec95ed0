//! Ablation: does the Algorithm 1 auto-encoder augmentation actually
//! help the minority defect classes?
//!
//! Trains the same full-coverage CNN twice — once on the raw
//! imbalanced training set and once on the Algorithm-1-balanced one —
//! and compares per-class recall, macro-F1, and defect-class
//! detection rate. DESIGN.md calls this design choice out; the paper
//! motivates it in Section III-B but does not report the ablation.

use serde::Serialize;
use wafermap::DefectClass;
use wm_bench::pipeline::{prepare, train_selective};
use wm_bench::{save_json, ExperimentArgs};

#[derive(Serialize)]
struct AblationRow {
    class: String,
    recall_raw: f64,
    recall_augmented: f64,
}

fn main() {
    let args = ExperimentArgs::parse();
    eprintln!("ablation_augment: scale {} grid {} epochs {}", args.scale, args.grid, args.epochs);
    let data = prepare(&args);

    eprintln!("training WITHOUT augmentation ({} wafers) ...", data.train_raw.len());
    let (without, _) = train_selective(&args, &data.train_raw, 1.0);
    let cm_without = without.evaluate(&data.test, 0.0);

    eprintln!("training WITH augmentation ({} wafers) ...", data.train.len());
    let (with, _) = train_selective(&args, &data.train, 1.0);
    let cm_with = with.evaluate(&data.test, 0.0);

    let is_defect = |c: usize| DefectClass::from_index(c).is_some_and(DefectClass::is_defect);
    println!("\nAblation — auto-encoder augmentation (full-coverage CNN)\n");
    println!("{:>10} {:>12} {:>12}", "class", "recall raw", "recall aug");
    let mut rows = Vec::new();
    for class in DefectClass::ALL {
        let idx = class.index();
        let raw = cm_without.selected_matrix().recall(idx);
        let aug = cm_with.selected_matrix().recall(idx);
        println!("{:>10} {:>12.2} {:>12.2}", class.name(), raw, aug);
        rows.push(AblationRow {
            class: class.name().to_owned(),
            recall_raw: raw,
            recall_augmented: aug,
        });
    }
    println!(
        "\noverall accuracy : raw {:.1}%  aug {:.1}%",
        cm_without.selective_accuracy() * 100.0,
        cm_with.selective_accuracy() * 100.0
    );
    println!(
        "defect detection : raw {:.1}%  aug {:.1}%",
        cm_without.selected_matrix().accuracy_over(is_defect) * 100.0,
        cm_with.selected_matrix().accuracy_over(is_defect) * 100.0
    );
    println!(
        "macro-F1         : raw {:.3}  aug {:.3}",
        cm_without.selected_matrix().macro_f1(),
        cm_with.selected_matrix().macro_f1()
    );
    println!(
        "\nexpected shape: augmentation lifts minority-class recall (Donut, Near-Full,\n\
         Random, Scratch) and the defect detection rate; the majority None class is\n\
         essentially unchanged."
    );
    save_json(&args.out_dir, "ablation_augment", &rows);
}
