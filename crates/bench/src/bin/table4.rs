//! Table IV reproduction: new-defect-class detection. The Near-Full
//! class is excluded from training (the model has only the other
//! eight labels available) and every Near-Full sample appears at test
//! time. A good selective model abstains on (nearly) all of them —
//! its original recall is necessarily 0, and its coverage on the
//! unseen class should collapse toward 0.

use eval::{SelectiveMetrics, SelectiveOutcome};
use nn::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use selective::{SelectiveConfig, SelectiveLoss, SelectiveModel};
use serde::Serialize;
use wafermap::{Dataset, DefectClass};
use wm_bench::pipeline::prepare;
use wm_bench::{fmt_score, save_json, ExperimentArgs};

#[derive(Serialize)]
struct Table4Row {
    class: String,
    original_recall: f64,
    selective_recall: Option<f64>,
    covered: u64,
    coverage_pct: f64,
}

/// Classes the model is trained on (all but Near-Full), in a fixed
/// order defining the 8-label output space.
fn kept_classes() -> Vec<DefectClass> {
    DefectClass::ALL.into_iter().filter(|&c| c != DefectClass::NearFull).collect()
}

/// Train an 8-class selective model with remapped labels (the Trainer
/// in the core crate assumes the full 9-class label space, so this
/// harness drives the model primitives directly).
fn train_eight_class(args: &ExperimentArgs, train: &Dataset, c0: f32) -> SelectiveModel {
    let kept = kept_classes();
    let label_of = |c: DefectClass| kept.iter().position(|&k| k == c).expect("kept class");
    let config = SelectiveConfig::for_grid(args.grid).with_classes(kept.len());
    let mut model = SelectiveModel::new(&config, args.seed ^ 0x5EED);
    let loss = SelectiveLoss::new(c0);
    let mut adam = nn::optim::Adam::new(args.learning_rate);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7124);
    let samples = train.samples();
    let pixels = args.grid * args.grid;
    let mut order: Vec<usize> = (0..samples.len()).collect();
    for epoch in 0..args.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut seen = 0usize;
        for batch in order.chunks(args.batch_size) {
            let mut data = Vec::with_capacity(batch.len() * pixels);
            let mut labels = Vec::with_capacity(batch.len());
            let mut weights = Vec::with_capacity(batch.len());
            for &i in batch {
                data.extend(samples[i].map.to_image());
                labels.push(label_of(samples[i].label));
                weights.push(samples[i].weight);
            }
            let images = Tensor::from_vec(data, &[batch.len(), 1, args.grid, args.grid]);
            let (logits, g) = model.forward(&images);
            let (value, grad_logits, grad_g) = loss.compute(&logits, &g, &labels, &weights);
            model.zero_grad();
            model.backward(&grad_logits, &grad_g);
            model.step(&mut adam);
            loss_sum += f64::from(value.total) * batch.len() as f64;
            seen += batch.len();
        }
        eprintln!("  epoch {epoch}: loss {:.4}", loss_sum / seen as f64);
    }
    model
}

fn main() {
    let args = ExperimentArgs::parse();
    eprintln!(
        "table4: scale {} grid {} epochs {} (Near-Full excluded from training)",
        args.scale, args.grid, args.epochs
    );
    let data = prepare(&args);
    let train = data.train.filtered(|c| c != DefectClass::NearFull);
    // All Near-Full samples (train + test splits) go to testing, as in
    // the paper ("all its samples were used during testing").
    let mut test = data.test.clone();
    for s in data.train_raw.of_class(DefectClass::NearFull) {
        test.push(s.clone());
    }

    let model = train_eight_class(&args, &train, 0.5);
    let kept = kept_classes();

    // Evaluate manually: per-class original recall (ignoring the
    // reject option) and selective recall + coverage.
    let mut metrics = SelectiveMetrics::new(DefectClass::COUNT);
    let mut original_correct = [0u64; 9];
    let mut totals = [0u64; 9];
    let pixels = args.grid * args.grid;
    for chunk in test.samples().chunks(64) {
        let mut data = Vec::with_capacity(chunk.len() * pixels);
        for s in chunk {
            data.extend(s.map.to_image());
        }
        let images = Tensor::from_vec(data, &[chunk.len(), 1, args.grid, args.grid]);
        let preds = model.infer_predict(&images, 0.5);
        for (s, p) in chunk.iter().zip(preds) {
            let true_idx = s.label.index();
            let predicted_class = kept[p.label];
            totals[true_idx] += 1;
            if predicted_class == s.label {
                original_correct[true_idx] += 1;
            }
            let outcome = if p.selected {
                SelectiveOutcome::Predicted(predicted_class.index())
            } else {
                SelectiveOutcome::Abstained
            };
            metrics.record(true_idx, outcome);
        }
    }

    println!("\nTable IV — Near-Full excluded from training (c0 = 0.5)\n");
    println!(
        "{:>10} {:>16} {:>17} {:>16}",
        "class", "Original Recall", "Selective Recall", "Coverage"
    );
    let mut rows = Vec::new();
    for class in DefectClass::ALL {
        let idx = class.index();
        if totals[idx] == 0 {
            continue;
        }
        let original = original_correct[idx] as f64 / totals[idx] as f64;
        let covered = metrics.class_selected(idx);
        let sel_recall = if covered > 0 { Some(metrics.selective_recall(idx)) } else { None };
        println!(
            "{:>10} {:>16} {:>17} {:>9} ({:.1}%)",
            class.name(),
            fmt_score(original, true),
            fmt_score(sel_recall.unwrap_or(0.0), sel_recall.is_some()),
            covered,
            metrics.class_coverage(idx) * 100.0
        );
        rows.push(Table4Row {
            class: class.name().to_owned(),
            original_recall: original,
            selective_recall: sel_recall,
            covered,
            coverage_pct: metrics.class_coverage(idx) * 100.0,
        });
    }
    let nf = DefectClass::NearFull.index();
    println!(
        "\nNear-Full (unseen class): original recall must be 0 (label unavailable); \
         coverage = {} of {} samples ({:.1}%)",
        metrics.class_selected(nf),
        totals[nf],
        metrics.class_coverage(nf) * 100.0
    );
    println!("paper reference: Near-Full coverage 0 (0%), original recall 0.00");
    save_json(&args.out_dir, "table4", &rows);
}
