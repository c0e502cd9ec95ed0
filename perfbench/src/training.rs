//! The `train_pipeline` workload: a batch job that balances a grid-32
//! training split with `Augmenter::balance` (Algorithm 1) and trains a
//! fresh seeded model with `Trainer::run` for a fixed number of epochs
//! at batch 32. The job repeats, with a new seed each time, until the
//! run's time is up.

use std::hint::black_box;
use std::time::Instant;

use augment::{AugmentConfig, Augmenter};
use nn::optim::Adam;
use nn::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use selective::{SelectiveConfig, SelectiveLoss, SelectiveModel, SelectiveScratch, Trainer};
use telemetry::Registry;
use wafermap::gen::SyntheticWm811k;
use wafermap::{Dataset, WaferMap};

use crate::prep::{train_config, C0, GRID};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{alloc, layers, stats, Args, Counters};

/// Table II mix at this scale is the training split.
const TRAIN_SCALE: f64 = 0.005;
/// Algorithm 1 raises each defect class to this many samples.
const AUGMENT_TARGET: usize = 24;
const AE_CHANNELS: [usize; 3] = [8, 8, 8];
const AE_EPOCHS: usize = 4;
const EPOCHS: usize = 3;
/// Times set-up (dataset generation plus model initialisation) is
/// repeated; `setup_s` is the median of the faster half.
const SETUP_REPEATS: usize = 25;
/// Jobs share one step-time window per group of this many: four jobs
/// hold 144 steps, enough for a p90 with ten steps beyond it. The run
/// ends on a whole group.
const GROUP_JOBS: usize = 4;
/// Jobs differ only in their seed (augmenter, initialisation and
/// shuffling: `seed ^ job << 32`). The first few are scored and their
/// selective accuracy averaged, which evens out how well one small
/// training run happens to go. Peak memory is taken over them too: it
/// holds their models, and a run's length does not change it.
const SCORED_JOBS: usize = 8;
/// Table II mix at this scale (both splits) is the held-out set the
/// trained model is scored on.
const EVAL_SCALE: f64 = 0.02;

fn augmenter(seed: u64, registry: &Registry) -> Augmenter {
    Augmenter::new(
        AugmentConfig::new(AUGMENT_TARGET).with_channels(AE_CHANNELS).with_ae_epochs(AE_EPOCHS),
        seed,
    )
    .with_telemetry(registry.clone())
}

/// One training job.
struct Job {
    job_s: f64,
    train_s: f64,
    samples: u64,
    steps: u64,
    final_loss: f32,
    allocs: u64,
    /// The trained model and the balanced set it was trained on, kept
    /// for the scored jobs only so the process does not grow with every
    /// job.
    trained: Option<(SelectiveModel, Dataset)>,
}

fn job(
    seed: u64,
    train: &Dataset,
    aug_registry: &Registry,
    train_registry: &Registry,
    tr: &mut Tracer,
) -> Job {
    let config = SelectiveConfig::for_grid(GRID);
    let mut model = SelectiveModel::new(&config, seed);
    let start = Instant::now();
    tr.begin("augment.balance");
    let balanced = augmenter(seed, aug_registry).balance(train);
    tr.end();
    let trainer = Trainer::new(train_config(EPOCHS, seed)).with_telemetry(train_registry.clone());
    let allocs = alloc::allocations();
    let t = Instant::now();
    tr.begin("selective.trainer.run");
    let report = trainer.run(&mut model, &balanced);
    tr.end();
    let train_s = t.elapsed().as_secs_f64();
    let allocs = alloc::allocations() - allocs;
    let job_s = start.elapsed().as_secs_f64();
    let steps = (EPOCHS * balanced.len().div_ceil(32)) as u64;
    Job {
        job_s,
        train_s,
        samples: (EPOCHS * balanced.len()) as u64,
        steps,
        final_loss: report.last().loss,
        allocs,
        trained: Some((model, balanced)),
    }
}

/// Selective accuracy of `model` on a held-out set, at τ calibrated on
/// that set to coverage c0; returns the accuracy and τ.
fn selective_accuracy(model: &SelectiveModel, test: &Dataset) -> (f64, f32) {
    let maps: Vec<&WaferMap> = test.samples().iter().map(|s| &s.map).collect();
    let mut images = Tensor::zeros(&[maps.len(), 1, GRID, GRID]);
    for (slot, map) in images.data_mut().chunks_exact_mut(GRID * GRID).zip(&maps) {
        map.write_image_into(slot);
    }
    let preds = model.infer_predict(&images, 0.0);
    let scores: Vec<f32> = preds.iter().map(|p| p.selection_score).collect();
    let tau = selective::calibrate_threshold(&scores, C0);
    let (mut selected, mut correct) = (0u64, 0u64);
    for (p, s) in preds.iter().zip(test.samples()) {
        if p.selection_score >= tau {
            selected += 1;
            correct += u64::from(p.label == s.label.index());
        }
    }
    (correct as f64 / selected.max(1) as f64, tau)
}

/// The trainer's step times recorded in `registry`.
fn step_times(registry: &Registry) -> Result<telemetry::WindowSummary, String> {
    registry
        .snapshot()
        .histograms
        .into_iter()
        .find(|h| h.name == "train_batch_seconds")
        .map(|h| h.summary)
        .ok_or_else(|| "the trainer recorded no step times".into())
}

/// The highest of p99, p90 and p50 of a windowed summary that has at
/// least ten samples beyond it, with its percentile.
fn summary_tail(s: &telemetry::WindowSummary) -> (f64, f64) {
    let n = s.window_len;
    let beyond = |p: f64| n - ((p / 100.0) * n as f64).ceil() as usize;
    if beyond(99.0) >= 10 {
        (99.0, s.p99)
    } else if beyond(90.0) >= 10 {
        (90.0, s.p90)
    } else {
        (50.0, s.p50)
    }
}

/// The Trainer's loop replayed step by step through the public model
/// and loss API, with a span around each phase. Returns the last
/// epoch's mean objective, computed exactly as `Trainer::run` does.
fn replay(seed: u64, dataset: &Dataset, tr: &mut Tracer) -> f32 {
    let config = train_config(EPOCHS, seed);
    let mut model = SelectiveModel::new(&SelectiveConfig::for_grid(GRID), seed);
    let mut adam = Adam::new(config.learning_rate);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    let loss = SelectiveLoss::new(config.target_coverage)
        .with_lambda(config.lambda)
        .with_alpha(config.alpha);
    let samples = dataset.samples();
    let pixels = GRID * GRID;
    let mut images = Tensor::default();
    let mut labels: Vec<usize> = Vec::new();
    let mut weights: Vec<f32> = Vec::new();
    let mut scratch = SelectiveScratch::default();
    let mut last = f32::NAN;
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut seen = 0usize;
        for batch in order.chunks(config.batch_size) {
            tr.new_trace();
            tr.begin("selective.trainer.step");
            tr.begin("selective.trainer.stage");
            images.resize(&[batch.len(), 1, GRID, GRID]);
            labels.clear();
            weights.clear();
            for (slot, &i) in images.data_mut().chunks_exact_mut(pixels).zip(batch) {
                samples[i].map.write_image_into(slot);
                labels.push(samples[i].label.index());
                weights.push(samples[i].weight);
            }
            tr.end();
            tr.begin("selective.trainer.forward");
            let (logits, g, _) = model.forward_full(&images);
            tr.end();
            tr.begin("selective.trainer.loss");
            let (value, grad_logits, grad_g) =
                loss.compute_scratch(&logits, &g, &labels, &weights, &mut scratch);
            tr.end();
            tr.begin("selective.trainer.backward");
            model.zero_grad();
            model.backward(grad_logits, grad_g);
            tr.end();
            tr.begin("selective.trainer.optim");
            model.step(&mut adam);
            tr.end();
            tr.end();
            loss_sum += f64::from(value.total) * batch.len() as f64;
            seen += batch.len();
        }
        last = (loss_sum / seen as f64) as f32;
    }
    last
}

pub fn run(args: &Args, report: &mut Report) -> Result<Tracer, String> {
    let seed = args.seed;
    let mut off = Tracer::new(false);

    let mut setup_s = Vec::new();
    let mut gen_wps = Vec::new();
    let mut train = Dataset::new(GRID);
    let mut held_out = Dataset::new(GRID);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let (split, test) = SyntheticWm811k::new(GRID).scale(TRAIN_SCALE).seed(seed).build();
        // The Table II test split at this scale is a few dozen wafers; the
        // model is scored on a larger held-out draw of the same mix.
        let (a, b) = SyntheticWm811k::new(GRID).scale(EVAL_SCALE).seed(seed ^ 0x6576_616c).build();
        let generated = split.len() + test.len() + a.len() + b.len();
        gen_wps.push(generated as f64 / start.elapsed().as_secs_f64());
        black_box(SelectiveModel::new(&SelectiveConfig::for_grid(GRID), seed));
        setup_s.push(start.elapsed().as_secs_f64());
        train = split;
        held_out = a;
        held_out.extend_from(&b);
    }

    let aug_registry = Registry::new();
    let before = Counters::read();
    let start = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    // Wall time and step times of each group of jobs.
    let mut groups: Vec<(f64, telemetry::WindowSummary)> = Vec::new();
    let mut peak_rss_mb = 0.0;
    crate::reset_peak_rss();
    while jobs.len() < SCORED_JOBS || start.elapsed().as_secs_f64() < args.seconds {
        let train_registry = Registry::new();
        let mut group_s = 0.0;
        for _ in 0..GROUP_JOBS {
            let job_seed = seed ^ ((jobs.len() as u64) << 32);
            let mut j = job(job_seed, &train, &aug_registry, &train_registry, &mut off);
            group_s += j.job_s;
            if jobs.len() >= SCORED_JOBS {
                j.trained = None;
            }
            jobs.push(j);
            if jobs.len() == SCORED_JOBS {
                peak_rss_mb = crate::peak_rss_mb();
            }
        }
        groups.push((group_s, step_times(&train_registry)?));
    }
    let counters = Counters::read().since(&before);

    let first = &jobs[0];
    report.ops(jobs.iter().map(|j| j.steps).sum(), 0);
    for (i, j) in jobs.iter().enumerate() {
        report.check(j.final_loss.is_finite(), || {
            format!("job {i}: final loss {} is not finite", j.final_loss)
        });
    }
    // Jobs do the same work and groups the same steps, so each metric is
    // the median over the faster half of them (see `stats::faster_half`).
    let job_s: Vec<f64> = jobs.iter().map(|j| j.job_s).collect();
    let throughput: Vec<f64> = jobs.iter().map(|j| j.samples as f64 / j.job_s).collect();
    report.metric("throughput_wps", stats::median_of_faster_half(&job_s, &throughput));
    let group_s: Vec<f64> = groups.iter().map(|g| g.0).collect();
    let tails: Vec<(f64, f64)> = groups.iter().map(|g| summary_tail(&g.1)).collect();
    let tail_pct = tails.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
    let p50_ms: Vec<f64> = groups.iter().map(|g| g.1.p50 * 1e3).collect();
    let tail_ms: Vec<f64> = tails.iter().map(|t| t.1 * 1e3).collect();
    let (p50, tail) = (
        stats::median_of_faster_half(&group_s, &p50_ms),
        stats::median_of_faster_half(&group_s, &tail_ms),
    );
    println!(
        "step latency, median over the faster half of {} groups of {GROUP_JOBS} jobs ({} steps \
         each): p50 {p50:.3} ms, p{tail_pct} {tail:.3} ms; {} samples per job, {:.3} s per job, \
         final loss {}",
        groups.len(),
        groups[0].1.window_len,
        first.samples,
        stats::median(&job_s),
        first.final_loss
    );
    report.metric("latency_p50_ms", p50);
    report.metric("latency_p99_ms", tail);
    let on_time = jobs.iter().filter(|j| j.job_s <= args.job_slo_s).count();
    report.metric("slo_ok_ratio", on_time as f64 / jobs.len() as f64);
    let scored: Vec<(f64, f32)> = jobs
        .iter()
        .filter_map(|j| j.trained.as_ref())
        .map(|(model, _)| selective_accuracy(model, &held_out))
        .collect();
    let tau = scored[0].1;
    report
        .metric("selective_accuracy", scored.iter().map(|s| s.0).sum::<f64>() / SCORED_JOBS as f64);
    report.metric("peak_rss_mb", peak_rss_mb);
    report.metric("setup_s", stats::faster_half_median(&setup_s));
    if !args.trace {
        return Ok(off);
    }

    // Traced run: the layers behind the job, from the same inputs.
    let train_s = stats::median(&jobs.iter().map(|j| j.train_s).collect::<Vec<_>>());
    let allocs: Vec<f64> = jobs.iter().map(|j| j.allocs as f64 / j.steps as f64).collect();
    report.metric("process.allocs_per_step", stats::median(&allocs));
    let final_loss = jobs[0].final_loss;
    let (model, balanced) = jobs[0].trained.as_mut().ok_or("the first job's model was not kept")?;
    let mut tr = Tracer::new(true);
    tr.new_trace();
    let replay_start = Instant::now();
    let replayed = replay(seed, balanced, &mut tr);
    let replay_s = replay_start.elapsed().as_secs_f64();
    report.check(replayed.to_bits() == final_loss.to_bits(), || {
        format!("replayed step loop ends at loss {replayed}, Trainer::run at {final_loss}")
    });
    report.metric("selective.trainer.final_loss", f64::from(final_loss));
    for phase in ["stage", "forward", "loss", "backward", "optim"] {
        let name = format!("selective.trainer.{phase}");
        report.metric(format!("{name}_ms"), stats::median(&tr.durations(&name)) * 1e3);
    }
    report.metric("trace.overhead_ratio", replay_s / train_s);
    counters.report_pool(report);
    report.metric("nn.workspace.grows", counters.grows as f64);
    report.metric("wafermap.gen_wafers_per_s", stats::median(&gen_wps));
    augment_metrics(&aug_registry, report);

    let maps: Vec<WaferMap> = balanced.samples().iter().map(|s| s.map.clone()).collect();
    let labelled: Vec<(&WaferMap, usize)> =
        balanced.samples().iter().map(|s| (&s.map, s.label.index())).collect();
    layers::probe(model, seed, &maps, &labelled, tau, &mut tr, report);
    Ok(tr)
}

/// `augment.*` from the augmenter's registry: per-class gauges hold the
/// last job's times.
fn augment_metrics(registry: &Registry, report: &mut Report) {
    let snap = registry.snapshot();
    let per_class = |name: &str| -> Vec<(String, f64)> {
        snap.gauges
            .iter()
            .filter(|g| g.name == name)
            .map(|g| (g.labels.first().map(|(_, v)| v.clone()).unwrap_or_default(), g.value))
            .collect()
    };
    let ae = per_class("augment_ae_train_seconds");
    let gen = per_class("augment_generate_seconds");
    report.metric("augment.ae_train_s", ae.iter().map(|(_, v)| v).sum::<f64>());
    report.metric("augment.generate_s", gen.iter().map(|(_, v)| v).sum::<f64>());
    let totals: Vec<f64> = ae
        .iter()
        .map(|(class, a)| a + gen.iter().find(|(c, _)| c == class).map_or(0.0, |(_, g)| *g))
        .collect();
    let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
    let slowest = totals.iter().copied().fold(0.0, f64::max);
    report.metric("augment.class_imbalance", if mean > 0.0 { slowest / mean } else { 0.0 });
}
