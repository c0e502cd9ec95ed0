//! Per-layer probes of the traced run.
//!
//! The engine and the trainer hide the model's layers, so the traced
//! run replays a sample of the workload's own inputs through public
//! paths: Table I layer replicas built with the `nn::layers`
//! constructors in the order `SelectiveModel::new` uses and loaded with
//! the model's parameters, the model-level calls they reconcile
//! against, and the seven Table I GEMM shapes.

use std::collections::HashMap;
use std::hint::black_box;

use nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu, Sigmoid};
use nn::{Layer, Param, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selective::{SelectiveConfig, SelectiveLoss, SelectiveModel};
use wafermap::WaferMap;

use crate::prep::{C0, GRID};
use crate::report::{Report, GEMM_LAYERS, GEMM_SHAPES, LAYERS};
use crate::stats::median;
use crate::trace::Tracer;

/// Repetitions per pass; each layer reports its median.
const INFER_REPS: usize = 40;
const TRAIN_REPS: usize = 10;

/// Span names are built once per (layer, pass) and kept for the run.
fn intern(name: String) -> &'static str {
    thread_local! {
        static NAMES: std::cell::RefCell<HashMap<String, &'static str>> =
            std::cell::RefCell::new(HashMap::new());
    }
    NAMES.with(|names| {
        *names.borrow_mut().entry(name.clone()).or_insert_with(|| Box::leak(name.into_boxed_str()))
    })
}

fn span(layer: &str, pass: &str) -> &'static str {
    intern(format!("nn.layer.{layer}.{pass}"))
}

/// The Table I network as separate layers. `trunk` includes `flatten`,
/// which no metric names: its time stays in the unattributed remainder.
#[derive(Debug)]
struct Replica {
    trunk: Vec<(&'static str, Box<dyn Layer>)>,
    head_f: Linear,
    head_g: Linear,
    sigmoid: Sigmoid,
}

/// Visits the replica's parameters in the model's order (trunk, `f`, `g`).
#[derive(Debug)]
struct Params<'a>(&'a mut Replica);

impl Layer for Params<'_> {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        input.clone()
    }
    fn backward(&mut self, grad: &Tensor) -> Tensor {
        grad.clone()
    }
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        for (_, layer) in &mut self.0.trunk {
            layer.visit_params(visitor);
        }
        self.0.head_f.visit_params(visitor);
        self.0.head_g.visit_params(visitor);
    }
}

impl Replica {
    /// Same constructors, order and seed as `SelectiveModel::new`, then
    /// the model's own parameters.
    fn of(model: &mut SelectiveModel, seed: u64) -> Result<Self, String> {
        let config: SelectiveConfig = *model.config();
        let mut rng = StdRng::seed_from_u64(seed);
        let [c1, c2, c3] = config.conv_channels;
        let [k1, k2, k3] = config.kernels;
        let trunk: Vec<(&'static str, Box<dyn Layer>)> = vec![
            ("conv1", Box::new(Conv2d::same(1, c1, k1, &mut rng))),
            ("relu1", Box::new(Relu::new())),
            ("pool1", Box::new(MaxPool2d::new(2))),
            ("conv2", Box::new(Conv2d::same(c1, c2, k2, &mut rng))),
            ("relu2", Box::new(Relu::new())),
            ("pool2", Box::new(MaxPool2d::new(2))),
            ("conv3", Box::new(Conv2d::same(c2, c3, k3, &mut rng))),
            ("relu3", Box::new(Relu::new())),
            ("pool3", Box::new(MaxPool2d::new(2))),
            ("flatten", Box::new(Flatten::new())),
            ("fc", Box::new(Linear::new(config.flat_features(), config.fc, &mut rng))),
            ("relu_fc", Box::new(Relu::new())),
        ];
        let head_f = Linear::new(config.fc, config.n_classes, &mut rng);
        let head_g = Linear::new(config.fc, 1, &mut rng);
        let mut replica = Replica { trunk, head_f, head_g, sigmoid: Sigmoid::new() };
        model.state_dict().restore(&mut Params(&mut replica)).map_err(|e| e.to_string())?;
        Ok(replica)
    }

    fn zero_grad(&mut self) {
        Params(self).zero_grad();
    }
}

/// FLOPs and compulsory bytes (f32 inputs, outputs and weights) of one
/// forward pass of a GEMM layer on `n` wafers, from the shapes alone.
fn forward_cost(config: &SelectiveConfig, layer: &str, n: usize) -> (f64, f64) {
    let [c1, c2, c3] = config.conv_channels;
    let [k1, k2, k3] = config.kernels;
    let g = config.grid;
    // (FLOPs, input elements, output elements, parameters) per wafer;
    // convolutions keep their input side ("same" padding).
    let conv = |side: usize, cin: usize, cout: usize, k: usize| {
        let out = side * side * cout;
        (2 * out * cin * k * k, side * side * cin, out, cout * cin * k * k + cout)
    };
    let (flops, inputs, outputs, params) = match layer {
        "conv1" => conv(g, 1, c1, k1),
        "conv2" => conv(g / 2, c1, c2, k2),
        "conv3" => conv(g / 4, c2, c3, k3),
        "fc" => {
            let (i, o) = (config.flat_features(), config.fc);
            (2 * i * o, i, o, i * o + o)
        }
        _ => (0, 0, 0, 0),
    };
    ((flops * n) as f64, (4 * ((inputs + outputs) * n + params)) as f64)
}

/// Stage `maps` as a `[N, 1, grid, grid]` batch.
fn stage(maps: &[&WaferMap]) -> Tensor {
    let pixels = GRID * GRID;
    let mut t = Tensor::zeros(&[maps.len(), 1, GRID, GRID]);
    for (slot, map) in t.data_mut().chunks_exact_mut(pixels).zip(maps) {
        map.write_image_into(slot);
    }
    t
}

type Times = HashMap<&'static str, Vec<f64>>;

fn timed<R>(tr: &mut Tracer, times: &mut Times, name: &'static str, f: impl FnOnce() -> R) -> R {
    tr.begin(name);
    let out = f();
    times.entry(name).or_default().push(tr.end());
    out
}

/// Report `nn.layer.*.<pass>_{us,gflops}` and the unattributed
/// remainder against the model-level median `model_s`. `flop_scale`
/// is 2 for backward (weight and input gradients), which also reads
/// and writes about twice the forward bytes.
fn report_pass(
    config: &SelectiveConfig,
    pass: &str,
    wafers: usize,
    flop_scale: f64,
    times: &Times,
    model_s: f64,
    report: &mut Report,
) {
    let mut attributed = 0.0;
    for layer in LAYERS {
        let s = median(times.get(span(layer, pass)).map_or(&[][..], Vec::as_slice));
        attributed += s;
        report.metric(format!("nn.layer.{layer}.{pass}_us"), s * 1e6);
        if GEMM_LAYERS.contains(layer) {
            let (flops, bytes) = forward_cost(config, layer, wafers);
            let (flops, bytes) = (flops * flop_scale, bytes * flop_scale);
            report.metric(format!("nn.layer.{layer}.{pass}_gflops"), flops / s / 1e9);
            println!(
                "layer {layer:<6} {pass:<8} {:>9.3} MFLOP {:>8.3} MB {:>9.1} us",
                flops / 1e6,
                bytes / 1e6,
                s * 1e6
            );
        }
    }
    let rest = model_s - attributed;
    report.metric(format!("nn.layer.unattributed.{pass}_us"), rest * 1e6);
    println!(
        "reconcile {pass}: model {:.1} us = layers {:.1} us + unattributed {:.1} us",
        model_s * 1e6,
        attributed * 1e6,
        rest * 1e6
    );
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Inference on a 4-wafer block: replica layers vs `infer_predict`.
fn infer_b4(
    model: &SelectiveModel,
    replica: &Replica,
    block: &Tensor,
    tau: f32,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let mut times = Times::new();
    for rep in 0..INFER_REPS {
        let mut h = block.clone();
        for (name, layer) in &replica.trunk {
            h = timed(tr, &mut times, span(name, "infer_b4"), || layer.infer(&h));
        }
        let logits = timed(tr, &mut times, span("head_f", "infer_b4"), || replica.head_f.infer(&h));
        let scores = timed(tr, &mut times, span("head_g", "infer_b4"), || {
            replica.sigmoid.infer(&replica.head_g.infer(&h))
        });
        let preds = timed(tr, &mut times, "selective.model.infer_predict.b4", || {
            model.infer_predict(block, tau)
        });
        if rep == 0 {
            let probs = nn::loss::softmax(&logits);
            let c = model.config().n_classes;
            let same = preds.iter().enumerate().all(|(j, p)| {
                let row = &probs.data()[j * c..(j + 1) * c];
                p.label == nn::loss::argmax(row)
                    && p.confidence.to_bits() == row.iter().fold(0.0f32, |m, &v| m.max(v)).to_bits()
                    && p.selection_score.to_bits() == scores.data()[j].to_bits()
            });
            report.check(same, || "layer replicas disagree with infer_predict".to_string());
        }
    }
    let model_s = median(&times["selective.model.infer_predict.b4"]);
    report_pass(model.config(), "infer_b4", block.shape()[0], 1.0, &times, model_s, report);
}

/// Training forward and backward on a 32-wafer batch: replica layers
/// vs `forward_full` and `backward` of the model.
fn train_b32(
    model: &mut SelectiveModel,
    replica: &mut Replica,
    batch: &Tensor,
    labels: &[usize],
    tr: &mut Tracer,
    report: &mut Report,
) {
    let n = batch.shape()[0];
    let weights = vec![1.0f32; n];
    let loss = SelectiveLoss::new(C0 as f32).with_lambda(0.5).with_alpha(0.5);
    let mut times = Times::new();
    for rep in 0..TRAIN_REPS {
        replica.zero_grad();
        let mut h = batch.clone();
        for (name, layer) in &mut replica.trunk {
            h = timed(tr, &mut times, span(name, "fwd_b32"), || layer.forward(&h));
        }
        let head_f = &mut replica.head_f;
        let logits = timed(tr, &mut times, span("head_f", "fwd_b32"), || head_f.forward(&h));
        let (head_g, sigmoid) = (&mut replica.head_g, &mut replica.sigmoid);
        let g = timed(tr, &mut times, span("head_g", "fwd_b32"), || {
            sigmoid.forward(&head_g.forward(&h))
        });
        let (_, grad_logits, grad_g) = loss.compute(&logits, g.data(), labels, &weights);
        let head_f = &mut replica.head_f;
        let gf = timed(tr, &mut times, span("head_f", "bwd_b32"), || head_f.backward(&grad_logits));
        let (head_g, sigmoid) = (&mut replica.head_g, &mut replica.sigmoid);
        let gg = timed(tr, &mut times, span("head_g", "bwd_b32"), || {
            head_g.backward(&sigmoid.backward(&Tensor::from_vec(grad_g.clone(), &[n, 1])))
        });
        let mut grad = gf.add(&gg);
        for (name, layer) in replica.trunk.iter_mut().rev() {
            grad = timed(tr, &mut times, span(name, "bwd_b32"), || layer.backward(&grad));
        }

        let (m_logits, m_g, _) =
            timed(tr, &mut times, "selective.model.forward_full.b32", || model.forward_full(batch));
        if rep == 0 {
            report.check(
                bits(m_logits.data()) == bits(logits.data()) && bits(&m_g) == bits(g.data()),
                || "layer replicas disagree with SelectiveModel::forward_full".to_string(),
            );
        }
        let (_, m_grad_logits, m_grad_g) = loss.compute(&m_logits, &m_g, labels, &weights);
        model.zero_grad();
        timed(tr, &mut times, "selective.model.backward.b32", || {
            model.backward(&m_grad_logits, &m_grad_g);
        });
    }
    let config = *model.config();
    let fwd = median(&times["selective.model.forward_full.b32"]);
    report_pass(&config, "fwd_b32", n, 1.0, &times, fwd, report);
    // Backward computes the weight and the input gradient: twice the
    // forward FLOPs.
    let bwd = median(&times["selective.model.backward.b32"]);
    report_pass(&config, "bwd_b32", n, 2.0, &times, bwd, report);
}

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// The seven Table I GEMM shapes through `nn::gemm`, median of five
/// samples each.
fn gemm(tr: &mut Tracer, report: &mut Report) {
    for &(name, kind, m, k, n) in GEMM_SHAPES {
        let a = rand_vec(m * k, 1);
        let b = rand_vec(k * n, 2);
        let mut c = vec![0.0f32; m * n];
        let flops = 2.0 * (m * k * n) as f64;
        let reps = (1e9 / flops).clamp(3.0, 5000.0) as usize;
        let span_name = intern(format!("nn.gemm.{name}"));
        let mut samples = Vec::new();
        for _ in 0..5 {
            tr.begin(span_name);
            for _ in 0..reps {
                c.fill(0.0);
                let (a, b) = (black_box(&a[..]), black_box(&b[..]));
                match kind {
                    "nn" => nn::gemm::sgemm(m, k, n, a, b, &mut c),
                    "nt" => nn::gemm::sgemm_nt(m, k, n, a, b, &mut c),
                    _ => nn::gemm::sgemm_tn(m, k, n, a, b, &mut c),
                }
            }
            samples.push(tr.end());
        }
        black_box(&c);
        report
            .metric(format!("nn.gemm.{name}_gflops"), flops * reps as f64 / median(&samples) / 1e9);
    }
}

/// Every model-level and layer-level probe on the workload's own
/// inputs. `seed` is the one `model` was initialised with; `maps`
/// supplies inference blocks; `labelled` a training batch with its
/// labels.
pub fn probe(
    model: &mut SelectiveModel,
    seed: u64,
    maps: &[WaferMap],
    labelled: &[(&WaferMap, usize)],
    tau: f32,
    tr: &mut Tracer,
    report: &mut Report,
) {
    tr.new_trace();
    let mut replica = match Replica::of(model, seed) {
        Ok(r) => r,
        Err(e) => {
            report
                .check(false, || format!("cannot load the model's parameters into replicas: {e}"));
            return;
        }
    };

    for (wafers, reps, span_name, metric) in [
        (1, 200, "selective.model.infer_predict.b1", "selective.model.infer_us_per_wafer.b1"),
        (64, 20, "selective.model.infer_predict.b64", "selective.model.infer_us_per_wafer.b64"),
    ] {
        let block = stage(&maps.iter().take(wafers).collect::<Vec<_>>());
        let mut samples = Vec::new();
        for _ in 0..reps {
            tr.begin(span_name);
            black_box(model.infer_predict(&block, tau));
            samples.push(tr.end());
        }
        report.metric(metric, median(&samples) / wafers as f64 * 1e6);
    }

    let block = stage(&maps.iter().take(4).collect::<Vec<_>>());
    infer_b4(model, &replica, &block, tau, tr, report);
    let batch_maps: Vec<&WaferMap> = labelled.iter().take(32).map(|(m, _)| *m).collect();
    let labels: Vec<usize> = labelled.iter().take(32).map(|&(_, l)| l).collect();
    train_b32(model, &mut replica, &stage(&batch_maps), &labels, tr, report);
    gemm(tr, report);

    let mut image = vec![0.0f32; GRID * GRID];
    let count = maps.len().min(2048);
    tr.begin("wafermap.write_image_into");
    for map in &maps[..count] {
        map.write_image_into(black_box(&mut image));
    }
    report.metric("wafermap.write_image_ns", tr.end() / count as f64 * 1e9);
}
