use nn::layers::{Conv2d, ConvBlock, Flatten, Linear, Relu, Sigmoid};
use nn::optim::Adam;
use nn::serialize::{RestoreError, StateDict};
use nn::{Layer, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{SelectiveConfig, SelectivePrediction};
use eval::{SelectiveMetrics, SelectiveOutcome};
use wafermap::Dataset;

std::thread_local! {
    /// Per-worker staging tensor for the inference path: grown once
    /// per thread to the largest block it has staged, then refilled in
    /// place for every block (the workspace memory model — see
    /// `nn::workspace`).
    static SAMPLE_STAGE: std::cell::RefCell<Tensor> = std::cell::RefCell::new(Tensor::default());
}

/// Wafers per inference block: each worker runs one batched forward
/// over a block this size (ragged tail allowed). 4 amortizes GEMM
/// packing and per-call overhead while keeping a block's activation
/// working set small enough (~100 KB at grid 32) that concurrent
/// blocks don't thrash a shared cache — larger blocks measured slower
/// on narrow hosts for exactly that reason. Block boundaries never
/// change results — only where the batch dimension is cut.
const INFER_BLOCK: usize = 4;

/// The paper's two-head selective CNN (Fig. 2).
///
/// A shared trunk (Table I) produces a feature vector; the prediction
/// head `f` maps it to class logits and the selection head `g` — one
/// sigmoid neuron — to a selection score in `(0, 1)`. At inference the
/// model predicts `argmax f(x)` when `g(x) ≥ τ` and abstains
/// otherwise.
///
/// See the crate-level docs for a full training example.
#[derive(Debug)]
pub struct SelectiveModel {
    config: SelectiveConfig,
    trunk: Sequential,
    head_f: Linear,
    head_g: Sequential,
    head_aux: Option<Linear>,
}

impl SelectiveModel {
    /// Build a freshly initialized model from a config and RNG seed.
    #[must_use]
    pub fn new(config: &SelectiveConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let [c1, c2, c3] = config.conv_channels;
        let [k1, k2, k3] = config.kernels;
        let trunk = Sequential::new()
            .with(ConvBlock::new(Conv2d::same(1, c1, k1, &mut rng)))
            .with(ConvBlock::new(Conv2d::same(c1, c2, k2, &mut rng)))
            .with(ConvBlock::new(Conv2d::same(c2, c3, k3, &mut rng)))
            .with(Flatten::new())
            .with(Linear::new(config.flat_features(), config.fc, &mut rng))
            .with(Relu::new());
        let head_f = Linear::new(config.fc, config.n_classes, &mut rng);
        let head_g =
            Sequential::new().with(Linear::new(config.fc, 1, &mut rng)).with(Sigmoid::new());
        let head_aux = config.aux_head.then(|| Linear::new(config.fc, config.n_classes, &mut rng));
        SelectiveModel { config: *config, trunk, head_f, head_g, head_aux }
    }

    /// The architecture configuration.
    #[must_use]
    pub fn config(&self) -> &SelectiveConfig {
        &self.config
    }

    /// Total trainable parameter count (trunk + all heads).
    #[must_use]
    pub fn param_count(&mut self) -> usize {
        self.trunk.param_count()
            + self.head_f.param_count()
            + self.head_g.param_count()
            + self.head_aux.as_mut().map_or(0, Layer::param_count)
    }

    /// Whether the model carries the SelectiveNet-style auxiliary
    /// head.
    #[must_use]
    pub fn has_aux_head(&self) -> bool {
        self.head_aux.is_some()
    }

    /// Forward pass for a `[N, 1, grid, grid]` batch.
    ///
    /// Returns `(logits [N, n_classes], selection scores [N])`.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    pub fn forward(&mut self, images: &Tensor) -> (Tensor, Vec<f32>) {
        let (logits, g, _) = self.forward_full(images);
        (logits, g)
    }

    /// Forward pass returning the auxiliary head's logits as well
    /// (`None` unless the model was configured with
    /// [`SelectiveConfig::with_aux_head`]).
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    pub fn forward_full(&mut self, images: &Tensor) -> (Tensor, Vec<f32>, Option<Tensor>) {
        let shape = images.shape();
        assert_eq!(
            shape,
            &[shape[0], 1, self.config.grid, self.config.grid],
            "expected [N, 1, {g}, {g}] input",
            g = self.config.grid
        );
        let features = self.trunk.forward(images);
        let logits = self.head_f.forward(&features);
        let g = self.head_g.forward(&features);
        let aux = self.head_aux.as_mut().map(|h| h.forward(&features));
        (logits, g.into_data(), aux)
    }

    /// Backward pass given gradients for both heads.
    ///
    /// `grad_g` must have one entry per sample (gradient w.r.t. the
    /// post-sigmoid selection score).
    ///
    /// # Panics
    ///
    /// Panics if called before [`SelectiveModel::forward`] or with
    /// mismatched shapes.
    pub fn backward(&mut self, grad_logits: &Tensor, grad_g: &[f32]) {
        self.backward_full(grad_logits, grad_g, None);
    }

    /// Backward pass including an optional gradient for the auxiliary
    /// head's logits.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`, with mismatched shapes, or
    /// with `grad_aux` on a model without an auxiliary head.
    pub fn backward_full(
        &mut self,
        grad_logits: &Tensor,
        grad_g: &[f32],
        grad_aux: Option<&Tensor>,
    ) {
        let n = grad_logits.shape()[0];
        assert_eq!(grad_g.len(), n, "grad_g length mismatch");
        let grad_feat_f = self.head_f.backward(grad_logits);
        let grad_g_tensor = Tensor::from_vec(grad_g.to_vec(), &[n, 1]);
        let grad_feat_g = self.head_g.backward(&grad_g_tensor);
        let mut grad_features = grad_feat_f.add(&grad_feat_g);
        if let Some(grad_aux) = grad_aux {
            let head =
                self.head_aux.as_mut().expect("grad_aux supplied but model has no auxiliary head");
            grad_features = grad_features.add(&head.backward(grad_aux));
        }
        // Nothing reads the gradient of the input images.
        self.trunk.backward_params(&grad_features);
    }

    /// Zero all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.trunk.zero_grad();
        self.head_f.zero_grad();
        self.head_g.zero_grad();
        if let Some(aux) = &mut self.head_aux {
            aux.zero_grad();
        }
    }

    /// Apply one optimizer step over all parameters.
    pub fn step(&mut self, adam: &mut Adam) {
        match &mut self.head_aux {
            Some(aux) => {
                adam.step_multi(&mut [&mut self.trunk, &mut self.head_f, &mut self.head_g, aux])
            }
            None => {
                adam.step_multi(&mut [&mut self.trunk, &mut self.head_f, &mut self.head_g]);
            }
        }
    }

    /// Classify a batch of wafer-map images with the reject option —
    /// the one inference path every evaluation and the serving engine
    /// run through.
    ///
    /// `threshold` is the selection cut-off τ: the model predicts when
    /// `g(x) ≥ τ` (τ = 0.5 reproduces the paper; see
    /// [`crate::calibrate_threshold`] for coverage-targeted τ).
    ///
    /// Bit-identical to the training forward ([`SelectiveModel::forward`]
    /// followed by a softmax) but runs through `&self` on the no-grad
    /// [`Layer::infer`] path: no activation caches are written and
    /// samples are processed **block-major** — the batch splits into
    /// fixed 4-wafer blocks (`INFER_BLOCK`), each block runs the whole
    /// network as one batched forward on its worker. Blocked forwards
    /// amortize GEMM packing and per-call overhead (one `m = 4` fc GEMM
    /// instead of four `m = 1` ones), so micro-batching pays even on a
    /// single core, while the per-block fan-out still scales across the
    /// pool. Results are independent of block boundaries and pool size: the
    /// kernels accumulate every output element in a fixed contraction
    /// order regardless of the batch dimension.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    #[must_use]
    pub fn infer_predict(&self, images: &Tensor, threshold: f32) -> Vec<SelectivePrediction> {
        let shape = images.shape();
        assert_eq!(
            shape,
            &[shape[0], 1, self.config.grid, self.config.grid],
            "expected [N, 1, {g}, {g}] input",
            g = self.config.grid
        );
        let pixels = self.config.grid * self.config.grid;
        let data = images.data();
        self.infer_blocks(shape[0], threshold, |i, image| {
            image.copy_from_slice(&data[i * pixels..(i + 1) * pixels]);
        })
        .0
    }

    /// The block-major loop behind every inference entry point, for
    /// callers that hold their samples in some other form than one
    /// batch tensor: `stage(i, image)` writes sample `i` of `0..n` (a
    /// `grid × grid` image) straight into its block's per-worker
    /// staging tensor, so no caller stages more than a block per
    /// worker. Predictions are those of
    /// [`SelectiveModel::infer_predict`].
    ///
    /// The second vector holds per-wafer **compute** seconds: entry `i`
    /// is the amortized model cost of sample `i` — its compute block's
    /// wall clock divided by the block size — excluding any wait for
    /// pool scheduling or for the rest of the batch. The serving layer
    /// reports these alongside full queue+compute completion latencies.
    pub fn infer_blocks(
        &self,
        n: usize,
        threshold: f32,
        stage: impl Fn(usize, &mut [f32]) + Sync,
    ) -> (Vec<SelectivePrediction>, Vec<f64>) {
        let grid = self.config.grid;
        let c = self.config.n_classes;
        let blocks = nn::pool::parallel_map(n.div_ceil(INFER_BLOCK), |b| {
            let lo = b * INFER_BLOCK;
            let hi = ((b + 1) * INFER_BLOCK).min(n);
            let start = std::time::Instant::now();
            let preds = SAMPLE_STAGE.with(|cell| {
                let mut block = cell.borrow_mut();
                block.resize(&[hi - lo, 1, grid, grid]);
                for (i, image) in (lo..hi).zip(block.data_mut().chunks_exact_mut(grid * grid)) {
                    stage(i, image);
                }
                let features = self.trunk.infer(&block);
                let logits = self.head_f.infer(&features);
                let scores = self.head_g.infer(&features);
                let probs = nn::loss::softmax(&logits);
                (0..hi - lo)
                    .map(|j| {
                        let row = &probs.data()[j * c..(j + 1) * c];
                        let score = scores.data()[j];
                        SelectivePrediction {
                            label: nn::loss::argmax(row),
                            confidence: row.iter().fold(0.0f32, |m, &v| m.max(v)),
                            selection_score: score,
                            selected: score >= threshold,
                        }
                    })
                    .collect::<Vec<_>>()
            });
            let per_wafer_secs = start.elapsed().as_secs_f64() / (hi - lo) as f64;
            (preds, per_wafer_secs)
        });
        let mut preds = Vec::with_capacity(n);
        let mut secs = Vec::with_capacity(n);
        for (block_preds, per_wafer) in blocks {
            secs.resize(secs.len() + block_preds.len(), per_wafer);
            preds.extend(block_preds);
        }
        (preds, secs)
    }

    /// [`SelectiveModel::infer_predict`] over every sample of a
    /// dataset, in dataset order; each sample is staged straight into
    /// its block.
    ///
    /// # Panics
    ///
    /// Panics if the dataset grid does not match the model's.
    pub(crate) fn infer_dataset(
        &self,
        dataset: &Dataset,
        threshold: f32,
    ) -> Vec<SelectivePrediction> {
        assert_eq!(dataset.grid(), self.config.grid, "dataset grid mismatch");
        let samples = dataset.samples();
        self.infer_blocks(samples.len(), threshold, |i, image| {
            samples[i].map.write_image_into(image);
        })
        .0
    }

    /// Evaluate on a labeled dataset, producing selective metrics
    /// (coverage, selective accuracy, per-class coverage — the
    /// quantities of Table II).
    ///
    /// # Panics
    ///
    /// Panics if the dataset grid does not match the model's.
    #[must_use]
    pub fn evaluate(&self, dataset: &Dataset, threshold: f32) -> SelectiveMetrics {
        let mut metrics = SelectiveMetrics::new(self.config.n_classes);
        for (s, p) in dataset.samples().iter().zip(self.infer_dataset(dataset, threshold)) {
            let outcome = if p.selected {
                SelectiveOutcome::Predicted(p.label)
            } else {
                SelectiveOutcome::Abstained
            };
            metrics.record(s.label.index(), outcome);
        }
        metrics
    }

    /// Selection scores `g(x)` for every sample of a dataset (used for
    /// threshold calibration).
    ///
    /// # Panics
    ///
    /// Panics if the dataset grid does not match the model's.
    #[must_use]
    pub fn selection_scores(&self, dataset: &Dataset) -> Vec<f32> {
        self.infer_dataset(dataset, 0.0).into_iter().map(|p| p.selection_score).collect()
    }

    /// Snapshot all parameter values.
    #[must_use]
    pub fn state_dict(&mut self) -> StateDict {
        StateDict::capture(&mut ParamChain(self))
    }

    /// Restore parameters from a snapshot taken with
    /// [`SelectiveModel::state_dict`] on an identically configured
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] if the snapshot does not match this
    /// architecture.
    pub fn load_state_dict(&mut self, state: &StateDict) -> Result<(), RestoreError> {
        state.restore(&mut ParamChain(self))
    }
}

/// Adapter exposing the model's three (or four) parameter sub-trees
/// as one [`Layer`] in a stable order — the order
/// [`SelectiveModel::step`] visits them, so it also indexes the Adam
/// moments.
pub(crate) struct ParamChain<'a>(pub(crate) &'a mut SelectiveModel);

impl std::fmt::Debug for ParamChain<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ParamChain")
    }
}

impl Layer for ParamChain<'_> {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        input.clone()
    }
    fn backward(&mut self, grad: &Tensor) -> Tensor {
        grad.clone()
    }
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut nn::Param)) {
        self.0.trunk.visit_params(visitor);
        self.0.head_f.visit_params(visitor);
        self.0.head_g.visit_params(visitor);
        if let Some(aux) = &mut self.0.head_aux {
            aux.visit_params(visitor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SelectiveConfig {
        SelectiveConfig::for_grid(16).with_conv_channels([4, 4, 4]).with_fc(16)
    }

    /// The training-path reference: one batched `forward` over all of
    /// `images`, then softmax, argmax and the `g(x) ≥ τ` rule.
    fn forward_predictions(
        model: &mut SelectiveModel,
        images: &Tensor,
        threshold: f32,
    ) -> Vec<SelectivePrediction> {
        let (logits, g) = model.forward(images);
        let probs = nn::loss::softmax(&logits);
        let c = model.config().n_classes;
        g.iter()
            .enumerate()
            .map(|(i, &score)| {
                let row = &probs.data()[i * c..(i + 1) * c];
                SelectivePrediction {
                    label: nn::loss::argmax(row),
                    confidence: row.iter().fold(0.0f32, |m, &v| m.max(v)),
                    selection_score: score,
                    selected: score >= threshold,
                }
            })
            .collect()
    }

    /// 35 generated wafers over every class: a ragged last inference
    /// block (35 = 8·4 + 3).
    fn tiny_dataset() -> Dataset {
        use wafermap::gen::{generate, GenConfig, Sample};
        let cfg = GenConfig::new(16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut ds = Dataset::new(16);
        for i in 0..35 {
            let class = wafermap::DefectClass::ALL[i % 9];
            ds.push(Sample::original(generate(class, &cfg, &mut rng), class));
        }
        ds
    }

    #[test]
    fn infer_predict_matches_training_predict_bitwise() {
        let mut model = SelectiveModel::new(&tiny_config(), 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let images = Tensor::randn(&[7, 1, 16, 16], 1.0, &mut rng);
        let trained = forward_predictions(&mut model, &images, 0.5);
        let served = model.infer_predict(&images, 0.5);
        assert_eq!(trained.len(), served.len());
        for (i, (a, b)) in trained.iter().zip(&served).enumerate() {
            assert_eq!(a.label, b.label, "label diverged at sample {i}");
            assert_eq!(a.confidence, b.confidence, "confidence diverged at sample {i}");
            assert_eq!(
                a.selection_score, b.selection_score,
                "selection score diverged at sample {i}"
            );
            assert_eq!(a.selected, b.selected, "selection diverged at sample {i}");
        }

        // Dataset evaluation runs the same path: scores and metrics
        // equal what one training forward over the whole set gives.
        let dataset = tiny_dataset();
        let grid = model.config().grid;
        let data: Vec<f32> = dataset.samples().iter().flat_map(|s| s.map.to_image()).collect();
        let images = Tensor::from_vec(data, &[dataset.len(), 1, grid, grid]);
        let mut scores = forward_predictions(&mut model, &images, 0.0)
            .iter()
            .map(|p| p.selection_score)
            .collect::<Vec<_>>();
        assert_eq!(model.selection_scores(&dataset), scores);
        // Cut at the median score so the set splits into selected and
        // abstained samples.
        scores.sort_by(f32::total_cmp);
        let tau = scores[scores.len() / 2];
        let mut expected = SelectiveMetrics::new(model.config().n_classes);
        for (s, p) in dataset.samples().iter().zip(forward_predictions(&mut model, &images, tau)) {
            let outcome = if p.selected {
                SelectiveOutcome::Predicted(p.label)
            } else {
                SelectiveOutcome::Abstained
            };
            expected.record(s.label.index(), outcome);
        }
        let metrics = model.evaluate(&dataset, tau);
        assert!(metrics.selected_count() > 0 && metrics.selected_count() < metrics.total());
        assert_eq!(metrics, expected);
    }

    #[test]
    fn forward_shapes() {
        let mut model = SelectiveModel::new(&tiny_config(), 0);
        let x = Tensor::zeros(&[3, 1, 16, 16]);
        let (logits, g) = model.forward(&x);
        assert_eq!(logits.shape(), &[3, 9]);
        assert_eq!(g.len(), 3);
        assert!(g.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn paper_architecture_parameter_count() {
        // Table I on a 32x32 grid:
        // conv1: 64·(1·5·5)+64, conv2: 32·(64·3·3)+32, conv3: 32·(32·3·3)+32
        // fc: 256·(32·4·4)+256, f: 9·256+9, g: 1·256+1
        let mut model = SelectiveModel::new(&SelectiveConfig::for_grid(32), 0);
        let expect = (64 * 25 + 64)
            + (32 * 64 * 9 + 32)
            + (32 * 32 * 9 + 32)
            + (256 * 512 + 256)
            + (9 * 256 + 9)
            + (256 + 1);
        assert_eq!(model.param_count(), expect);
    }

    #[test]
    fn deterministic_initialization() {
        let cfg = tiny_config();
        let mut a = SelectiveModel::new(&cfg, 7);
        let mut b = SelectiveModel::new(&cfg, 7);
        let x = Tensor::full(&[1, 1, 16, 16], 0.5);
        let (la, ga) = a.forward(&x);
        let (lb, gb) = b.forward(&x);
        assert_eq!(la.data(), lb.data());
        assert_eq!(ga, gb);
    }

    #[test]
    fn predict_threshold_controls_selection() {
        let model = SelectiveModel::new(&tiny_config(), 1);
        let x = Tensor::full(&[2, 1, 16, 16], 0.5);
        let all = model.infer_predict(&x, 0.0);
        assert!(all.iter().all(|p| p.selected));
        let none = model.infer_predict(&x, 1.1);
        assert!(none.iter().all(|p| !p.selected));
    }

    #[test]
    fn state_dict_roundtrip_preserves_outputs() {
        let cfg = tiny_config();
        let mut a = SelectiveModel::new(&cfg, 2);
        let snap = a.state_dict();
        let mut b = SelectiveModel::new(&cfg, 99);
        b.load_state_dict(&snap).expect("same architecture");
        let x = Tensor::full(&[1, 1, 16, 16], 0.7);
        let (la, ga) = a.forward(&x);
        let (lb, gb) = b.forward(&x);
        assert_eq!(la.data(), lb.data());
        assert_eq!(ga, gb);
    }

    #[test]
    fn load_rejects_mismatched_architecture() {
        let mut a = SelectiveModel::new(&tiny_config(), 3);
        let snap = a.state_dict();
        let mut b = SelectiveModel::new(&tiny_config().with_fc(8), 3);
        assert!(b.load_state_dict(&snap).is_err());
    }

    #[test]
    fn aux_head_changes_param_count_and_forward_shape() {
        let base = tiny_config();
        let with_aux = base.with_aux_head();
        let mut plain = SelectiveModel::new(&base, 5);
        let mut aux = SelectiveModel::new(&with_aux, 5);
        assert!(!plain.has_aux_head());
        assert!(aux.has_aux_head());
        assert_eq!(aux.param_count(), plain.param_count() + 16 * 9 + 9);
        let x = Tensor::full(&[2, 1, 16, 16], 0.5);
        let (_, _, aux_logits) = aux.forward_full(&x);
        assert_eq!(aux_logits.expect("aux logits").shape(), &[2, 9]);
        let (_, _, none) = plain.forward_full(&x);
        assert!(none.is_none());
    }

    #[test]
    fn aux_state_dict_roundtrips() {
        let cfg = tiny_config().with_aux_head();
        let mut a = SelectiveModel::new(&cfg, 6);
        let snap = a.state_dict();
        let mut b = SelectiveModel::new(&cfg, 77);
        b.load_state_dict(&snap).expect("same architecture");
        let x = Tensor::full(&[1, 1, 16, 16], 0.3);
        let (la, _, aa) = a.forward_full(&x);
        let (lb, _, ab) = b.forward_full(&x);
        assert_eq!(la.data(), lb.data());
        assert_eq!(aa.expect("aux").data(), ab.expect("aux").data());
        // Snapshot from aux model cannot restore into a plain model.
        let mut plain = SelectiveModel::new(&tiny_config(), 6);
        assert!(plain.load_state_dict(&snap).is_err());
    }

    #[test]
    #[should_panic(expected = "expected [N, 1, 16, 16]")]
    fn forward_validates_input_shape() {
        let mut model = SelectiveModel::new(&tiny_config(), 4);
        let _ = model.forward(&Tensor::zeros(&[1, 1, 8, 8]));
    }
}
