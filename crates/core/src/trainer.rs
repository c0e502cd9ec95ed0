use std::time::Instant;

use nn::loss::{accuracy, softmax_cross_entropy_scratch, CeScratch};
use nn::optim::Adam;
use nn::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use telemetry::Registry;

use crate::bundle::{BundleError, CheckpointBundle, TrainProgress};
use crate::model::ParamChain;
use crate::{SelectiveLoss, SelectiveModel, SelectiveScratch};
use wafermap::Dataset;

/// Training hyper-parameters.
///
/// The paper trains for 100 epochs with Adam and `λ = α = 0.5`;
/// `target_coverage = 1.0` switches to plain cross-entropy (exactly
/// what the paper does for its full-coverage model: "for the case when
/// `c0 = 1`, we train the model with cross-entropy loss function
/// only").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Target coverage `c0`; `1.0` trains with plain cross-entropy.
    pub target_coverage: f32,
    /// Coverage-penalty weight `λ` (eq. (8)).
    pub lambda: f32,
    /// Selective-vs-plain mixing weight `α` (eq. (9)).
    pub alpha: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            learning_rate: 1e-3,
            target_coverage: 1.0,
            lambda: 0.5,
            alpha: 0.5,
            seed: 0,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean training objective over the epoch.
    pub loss: f32,
    /// Mean empirical coverage `c(g)` over the epoch (1.0 when
    /// training with plain cross-entropy).
    pub coverage: f32,
    /// Training accuracy (argmax of `f`, ignoring selection).
    pub accuracy: f32,
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Statistics for each epoch, in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainReport {
    /// Final-epoch stats.
    ///
    /// # Panics
    ///
    /// Panics if the report is empty (zero epochs trained).
    #[must_use]
    pub fn last(&self) -> EpochStats {
        *self.epochs.last().expect("trained at least one epoch")
    }
}

/// Mini-batch trainer for [`SelectiveModel`].
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    telemetry: Option<Registry>,
}

/// Metric handles the trainer records into, resolved once per run.
///
/// Everything recorded is a value the training loop already computed
/// (loss terms, sample counts, wall-clock time) — recording changes no
/// RNG draw and no arithmetic, so trained weights are bit-identical
/// with telemetry on or off (`tests/telemetry_neutral.rs`).
struct TrainMetrics {
    epochs: telemetry::Counter,
    batches: telemetry::Counter,
    samples: telemetry::Counter,
    loss: telemetry::Gauge,
    selective_risk: telemetry::Gauge,
    coverage: telemetry::Gauge,
    penalty: telemetry::Gauge,
    plain_risk: telemetry::Gauge,
    accuracy: telemetry::Gauge,
    throughput: telemetry::Gauge,
    epoch_seconds: telemetry::Histogram,
    batch_seconds: telemetry::Histogram,
}

impl TrainMetrics {
    fn new(registry: &Registry) -> Self {
        TrainMetrics {
            epochs: registry.counter("train_epochs_total", "Epochs completed"),
            batches: registry.counter("train_batches_total", "Mini-batches stepped"),
            samples: registry.counter("train_samples_total", "Samples seen (with repeats)"),
            loss: registry.gauge("train_loss", "Mean training objective, last epoch"),
            selective_risk: registry
                .gauge("train_selective_risk", "Mean selective risk term, last epoch"),
            coverage: registry.gauge("train_coverage", "Mean empirical coverage, last epoch"),
            penalty: registry.gauge("train_penalty", "Mean coverage penalty term, last epoch"),
            plain_risk: registry
                .gauge("train_plain_risk", "Mean plain cross-entropy term, last epoch"),
            accuracy: registry.gauge("train_accuracy", "Training accuracy, last epoch"),
            throughput: registry
                .gauge("train_throughput_samples_per_sec", "Samples per second, last epoch"),
            epoch_seconds: registry.histogram(
                "train_epoch_seconds",
                "Wall-clock time per epoch",
                telemetry::DEFAULT_WINDOW,
            ),
            batch_seconds: registry.histogram(
                "train_batch_seconds",
                "Wall-clock time per mini-batch step",
                telemetry::DEFAULT_WINDOW,
            ),
        }
    }
}

impl Trainer {
    /// Trainer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if epochs or batch size is zero, or `target_coverage`
    /// is outside `(0, 1]`.
    #[must_use]
    pub fn new(config: TrainConfig) -> Self {
        assert!(config.epochs > 0, "epochs must be non-zero");
        assert!(config.batch_size > 0, "batch size must be non-zero");
        assert!(
            config.target_coverage > 0.0 && config.target_coverage <= 1.0,
            "target coverage must be in (0, 1]"
        );
        Trainer { config, telemetry: None }
    }

    /// Record per-epoch and per-batch metrics (timing, loss
    /// decomposition, coverage, throughput) into `registry` during
    /// every subsequent run. Instrumentation is read-only: trained
    /// weights are bit-identical with or without it.
    #[must_use]
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// The training configuration.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Train `model` on `dataset`, returning per-epoch statistics.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or its grid does not match the
    /// model's configuration.
    pub fn run(&self, model: &mut SelectiveModel, dataset: &Dataset) -> TrainReport {
        self.check_inputs(model, dataset);
        let mut adam = Adam::new(self.config.learning_rate);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        let epochs =
            self.epoch_span(model, dataset, &mut adam, &mut rng, &mut order, 0, self.config.epochs);
        TrainReport { epochs }
    }

    /// Train epochs `0..stop_epoch`, then snapshot the model, optimizer
    /// and progress into a [`CheckpointBundle`] from which
    /// [`Trainer::resume`] continues bit-identically to an
    /// uninterrupted [`Trainer::run`].
    ///
    /// Returns the partial report alongside the bundle.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Trainer::run`], or if
    /// `stop_epoch` exceeds the configured epoch count.
    pub fn run_to_checkpoint(
        &self,
        model: &mut SelectiveModel,
        dataset: &Dataset,
        stop_epoch: usize,
    ) -> (TrainReport, CheckpointBundle) {
        assert!(stop_epoch <= self.config.epochs, "stop_epoch exceeds configured epochs");
        self.check_inputs(model, dataset);
        let mut adam = Adam::new(self.config.learning_rate);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        let epochs =
            self.epoch_span(model, dataset, &mut adam, &mut rng, &mut order, 0, stop_epoch);
        let progress =
            TrainProgress { config: self.config, next_epoch: stop_epoch, epochs: epochs.clone() };
        let bundle = CheckpointBundle::capture(model, adam.state(), progress);
        (TrainReport { epochs }, bundle)
    }

    /// Resume training from a bundle written by
    /// [`Trainer::run_to_checkpoint`], continuing through the remaining
    /// epochs. With the same dataset and an equal [`TrainConfig`], the
    /// final weights and the returned [`TrainReport`] are
    /// **bit-identical** to an uninterrupted [`Trainer::run`]: the
    /// bundle restores every parameter value, the Adam moments and step
    /// counter, and the resume replays the completed epochs' shuffles
    /// to fast-forward the data-ordering RNG.
    ///
    /// `model` may be freshly constructed; its parameters are
    /// overwritten from the bundle.
    ///
    /// # Errors
    ///
    /// Returns a [`BundleError`] when the bundle is an inference-only
    /// export, was trained under a different config, targets a
    /// different architecture, or is internally corrupted — including
    /// optimizer moments whose count or shapes do not match the model
    /// ([`BundleError::Restore`]). Every check runs before training.
    ///
    /// # Panics
    ///
    /// Panics on the same dataset conditions as [`Trainer::run`].
    pub fn resume(
        &self,
        model: &mut SelectiveModel,
        dataset: &Dataset,
        bundle: &CheckpointBundle,
    ) -> Result<TrainReport, BundleError> {
        self.check_inputs(model, dataset);
        let resume = bundle.resume().ok_or(BundleError::NotResumable)?;
        let progress = &resume.progress;
        if progress.config != self.config {
            return Err(BundleError::ConfigMismatch {
                bundle: Box::new(progress.config),
                trainer: Box::new(self.config),
            });
        }
        if bundle.model_config() != model.config() {
            return Err(BundleError::ModelMismatch {
                bundle: Box::new(*bundle.model_config()),
                model: Box::new(*model.config()),
            });
        }
        let mut adam = Adam::from_state(&resume.optimizer).map_err(BundleError::Optimizer)?;
        adam.check_moments(&mut ParamChain(model)).map_err(BundleError::Restore)?;
        model.load_state_dict(bundle.params()).map_err(BundleError::Restore)?;
        // Fast-forward the data-ordering RNG: replay the shuffles of
        // the completed epochs on the evolving order vector, exactly as
        // the straight run consumed them.
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        for _ in 0..progress.next_epoch {
            order.shuffle(&mut rng);
        }
        let mut epochs = progress.epochs.clone();
        epochs.extend(self.epoch_span(
            model,
            dataset,
            &mut adam,
            &mut rng,
            &mut order,
            progress.next_epoch,
            self.config.epochs,
        ));
        Ok(TrainReport { epochs })
    }

    fn check_inputs(&self, model: &mut SelectiveModel, dataset: &Dataset) {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        assert_eq!(dataset.grid(), model.config().grid, "dataset grid mismatch");
    }

    /// Train epochs `start..end`, shuffling `order` in place with `rng`
    /// at the top of each epoch. All cross-epoch state lives in the
    /// caller so checkpoint/resume can interleave with spans.
    #[allow(clippy::too_many_arguments)]
    fn epoch_span(
        &self,
        model: &mut SelectiveModel,
        dataset: &Dataset,
        adam: &mut Adam,
        rng: &mut StdRng,
        order: &mut [usize],
        start: usize,
        end: usize,
    ) -> Vec<EpochStats> {
        let grid = dataset.grid();
        let pixels = grid * grid;
        let plain = self.config.target_coverage >= 1.0;
        let selective = SelectiveLoss::new(self.config.target_coverage)
            .with_lambda(self.config.lambda)
            .with_alpha(self.config.alpha);
        let samples = dataset.samples();
        let mut epochs = Vec::with_capacity(end.saturating_sub(start));
        let metrics = self.telemetry.as_ref().map(TrainMetrics::new);

        // Batch staging and loss scratch reused across batches and
        // epochs (the workspace memory model — see `nn::workspace`):
        // each buffer grows once to the full batch size, then is
        // refilled in place, so steady-state training allocates
        // nothing on the loss side of the step.
        let mut images = Tensor::default();
        let mut labels: Vec<usize> = Vec::new();
        let mut weights: Vec<f32> = Vec::new();
        let zero_g = vec![0.0f32; self.config.batch_size];
        let mut sel_scratch = SelectiveScratch::default();
        let mut aux_scratch = CeScratch::default();
        let mut ce_scratch = CeScratch::default();

        for epoch in start..end {
            let epoch_start = Instant::now();
            order.shuffle(rng);
            let mut loss_sum = 0.0f64;
            let mut cov_sum = 0.0f64;
            let mut acc_sum = 0.0f64;
            let mut risk_sum = 0.0f64;
            let mut pen_sum = 0.0f64;
            let mut plain_sum = 0.0f64;
            let mut seen = 0usize;
            for batch in order.chunks(self.config.batch_size) {
                let batch_start = Instant::now();
                images.resize(&[batch.len(), 1, grid, grid]);
                labels.clear();
                weights.clear();
                for (slot, &i) in images.data_mut().chunks_exact_mut(pixels).zip(batch) {
                    samples[i].map.write_image_into(slot);
                    labels.push(samples[i].label.index());
                    weights.push(samples[i].weight);
                }
                let (logits, g, aux) = model.forward_full(&images);
                // Each branch reports (objective, coverage, selective
                // risk, coverage penalty, plain CE) so the loss
                // decomposition can be surfaced without recomputation.
                let (loss, coverage, risk, penalty, plain_ce) = if plain {
                    let (l, grad) = softmax_cross_entropy_scratch(
                        &logits,
                        &labels,
                        Some(&weights),
                        &mut ce_scratch,
                    );
                    model.zero_grad();
                    model.backward(grad, &zero_g[..batch.len()]);
                    (l, 1.0, l, 0.0, l)
                } else if let Some(aux_logits) = &aux {
                    // SelectiveNet-style: pure selective objective on
                    // (f, g), plain cross-entropy on the auxiliary
                    // head, mixed by α.
                    let alpha = self.config.alpha;
                    let pure = SelectiveLoss::new(self.config.target_coverage)
                        .with_lambda(self.config.lambda)
                        .with_alpha(1.0);
                    let (value, grad_logits, grad_g) =
                        pure.compute_scratch(&logits, &g, &labels, &weights, &mut sel_scratch);
                    grad_logits.scale(alpha);
                    grad_g.iter_mut().for_each(|v| *v *= alpha);
                    let (ce, grad_aux) = softmax_cross_entropy_scratch(
                        aux_logits,
                        &labels,
                        Some(&weights),
                        &mut aux_scratch,
                    );
                    grad_aux.scale(1.0 - alpha);
                    model.zero_grad();
                    model.backward_full(grad_logits, grad_g, Some(grad_aux));
                    (
                        alpha * value.total + (1.0 - alpha) * ce,
                        value.coverage,
                        value.selective_risk,
                        value.penalty,
                        ce,
                    )
                } else {
                    let (value, grad_logits, grad_g) =
                        selective.compute_scratch(&logits, &g, &labels, &weights, &mut sel_scratch);
                    model.zero_grad();
                    model.backward(grad_logits, grad_g);
                    (
                        value.total,
                        value.coverage,
                        value.selective_risk,
                        value.penalty,
                        value.plain_risk,
                    )
                };
                model.step(adam);

                let b = batch.len() as f64;
                loss_sum += f64::from(loss) * b;
                cov_sum += f64::from(coverage) * b;
                acc_sum += f64::from(accuracy(&logits, &labels)) * b;
                risk_sum += f64::from(risk) * b;
                pen_sum += f64::from(penalty) * b;
                plain_sum += f64::from(plain_ce) * b;
                seen += batch.len();
                if let Some(m) = &metrics {
                    m.batches.inc();
                    m.samples.add(batch.len() as u64);
                    m.batch_seconds.observe(batch_start.elapsed().as_secs_f64());
                }
            }
            let n = seen as f64;
            let stats = EpochStats {
                epoch,
                loss: (loss_sum / n) as f32,
                coverage: (cov_sum / n) as f32,
                accuracy: (acc_sum / n) as f32,
            };
            if let Some(m) = &metrics {
                let elapsed = epoch_start.elapsed().as_secs_f64();
                m.epochs.inc();
                m.epoch_seconds.observe(elapsed);
                m.loss.set(f64::from(stats.loss));
                m.coverage.set(f64::from(stats.coverage));
                m.accuracy.set(f64::from(stats.accuracy));
                m.selective_risk.set(risk_sum / n);
                m.penalty.set(pen_sum / n);
                m.plain_risk.set(plain_sum / n);
                m.throughput.set(if elapsed > 0.0 { n / elapsed } else { 0.0 });
            }
            epochs.push(stats);
        }
        epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelectiveConfig;
    use wafermap::gen::SyntheticWm811k;
    use wafermap::DefectClass;

    fn tiny_model(seed: u64) -> SelectiveModel {
        let config = SelectiveConfig::for_grid(16).with_conv_channels([4, 4, 4]).with_fc(16);
        SelectiveModel::new(&config, seed)
    }

    /// A small but separable two-class dataset: Near-Full (almost all
    /// fail) vs None (almost no failures).
    fn easy_dataset(per_class: usize, seed: u64) -> Dataset {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use wafermap::gen::{generate, GenConfig, Sample};
        let cfg = GenConfig::new(16);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(16);
        for _ in 0..per_class {
            ds.push(Sample::original(
                generate(DefectClass::NearFull, &cfg, &mut rng),
                DefectClass::NearFull,
            ));
            ds.push(Sample::original(
                generate(DefectClass::None, &cfg, &mut rng),
                DefectClass::None,
            ));
        }
        ds
    }

    #[test]
    fn plain_training_reduces_loss_and_learns_easy_pair() {
        let mut model = tiny_model(0);
        let train = easy_dataset(24, 1);
        let report = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 16,
            learning_rate: 1e-2,
            ..TrainConfig::default()
        })
        .run(&mut model, &train);
        let first = report.epochs[0].loss;
        let last = report.last().loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(report.last().accuracy > 0.9, "easy pair not learned: {}", report.last().accuracy);
        // Plain CE reports full coverage.
        assert_eq!(report.last().coverage, 1.0);
    }

    #[test]
    fn selective_training_tracks_coverage() {
        let mut model = tiny_model(2);
        let train = easy_dataset(24, 3);
        let report = Trainer::new(TrainConfig {
            epochs: 20,
            batch_size: 16,
            learning_rate: 5e-3,
            target_coverage: 0.5,
            ..TrainConfig::default()
        })
        .run(&mut model, &train);
        let cov = report.last().coverage;
        // Coverage must neither collapse to 0 nor be forced to 1; the
        // penalty pulls it toward/above c0.
        assert!(cov > 0.2 && cov <= 1.0, "coverage {cov} out of expected band");
        assert!(report.last().loss.is_finite());
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let train = easy_dataset(8, 4);
        let cfg = TrainConfig { epochs: 2, batch_size: 8, ..TrainConfig::default() };
        let mut a = tiny_model(5);
        let ra = Trainer::new(cfg).run(&mut a, &train);
        let mut b = tiny_model(5);
        let rb = Trainer::new(cfg).run(&mut b, &train);
        assert_eq!(ra, rb);
    }

    #[test]
    fn evaluate_after_training_covers_whole_test_set() {
        let mut model = tiny_model(6);
        let (train, test) = SyntheticWm811k::new(16).scale(0.0005).seed(7).build();
        let _ = Trainer::new(TrainConfig { epochs: 1, batch_size: 16, ..TrainConfig::default() })
            .run(&mut model, &train);
        let metrics = model.evaluate(&test, 0.5);
        assert_eq!(metrics.total() as usize, test.len());
    }

    #[test]
    fn aux_head_training_converges_on_easy_pair() {
        let config =
            SelectiveConfig::for_grid(16).with_conv_channels([4, 4, 4]).with_fc(16).with_aux_head();
        let mut model = SelectiveModel::new(&config, 9);
        let train = easy_dataset(24, 10);
        let report = Trainer::new(TrainConfig {
            epochs: 20,
            batch_size: 16,
            learning_rate: 5e-3,
            target_coverage: 0.5,
            ..TrainConfig::default()
        })
        .run(&mut model, &train);
        assert!(report.last().loss.is_finite());
        assert!(
            report.last().loss < report.epochs[0].loss,
            "aux-head training did not reduce loss"
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let mut model = tiny_model(8);
        let _ = Trainer::new(TrainConfig::default()).run(&mut model, &Dataset::new(16));
    }
}
