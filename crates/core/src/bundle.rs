//! Train-to-serve checkpoint bundles.
//!
//! A [`CheckpointBundle`] is the one on-disk artifact connecting
//! training to serving. Every bundle holds the model architecture
//! ([`SelectiveConfig`]) and the parameter values
//! ([`StateDict`]) — all that serving reads. A bundle captured
//! mid-training also holds a [`ResumeState`], which lets
//! [`crate::Trainer::resume`] continue **bit-identically** to an
//! uninterrupted run.
//!
//! # Exact-resume guarantee
//!
//! Resuming from a bundle written by [`crate::Trainer::run_to_checkpoint`]
//! with the same [`TrainConfig`] and dataset reproduces the exact
//! weights and [`crate::TrainReport`] of a straight run, because the
//! bundle carries everything the trainer consumes:
//!
//! - the parameter values (the state dict),
//! - the Adam step counter `t` driving bias correction, both moment
//!   buffers, and the optimizer hyper-parameters for validation
//!   ([`AdamState`]),
//! - the training config and the number of completed epochs, from
//!   which the resume replays the epoch shuffles to fast-forward the
//!   data-ordering RNG to the same state.
//!
//! Gradients are not stored: every training step zeroes them before
//! `backward`.

use std::fmt;
use std::path::{Path, PathBuf};

use nn::optim::{AdamState, StateError};
use nn::serialize::{LoadError, RestoreError, StateDict};
use serde::{Deserialize, Serialize};

use crate::{EpochStats, SelectiveConfig, SelectiveModel, TrainConfig};

/// Current on-disk format version written by [`CheckpointBundle::save`].
///
/// Version history:
/// - **1** — model architecture + a nested versioned checkpoint (every
///   parameter's value, gradient and Adam moments, plus optional
///   optimizer state) + optional training progress. No longer read.
/// - **2** — model architecture + parameter values + optional
///   [`ResumeState`] (optimizer state with its moments, and training
///   progress).
pub const BUNDLE_FORMAT_VERSION: u32 = 2;

/// How far a training run had progressed when its bundle was written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainProgress {
    /// The configuration the run was started with. A resume must use
    /// an equal config or the replayed schedule would diverge.
    pub config: TrainConfig,
    /// First epoch the resumed run must execute (epochs `0..next_epoch`
    /// are already folded into the bundled parameters).
    pub next_epoch: usize,
    /// Per-epoch statistics of the completed epochs, in order.
    pub epochs: Vec<EpochStats>,
}

/// The training state a bundle captured mid-training carries on top of
/// the parameter values: exactly what [`crate::Trainer::resume`]
/// consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResumeState {
    /// Adam's step counter, hyper-parameters and moments.
    pub optimizer: AdamState,
    /// How far the run had progressed.
    pub progress: TrainProgress,
}

/// Versioned artifact bundling everything needed to rebuild a
/// [`SelectiveModel`] — and, when a [`ResumeState`] is attached, to
/// resume training exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointBundle {
    format_version: u32,
    model: SelectiveConfig,
    params: StateDict,
    resume: Option<ResumeState>,
}

impl CheckpointBundle {
    /// Snapshot `model` for inference-only use (architecture and
    /// parameter values) — e.g. a final export for the serving layer.
    #[must_use]
    pub fn export(model: &mut SelectiveModel) -> Self {
        CheckpointBundle {
            format_version: BUNDLE_FORMAT_VERSION,
            model: *model.config(),
            params: model.state_dict(),
            resume: None,
        }
    }

    /// Snapshot `model` mid-training with its optimizer state and
    /// progress, so the run can later be resumed exactly.
    #[must_use]
    pub fn capture(
        model: &mut SelectiveModel,
        optimizer: AdamState,
        progress: TrainProgress,
    ) -> Self {
        CheckpointBundle {
            resume: Some(ResumeState { optimizer, progress }),
            ..CheckpointBundle::export(model)
        }
    }

    /// Architecture of the bundled model.
    #[must_use]
    pub fn model_config(&self) -> &SelectiveConfig {
        &self.model
    }

    /// The bundled parameter values.
    #[must_use]
    pub fn params(&self) -> &StateDict {
        &self.params
    }

    /// Optimizer state and progress, if the bundle was captured
    /// mid-training.
    #[must_use]
    pub fn resume(&self) -> Option<&ResumeState> {
        self.resume.as_ref()
    }

    /// Rebuild the bundled model: construct the architecture from the
    /// stored config and restore every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Architecture`] if the stored architecture
    /// breaks [`SelectiveConfig::validate`], and
    /// [`BundleError::Restore`] if the state dict does not match it (a
    /// corrupted bundle).
    pub fn build_model(&self) -> Result<SelectiveModel, BundleError> {
        self.model.validate().map_err(BundleError::Architecture)?;
        let mut model = SelectiveModel::new(&self.model, 0);
        model.load_state_dict(&self.params).map_err(BundleError::Restore)?;
        Ok(model)
    }

    /// Serialize to a checksummed v2 container file, written
    /// atomically (temp file + fsync + rename) via
    /// [`nn::serialize::atomic_write`] — a crash mid-save leaves the
    /// previous bundle intact, never a torn file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and serialization errors.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), std::io::Error> {
        nn::serialize::save_json_container(path, self)
    }

    /// Deserialize from a file written by [`CheckpointBundle::save`],
    /// rejecting unknown format versions and architectures that break
    /// [`SelectiveConfig::validate`].
    ///
    /// # Errors
    ///
    /// Returns the typed [`LoadError`] classifying any truncation,
    /// checksum mismatch, version skew (container or bundle), or
    /// parse failure ([`LoadError::Malformed`] for an invalid
    /// architecture) — garbage on disk is never misparsed into a
    /// bundle and never a panic.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, LoadError> {
        let bundle: CheckpointBundle = nn::serialize::load_json_container(path)?;
        if bundle.format_version != BUNDLE_FORMAT_VERSION {
            return Err(LoadError::UnsupportedVersion {
                found: bundle.format_version,
                supported: BUNDLE_FORMAT_VERSION,
            });
        }
        bundle
            .model
            .validate()
            .map_err(|why| LoadError::Malformed(format!("invalid architecture: {why}")))?;
        Ok(bundle)
    }

    /// Load the newest intact bundle from a primary path and an
    /// ordered chain of fallbacks (newest first — typically the
    /// previous checkpoint generations of the same run).
    ///
    /// Each candidate is tried with [`CheckpointBundle::load`]; the
    /// first one that loads wins. Every failure along the way is
    /// collected into the result, so the caller can log *why* the
    /// primary was skipped (truncated? checksum? missing?) instead of
    /// silently serving stale weights.
    ///
    /// # Errors
    ///
    /// Returns [`FallbackExhausted`] — carrying the per-path
    /// [`LoadError`]s — when no candidate loads.
    pub fn load_with_fallback<P: AsRef<Path>, Q: AsRef<Path>>(
        primary: P,
        fallbacks: &[Q],
    ) -> Result<FallbackLoad, FallbackExhausted> {
        let mut failures: Vec<(PathBuf, LoadError)> = Vec::new();
        let candidates = std::iter::once(primary.as_ref().to_path_buf())
            .chain(fallbacks.iter().map(|p| p.as_ref().to_path_buf()));
        for (index, path) in candidates.enumerate() {
            match CheckpointBundle::load(&path) {
                Ok(bundle) => {
                    return Ok(FallbackLoad { bundle, source: path, source_index: index, failures })
                }
                Err(e) => failures.push((path, e)),
            }
        }
        Err(FallbackExhausted { failures })
    }
}

/// Successful [`CheckpointBundle::load_with_fallback`]: the bundle,
/// where it came from, and what failed before it.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackLoad {
    /// The newest intact bundle found.
    pub bundle: CheckpointBundle,
    /// Path the bundle was loaded from.
    pub source: PathBuf,
    /// Position in the candidate chain: `0` is the primary, `1` the
    /// first fallback, and so on. Non-zero means degraded recovery —
    /// the served weights are older than intended.
    pub source_index: usize,
    /// Candidates that failed before `source`, with the typed reason
    /// each was rejected.
    pub failures: Vec<(PathBuf, LoadError)>,
}

/// [`CheckpointBundle::load_with_fallback`] found no intact candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackExhausted {
    /// Every candidate path with the typed reason it was rejected,
    /// in the order tried (primary first).
    pub failures: Vec<(PathBuf, LoadError)>,
}

impl fmt::Display for FallbackExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no intact checkpoint bundle among {} candidate(s):", self.failures.len())?;
        for (path, err) in &self.failures {
            write!(f, " [{}: {err}]", path.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for FallbackExhausted {}

/// Error consuming a [`CheckpointBundle`].
#[derive(Debug, Clone, PartialEq)]
pub enum BundleError {
    /// The bundled architecture breaks [`SelectiveConfig::validate`];
    /// the message names the broken clause.
    Architecture(String),
    /// The bundle's parameter values or optimizer moments do not fit
    /// the target architecture.
    Restore(RestoreError),
    /// The bundled optimizer hyper-parameters are invalid.
    Optimizer(StateError),
    /// The bundle carries no [`ResumeState`] (an inference-only
    /// export), so training cannot resume from it.
    NotResumable,
    /// The resuming trainer's configuration differs from the one the
    /// bundle was trained with, so the replayed schedule would diverge.
    ConfigMismatch {
        /// Config stored in the bundle.
        bundle: Box<TrainConfig>,
        /// Config of the resuming trainer.
        trainer: Box<TrainConfig>,
    },
    /// The target model's architecture differs from the bundled one.
    ModelMismatch {
        /// Architecture stored in the bundle.
        bundle: Box<SelectiveConfig>,
        /// Architecture of the target model.
        model: Box<SelectiveConfig>,
    },
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Architecture(why) => write!(f, "invalid bundled architecture: {why}"),
            BundleError::Restore(e) => write!(f, "bundle does not fit model: {e}"),
            BundleError::Optimizer(e) => write!(f, "invalid bundled optimizer state: {e}"),
            BundleError::NotResumable => {
                write!(f, "bundle is an inference-only export; cannot resume training")
            }
            BundleError::ConfigMismatch { bundle, trainer } => {
                write!(f, "training config mismatch: bundle {bundle:?} vs trainer {trainer:?}")
            }
            BundleError::ModelMismatch { bundle, model } => {
                write!(f, "model architecture mismatch: bundle {bundle:?} vs model {model:?}")
            }
        }
    }
}

impl std::error::Error for BundleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BundleError::Restore(e) => Some(e),
            BundleError::Optimizer(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model(seed: u64) -> SelectiveModel {
        let config = SelectiveConfig::for_grid(16).with_conv_channels([4, 4, 4]).with_fc(16);
        SelectiveModel::new(&config, seed)
    }

    #[test]
    fn export_roundtrips_model_parameters() {
        let mut model = tiny_model(11);
        let bundle = CheckpointBundle::export(&mut model);
        assert_eq!(bundle.format_version, BUNDLE_FORMAT_VERSION);
        assert!(bundle.resume().is_none());
        let mut rebuilt = bundle.build_model().expect("architecture matches");
        assert_eq!(rebuilt.state_dict(), model.state_dict());
    }

    #[test]
    fn file_roundtrip_is_exact() {
        let mut model = tiny_model(12);
        let bundle = CheckpointBundle::export(&mut model);
        let dir = std::env::temp_dir().join("core_bundle_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("bundle.json");
        bundle.save(&path).expect("save");
        let loaded = CheckpointBundle::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded, bundle);
    }

    #[test]
    fn load_rejects_future_format_version() {
        let mut model = tiny_model(13);
        let mut bundle = CheckpointBundle::export(&mut model);
        bundle.format_version = BUNDLE_FORMAT_VERSION + 7;
        let dir = std::env::temp_dir().join("core_bundle_version_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("future.json");
        bundle.save(&path).expect("save");
        let err = CheckpointBundle::load(&path).expect_err("future version must be rejected");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, LoadError::UnsupportedVersion { supported, .. }
            if supported == BUNDLE_FORMAT_VERSION));
    }

    #[test]
    fn load_with_fallback_steps_back_to_newest_intact_generation() {
        let mut model = tiny_model(16);
        let bundle = CheckpointBundle::export(&mut model);
        let dir = std::env::temp_dir().join("core_bundle_fallback_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let gen2 = dir.join("gen2.ckpt");
        let gen1 = dir.join("gen1.ckpt");
        let gen0 = dir.join("gen0.ckpt");
        bundle.save(&gen2).expect("save gen2");
        bundle.save(&gen1).expect("save gen1");
        bundle.save(&gen0).expect("save gen0");

        // Intact primary: no fallback consulted.
        let hit = CheckpointBundle::load_with_fallback(&gen2, &[gen1.clone(), gen0.clone()])
            .expect("primary intact");
        assert_eq!(hit.source_index, 0);
        assert!(hit.failures.is_empty());
        assert_eq!(hit.bundle, bundle);

        // Corrupt the newest two generations: recovery lands on gen0
        // and reports why the others were skipped.
        let len = std::fs::metadata(&gen2).expect("meta").len();
        let intact = std::fs::read(&gen2).expect("read");
        std::fs::write(&gen2, &intact[..len as usize / 2]).expect("truncate gen2");
        let mut flipped = intact.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&gen1, &flipped).expect("corrupt gen1");

        let recovered = CheckpointBundle::load_with_fallback(&gen2, &[gen1.clone(), gen0.clone()])
            .expect("gen0 intact");
        assert_eq!(recovered.source_index, 2);
        assert_eq!(recovered.source, gen0);
        assert_eq!(recovered.bundle, bundle);
        assert_eq!(recovered.failures.len(), 2);
        assert!(matches!(recovered.failures[0].1, LoadError::Truncated { .. }));
        assert!(matches!(recovered.failures[1].1, LoadError::ChecksumMismatch { .. }));

        // No intact candidate: typed exhaustion, not a panic.
        std::fs::remove_file(&gen0).expect("remove gen0");
        let err = CheckpointBundle::load_with_fallback(&gen2, &[gen1.clone(), gen0.clone()])
            .expect_err("all candidates corrupt or missing");
        assert_eq!(err.failures.len(), 3);
        assert!(matches!(err.failures[2].1, LoadError::Io { .. }));
        let _ = std::fs::remove_file(&gen2);
        let _ = std::fs::remove_file(&gen1);
    }

    #[test]
    fn build_model_rejects_corrupted_architecture() {
        let mut model = tiny_model(14);
        let mut bundle = CheckpointBundle::export(&mut model);
        // Claim a wider FC layer than the captured parameters have.
        bundle.model.fc = 32;
        assert!(matches!(bundle.build_model(), Err(BundleError::Restore(_))));
    }

    #[test]
    fn build_model_rejects_invalid_architecture() {
        let mut model = tiny_model(15);
        let mut bundle = CheckpointBundle::export(&mut model);
        bundle.model.n_classes = 0;
        assert!(matches!(bundle.build_model(), Err(BundleError::Architecture(why))
            if why.contains("n_classes")));
    }
}
