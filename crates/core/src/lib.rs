//! Deep selective learning for wafer-map defect classification — the
//! primary contribution of Alawieh, Boning & Pan (DAC 2020).
//!
//! A [`SelectiveModel`] is the paper's two-head CNN (Fig. 2): a shared
//! convolutional trunk (Table I: Conv 64@5×5, Conv 32@3×3, Conv
//! 32@3×3, each with 2×2 max-pooling, then FC 256) feeding
//!
//! - a **prediction head** `f` producing class logits, and
//! - a **selection head** `g` — a single sigmoid neuron — whose output
//!   in `(0, 1)` decides whether the model commits to a label or
//!   abstains.
//!
//! Training minimizes the paper's eq. (9):
//!
//! ```text
//! L = α · [ r(f,g|D) + λ · max(0, c0 − c(g|D))² ] + (1 − α) · r(f|D)
//! ```
//!
//! where `r(f,g|D)` is the g-weighted selective risk (eq. (7)),
//! `c(g|D)` the empirical coverage (eq. (6)), `c0` the target
//! coverage, and `r(f|D)` the plain cross-entropy risk that keeps the
//! network exposed to every training instance.
//!
//! # Example
//!
//! ```
//! use selective::{SelectiveConfig, SelectiveModel, TrainConfig, Trainer};
//! use wafermap::gen::SyntheticWm811k;
//!
//! // A deliberately tiny run: 16x16 wafers, a handful of samples.
//! let (train, test) = SyntheticWm811k::new(16).scale(0.001).seed(1).build();
//! let config = SelectiveConfig::for_grid(16).with_conv_channels([8, 8, 8]).with_fc(32);
//! let mut model = SelectiveModel::new(&config, 42);
//! let report = Trainer::new(TrainConfig { epochs: 1, batch_size: 16, ..TrainConfig::default() })
//!     .run(&mut model, &train);
//! assert_eq!(report.epochs.len(), 1);
//! let metrics = model.evaluate(&test, 0.5);
//! assert!(metrics.total() as usize == test.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bundle;
mod config;
mod loss;
mod model;
mod predict;
mod trainer;

pub mod monitor;
pub mod sweep;

pub use bundle::{
    BundleError, CheckpointBundle, FallbackExhausted, FallbackLoad, ResumeState, TrainProgress,
    BUNDLE_FORMAT_VERSION,
};
pub use config::SelectiveConfig;
pub use loss::{SelectiveLoss, SelectiveLossValue, SelectiveScratch};
pub use model::SelectiveModel;
pub use monitor::{CoverageAlarm, CoverageMonitor};
pub use nn::serialize::LoadError;
pub use predict::{calibrate_threshold, SelectivePrediction};
pub use sweep::{threshold_sweep, uniform_thresholds};
pub use trainer::{EpochStats, TrainConfig, TrainReport, Trainer};
