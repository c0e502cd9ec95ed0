//! Classification and selective-prediction metrics.
//!
//! Provides the quantities the paper reports:
//!
//! - [`ConfusionMatrix`] with per-class precision / recall / F1 and
//!   overall accuracy (Tables II–IV).
//! - [`SelectiveMetrics`]: coverage, selective accuracy / risk, and
//!   per-class coverage counts for abstaining classifiers
//!   (Table II, Fig. 5).
//! - [`RiskCoveragePoint`] series for risk–coverage trade-off curves.
//!
//! # Example
//!
//! ```
//! use eval::ConfusionMatrix;
//!
//! let mut cm = ConfusionMatrix::new(3);
//! cm.record(0, 0);
//! cm.record(1, 1);
//! cm.record(2, 1);
//! assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-6);
//! assert!((cm.recall(2) - 0.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod confusion;
mod selective;

pub use confusion::ConfusionMatrix;
pub use selective::{RiskCoveragePoint, SelectiveMetrics, SelectiveOutcome};
