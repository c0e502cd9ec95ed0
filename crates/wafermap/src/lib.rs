//! Wafer map representation and synthetic WM-811K-style defect generation.
//!
//! This crate is the data substrate for the deep-selective-learning
//! reproduction. It provides:
//!
//! - [`WaferMap`]: a die grid over a circular wafer, where each die is
//!   [`Die::Pass`], [`Die::Fail`], or [`Die::OffWafer`] — exactly the
//!   three-level encoding of the WM-811K dataset (pixel levels 127, 255
//!   and 0 respectively).
//! - [`DefectClass`]: the nine WM-811K defect pattern classes.
//! - [`gen`]: parametric spatial generators for every class and a
//!   [`gen::SyntheticWm811k`] dataset builder that mirrors the class
//!   mixture of the paper's Table II.
//! - [`ops`]: rotation and salt-and-pepper noise — the image
//!   operations used by the paper's Algorithm 1 (data augmentation).
//! - [`io`]: PGM export and ASCII rendering for visual inspection.
//!
//! # Example
//!
//! ```
//! use wafermap::{DefectClass, gen::{GenConfig, generate}};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let cfg = GenConfig::new(32);
//! let mut rng = StdRng::seed_from_u64(7);
//! let map = generate(DefectClass::Donut, &cfg, &mut rng);
//! assert_eq!(map.width(), 32);
//! assert!(map.fail_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
mod die;
mod map;

pub mod gen;
pub mod io;
pub mod ops;
pub mod shift;
pub mod stats;

pub use class::{DefectClass, ParseDefectClassError};
pub use die::Die;
pub use gen::{Dataset, Sample};
pub use map::{ShapeError, WaferMap};
