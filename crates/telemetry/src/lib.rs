//! Workspace-wide telemetry: a lightweight metrics layer every crate
//! in the dependency chain can record into without changing what it
//! computes.
//!
//! The paper's deployment arguments (Section IV-D — resource
//! allocation from abstention rates, concept-shift detection from
//! coverage) are operational: they require a running system that can
//! report coverage, risk, throughput and latency over time. This
//! crate is that reporting substrate:
//!
//! - [`Registry`] — a named collection of metrics. Cheap to clone
//!   (it is a handle); safe to record into from worker-pool threads.
//! - [`Counter`] — monotonically increasing `u64` (lock-free).
//! - [`Gauge`] — last-written `f64` value (lock-free).
//! - [`Histogram`] — an observation stream summarized over a bounded
//!   [`Window`]: a ring buffer of the most recent samples plus exact
//!   running `count`/`sum`, so accumulators are **O(window) memory
//!   over unbounded streams** while totals stay exact.
//!
//! Two exposition formats read the same data:
//!
//! - [`Registry::snapshot`] → [`Snapshot`], a serde-serializable
//!   point-in-time view (embed it in any JSON report), and
//! - [`Registry::prometheus`] / [`Snapshot::to_prometheus`], the
//!   Prometheus text exposition format (counters, gauges, and
//!   summaries with quantiles). [`parse_exposition`] is the matching
//!   format checker used by CI smoke runs.
//!
//! # Bit-neutrality
//!
//! Telemetry only ever *reads* values the instrumented code already
//! computed (losses, counts, wall-clock durations) — it never touches
//! an RNG, reorders work, or feeds anything back into the computation.
//! Model outputs are bit-identical with telemetry enabled or disabled;
//! `crates/core/tests/telemetry_neutral.rs` proves it end-to-end.
//!
//! # Example
//!
//! ```
//! use telemetry::Registry;
//!
//! let registry = Registry::new();
//! let served = registry.counter("wafers_served_total", "Wafers routed");
//! let latency = registry.histogram("batch_seconds", "Batch latency", 256);
//! served.add(3);
//! latency.observe(0.004);
//! let snap = registry.snapshot();
//! assert!(!snap.is_empty());
//! let text = registry.prometheus();
//! let checked = telemetry::parse_exposition(&text).expect("valid exposition");
//! assert!(checked.samples > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exposition;
mod registry;
mod window;

pub use exposition::{parse_exposition, Exposition, ExpositionError};
pub use registry::{
    global, Counter, CounterSample, Gauge, GaugeSample, Histogram, HistogramSample, Registry,
    Snapshot,
};
pub use window::{Window, WindowSummary, DEFAULT_WINDOW};
