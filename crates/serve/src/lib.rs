//! Batched selective-inference serving — the deployment half of the
//! paper's Section IV-D: a trained selective model behind an engine
//! that routes each incoming wafer to a committed prediction or the
//! reject option, watches rolling coverage for concept shift, and
//! reports operational metrics.
//!
//! The serving path is `train → checkpoint → serve → monitor`:
//!
//! 1. Training exports a [`CheckpointBundle`] (architecture +
//!    parameters, versioned on disk).
//! 2. [`Engine::from_bundle`] rebuilds the model and
//!    [`Engine::calibrate`] picks the selection threshold τ from a
//!    held-out calibration set at a target coverage
//!    ([`selective::calibrate_threshold`] — exact-or-under).
//! 3. [`Engine::submit`] runs micro-batched prediction on the no-grad
//!    inference path (`selective::SelectiveModel::infer_predict`):
//!    each micro-batch fans out across the `nn::pool` worker pool in
//!    small batched blocks — no backward caches, thread-local scratch,
//!    results independent of the pool size — and yields one
//!    [`WaferDecision`] per wafer.
//! 4. Every decision feeds a [`CoverageMonitor`]; a coverage collapse
//!    (the paper's concept-shift signal) surfaces as one
//!    [`CoverageAlarm`] per incident, on the decision that tripped it
//!    and in the report.
//!
//! # Graceful degradation
//!
//! The selective paradigm gives the engine a principled degraded mode:
//! when a wafer cannot or should not reach the model, the engine does
//! not stall, panic, or fabricate a label — it routes the wafer to the
//! reject option, exactly as the paper's selection head does for
//! low-confidence inputs, with the operational cause recorded as a
//! [`ShedReason`]:
//!
//! - **Invalid input** — [`Engine::submit_raw`] validates untyped
//!   pixel buffers (shape, NaN/∞, canonical WM-811K pixel levels) and
//!   sheds the poisoned wafers while the rest of the batch is served
//!   normally.
//! - **Deadline breach** — with [`ServeConfig::deadline`] set, a
//!   submission that overruns its budget sheds the not-yet-served
//!   remainder instead of stalling the caller. Time is read through
//!   the [`Clock`] trait, so tests drive deadline pressure
//!   deterministically with `faultsim::SimClock`.
//! - **Queue overflow** — with [`ServeConfig::max_queue_depth`] set,
//!   a submission deeper than the queue bound sheds the excess
//!   instead of letting latency grow without bound.
//!
//! Shed wafers are counted separately from model abstentions
//! everywhere: `Route::Shed` on the decision, `shed` /
//! `shed_per_reason` in [`ServingSnapshot`], and the
//! `serve_shed_total{reason}` counters in telemetry. Coverage — the
//! concept-shift signal — is computed over model-served wafers only.
//!
//! # One metrics store
//!
//! Every micro-batch is recorded once, into the engine's telemetry
//! [`Registry`]. [`ServeReport::serving`] is a view computed from that
//! registry on each [`Engine::report`], so it always agrees with
//! [`ServeReport::telemetry`] and the [`Engine::prometheus`] scrape.
//!
//! # Example
//!
//! ```
//! use selective::{CheckpointBundle, SelectiveConfig, SelectiveModel};
//! use serve::{Engine, Route, ServeConfig};
//! use wafermap::gen::{generate, GenConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//! use wafermap::DefectClass;
//!
//! // An untrained tiny model stands in for a real training run.
//! let config = SelectiveConfig::for_grid(16).with_conv_channels([2, 2, 2]).with_fc(8);
//! let mut model = SelectiveModel::new(&config, 0);
//! let bundle = CheckpointBundle::export(&mut model);
//!
//! let mut engine = Engine::from_bundle(&bundle, ServeConfig::default()).unwrap();
//! let mut rng = StdRng::seed_from_u64(1);
//! let wafer = generate(DefectClass::Center, &GenConfig::new(16), &mut rng);
//! let decisions = engine.submit(&[wafer]).unwrap();
//! assert_eq!(decisions.len(), 1);
//! match decisions[0].route {
//!     Route::Predicted(_) | Route::Abstained(_) | Route::Shed(_) => {}
//! }
//! assert_eq!(engine.report().serving.wafers, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use selective::monitor::{CoverageAlarm, CoverageMonitor};
use selective::{calibrate_threshold, BundleError, CheckpointBundle, LoadError, SelectiveModel};
use serde::{Deserialize, Serialize};
use telemetry::{Counter, Gauge, Histogram, Registry, Snapshot, WindowSummary};
use wafermap::{Dataset, DefectClass, Die, WaferMap};

/// Serving-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Wafers per micro-batch submitted to the model in one inference
    /// pass. Larger batches amortize per-call overhead and fan across
    /// the worker pool in batched blocks; 1 degenerates to per-wafer
    /// inference.
    pub micro_batch: usize,
    /// Initial selection threshold τ; [`Engine::calibrate`] replaces
    /// it with a coverage-calibrated value.
    pub threshold: f32,
    /// Coverage the deployed model is expected to sustain (the
    /// monitor's reference level).
    pub target_coverage: f64,
    /// Rolling-window size of the coverage monitor, in wafers.
    pub monitor_window: usize,
    /// Alarm when rolling coverage drops below
    /// `alarm_fraction · target_coverage`.
    pub alarm_fraction: f64,
    /// Samples retained by each of the engine's telemetry histograms
    /// (batch and wafer latency, batch size, wafer compute time) and
    /// alarm incidents retained by [`Engine::alarms`] — the engine's
    /// memory bound: state is O(`stats_window` + `monitor_window`) no
    /// matter how many wafers stream through.
    pub stats_window: usize,
    /// Per-submission latency budget in seconds. When a submission
    /// overruns it, the not-yet-served remainder is shed to the reject
    /// option with [`ShedReason::DeadlineExceeded`] (checked at
    /// micro-batch boundaries — a batch already in flight completes).
    /// `None` disables deadline shedding.
    pub deadline: Option<f64>,
    /// Most wafers one submission may send to the model. Excess wafers
    /// are shed with [`ShedReason::QueueFull`] instead of growing the
    /// effective queue without bound. `None` disables the cap.
    pub max_queue_depth: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            micro_batch: 64,
            threshold: 0.5,
            target_coverage: 0.9,
            monitor_window: 64,
            alarm_fraction: 0.5,
            stats_window: telemetry::DEFAULT_WINDOW,
            deadline: None,
            max_queue_depth: None,
        }
    }
}

/// Monotonic time source for deadline enforcement.
///
/// Production engines use [`WallClock`]; tests install a
/// `faultsim::SimClock` (which implements this trait) via
/// [`Engine::with_clock`] so deadline pressure is deterministic and
/// independent of machine speed.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Elapsed time since an arbitrary fixed origin.
    fn now(&self) -> Duration;
}

/// Real monotonic time ([`Instant`]-backed). The default engine clock.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is the moment of construction.
    #[must_use]
    pub fn new() -> Self {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

impl Clock for faultsim::SimClock {
    fn now(&self) -> Duration {
        faultsim::SimClock::now(self)
    }
}

/// Why the serving layer shed a wafer to the reject option without
/// (fully) consulting the model. See the crate docs on
/// [graceful degradation](self#graceful-degradation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The raw input failed validation (shape, non-finite pixels, or
    /// non-canonical pixel levels) and never reached the model.
    InvalidInput,
    /// The submission overran its [`ServeConfig::deadline`]; this
    /// wafer was in the unserved remainder.
    DeadlineExceeded,
    /// The submission exceeded [`ServeConfig::max_queue_depth`]; this
    /// wafer was in the excess.
    QueueFull,
}

impl ShedReason {
    /// Every shed reason, in telemetry-label order.
    pub const ALL: [ShedReason; 3] =
        [ShedReason::InvalidInput, ShedReason::DeadlineExceeded, ShedReason::QueueFull];

    /// Stable label used for telemetry (`serve_shed_total{reason=…}`)
    /// and [`ServingSnapshot::shed_per_reason`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::InvalidInput => "invalid_input",
            ShedReason::DeadlineExceeded => "deadline_exceeded",
            ShedReason::QueueFull => "queue_full",
        }
    }

    fn index(self) -> usize {
        match self {
            ShedReason::InvalidInput => 0,
            ShedReason::DeadlineExceeded => 1,
            ShedReason::QueueFull => 2,
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where the engine routed one wafer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Route {
    /// The model committed to this label.
    Predicted(DefectClass),
    /// The model abstained; the payload is the label it *would* have
    /// predicted (useful for triage of the rejected stream).
    Abstained(DefectClass),
    /// The serving layer shed this wafer to the reject option without
    /// a model verdict; the payload says why. Shed wafers carry
    /// `confidence = 0` and `selection_score = 0` (never NaN, so
    /// decisions stay bit-comparable across runs) and do not feed the
    /// coverage monitor.
    Shed(ShedReason),
}

/// Decision for one submitted wafer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaferDecision {
    /// Commit-or-abstain routing.
    pub route: Route,
    /// Softmax probability of the (would-be) predicted class.
    pub confidence: f32,
    /// Selection-head score `g(x)`.
    pub selection_score: f32,
    /// Coverage alarm raised by this wafer's decision, if any.
    pub alarm: Option<CoverageAlarm>,
}

impl WaferDecision {
    /// Whether the model committed to a label.
    #[must_use]
    pub fn selected(&self) -> bool {
        matches!(self.route, Route::Predicted(_))
    }

    /// Whether the serving layer shed this wafer (and why).
    #[must_use]
    pub fn shed(&self) -> Option<ShedReason> {
        match self.route {
            Route::Shed(reason) => Some(reason),
            _ => None,
        }
    }
}

/// Tolerance around the canonical WM-811K pixel levels
/// (0 off-wafer, 0.5 pass, 1 fail) accepted by
/// [`Engine::submit_raw`]'s validator.
pub const PIXEL_LEVEL_TOLERANCE: f32 = 0.05;

/// An untyped wafer image as it arrives over the wire: a flat
/// row-major pixel buffer that has not yet been validated into a
/// [`WaferMap`]. This is the boundary where fault-injected inputs
/// (NaN pixels, truncated buffers, non-canonical levels) are caught
/// and shed instead of reaching the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawWafer {
    /// Dies per row.
    pub width: usize,
    /// Dies per column.
    pub height: usize,
    /// Row-major pixel intensities; canonical levels are 0 (off-wafer),
    /// 0.5 (pass) and 1 (fail), accepted within
    /// [`PIXEL_LEVEL_TOLERANCE`].
    pub pixels: Vec<f32>,
}

impl RawWafer {
    /// Encode a typed wafer map as a raw pixel buffer (the inverse of
    /// validation; handy for tests and for re-serving archived maps).
    #[must_use]
    pub fn from_map(map: &WaferMap) -> Self {
        let mut pixels = vec![0.0; map.width() * map.height()];
        map.write_image_into(&mut pixels);
        RawWafer { width: map.width(), height: map.height(), pixels }
    }
}

/// What [`Engine::submit_raw`]'s validator found wrong with one raw
/// wafer. Carried for diagnostics; the wafer itself is shed with
/// [`ShedReason::InvalidInput`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputFault {
    /// The buffer's dimensions do not match the model's input grid.
    ShapeMismatch {
        /// Model input side length.
        expected: usize,
        /// The raw buffer's claimed dimensions.
        found: (usize, usize),
    },
    /// `pixels.len()` disagrees with `width × height`.
    LengthMismatch {
        /// `width × height`.
        expected: usize,
        /// Actual buffer length.
        found: usize,
    },
    /// A pixel is NaN or infinite.
    NonFinite {
        /// Index of the offending pixel.
        index: usize,
    },
    /// A finite pixel is not within [`PIXEL_LEVEL_TOLERANCE`] of any
    /// canonical level.
    IllegalLevel {
        /// Index of the offending pixel.
        index: usize,
        /// Its value.
        value: f32,
    },
}

impl fmt::Display for InputFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputFault::ShapeMismatch { expected, found } => write!(
                f,
                "raw wafer is {}x{} but the model expects {expected}x{expected}",
                found.0, found.1
            ),
            InputFault::LengthMismatch { expected, found } => {
                write!(f, "pixel buffer holds {found} values, dimensions imply {expected}")
            }
            InputFault::NonFinite { index } => write!(f, "pixel {index} is not finite"),
            InputFault::IllegalLevel { index, value } => {
                write!(f, "pixel {index} = {value} is not a canonical wafer level")
            }
        }
    }
}

/// Errors constructing or driving an [`Engine`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The checkpoint bundle could not be turned into a model.
    Bundle(BundleError),
    /// The bundled model predicts more classes than [`DefectClass`]
    /// can name, so decisions could not be routed.
    UnsupportedClasses {
        /// Classes in the bundled model.
        n_classes: usize,
    },
    /// A submitted wafer's grid does not match the model input.
    GridMismatch {
        /// Model input side length.
        expected: usize,
        /// Offending wafer's dimensions.
        found: (usize, usize),
    },
    /// [`Engine::calibrate`] was handed an empty calibration set —
    /// there are no selection scores to pick a threshold from.
    EmptyCalibration,
    /// The configuration is unusable (zero micro-batch or window,
    /// out-of-range coverage or alarm fraction).
    InvalidConfig(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bundle(e) => write!(f, "cannot load bundle: {e}"),
            ServeError::UnsupportedClasses { n_classes } => {
                write!(
                    f,
                    "bundled model has {n_classes} classes; serving routes require at most {}",
                    DefectClass::COUNT
                )
            }
            ServeError::GridMismatch { expected, found } => write!(
                f,
                "wafer is {}x{} but the model expects {expected}x{expected}",
                found.0, found.1
            ),
            ServeError::EmptyCalibration => {
                write!(f, "calibration set is empty; cannot pick a threshold")
            }
            ServeError::InvalidConfig(why) => write!(f, "invalid serve config: {why}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bundle(e) => Some(e),
            _ => None,
        }
    }
}

/// Report of a serving session: configuration, calibrated threshold,
/// monitor state and streaming metrics. Serializable — this is the
/// payload of [`Engine::report_json`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Selection threshold currently in force.
    pub threshold: f32,
    /// Wafers per micro-batch.
    pub micro_batch: usize,
    /// Coverage the monitor holds the model to.
    pub target_coverage: f64,
    /// Rolling coverage over the monitor window.
    pub rolling_coverage: f64,
    /// Coverage level below which alarms fire.
    pub alarm_line: f64,
    /// Coverage alarm incidents raised so far (`serve_alarms_total`).
    pub alarms: u64,
    /// Most recent alarm, if any ever fired.
    pub last_alarm: Option<CoverageAlarm>,
    /// Streaming throughput / latency / per-class decision metrics,
    /// derived from the telemetry registry.
    pub serving: ServingSnapshot,
    /// Point-in-time view of the engine's telemetry registry (the
    /// same data [`Engine::prometheus`] renders for scrapes).
    pub telemetry: Snapshot,
}

/// One shed-reason tally in a [`ServingSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedCount {
    /// Reason label ([`ShedReason::as_str`]).
    pub reason: String,
    /// Wafers shed for this reason.
    pub count: u64,
}

/// Serving counts, coverage, throughput and latency distributions: a
/// view of the engine's telemetry registry, computed by
/// [`Engine::report`].
///
/// Counts, coverage and throughput are exact over the whole stream;
/// the distributions are exact in `count` and `sum` and summarize the
/// most recent [`ServeConfig::stats_window`] samples otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSnapshot {
    /// Micro-batches processed (`serve_batches_total`).
    pub batches: u64,
    /// Wafers the model served (`serve_wafers_total`).
    pub wafers: u64,
    /// Wafers the model committed a label to (`serve_predicted_total`).
    pub predicted: u64,
    /// Wafers the model abstained on (`serve_abstained_total`).
    pub abstained: u64,
    /// Wafers the serving layer shed before the model ran —
    /// degraded-mode abstentions (invalid input, deadline breach,
    /// queue overflow). Always `predicted + abstained == wafers` and
    /// `wafers + shed == submitted`.
    pub shed: u64,
    /// Total wafers submitted, served or shed.
    pub submitted: u64,
    /// Shed tally per reason (`serve_shed_total{reason}`), in
    /// [`ShedReason::ALL`] order, zero counts included.
    pub shed_per_reason: Vec<ShedCount>,
    /// Empirical coverage so far (`predicted / wafers`); shed wafers
    /// are excluded — shedding is an operational failure signal, not
    /// a model-coverage signal.
    pub coverage: f64,
    /// Wafers per second of model time (wafers over the exact sum of
    /// batch latencies, excluding idle gaps between batches).
    pub throughput_wafers_per_sec: f64,
    /// Per-**wafer** completion latency (`serve_wafer_latency_seconds`):
    /// each wafer completes when its micro-batch does, so the batch
    /// wall clock is observed once per wafer it carried.
    pub latency: WindowSummary,
    /// Per-**batch** wall-clock latency (`serve_batch_seconds`), one
    /// sample per micro-batch regardless of its size.
    pub batch_latency: WindowSummary,
    /// Per-wafer **compute-only** latency
    /// (`serve_wafer_compute_seconds`): time on a worker, excluding
    /// pool-scheduling wait and the wait for the rest of the batch.
    pub compute_latency: WindowSummary,
    /// Batch-latency samples currently retained.
    pub latency_window_len: usize,
    /// Maximum retained latency samples (the memory bound).
    pub latency_window_capacity: usize,
    /// Committed predictions per class index
    /// (`serve_decisions_total{class,route="predicted"}`).
    pub predicted_per_class: Vec<u64>,
    /// Abstentions per would-be class index
    /// (`serve_decisions_total{class,route="abstained"}`).
    pub abstained_per_class: Vec<u64>,
}

/// Metric handles the engine records into on the hot path; resolved
/// once at construction so `submit` never does a registry lookup.
#[derive(Debug)]
struct EngineMetrics {
    wafers: Counter,
    predicted: Counter,
    abstained: Counter,
    batches: Counter,
    alarms: Counter,
    calibrations: Counter,
    threshold: Gauge,
    rolling_coverage: Gauge,
    batch_seconds: Histogram,
    batch_size: Histogram,
    wafer_latency_seconds: Histogram,
    wafer_compute_seconds: Histogram,
    /// One labelled `serve_shed_total{reason=…}` counter per
    /// [`ShedReason`], indexed by [`ShedReason::index`].
    shed: [Counter; 3],
    /// `serve_decisions_total{class=…,route=…}` per model class:
    /// `[predicted, abstained]`, indexed by class index.
    decisions: Vec<[Counter; 2]>,
}

impl EngineMetrics {
    fn new(registry: &Registry, window: usize, n_classes: usize) -> Self {
        EngineMetrics {
            wafers: registry.counter("serve_wafers_total", "Wafers routed by the engine"),
            predicted: registry
                .counter("serve_predicted_total", "Wafers the model committed a label to"),
            abstained: registry
                .counter("serve_abstained_total", "Wafers routed to the reject option"),
            batches: registry.counter("serve_batches_total", "Micro-batches run"),
            alarms: registry.counter("serve_alarms_total", "Coverage alarms raised"),
            calibrations: registry
                .counter("serve_calibrations_total", "Threshold calibrations performed"),
            threshold: registry.gauge("serve_threshold", "Selection threshold tau in force"),
            rolling_coverage: registry
                .gauge("serve_rolling_coverage", "Coverage over the monitor window"),
            batch_seconds: registry.histogram(
                "serve_batch_seconds",
                "Micro-batch inference latency in seconds",
                window,
            ),
            batch_size: registry.histogram("serve_batch_size", "Wafers per micro-batch", window),
            wafer_latency_seconds: registry.histogram(
                "serve_wafer_latency_seconds",
                "Per-wafer completion latency in seconds (its micro-batch's wall clock)",
                window,
            ),
            wafer_compute_seconds: registry.histogram(
                "serve_wafer_compute_seconds",
                "Per-wafer model compute time in seconds (excludes batching wait)",
                window,
            ),
            shed: ShedReason::ALL.map(|reason| {
                registry.counter_with(
                    "serve_shed_total",
                    &[("reason", reason.as_str())],
                    "Wafers shed to the reject option by the serving layer",
                )
            }),
            decisions: DefectClass::ALL[..n_classes]
                .iter()
                .map(|class| {
                    ["predicted", "abstained"].map(|route| {
                        registry.counter_with(
                            "serve_decisions_total",
                            &[("class", class.name()), ("route", route)],
                            "Model decisions per (would-be) class and route",
                        )
                    })
                })
                .collect(),
        }
    }

    fn serving(&self) -> ServingSnapshot {
        let wafers = self.wafers.get();
        let predicted = self.predicted.get();
        let shed_per_reason: Vec<ShedCount> = ShedReason::ALL
            .iter()
            .map(|reason| ShedCount {
                reason: reason.as_str().to_string(),
                count: self.shed[reason.index()].get(),
            })
            .collect();
        let shed = shed_per_reason.iter().map(|c| c.count).sum();
        let batch_latency = self.batch_seconds.summary();
        ServingSnapshot {
            batches: self.batches.get(),
            wafers,
            predicted,
            abstained: self.abstained.get(),
            shed,
            submitted: wafers + shed,
            shed_per_reason,
            coverage: if wafers == 0 { 0.0 } else { predicted as f64 / wafers as f64 },
            throughput_wafers_per_sec: if batch_latency.sum > 0.0 {
                wafers as f64 / batch_latency.sum
            } else {
                0.0
            },
            latency: self.wafer_latency_seconds.summary(),
            batch_latency,
            compute_latency: self.wafer_compute_seconds.summary(),
            latency_window_len: batch_latency.window_len,
            latency_window_capacity: batch_latency.window_capacity,
            predicted_per_class: self.decisions.iter().map(|[p, _]| p.get()).collect(),
            abstained_per_class: self.decisions.iter().map(|[_, a]| a.get()).collect(),
        }
    }
}

/// Batched selective-inference engine. See the [crate docs](self) for
/// the serving architecture.
#[derive(Debug)]
pub struct Engine {
    model: SelectiveModel,
    micro_batch: usize,
    threshold: f32,
    target_coverage: f64,
    monitor: CoverageMonitor,
    /// Alarm incident log. [`Engine::alarms`] exposes its most recent
    /// `alarm_log_len` entries; the older half is dropped whenever the
    /// log reaches twice that, so memory stays O(`stats_window`) even
    /// when coverage flaps around the alarm line.
    alarms: Vec<CoverageAlarm>,
    alarm_log_len: usize,
    registry: Registry,
    metrics: EngineMetrics,
    /// Per-submission latency budget; `None` disables deadline sheds.
    deadline: Option<Duration>,
    /// Per-submission model-bound wafer cap; `None` disables it.
    max_queue_depth: Option<usize>,
    /// Time source for deadline enforcement (wall clock by default,
    /// swappable for deterministic tests via [`Engine::with_clock`]).
    clock: Arc<dyn Clock>,
}

impl Engine {
    /// Build an engine from a checkpoint bundle: rebuilds the bundled
    /// model (architecture + parameters) and starts a fresh coverage
    /// monitor.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Bundle`] for corrupted bundles,
    /// [`ServeError::UnsupportedClasses`] when the model's classes
    /// cannot be routed to [`DefectClass`] labels, and
    /// [`ServeError::InvalidConfig`] for unusable configurations.
    pub fn from_bundle(bundle: &CheckpointBundle, config: ServeConfig) -> Result<Self, ServeError> {
        if config.micro_batch == 0 {
            return Err(ServeError::InvalidConfig("micro_batch must be non-zero".into()));
        }
        if config.monitor_window == 0 {
            return Err(ServeError::InvalidConfig("monitor_window must be non-zero".into()));
        }
        if !(config.target_coverage > 0.0 && config.target_coverage <= 1.0) {
            return Err(ServeError::InvalidConfig("target_coverage must be in (0, 1]".into()));
        }
        if !(config.alarm_fraction > 0.0 && config.alarm_fraction <= 1.0) {
            return Err(ServeError::InvalidConfig("alarm_fraction must be in (0, 1]".into()));
        }
        if config.stats_window == 0 {
            return Err(ServeError::InvalidConfig("stats_window must be non-zero".into()));
        }
        if let Some(deadline) = config.deadline {
            if !(deadline.is_finite() && deadline > 0.0) {
                return Err(ServeError::InvalidConfig(
                    "deadline must be a finite positive number of seconds".into(),
                ));
            }
        }
        if config.max_queue_depth == Some(0) {
            return Err(ServeError::InvalidConfig(
                "max_queue_depth of zero would shed every wafer".into(),
            ));
        }
        let n_classes = bundle.model_config().n_classes;
        if n_classes > DefectClass::COUNT {
            return Err(ServeError::UnsupportedClasses { n_classes });
        }
        let model = bundle.build_model().map_err(ServeError::Bundle)?;
        let registry = Registry::new();
        let metrics = EngineMetrics::new(&registry, config.stats_window, n_classes);
        metrics.threshold.set(f64::from(config.threshold));
        Ok(Engine {
            model,
            micro_batch: config.micro_batch,
            threshold: config.threshold,
            target_coverage: config.target_coverage,
            monitor: CoverageMonitor::new(
                config.target_coverage,
                config.monitor_window,
                config.alarm_fraction,
            ),
            alarms: Vec::new(),
            alarm_log_len: config.stats_window,
            registry,
            metrics,
            deadline: config.deadline.map(Duration::from_secs_f64),
            max_queue_depth: config.max_queue_depth,
            clock: Arc::new(WallClock::new()),
        })
    }

    /// Replace the engine's time source — used by tests to drive
    /// deadline shedding deterministically with `faultsim::SimClock`.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// The selection threshold currently in force.
    #[must_use]
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Side length of the model's input grid.
    #[must_use]
    pub fn grid(&self) -> usize {
        self.model.config().grid
    }

    /// Calibrate the selection threshold on a held-out calibration set
    /// so that a fraction `coverage` of it clears τ (exact-or-under;
    /// see [`selective::calibrate_threshold`]). Replaces the engine's
    /// threshold and returns the new value.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::GridMismatch`] when the calibration set's
    /// grid does not match the model input (the same validation
    /// [`Engine::submit`] applies), and
    /// [`ServeError::EmptyCalibration`] when the set has no samples —
    /// a threshold picked from zero scores would silently default
    /// rather than reflect the requested coverage.
    pub fn calibrate(&mut self, calibration: &Dataset, coverage: f64) -> Result<f32, ServeError> {
        if calibration.is_empty() {
            return Err(ServeError::EmptyCalibration);
        }
        let grid = self.grid();
        if calibration.grid() != grid {
            return Err(ServeError::GridMismatch {
                expected: grid,
                found: (calibration.grid(), calibration.grid()),
            });
        }
        let scores = self.model.selection_scores(calibration);
        self.threshold = calibrate_threshold(&scores, coverage);
        self.metrics.calibrations.inc();
        self.metrics.threshold.set(f64::from(self.threshold));
        Ok(self.threshold)
    }

    /// Run selective inference over `wafers` in micro-batches,
    /// returning one decision per wafer in input order. Every
    /// model-served decision is fed to the coverage monitor; any alarm
    /// it raises is attached to the wafer that triggered it. With a
    /// [`ServeConfig::deadline`] or [`ServeConfig::max_queue_depth`]
    /// set, wafers the budget cannot cover come back as
    /// [`Route::Shed`] instead (see the crate docs on
    /// [graceful degradation](self#graceful-degradation)).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::GridMismatch`] if any wafer does not
    /// match the model's input grid (no partial work is performed).
    /// Typed [`WaferMap`]s are trusted inputs — a wrong grid here is a
    /// caller bug, not line noise, so the whole batch is rejected
    /// rather than shed. Untrusted buffers go through
    /// [`Engine::submit_raw`], which sheds instead.
    pub fn submit(&mut self, wafers: &[WaferMap]) -> Result<Vec<WaferDecision>, ServeError> {
        let grid = self.grid();
        for w in wafers {
            if w.width() != grid || w.height() != grid {
                return Err(ServeError::GridMismatch {
                    expected: grid,
                    found: (w.width(), w.height()),
                });
            }
        }
        let pending: Vec<(usize, &WaferMap)> = wafers.iter().enumerate().collect();
        Ok(self.route_pending(pending, wafers.len(), Vec::new()))
    }

    /// Validate one untyped pixel buffer against the model's input
    /// contract. On success the buffer is promoted to a typed
    /// [`WaferMap`]; on failure the first fault found is returned.
    ///
    /// # Errors
    ///
    /// Returns the first [`InputFault`] encountered: shape or length
    /// mismatch, a non-finite pixel, or a pixel outside
    /// [`PIXEL_LEVEL_TOLERANCE`] of the canonical levels.
    pub fn validate_raw(&self, raw: &RawWafer) -> Result<WaferMap, InputFault> {
        let grid = self.grid();
        if raw.width != grid || raw.height != grid {
            return Err(InputFault::ShapeMismatch {
                expected: grid,
                found: (raw.width, raw.height),
            });
        }
        let expected = raw.width * raw.height;
        if raw.pixels.len() != expected {
            return Err(InputFault::LengthMismatch { expected, found: raw.pixels.len() });
        }
        let mut dies = Vec::with_capacity(raw.pixels.len());
        for (index, &value) in raw.pixels.iter().enumerate() {
            if !value.is_finite() {
                return Err(InputFault::NonFinite { index });
            }
            let die = if (value - Die::OffWafer.intensity()).abs() <= PIXEL_LEVEL_TOLERANCE {
                Die::OffWafer
            } else if (value - Die::Pass.intensity()).abs() <= PIXEL_LEVEL_TOLERANCE {
                Die::Pass
            } else if (value - Die::Fail.intensity()).abs() <= PIXEL_LEVEL_TOLERANCE {
                Die::Fail
            } else {
                return Err(InputFault::IllegalLevel { index, value });
            };
            dies.push(die);
        }
        WaferMap::from_dies(raw.width, raw.height, dies)
            .map_err(|_| InputFault::LengthMismatch { expected, found: 0 })
    }

    /// Serve a batch of untyped pixel buffers as they would arrive
    /// over the wire. Each buffer is validated first; invalid wafers
    /// are shed with [`ShedReason::InvalidInput`] while the rest of
    /// the batch is served normally — one poisoned wafer never takes
    /// down its neighbours. Always returns one decision per input, in
    /// input order.
    #[must_use]
    pub fn submit_raw(&mut self, wafers: &[RawWafer]) -> Vec<WaferDecision> {
        let mut pre_shed: Vec<(usize, ShedReason)> = Vec::new();
        let mut valid: Vec<(usize, WaferMap)> = Vec::new();
        for (index, raw) in wafers.iter().enumerate() {
            match self.validate_raw(raw) {
                Ok(map) => valid.push((index, map)),
                Err(_) => pre_shed.push((index, ShedReason::InvalidInput)),
            }
        }
        let pending: Vec<(usize, &WaferMap)> =
            valid.iter().map(|(index, map)| (*index, map)).collect();
        self.route_pending(pending, wafers.len(), pre_shed)
    }

    fn shed_decision(reason: ShedReason) -> WaferDecision {
        WaferDecision {
            route: Route::Shed(reason),
            confidence: 0.0,
            selection_score: 0.0,
            alarm: None,
        }
    }

    fn record_shed(&self, reason: ShedReason) {
        self.metrics.shed[reason.index()].inc();
    }

    /// Core routing loop shared by [`Engine::submit`] and
    /// [`Engine::submit_raw`]: `pending` holds `(input slot, wafer)`
    /// pairs bound for the model, `total` the size of the original
    /// submission, `pre_shed` slots already shed by validation. Applies
    /// queue-depth shedding up front, then serves micro-batches until
    /// done or the deadline passes, shedding the remainder.
    fn route_pending(
        &mut self,
        mut pending: Vec<(usize, &WaferMap)>,
        total: usize,
        pre_shed: Vec<(usize, ShedReason)>,
    ) -> Vec<WaferDecision> {
        let mut out: Vec<Option<WaferDecision>> = vec![None; total];
        for (slot, reason) in pre_shed {
            self.record_shed(reason);
            out[slot] = Some(Self::shed_decision(reason));
        }
        if let Some(depth) = self.max_queue_depth {
            if pending.len() > depth {
                for &(slot, _) in &pending[depth..] {
                    self.record_shed(ShedReason::QueueFull);
                    out[slot] = Some(Self::shed_decision(ShedReason::QueueFull));
                }
                pending.truncate(depth);
            }
        }
        let submit_start = self.deadline.map(|_| self.clock.now());
        let mut offset = 0;
        while offset < pending.len() {
            if let (Some(deadline), Some(start)) = (self.deadline, submit_start) {
                if self.clock.now().saturating_sub(start) > deadline {
                    for &(slot, _) in &pending[offset..] {
                        self.record_shed(ShedReason::DeadlineExceeded);
                        out[slot] = Some(Self::shed_decision(ShedReason::DeadlineExceeded));
                    }
                    break;
                }
            }
            let end = (offset + self.micro_batch).min(pending.len());
            let chunk = &pending[offset..end];
            let start = Instant::now();
            let (preds, compute_secs) =
                self.model.infer_blocks(chunk.len(), self.threshold, |i, image| {
                    chunk[i].1.write_image_into(image);
                });
            let latency = start.elapsed().as_secs_f64();
            let m = &self.metrics;
            let mut predicted = 0u64;
            for (p, &(slot, _)) in preds.iter().zip(chunk) {
                let class = DefectClass::from_index(p.label).expect("validated class range");
                let alarm = self.monitor.observe(p.selected);
                if let Some(a) = alarm {
                    if self.alarms.len() == 2 * self.alarm_log_len {
                        self.alarms.drain(..self.alarm_log_len);
                    }
                    self.alarms.push(a);
                    m.alarms.inc();
                }
                predicted += u64::from(p.selected);
                m.decisions[p.label][usize::from(!p.selected)].inc();
                m.wafer_latency_seconds.observe(latency);
                out[slot] = Some(WaferDecision {
                    route: if p.selected {
                        Route::Predicted(class)
                    } else {
                        Route::Abstained(class)
                    },
                    confidence: p.confidence,
                    selection_score: p.selection_score,
                    alarm,
                });
            }
            m.batches.inc();
            m.wafers.add(preds.len() as u64);
            m.predicted.add(predicted);
            m.abstained.add(preds.len() as u64 - predicted);
            m.batch_seconds.observe(latency);
            m.batch_size.observe(preds.len() as f64);
            for &c in &compute_secs {
                m.wafer_compute_seconds.observe(c);
            }
            m.rolling_coverage.set(self.monitor.rolling_coverage());
            offset = end;
        }
        out.into_iter()
            .map(|decision| decision.expect("every submitted wafer is routed exactly once"))
            .collect()
    }

    /// The most recent coverage alarm incidents, oldest first (one per
    /// crossing below the alarm line, not one per wafer). At most
    /// [`ServeConfig::stats_window`] are retained; `serve_alarms_total`
    /// and [`ServeReport::alarms`] count every incident.
    #[must_use]
    pub fn alarms(&self) -> &[CoverageAlarm] {
        &self.alarms[self.alarms.len().saturating_sub(self.alarm_log_len)..]
    }

    /// Point-in-time report of the serving session.
    #[must_use]
    pub fn report(&self) -> ServeReport {
        ServeReport {
            threshold: self.threshold,
            micro_batch: self.micro_batch,
            target_coverage: self.target_coverage,
            rolling_coverage: self.monitor.rolling_coverage(),
            alarm_line: self.monitor.alarm_line(),
            alarms: self.metrics.alarms.get(),
            last_alarm: self.alarms.last().copied(),
            serving: self.metrics.serving(),
            telemetry: self.registry.snapshot(),
        }
    }

    /// The report as pretty-printed JSON — the payload a status
    /// endpoint would return.
    #[must_use]
    pub fn report_json(&self) -> String {
        serde_json::to_string_pretty(&self.report()).expect("report serializes")
    }

    /// The engine's telemetry registry. Handy for tests or for merging
    /// engine metrics into a wider process registry snapshot.
    #[must_use]
    pub fn telemetry(&self) -> &Registry {
        &self.registry
    }

    /// The engine's metrics in the Prometheus text exposition format —
    /// the payload a `/metrics` scrape endpoint would return.
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.registry.prometheus()
    }
}

/// Bounded-retry policy for transient checkpoint-load failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total load attempts (first try included). Zero is treated as 1.
    pub attempts: u32,
    /// Backoff before the first retry.
    pub initial_backoff: Duration,
    /// Ceiling on the (doubling) backoff between retries.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep before retry number `retry` (0-based),
    /// doubling from [`RetryPolicy::initial_backoff`] and capped at
    /// [`RetryPolicy::max_backoff`].
    #[must_use]
    pub fn backoff(&self, retry: u32) -> Duration {
        let doubled =
            self.initial_backoff.checked_mul(1u32 << retry.min(20)).unwrap_or(self.max_backoff);
        doubled.min(self.max_backoff)
    }
}

/// Load a checkpoint bundle, retrying transient I/O failures with
/// bounded exponential backoff. Only [`LoadError::Io`] is retried —
/// corruption ([`LoadError::Truncated`], [`LoadError::ChecksumMismatch`],
/// …) is deterministic, so retrying would only delay the fallback to
/// an older bundle ([`CheckpointBundle::load_with_fallback`]).
///
/// `sleep` performs the backoff wait; production callers pass
/// `std::thread::sleep`, tests pass a recorder to assert the schedule
/// without slowing the suite down.
///
/// # Errors
///
/// The last [`LoadError`] once attempts are exhausted, or immediately
/// for non-transient errors.
pub fn load_bundle_with_retry<P: AsRef<Path>, S: FnMut(Duration)>(
    path: P,
    policy: RetryPolicy,
    mut sleep: S,
) -> Result<CheckpointBundle, LoadError> {
    let attempts = policy.attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        match CheckpointBundle::load(path.as_ref()) {
            Ok(bundle) => return Ok(bundle),
            Err(err @ LoadError::Io { .. }) => {
                if attempt + 1 < attempts {
                    sleep(policy.backoff(attempt));
                }
                last = Some(err);
            }
            Err(err) => return Err(err),
        }
    }
    Err(last.expect("at least one attempt was made"))
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selective::SelectiveConfig;
    use wafermap::gen::{generate, GenConfig};

    use super::*;

    fn tiny_bundle(seed: u64) -> CheckpointBundle {
        let config = SelectiveConfig::for_grid(16).with_conv_channels([2, 2, 2]).with_fc(8);
        let mut model = SelectiveModel::new(&config, seed);
        CheckpointBundle::export(&mut model)
    }

    fn wafers(n: usize, grid: usize, seed: u64) -> Vec<WaferMap> {
        let cfg = GenConfig::new(grid);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let class = DefectClass::from_index(i % DefectClass::COUNT).expect("valid");
                generate(class, &cfg, &mut rng)
            })
            .collect()
    }

    #[test]
    fn submit_routes_every_wafer_in_order() {
        let bundle = tiny_bundle(1);
        let mut engine =
            Engine::from_bundle(&bundle, ServeConfig { micro_batch: 4, ..ServeConfig::default() })
                .expect("valid bundle");
        let input = wafers(10, 16, 2);
        let decisions = engine.submit(&input).expect("matching grid");
        assert_eq!(decisions.len(), 10);
        let report = engine.report();
        assert_eq!(report.serving.wafers, 10);
        assert_eq!(report.serving.batches, 3); // 4 + 4 + 2
        assert_eq!(
            report.serving.predicted + report.serving.abstained,
            10,
            "every wafer is routed exactly once"
        );
    }

    #[test]
    fn grid_mismatch_is_rejected_without_partial_work() {
        let bundle = tiny_bundle(3);
        let mut engine = Engine::from_bundle(&bundle, ServeConfig::default()).expect("valid");
        let mut input = wafers(3, 16, 4);
        input.push(WaferMap::blank(24, 24));
        let err = engine.submit(&input).expect_err("wrong grid");
        assert!(matches!(err, ServeError::GridMismatch { expected: 16, found: (24, 24) }));
        assert_eq!(engine.report().serving.wafers, 0, "no partial batch was recorded");
    }

    #[test]
    fn calibration_sets_exact_or_under_coverage_on_the_calibration_set() {
        let bundle = tiny_bundle(5);
        let mut engine = Engine::from_bundle(&bundle, ServeConfig::default()).expect("valid");
        let mut calib = Dataset::new(16);
        let cfg = GenConfig::new(16);
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..40 {
            let class = DefectClass::from_index(i % DefectClass::COUNT).expect("valid");
            calib.push(wafermap::gen::Sample::original(generate(class, &cfg, &mut rng), class));
        }
        let tau = engine.calibrate(&calib, 0.5).expect("valid calibration set");
        assert_eq!(engine.threshold(), tau);
        let maps: Vec<WaferMap> = calib.samples().iter().map(|s| s.map.clone()).collect();
        let decisions = engine.submit(&maps).expect("matching grid");
        let kept = decisions.iter().filter(|d| d.selected()).count();
        assert!(kept <= 20, "calibration overshot: kept {kept} of 40 at coverage 0.5");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bundle = tiny_bundle(7);
        for bad in [
            ServeConfig { micro_batch: 0, ..ServeConfig::default() },
            ServeConfig { monitor_window: 0, ..ServeConfig::default() },
            ServeConfig { target_coverage: 0.0, ..ServeConfig::default() },
            ServeConfig { alarm_fraction: 1.5, ..ServeConfig::default() },
            ServeConfig { stats_window: 0, ..ServeConfig::default() },
            ServeConfig { deadline: Some(0.0), ..ServeConfig::default() },
            ServeConfig { deadline: Some(f64::NAN), ..ServeConfig::default() },
            ServeConfig { deadline: Some(-1.0), ..ServeConfig::default() },
            ServeConfig { max_queue_depth: Some(0), ..ServeConfig::default() },
        ] {
            assert!(matches!(Engine::from_bundle(&bundle, bad), Err(ServeError::InvalidConfig(_))));
        }
    }

    #[test]
    fn raw_submission_sheds_poisoned_wafers_and_serves_the_rest() {
        let bundle = tiny_bundle(21);
        let mut engine =
            Engine::from_bundle(&bundle, ServeConfig { micro_batch: 4, ..ServeConfig::default() })
                .expect("valid");
        let maps = wafers(5, 16, 22);
        let mut raw: Vec<RawWafer> = maps.iter().map(RawWafer::from_map).collect();
        raw[1].pixels[7] = f32::NAN;
        raw[3].pixels[0] = 0.23; // non-canonical level
        let decisions = engine.submit_raw(&raw);
        assert_eq!(decisions.len(), 5);
        assert_eq!(decisions[1].shed(), Some(ShedReason::InvalidInput));
        assert_eq!(decisions[3].shed(), Some(ShedReason::InvalidInput));
        for i in [0usize, 2, 4] {
            assert!(decisions[i].shed().is_none(), "wafer {i} should be model-served");
        }
        let report = engine.report();
        assert_eq!(report.serving.wafers, 3, "shed wafers never reach the model");
        assert_eq!(report.serving.shed, 2);
        assert_eq!(report.serving.submitted, 5);
    }

    #[test]
    fn valid_raw_submission_matches_typed_submission_bitwise() {
        let bundle = tiny_bundle(23);
        let config = ServeConfig { micro_batch: 4, ..ServeConfig::default() };
        let maps = wafers(6, 16, 24);
        let mut typed = Engine::from_bundle(&bundle, config).expect("valid");
        let mut raw_engine = Engine::from_bundle(&bundle, config).expect("valid");
        let expect = typed.submit(&maps).expect("matching grid");
        let raw: Vec<RawWafer> = maps.iter().map(RawWafer::from_map).collect();
        let got = raw_engine.submit_raw(&raw);
        assert_eq!(expect, got, "raw path must not perturb decisions");
    }

    #[test]
    fn queue_depth_cap_sheds_the_excess_in_order() {
        let bundle = tiny_bundle(25);
        let mut engine = Engine::from_bundle(
            &bundle,
            ServeConfig { micro_batch: 4, max_queue_depth: Some(3), ..ServeConfig::default() },
        )
        .expect("valid");
        let decisions = engine.submit(&wafers(5, 16, 26)).expect("matching grid");
        assert!(decisions[..3].iter().all(|d| d.shed().is_none()));
        assert!(decisions[3..].iter().all(|d| d.shed() == Some(ShedReason::QueueFull)));
        let report = engine.report();
        assert_eq!(report.serving.wafers, 3);
        assert_eq!(report.serving.shed, 2);
    }

    #[test]
    fn deadline_sheds_remainder_under_sim_clock() {
        let bundle = tiny_bundle(27);
        // The sim clock advances 30ms per read; deadline 50ms. The
        // pre-loop check reads once per micro-batch, so batch 1 starts
        // at t=30ms (within budget), batch 2 would start at t=60ms
        // (over budget) and its wafers are shed.
        let clock = Arc::new(faultsim::SimClock::with_step(Duration::from_millis(30)));
        let mut engine = Engine::from_bundle(
            &bundle,
            ServeConfig { micro_batch: 2, deadline: Some(0.05), ..ServeConfig::default() },
        )
        .expect("valid")
        .with_clock(clock);
        let decisions = engine.submit(&wafers(6, 16, 28)).expect("matching grid");
        assert!(decisions[..2].iter().all(|d| d.shed().is_none()));
        assert!(decisions[2..].iter().all(|d| d.shed() == Some(ShedReason::DeadlineExceeded)));
        let report = engine.report();
        assert_eq!(report.serving.wafers, 2);
        assert_eq!(report.serving.shed, 4);
    }

    #[test]
    fn shed_telemetry_is_labelled_per_reason() {
        let bundle = tiny_bundle(29);
        let mut engine = Engine::from_bundle(
            &bundle,
            ServeConfig { max_queue_depth: Some(1), ..ServeConfig::default() },
        )
        .expect("valid");
        let maps = wafers(3, 16, 30);
        let mut raw: Vec<RawWafer> = maps.iter().map(RawWafer::from_map).collect();
        raw[0].pixels[0] = f32::INFINITY;
        let _ = engine.submit_raw(&raw);
        let snapshot = engine.telemetry().snapshot();
        let shed = |reason: &str| {
            snapshot
                .counters
                .iter()
                .find(|c| {
                    c.name == "serve_shed_total"
                        && c.labels.iter().any(|(k, v)| k == "reason" && v == reason)
                })
                .map(|c| c.value)
                .unwrap_or_else(|| panic!("missing serve_shed_total{{reason={reason}}}"))
        };
        assert_eq!(shed("invalid_input"), 1);
        assert_eq!(shed("queue_full"), 1);
        assert_eq!(shed("deadline_exceeded"), 0);
    }

    #[test]
    fn validate_raw_reports_the_fault_kind() {
        let bundle = tiny_bundle(31);
        let engine = Engine::from_bundle(&bundle, ServeConfig::default()).expect("valid");
        let good = RawWafer::from_map(&wafers(1, 16, 32)[0]);
        assert!(engine.validate_raw(&good).is_ok());

        let mut shape = good.clone();
        shape.width = 24;
        shape.height = 24;
        assert!(matches!(
            engine.validate_raw(&shape),
            Err(InputFault::ShapeMismatch { expected: 16, found: (24, 24) })
        ));

        let mut short = good.clone();
        short.pixels.pop();
        assert!(matches!(
            engine.validate_raw(&short),
            Err(InputFault::LengthMismatch { expected: 256, found: 255 })
        ));

        let mut nan = good.clone();
        nan.pixels[9] = f32::NAN;
        assert!(matches!(engine.validate_raw(&nan), Err(InputFault::NonFinite { index: 9 })));

        let mut level = good;
        level.pixels[4] = 0.77;
        assert!(matches!(
            engine.validate_raw(&level),
            Err(InputFault::IllegalLevel { index: 4, .. })
        ));
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            attempts: 5,
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(350),
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(100));
        assert_eq!(policy.backoff(1), Duration::from_millis(200));
        assert_eq!(policy.backoff(2), Duration::from_millis(350));
        assert_eq!(policy.backoff(30), Duration::from_millis(350));
    }

    #[test]
    fn load_retry_gives_up_after_bounded_attempts_on_io_errors() {
        let missing = std::env::temp_dir().join("wm-serve-retry-missing.bundle.json");
        let _ = std::fs::remove_file(&missing);
        let mut sleeps = Vec::new();
        let err = load_bundle_with_retry(
            &missing,
            RetryPolicy {
                attempts: 3,
                initial_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(15),
            },
            |d| sleeps.push(d),
        )
        .expect_err("file does not exist");
        assert!(matches!(err, LoadError::Io { .. }));
        assert_eq!(
            sleeps,
            vec![Duration::from_millis(10), Duration::from_millis(15)],
            "two backoffs between three attempts, doubled then capped"
        );
    }

    #[test]
    fn calibrate_rejects_grid_mismatch_without_changing_threshold() {
        let bundle = tiny_bundle(11);
        let mut engine = Engine::from_bundle(&bundle, ServeConfig::default()).expect("valid");
        let before = engine.threshold();
        // 24-grid calibration set against a 16-grid model.
        let mut calib = Dataset::new(24);
        let cfg = GenConfig::new(24);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..4 {
            calib.push(wafermap::gen::Sample::original(
                generate(DefectClass::Center, &cfg, &mut rng),
                DefectClass::Center,
            ));
        }
        let err = engine.calibrate(&calib, 0.9).expect_err("mismatched grid");
        assert!(matches!(err, ServeError::GridMismatch { expected: 16, found: (24, 24) }));
        assert_eq!(engine.threshold(), before, "failed calibration must not move tau");
    }

    #[test]
    fn calibrate_rejects_empty_set() {
        let bundle = tiny_bundle(13);
        let mut engine = Engine::from_bundle(&bundle, ServeConfig::default()).expect("valid");
        let err = engine.calibrate(&Dataset::new(16), 0.9).expect_err("empty set");
        assert!(matches!(err, ServeError::EmptyCalibration));
    }

    #[test]
    fn report_carries_telemetry_in_both_formats() {
        let bundle = tiny_bundle(15);
        let mut engine =
            Engine::from_bundle(&bundle, ServeConfig { micro_batch: 4, ..ServeConfig::default() })
                .expect("valid");
        let _ = engine.submit(&wafers(10, 16, 16)).expect("matching grid");
        let report = engine.report();
        assert!(!report.telemetry.is_empty());
        let find = |name: &str| {
            report
                .telemetry
                .counters
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
                .value
        };
        assert_eq!(find("serve_wafers_total"), 10);
        assert_eq!(find("serve_batches_total"), 3);
        assert_eq!(
            find("serve_predicted_total") + find("serve_abstained_total"),
            10,
            "telemetry counters must agree with the routed wafer count"
        );
        let text = engine.prometheus();
        let parsed = telemetry::parse_exposition(&text).expect("valid exposition");
        assert!(parsed.samples > 0);
        assert!(parsed.families.iter().any(|(n, _)| n == "serve_batch_seconds"));
    }

    #[test]
    fn serving_view_and_telemetry_come_from_one_store() {
        let bundle = tiny_bundle(17);
        let mut engine = Engine::from_bundle(
            &bundle,
            ServeConfig { micro_batch: 4, max_queue_depth: Some(9), ..ServeConfig::default() },
        )
        .expect("valid");
        let fresh = engine.report().serving;
        assert_eq!((fresh.batches, fresh.wafers, fresh.submitted), (0, 0, 0));
        assert_eq!(fresh.coverage, 0.0);
        assert_eq!(fresh.throughput_wafers_per_sec, 0.0);
        assert_eq!(fresh.latency.max, 0.0);

        // Calibrate so the stream holds both routes.
        let mut calib = Dataset::new(16);
        for (i, map) in wafers(18, 16, 18).into_iter().enumerate() {
            let class = DefectClass::from_index(i % DefectClass::COUNT).expect("valid");
            calib.push(wafermap::gen::Sample::original(map, class));
        }
        engine.calibrate(&calib, 0.5).expect("valid calibration set");
        // Typed: 12 wafers, 9 served (3 batches) and 3 over the cap.
        let _ = engine.submit(&wafers(12, 16, 19)).expect("matching grid");
        // Raw: 7 wafers, 2 poisoned, all 5 valid ones served (2 batches).
        let mut raw: Vec<RawWafer> = wafers(7, 16, 20).iter().map(RawWafer::from_map).collect();
        raw[0].pixels[3] = f32::NAN;
        raw[5].pixels[1] = 0.3;
        let _ = engine.submit_raw(&raw);

        let report = engine.report();
        let s = &report.serving;
        let t = &report.telemetry;
        let counter = |name: &str, labels: &[(&str, &str)]| {
            t.counters
                .iter()
                .find(|c| {
                    c.name == name
                        && c.labels.len() == labels.len()
                        && labels
                            .iter()
                            .all(|&(k, v)| c.labels.iter().any(|(ck, cv)| ck == k && cv == v))
                })
                .unwrap_or_else(|| panic!("missing counter {name}{labels:?}"))
                .value
        };
        let histogram = |name: &str| {
            t.histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
                .summary
        };
        assert_eq!((s.submitted, s.wafers, s.batches, s.shed), (19, 14, 5, 5));
        assert_eq!(s.batches, counter("serve_batches_total", &[]));
        assert_eq!(s.wafers, counter("serve_wafers_total", &[]));
        assert_eq!(s.predicted, counter("serve_predicted_total", &[]));
        assert_eq!(s.abstained, counter("serve_abstained_total", &[]));
        assert_eq!(report.alarms, counter("serve_alarms_total", &[]));
        for c in &s.shed_per_reason {
            assert_eq!(c.count, counter("serve_shed_total", &[("reason", c.reason.as_str())]));
        }
        assert_eq!(s.shed_per_reason.iter().map(|c| c.count).sum::<u64>(), s.shed);
        assert_eq!(s.shed_per_reason[ShedReason::InvalidInput.index()].count, 2);
        assert_eq!(s.shed_per_reason[ShedReason::QueueFull.index()].count, 3);
        for (i, class) in DefectClass::ALL.iter().enumerate() {
            let per_route = |route| {
                counter("serve_decisions_total", &[("class", class.name()), ("route", route)])
            };
            assert_eq!(s.predicted_per_class[i], per_route("predicted"));
            assert_eq!(s.abstained_per_class[i], per_route("abstained"));
        }
        assert_eq!(s.predicted_per_class.iter().sum::<u64>(), s.predicted);
        assert_eq!(s.abstained_per_class.iter().sum::<u64>(), s.abstained);
        assert!(s.predicted > 0 && s.abstained > 0, "calibration should split the routes");
        // Latency is weighted per wafer, batch latency per batch.
        assert_eq!(s.latency, histogram("serve_wafer_latency_seconds"));
        assert_eq!(s.batch_latency, histogram("serve_batch_seconds"));
        assert_eq!(s.compute_latency, histogram("serve_wafer_compute_seconds"));
        assert_eq!(s.latency.count, s.wafers);
        assert_eq!(s.batch_latency.count, s.batches);
        assert_eq!(s.compute_latency.count, s.wafers);
        assert!((s.throughput_wafers_per_sec - s.wafers as f64 / s.batch_latency.sum).abs() < 1e-9);
        // Shed wafers never dilute coverage.
        assert_eq!(s.coverage, s.predicted as f64 / s.wafers as f64);
    }

    #[test]
    fn report_json_parses_back() {
        let bundle = tiny_bundle(8);
        let mut engine = Engine::from_bundle(&bundle, ServeConfig::default()).expect("valid");
        let _ = engine.submit(&wafers(5, 16, 9)).expect("matching grid");
        let report: ServeReport =
            serde_json::from_str(&engine.report_json()).expect("valid JSON report");
        assert_eq!(report, engine.report());
    }
}
