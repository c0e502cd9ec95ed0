//! The metrics registry and its handle types.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::window::{Window, WindowSummary};

/// A named collection of metrics.
///
/// `Registry` is a cheap handle (`Arc` inside): clone it freely into
/// trainers, augmenters and engines; all clones observe the same
/// metrics. Metric handles ([`Counter`], [`Gauge`], [`Histogram`]) are
/// themselves handles too — resolve them once (a registry lookup takes
/// a lock) and record through them lock-free (counters, gauges) or
/// under a short per-metric mutex (histograms).
///
/// Metric and label names must match the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*` for metrics, `[a-zA-Z_][a-zA-Z0-9_]*`
/// for labels); violations panic at registration, never at exposition.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Entry>>>,
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    handle: Handle,
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "summary",
        }
    }
}

/// Monotonically increasing counter (lock-free).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-written `f64` value (lock-free; stored as bit pattern).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Observation stream summarized over a bounded [`Window`].
///
/// Shared handle: recording takes a short mutex on the underlying
/// window. Memory is O(window capacity) regardless of stream length.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<Window>>);

impl Histogram {
    fn new(capacity: usize) -> Self {
        Histogram(Arc::new(Mutex::new(Window::new(capacity))))
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        self.0.lock().expect("histogram lock").observe(value);
    }

    /// Start a wall-clock timer that records elapsed seconds here.
    #[must_use]
    pub fn start_timer(&self) -> Timer {
        Timer { histogram: self.clone(), start: Instant::now(), recorded: false }
    }

    /// Time one closure, recording its elapsed seconds.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let timer = self.start_timer();
        let out = f();
        let _ = timer.stop();
        out
    }

    /// Point-in-time summary (stream totals + window distribution).
    #[must_use]
    pub fn summary(&self) -> WindowSummary {
        self.0.lock().expect("histogram lock").summary()
    }

    /// Samples currently retained (`<= capacity`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.lock().expect("histogram lock").len()
    }

    /// Whether no observation has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.lock().expect("histogram lock").is_empty()
    }

    /// Maximum retained samples.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.0.lock().expect("histogram lock").capacity()
    }
}

/// Scoped wall-clock timer: records elapsed seconds into its
/// histogram when [`Timer::stop`]ped, or on drop if never stopped.
#[derive(Debug)]
pub struct Timer {
    histogram: Histogram,
    start: Instant,
    recorded: bool,
}

impl Timer {
    /// Stop the timer, record the elapsed seconds, and return them.
    pub fn stop(mut self) -> f64 {
        self.recorded = true;
        let elapsed = self.start.elapsed().as_secs_f64();
        self.histogram.observe(elapsed);
        elapsed
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if !self.recorded {
            self.histogram.observe(self.start.elapsed().as_secs_f64());
        }
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl Registry {
    /// Fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create an unlabeled counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid metric name, or is already
    /// registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Get or create a counter with labels.
    ///
    /// # Panics
    ///
    /// Panics on invalid metric/label names or a kind collision.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.get_or_insert(name, labels, help, || Handle::Counter(Counter::default())) {
            Handle::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create an unlabeled gauge.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or a kind collision.
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Get or create a gauge with labels.
    ///
    /// # Panics
    ///
    /// Panics on invalid metric/label names or a kind collision.
    #[must_use]
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.get_or_insert(name, labels, help, || Handle::Gauge(Gauge::default())) {
            Handle::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or create an unlabeled histogram with the given window
    /// capacity (ignored if the histogram already exists).
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name, zero capacity, or a kind
    /// collision.
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str, capacity: usize) -> Histogram {
        self.histogram_with(name, &[], help, capacity)
    }

    /// Get or create a histogram with labels.
    fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        capacity: usize,
    ) -> Histogram {
        match self.get_or_insert(name, labels, help, || Handle::Histogram(Histogram::new(capacity)))
        {
            Handle::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        for (label, _) in labels {
            assert!(valid_label_name(label), "invalid label name `{label}` on metric `{name}`");
        }
        let mut entries = self.inner.lock().expect("registry lock");
        if let Some(entry) = entries.iter().find(|e| e.name == name && key_eq(&e.labels, labels)) {
            return entry.handle.clone();
        }
        let handle = make();
        entries.push(Entry {
            name: name.to_string(),
            labels: labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
            help: help.to_string(),
            handle: handle.clone(),
        });
        handle
    }

    /// Point-in-time snapshot of every registered metric, in
    /// registration order (deterministic exposition).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.inner.lock().expect("registry lock");
        let mut snap = Snapshot::default();
        for e in entries.iter() {
            match &e.handle {
                Handle::Counter(c) => snap.counters.push(CounterSample {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    help: e.help.clone(),
                    value: c.get(),
                }),
                Handle::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    help: e.help.clone(),
                    value: g.get(),
                }),
                Handle::Histogram(h) => snap.histograms.push(HistogramSample {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    help: e.help.clone(),
                    summary: h.summary(),
                }),
            }
        }
        snap
    }

    /// The snapshot as pretty-printed JSON.
    #[must_use]
    pub fn json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("snapshot serializes")
    }

    /// The snapshot in the Prometheus text exposition format.
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }
}

fn key_eq(stored: &[(String, String)], query: &[(&str, &str)]) -> bool {
    stored.len() == query.len()
        && stored.iter().zip(query).all(|((k, v), &(qk, qv))| k == qk && v == qv)
}

/// One counter reading in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Help text.
    pub help: String,
    /// Counter value.
    pub value: u64,
}

/// One gauge reading in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Help text.
    pub help: String,
    /// Gauge value.
    pub value: f64,
}

/// One histogram reading in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Help text.
    pub help: String,
    /// Stream totals + window distribution.
    pub summary: WindowSummary,
}

/// Serializable point-in-time view of a [`Registry`] — the JSON
/// exposition format, and the source the Prometheus text format is
/// rendered from.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter readings, in registration order.
    pub counters: Vec<CounterSample>,
    /// Gauge readings, in registration order.
    pub gauges: Vec<GaugeSample>,
    /// Histogram readings, in registration order.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// Whether the snapshot holds no metrics at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render the Prometheus text exposition format.
    ///
    /// Counters and gauges expose as their native types; histograms
    /// expose as Prometheus *summaries*: `{quantile="..."}` sample
    /// lines over the bounded window plus exact `_sum` / `_count`
    /// stream totals.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<String> = Vec::new();
        let mut emit_header = |out: &mut String, name: &str, help: &str, kind: &str| {
            if seen.iter().any(|s| s == name) {
                return;
            }
            seen.push(name.to_string());
            if !help.is_empty() {
                out.push_str(&format!("# HELP {name} {}\n", escape_help(help)));
            }
            out.push_str(&format!("# TYPE {name} {kind}\n"));
        };

        for c in &self.counters {
            emit_header(&mut out, &c.name, &c.help, "counter");
            out.push_str(&format!("{}{} {}\n", c.name, render_labels(&c.labels, None), c.value));
        }
        for g in &self.gauges {
            emit_header(&mut out, &g.name, &g.help, "gauge");
            out.push_str(&format!(
                "{}{} {}\n",
                g.name,
                render_labels(&g.labels, None),
                render_value(g.value)
            ));
        }
        for h in &self.histograms {
            emit_header(&mut out, &h.name, &h.help, "summary");
            for (q, v) in [("0.5", h.summary.p50), ("0.9", h.summary.p90), ("0.99", h.summary.p99)]
            {
                out.push_str(&format!(
                    "{}{} {}\n",
                    h.name,
                    render_labels(&h.labels, Some(q)),
                    render_value(v)
                ));
            }
            let labels = render_labels(&h.labels, None);
            out.push_str(&format!("{}_sum{labels} {}\n", h.name, render_value(h.summary.sum)));
            out.push_str(&format!("{}_count{labels} {}\n", h.name, h.summary.count));
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], quantile: Option<&str>) -> String {
    let mut pairs: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some(q) = quantile {
        pairs.push(format!("quantile=\"{q}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn render_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// The process-wide registry.
///
/// Infrastructure with no natural owner — the `nn::pool` worker pool —
/// records here; everything with an owning object (trainer, augmenter,
/// serving engine) takes an explicit [`Registry`] instead so tests and
/// concurrent pipelines stay isolated.
#[must_use]
pub fn global() -> Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("requests_total", "Requests");
        let b = r.counter("requests_total", "Requests");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Different labels are a different series.
        let c = r.counter_with("requests_total", &[("route", "serve")], "Requests");
        c.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(c.get(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("a_total", "A").add(5);
        r.gauge("b", "B").set(1.25);
        let h = r.histogram("c_seconds", "C", 8);
        h.observe(0.5);
        h.observe(1.5);
        let snap = r.snapshot();
        let json = r.json();
        let back: Snapshot = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(back, snap);
        assert!(!snap.is_empty());
    }

    #[test]
    fn prometheus_text_has_headers_and_samples() {
        let r = Registry::new();
        r.counter_with("wafers_total", &[("class", "Donut")], "Wafers").add(7);
        r.gauge("coverage", "Coverage").set(0.9);
        r.histogram("latency_seconds", "Latency", 4).observe(0.25);
        let text = r.prometheus();
        assert!(text.contains("# TYPE wafers_total counter"));
        assert!(text.contains("wafers_total{class=\"Donut\"} 7"));
        assert!(text.contains("# TYPE coverage gauge"));
        assert!(text.contains("coverage 0.9"));
        assert!(text.contains("# TYPE latency_seconds summary"));
        assert!(text.contains("latency_seconds{quantile=\"0.5\"} 0.25"));
        assert!(text.contains("latency_seconds_sum 0.25"));
        assert!(text.contains("latency_seconds_count 1"));
    }

    #[test]
    fn timer_records_on_stop_and_on_drop() {
        let r = Registry::new();
        let h = r.histogram("t_seconds", "T", 4);
        let elapsed = h.start_timer().stop();
        assert!(elapsed >= 0.0);
        {
            let _t = h.start_timer();
        }
        h.time(|| ());
        assert_eq!(h.summary().count, 3);
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("telemetry_test_global_total", "Test");
        let before = c.get();
        global().counter("telemetry_test_global_total", "Test").inc();
        assert_eq!(c.get(), before + 1);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        let _ = Registry::new().counter("bad name", "nope");
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_collisions_are_rejected() {
        let r = Registry::new();
        let _ = r.counter("x_total", "X");
        let _ = r.gauge("x_total", "X");
    }
}
