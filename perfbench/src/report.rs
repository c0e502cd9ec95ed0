//! Metric names, units and directions, and the result a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better)` of every end-to-end metric. Each workload
/// reports all of them; README.md gives the per-workload definitions.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("throughput_wps", "wafers/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("slo_ok_ratio", "fraction", "higher"),
    ("selective_accuracy", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

/// The Table I layers, in network order, as the traced run names them.
pub const LAYERS: &[&str] = &[
    "conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "conv3", "relu3", "pool3", "fc",
    "relu_fc", "head_f", "head_g",
];
/// The layers that do GEMM work, for which GFLOP/s are reported.
pub const GEMM_LAYERS: &[&str] = &["conv1", "conv2", "conv3", "fc"];
/// Layer passes: inference on a 4-wafer block, training forward and
/// backward on a 32-wafer batch.
pub const PASSES: &[&str] = &["infer_b4", "fwd_b32", "bwd_b32"];
/// The seven Table I GEMM shapes, as `(name, kind, m, k, n)`.
pub const GEMM_SHAPES: &[(&str, &str, usize, usize, usize)] = &[
    ("nn_conv1_64x25x1024", "nn", 64, 25, 1024),
    ("nn_conv2_32x576x256", "nn", 32, 576, 256),
    ("nn_conv3_32x288x64", "nn", 32, 288, 64),
    ("nt_fc_32x512x256", "nt", 32, 512, 256),
    ("nt_dw_32x256x576", "nt", 32, 256, 576),
    ("tn_dcol1_25x64x1024", "tn", 25, 64, 1024),
    ("tn_dcol2_576x32x256", "tn", 576, 32, 256),
];

/// `(name, unit, better)` of every per-layer metric of the traced run.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let fixed: &[(&str, &str, &str)] = &[
        ("serve.engine.self_us_per_wafer", "us", "lower"),
        ("serve.engine.validate_us_per_wafer", "us", "lower"),
        ("serve.engine.batch_size_mean", "wafers", "higher"),
        ("serve.engine.shed.invalid_input", "count", "lower"),
        ("serve.engine.shed.deadline_exceeded", "count", "lower"),
        ("serve.engine.shed.queue_full", "count", "lower"),
        ("serve.engine.alarms_retained", "count", "lower"),
        ("serve.engine.scrape_us", "us", "lower"),
        ("serve.engine.report_us", "us", "lower"),
        ("serve.monitor.alarm_delay_wafers", "wafers", "lower"),
        ("loadgen.queue_wait_p99_ms", "ms", "lower"),
        ("selective.model.infer_us_per_wafer.b1", "us", "lower"),
        ("selective.model.infer_us_per_wafer.b64", "us", "lower"),
        ("selective.model.calibrate_s", "s", "lower"),
        ("selective.bundle.save_s", "s", "lower"),
        ("selective.bundle.load_s", "s", "lower"),
        ("selective.bundle.bytes", "bytes", "lower"),
        ("selective.trainer.stage_ms", "ms", "lower"),
        ("selective.trainer.forward_ms", "ms", "lower"),
        ("selective.trainer.loss_ms", "ms", "lower"),
        ("selective.trainer.backward_ms", "ms", "lower"),
        ("selective.trainer.optim_ms", "ms", "lower"),
        ("selective.trainer.final_loss", "nats", "lower"),
    ];
    let mut out: Vec<(String, &'static str, &'static str)> =
        fixed.iter().map(|&(n, u, b)| (n.to_string(), u, b)).collect();
    for pass in PASSES {
        for layer in LAYERS {
            out.push((format!("nn.layer.{layer}.{pass}_us"), "us", "lower"));
        }
        for layer in GEMM_LAYERS {
            out.push((format!("nn.layer.{layer}.{pass}_gflops"), "GFLOP/s", "higher"));
        }
        out.push((format!("nn.layer.unattributed.{pass}_us"), "us", "lower"));
    }
    for (shape, ..) in GEMM_SHAPES {
        out.push((format!("nn.gemm.{shape}_gflops"), "GFLOP/s", "higher"));
    }
    let tail: &[(&str, &str, &str)] = &[
        ("nn.pool.jobs", "count", "higher"),
        ("nn.pool.worker_chunk_share", "fraction", "higher"),
        ("nn.pool.queue_waits", "count", "lower"),
        ("nn.workspace.grows", "count", "lower"),
        ("nn.workspace.scratch_mb", "MB", "lower"),
        ("process.allocs_per_wafer", "count", "lower"),
        ("process.allocs_per_step", "count", "lower"),
        ("augment.ae_train_s", "s", "lower"),
        ("augment.generate_s", "s", "lower"),
        ("augment.class_imbalance", "ratio", "lower"),
        ("wafermap.gen_wafers_per_s", "wafers/s", "higher"),
        ("wafermap.write_image_ns", "ns", "lower"),
        ("host.fma_peak_gflops", "GFLOP/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ];
    out.extend(tail.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    out
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Count operations the workload attempted and how many failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One correctness check; a failed check counts as a failed
    /// operation and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let why = what();
            eprintln!("perfbench: check failed: {why}");
            self.failures.push(why);
        }
    }

    /// Human-readable lines plus the final one-line JSON result.
    /// `wanted` is the metric table of this mode; a metric the
    /// workload did not exercise reads 0 (end-to-end metrics are all
    /// measured on every workload, so a missing one fails the run).
    pub fn render(&mut self, wanted: &[(String, &'static str, &'static str)], e2e: bool) -> String {
        let mut text = String::new();
        let mut json = String::new();
        let mut missing = Vec::new();
        for (name, unit, _) in wanted {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    missing.push(format!("{name} is not finite"));
                    0.0
                }
                None if e2e => {
                    missing.push(format!("{name} was not measured"));
                    0.0
                }
                None => 0.0,
            };
            let _ = writeln!(text, "metric {name:<44} {value:>16.6} {unit}");
            if !json.is_empty() {
                json.push(',');
            }
            let _ = write!(json, "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}");
        }
        for why in missing {
            self.check(false, || why);
        }
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            text,
            "fail_ratio {fail_ratio} ({} of {} operations and checks failed)",
            self.failed, self.attempted
        );
        let _ = write!(
            text,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.failures.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        text
    }
}
