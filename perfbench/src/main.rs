//! The repository benchmark: seeded serving and training workloads
//! driven through the library's public API, with end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_burst|serve_paced|train_pipeline --seed N \
//!     --seconds S --trace 0|1 --rate-wps R --slo-ms L --job-slo-s J
//! ```
//!
//! The last line of standard output is the JSON result; the lines
//! before it give the provenance and each metric with its unit. Spans
//! of a traced run and every result are written under `perfbench/out/`.
//! See `perfbench/README.md` for the metrics and why each workload
//! exists.

#![deny(unsafe_code)]

mod alloc;
mod host;
mod layers;
mod prep;
mod report;
mod serving;
mod stats;
mod trace;
mod training;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use host::Host;
use report::Report;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Poisson arrival rate of `serve_paced`, wafers per second.
    pub rate_wps: f64,
    /// Per-wafer latency limit of the serving SLO.
    pub slo_ms: f64,
    /// Per-job time limit of the training SLO.
    pub job_slo_s: f64,
}

const WORKLOADS: &[&str] = &["serve_burst", "serve_paced", "train_pipeline"];

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let mut get = std::collections::HashMap::new();
    while let Some(flag) = args.next() {
        if flag == "--list-metrics" {
            return Ok(None);
        }
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        get.insert(key.to_string(), value);
    }
    fn num<T: std::str::FromStr>(
        get: &std::collections::HashMap<String, String>,
        key: &str,
    ) -> Result<T, String> {
        let v = get.get(key).ok_or_else(|| format!("missing --{key}"))?;
        v.parse().map_err(|_| format!("--{key} {v} is not a valid number"))
    }
    let workload = get.get("workload").cloned().ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let trace: u8 = num(&get, "trace")?;
    let args = Args {
        workload,
        seed: num(&get, "seed")?,
        seconds: num(&get, "seconds")?,
        trace: trace == 1,
        rate_wps: num(&get, "rate-wps")?,
        slo_ms: num(&get, "slo-ms")?,
        job_slo_s: num(&get, "job-slo-s")?,
    };
    if !(args.seconds > 0.0 && args.rate_wps > 0.0 && args.slo_ms > 0.0 && args.job_slo_s > 0.0) {
        return Err("--seconds, --rate-wps, --slo-ms and --job-slo-s must be positive".into());
    }
    Ok(Some(args))
}

/// Process-wide counters the workloads read around their timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub allocs: u64,
    pub jobs: u64,
    pub chunks: u64,
    pub worker_chunks: u64,
    pub queue_waits: u64,
    pub grows: u64,
}

impl Counters {
    pub fn read() -> Self {
        let snap = telemetry::global().snapshot();
        let c = |name: &str| snap.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value);
        Counters {
            jobs: c("pool_jobs_total"),
            chunks: c("pool_chunks_total"),
            worker_chunks: c("pool_worker_chunks_total"),
            queue_waits: c("pool_queue_waits_total"),
            grows: nn::workspace::grow_count(),
            allocs: alloc::allocations(),
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            allocs: self.allocs - before.allocs,
            jobs: self.jobs - before.jobs,
            chunks: self.chunks - before.chunks,
            worker_chunks: self.worker_chunks - before.worker_chunks,
            queue_waits: self.queue_waits - before.queue_waits,
            grows: self.grows - before.grows,
        }
    }

    pub fn report_pool(&self, report: &mut Report) {
        report.metric("nn.pool.jobs", self.jobs as f64);
        report.metric(
            "nn.pool.worker_chunk_share",
            self.worker_chunks as f64 / self.chunks.max(1) as f64,
        );
        report.metric("nn.pool.queue_waits", self.queue_waits as f64);
    }
}

/// Restart the kernel's peak-RSS record (VmHWM) at the current RSS, so
/// the peak covers the workload and not the untimed preparation.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory (VmHWM) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn list_metrics() {
    let row = |name: &str, unit: &str, better: &str| {
        format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
    };
    let e2e: Vec<String> = report::END_TO_END.iter().map(|&(n, u, b)| row(n, u, b)).collect();
    let layers: Vec<String> = report::per_layer().iter().map(|(n, u, b)| row(n, u, b)).collect();
    println!("{{\"end_to_end\": [{}], \"per_layer\": [{}]}}", e2e.join(", "), layers.join(", "));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            list_metrics();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = match Host::prepare() {
        Ok(host) => host,
        Err(e) => {
            eprintln!("perfbench: refusing to run: {e}");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(1);
    }
    let provenance = host.provenance(&args.workload, args.seed, args.trace);
    println!("provenance {provenance}");

    let mut report = Report::default();
    let traced = match args.workload.as_str() {
        "serve_burst" => serving::run(&args, &host, &out, false, &mut report),
        "serve_paced" => serving::run(&args, &host, &out, true, &mut report),
        _ => training::run(&args, &mut report),
    };
    let tracer = match traced {
        Ok(tracer) => tracer,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let wanted: Vec<(String, &str, &str)> = if args.trace {
        report.metric("host.fma_peak_gflops", host.fma_peak_gflops);
        let scratch = telemetry::global()
            .snapshot()
            .gauges
            .iter()
            .find(|g| g.name == "hotpath_scratch_bytes")
            .map_or(0.0, |g| g.value);
        report.metric("nn.workspace.scratch_mb", scratch / 1e6);
        let spans = out.join(format!("{stem}.spans.jsonl"));
        let summary = out.join(format!("{stem}.spans.tsv"));
        if let Err(e) = std::fs::write(&spans, tracer.spans_jsonl())
            .and_then(|()| std::fs::write(&summary, tracer.summary_tsv()))
        {
            report.check(false, || format!("cannot write the span dump: {e}"));
        }
        report::per_layer()
    } else {
        report::END_TO_END.iter().map(|&(n, u, b)| (n.to_string(), u, b)).collect()
    };
    let text = report.render(&wanted, !args.trace);
    let _ = std::fs::write(
        out.join(format!("{stem}.result.txt")),
        format!("provenance {provenance}\n{text}\n"),
    );
    println!("{text}");
    ExitCode::SUCCESS
}
