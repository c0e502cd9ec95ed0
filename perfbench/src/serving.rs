//! The serving workloads.
//!
//! `serve_burst` is a closed loop with one client: nominal wafers sent
//! back to back through `Engine::submit` in full micro-batches.
//! `serve_paced` is an open loop: seeded Poisson arrivals at a fixed
//! rate, raw buffers through `Engine::submit_raw` (each call takes
//! whatever has arrived), a nominal first half and a severely shifted
//! second half, about 1% poisoned buffers, and a metrics scrape once
//! per simulated second.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selective::CheckpointBundle;
use serve::{Engine, RawWafer, Route, ShedReason, WaferDecision};
use wafermap::{Sample, WaferMap};

use crate::prep::{self, GRID, MICRO_BATCH};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{layers, stats, Args, Counters, Host};

/// Distinct nominal wafers the streams cycle through.
const NOMINAL_POOL: usize = 4096;
/// Distinct shifted wafers the paced stream cycles through.
const SHIFTED_POOL: usize = 2048;
/// Prefix checked for invariance across micro-batch and pool width.
const INVARIANCE_PREFIX: usize = 128;
/// Share of paced buffers poisoned with `FaultPlan::poison_pixels`.
const POISON_RATE: f64 = 0.01;
/// Paced latency percentiles are taken per consecutive slice of the
/// stream and reported as the median across slices; a slice holds
/// about 1600 wafers.
const PACED_LATENCY_CHUNKS: usize = 5;
/// Slices the closed loop's throughput and latency are taken over
/// (see `burst_summary`); a slice holds about 1.5 s of the stream.
const BURST_SLICES: usize = 20;

/// What one pass over a stream measured.
#[derive(Debug, Default)]
struct Phase {
    /// Wafers sent in the timed phase.
    sent: u64,
    /// Wall time from the first send to the last decision.
    wall_s: f64,
    /// Time not spent waiting for arrivals.
    active_s: f64,
    latencies_ms: Vec<f64>,
    queue_waits_ms: Vec<f64>,
    /// Completion time (seconds into the phase) and size of each batch.
    batches: Vec<(f64, u64)>,
    /// Non-poisoned wafers, and those decided within the SLO.
    eligible: u64,
    slo_ok: u64,
    failed_ops: u64,
    mismatches: u64,
    selected: u64,
    selected_correct: u64,
    poisoned: u64,
    poison_not_shed: u64,
    /// Non-poisoned shifted wafers served, and how many of them were
    /// served up to and including the first coverage alarm.
    served_after_shift: u64,
    alarm_delay: Option<u64>,
    nominal_alarms: u64,
    scrape_us: Vec<f64>,
    report_us: Vec<f64>,
    counters: Counters,
    batch_seconds_sum: f64,
    batch_size: (u64, f64),
}

/// `(count, sum)` of one engine histogram.
fn engine_hist(engine: &Engine, name: &str) -> (u64, f64) {
    engine
        .telemetry()
        .snapshot()
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0, 0.0), |h| (h.summary.count, h.summary.sum))
}

/// Spin until `t` seconds after `start`. Waking from a sleep can take a
/// millisecond on a busy host, which would make the generator late and
/// the tail latency a measure of the host's timer; the waiting thread
/// has nothing else to do.
fn wait_until(start: Instant, t: f64) {
    while start.elapsed().as_secs_f64() < t {
        std::hint::spin_loop();
    }
}

/// The closed loop's inputs: the pool, its maps and their reference
/// decisions, index for index.
struct BurstStream<'a> {
    pool: &'a [Sample],
    maps: &'a [WaferMap],
    reference: &'a [WaferDecision],
}

/// Closed loop: full micro-batches back to back for `seconds`.
fn burst_phase(
    engine: &mut Engine,
    stream: &BurstStream<'_>,
    seconds: f64,
    slo_ms: f64,
    tr: &mut Tracer,
) -> Phase {
    let BurstStream { pool, maps, reference } = *stream;
    let mut p = Phase::default();
    let batch0 = engine_hist(engine, "serve_batch_seconds");
    let size0 = engine_hist(engine, "serve_batch_size");
    let before = Counters::read();
    let start = Instant::now();
    let mut off = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let slice = &maps[off..off + MICRO_BATCH];
        tr.new_trace();
        tr.begin("serve.engine.submit");
        let t = Instant::now();
        let result = engine.submit(slice);
        let dt = t.elapsed().as_secs_f64();
        tr.end();
        p.sent += slice.len() as u64;
        p.batches.push((start.elapsed().as_secs_f64(), slice.len() as u64));
        match result {
            Ok(decisions) => {
                for (j, d) in decisions.iter().enumerate() {
                    p.latencies_ms.push(dt * 1e3);
                    p.eligible += 1;
                    if !prep::same_decision(d, &reference[off + j]) {
                        p.mismatches += 1;
                    }
                    if let Route::Predicted(label) = d.route {
                        p.selected += 1;
                        p.selected_correct += u64::from(label == pool[off + j].label);
                    }
                    match d.route {
                        Route::Shed(_) => p.failed_ops += 1,
                        _ => p.slo_ok += u64::from(dt * 1e3 <= slo_ms),
                    }
                }
            }
            Err(_) => p.failed_ops += slice.len() as u64,
        }
        off = (off + MICRO_BATCH) % maps.len();
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.active_s = p.wall_s;
    p.counters = Counters::read().since(&before);
    let batch1 = engine_hist(engine, "serve_batch_seconds");
    let size1 = engine_hist(engine, "serve_batch_size");
    p.batch_seconds_sum = batch1.1 - batch0.1;
    p.batch_size = (size1.0 - size0.0, size1.1 - size0.1);
    p
}

/// One scheduled arrival of the paced stream.
struct Arrival {
    t: f64,
    src: usize,
    shifted: bool,
    /// Index into the poisoned buffers.
    poison: Option<usize>,
}

struct PacedStream {
    arrivals: Vec<Arrival>,
    nominal: Vec<Vec<f32>>,
    shifted: Vec<Vec<f32>>,
    poisoned: Vec<Vec<f32>>,
}

impl PacedStream {
    fn new(seed: u64, rate: f64, seconds: f64, nominal: &[Sample], shifted: &[Sample]) -> Self {
        let pixels = |w: &Sample| RawWafer::from_map(&w.map).pixels;
        let nominal: Vec<Vec<f32>> = nominal.iter().map(pixels).collect();
        let shifted: Vec<Vec<f32>> = shifted.iter().map(pixels).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6172_7269);
        let mut plan = faultsim::FaultPlan::new(seed ^ 0x706f_6973);
        let mut arrivals = Vec::new();
        let mut poisoned = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.gen::<f64>()).ln() / rate;
            if t >= seconds {
                break;
            }
            let i = arrivals.len();
            let is_shifted = t >= seconds / 2.0;
            let src = if is_shifted { i % shifted.len() } else { i % nominal.len() };
            let poison = rng.gen_bool(POISON_RATE).then(|| {
                let mut buf = if is_shifted { shifted[src].clone() } else { nominal[src].clone() };
                let _ = plan.poison_pixels(&mut buf);
                poisoned.push(buf);
                poisoned.len() - 1
            });
            arrivals.push(Arrival { t, src, shifted: is_shifted, poison });
        }
        PacedStream { arrivals, nominal, shifted, poisoned }
    }

    fn pixels(&self, a: &Arrival) -> &[f32] {
        match (a.poison, a.shifted) {
            (Some(p), _) => &self.poisoned[p],
            (None, true) => &self.shifted[a.src],
            (None, false) => &self.nominal[a.src],
        }
    }
}

struct PacedRefs<'a> {
    nominal: &'a [WaferDecision],
    shifted: &'a [WaferDecision],
    nominal_pool: &'a [Sample],
}

/// Open loop over the precomputed arrival schedule.
fn paced_phase(
    engine: &mut Engine,
    stream: &PacedStream,
    refs: &PacedRefs<'_>,
    slo_ms: f64,
    tr: &mut Tracer,
) -> Phase {
    let mut p = Phase::default();
    let mut staging: Vec<RawWafer> = (0..MICRO_BATCH)
        .map(|_| RawWafer { width: GRID, height: GRID, pixels: vec![0.0; GRID * GRID] })
        .collect();
    let batch0 = engine_hist(engine, "serve_batch_seconds");
    let size0 = engine_hist(engine, "serve_batch_size");
    let before = Counters::read();
    let arrivals = &stream.arrivals;
    let mut next = 0;
    let mut next_scrape = 1.0;
    let mut waited_s = 0.0;
    let start = Instant::now();
    while next < arrivals.len() {
        let now = start.elapsed().as_secs_f64();
        if next_scrape <= now {
            tr.begin("serve.engine.prometheus");
            let t = Instant::now();
            black_box(engine.prometheus());
            p.scrape_us.push(t.elapsed().as_secs_f64() * 1e6);
            tr.end();
            tr.begin("serve.engine.report");
            let t = Instant::now();
            black_box(engine.report());
            p.report_us.push(t.elapsed().as_secs_f64() * 1e6);
            tr.end();
            next_scrape += 1.0;
            continue;
        }
        if arrivals[next].t > now {
            let w = Instant::now();
            wait_until(start, arrivals[next].t.min(next_scrape));
            waited_s += w.elapsed().as_secs_f64();
            continue;
        }
        let mut k = 0;
        while next + k < arrivals.len() && k < MICRO_BATCH && arrivals[next + k].t <= now {
            k += 1;
        }
        tr.new_trace();
        tr.begin("loadgen.stage");
        for (slot, a) in staging.iter_mut().zip(&arrivals[next..next + k]) {
            slot.pixels.copy_from_slice(stream.pixels(a));
        }
        tr.end();
        let t_call = start.elapsed().as_secs_f64();
        tr.begin("serve.engine.submit");
        let decisions = engine.submit_raw(&staging[..k]);
        tr.end();
        let t_done = start.elapsed().as_secs_f64();
        p.sent += k as u64;
        p.failed_ops += k.saturating_sub(decisions.len()) as u64;
        for (d, a) in decisions.iter().zip(&arrivals[next..next + k]) {
            let latency_ms = (t_done - a.t) * 1e3;
            p.latencies_ms.push(latency_ms);
            p.queue_waits_ms.push((t_call - a.t) * 1e3);
            if a.poison.is_some() {
                p.poisoned += 1;
                p.poison_not_shed += u64::from(d.shed() != Some(ShedReason::InvalidInput));
                continue;
            }
            p.eligible += 1;
            let reference = if a.shifted { &refs.shifted[a.src] } else { &refs.nominal[a.src] };
            if !prep::same_decision(d, reference) {
                p.mismatches += 1;
            }
            if d.shed().is_some() {
                p.failed_ops += 1;
                continue;
            }
            p.slo_ok += u64::from(latency_ms <= slo_ms);
            if a.shifted {
                p.served_after_shift += 1;
                if p.alarm_delay.is_none() && d.alarm.is_some() {
                    p.alarm_delay = Some(p.served_after_shift);
                }
            } else {
                p.nominal_alarms += u64::from(d.alarm.is_some());
                if let Route::Predicted(label) = d.route {
                    p.selected += 1;
                    p.selected_correct += u64::from(label == refs.nominal_pool[a.src].label);
                }
            }
        }
        next += k;
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.active_s = p.wall_s - waited_s;
    p.counters = Counters::read().since(&before);
    let batch1 = engine_hist(engine, "serve_batch_seconds");
    let size1 = engine_hist(engine, "serve_batch_size");
    p.batch_seconds_sum = batch1.1 - batch0.1;
    p.batch_size = (size1.0 - size0.0, size1.1 - size0.1);
    p
}

/// Check the engine's own ledger against what the load generator sent.
fn check_ledger(engine: &Engine, sent: u64, poisoned: u64, what: &str, report: &mut Report) {
    let s = engine.report().serving;
    report.check(s.submitted == sent, || {
        format!("{what}: engine counted {} submitted, the client sent {sent}", s.submitted)
    });
    report.check(s.predicted + s.abstained + s.shed == s.submitted, || {
        format!(
            "{what}: ledger does not balance: {} predicted + {} abstained + {} shed != {} sent",
            s.predicted, s.abstained, s.shed, s.submitted
        )
    });
    let shed =
        |reason: &str| s.shed_per_reason.iter().find(|c| c.reason == reason).map_or(0, |c| c.count);
    report.check(shed("invalid_input") == poisoned && s.shed == poisoned, || {
        format!(
            "{what}: {} shed ({} invalid input), {poisoned} poisoned",
            s.shed,
            shed("invalid_input")
        )
    });
}

/// The closed loop's throughput and latency. Each consecutive slice of
/// the stream gives a rate and a latency distribution; the result is
/// the median of each over the faster half of the slices
/// ([`stats::faster_half`]), so a stretch of a busy host moves which
/// slices count and not the result.
fn burst_summary(p: &Phase) -> Result<(f64, stats::Tail), String> {
    if p.latencies_ms.len() as u64 != p.sent {
        return Err(format!("{} of {} wafers were decided", p.latencies_ms.len(), p.sent));
    }
    let per_slice = (p.batches.len() / BURST_SLICES).max(1);
    let (mut costs, mut rates, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    let (mut t0, mut first) = (0.0, 0);
    for slice in p.batches.chunks_exact(per_slice) {
        let end = slice[slice.len() - 1].0;
        let wafers = slice.iter().map(|b| b.1).sum::<u64>() as usize;
        costs.push((end - t0) / wafers as f64);
        rates.push(wafers as f64 / (end - t0));
        tails.push(
            stats::tail(&p.latencies_ms[first..first + wafers])
                .ok_or("too few wafers per slice to take percentiles")?,
        );
        t0 = end;
        first += wafers;
    }
    let kept = |f: fn(&stats::Tail) -> f64| {
        stats::median_of_faster_half(&costs, &tails.iter().map(f).collect::<Vec<_>>())
    };
    let tail = stats::Tail {
        count: tails[0].count,
        p50: kept(|t| t.p50),
        tail_pct: tails.iter().map(|t| t.tail_pct).fold(f64::INFINITY, f64::min),
        tail: kept(|t| t.tail),
    };
    Ok((stats::median_of_faster_half(&costs, &rates), tail))
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn phase_checks(p: &Phase, what: &str, report: &mut Report) {
    report.ops(p.sent, p.failed_ops);
    report.check(p.mismatches == 0, || {
        format!("{what}: {} decisions differ from the reference decisions", p.mismatches)
    });
    report.check(p.poison_not_shed == 0, || {
        format!("{what}: {} poisoned buffers were not shed as invalid input", p.poison_not_shed)
    });
}

/// Run `serve_burst` (closed loop) or `serve_paced` (open loop).
pub fn run(
    args: &Args,
    host: &Host,
    out_dir: &Path,
    paced: bool,
    report: &mut Report,
) -> Result<Tracer, String> {
    let seed = args.seed;
    let mut off = Tracer::new(false);
    // Untimed preparation: the serving bundle, the wafer pools, the
    // reference decisions and the invariance checks.
    let prep = prep::serving_bundle(seed, out_dir, report);
    let (nominal, gen_wps) = prep::nominal_pool(seed, NOMINAL_POOL);
    let nominal_maps: Vec<WaferMap> = nominal.iter().map(|w| w.map.clone()).collect();
    let (nominal_ref, tau) = prep::reference_decisions(&prep, &nominal_maps)?;
    let warm = &nominal_maps[..MICRO_BATCH];

    // The paced stream is the workload of `serve_paced`; the traced run
    // of `serve_burst` also replays it, for the layers only small
    // batches exercise.
    let with_paced = paced || args.trace;
    // A traced run splits its measuring time between the untraced phase,
    // the traced phase and, for `serve_burst`, the paced replay.
    let phase_s = match (args.trace, paced) {
        (false, _) => args.seconds,
        (true, true) => args.seconds / 2.0,
        (true, false) => args.seconds / 3.0,
    };
    let shifted = if with_paced { prep::shifted_pool(seed, SHIFTED_POOL) } else { Vec::new() };
    let shifted_maps: Vec<WaferMap> = shifted.iter().map(|w| w.map.clone()).collect();
    let shifted_ref =
        if with_paced { prep::reference_decisions(&prep, &shifted_maps)?.0 } else { Vec::new() };
    let stream =
        with_paced.then(|| PacedStream::new(seed, args.rate_wps, phase_s, &nominal, &shifted));
    let refs = PacedRefs { nominal: &nominal_ref, shifted: &shifted_ref, nominal_pool: &nominal };
    let burst = BurstStream { pool: &nominal, maps: &nominal_maps, reference: &nominal_ref };

    let phase = |engine: &mut Engine, tr: &mut Tracer| match (&stream, paced) {
        (Some(stream), true) => paced_phase(engine, stream, &refs, args.slo_ms, tr),
        _ => burst_phase(engine, &burst, phase_s, args.slo_ms, tr),
    };
    if let (Some(stream), true) = (&stream, paced) {
        let prefix: Vec<RawWafer> = stream.arrivals[..INVARIANCE_PREFIX.min(stream.arrivals.len())]
            .iter()
            .map(|a| RawWafer { width: GRID, height: GRID, pixels: stream.pixels(a).to_vec() })
            .collect();
        prep::check_batching_invariance(&prep, host.cores, "serve_paced prefix", report, |e| {
            e.submit_raw(&prefix)
        })?;
    } else {
        let prefix = &nominal_maps[..INVARIANCE_PREFIX];
        prep::check_batching_invariance(&prep, host.cores, "serve_burst prefix", report, |e| {
            e.submit(prefix).expect("prefix wafers match the model grid")
        })?;
    }

    crate::reset_peak_rss();
    let setup = prep::set_up(&prep, warm, &mut off)?;
    let mut engine = setup.engine;
    let base = phase(&mut engine, &mut off);
    let peak_rss_mb = crate::peak_rss_mb();
    let what = if paced { "serve_paced" } else { "serve_burst" };
    phase_checks(&base, what, report);
    check_ledger(&engine, setup.warm_wafers + base.sent, base.poisoned, what, report);

    let (throughput, lat) = if paced {
        let decided = base.eligible - base.failed_ops.min(base.eligible);
        let lat = stats::chunked_tail(&base.latencies_ms, PACED_LATENCY_CHUNKS)
            .ok_or("too few wafers served to take percentiles")?;
        println!(
            "latency, median of {PACED_LATENCY_CHUNKS} slices of {} wafers: p50 {:.4} ms, \
             p{} {:.4} ms",
            lat.count, lat.p50, lat.tail_pct, lat.tail
        );
        (decided as f64 / base.wall_s, lat)
    } else {
        let (throughput, lat) = burst_summary(&base)?;
        println!(
            "throughput and latency, median over the faster half of {BURST_SLICES} slices of \
             {} wafers: {throughput:.1} wafers/s, p50 {:.4} ms, p{} {:.4} ms",
            lat.count, lat.p50, lat.tail_pct, lat.tail
        );
        (throughput, lat)
    };
    report.metric("throughput_wps", throughput);
    report.metric("latency_p50_ms", lat.p50);
    report.metric("latency_p99_ms", lat.tail);
    report.metric("slo_ok_ratio", ratio(base.slo_ok, base.eligible));
    report.metric("selective_accuracy", ratio(base.selected_correct, base.selected));
    report.metric("peak_rss_mb", peak_rss_mb);
    report.metric("setup_s", stats::faster_half_median(&setup.total_s));
    println!(
        "tau {tau:.6}; selected {} of {} eligible; poisoned {}; nominal-segment alarms {}; \
         alarm delay {:?} wafers",
        base.selected, base.eligible, base.poisoned, base.nominal_alarms, base.alarm_delay
    );
    let Some(stream) = stream.as_ref().filter(|_| args.trace) else {
        let _ = std::fs::remove_file(&prep.bundle_path);
        return Ok(off);
    };

    // Traced run: the same stream again on a fresh engine, with spans
    // around every call into the library.
    let mut tr = Tracer::new(true);
    tr.new_trace();
    let traced_setup = prep::set_up(&prep, warm, &mut tr)?;
    let mut engine = traced_setup.engine;
    tr.new_trace();
    tr.begin("workload");
    let p = phase(&mut engine, &mut tr);
    tr.end();
    phase_checks(&p, what, report);
    check_ledger(&engine, traced_setup.warm_wafers + p.sent, p.poisoned, what, report);

    // The set-up's warm batches ran before the phase read the engine's
    // batch histogram, so only the submit spans after them count.
    let submits: f64 =
        tr.durations("serve.engine.submit")[prep::SETUP_REPEATS..].iter().sum::<f64>();
    let self_s = submits - p.batch_seconds_sum;
    report.metric("serve.engine.self_us_per_wafer", self_s / p.sent.max(1) as f64 * 1e6);
    report.metric(
        "serve.engine.batch_size_mean",
        if p.batch_size.0 == 0 { 0.0 } else { p.batch_size.1 / p.batch_size.0 as f64 },
    );
    report.metric(
        "trace.overhead_ratio",
        (p.active_s / p.sent.max(1) as f64) / (base.active_s / base.sent.max(1) as f64),
    );

    // Validation, shedding, the monitor's alarm list and scrapes run
    // only under the paced stream; `serve_burst` replays it here.
    let (p, engine) = if paced {
        (p, engine)
    } else {
        let mut replay = prep::set_up(&prep, warm, &mut off)?;
        tr.new_trace();
        tr.begin("paced_replay");
        let q = paced_phase(&mut replay.engine, stream, &refs, args.slo_ms, &mut tr);
        tr.end();
        phase_checks(&q, "serve_paced replay", report);
        check_ledger(&replay.engine, replay.warm_wafers + q.sent, q.poisoned, what, report);
        (q, replay.engine)
    };
    let serving = engine.report().serving;
    for reason in ShedReason::ALL {
        let count = serving
            .shed_per_reason
            .iter()
            .find(|c| c.reason == reason.as_str())
            .map_or(0, |c| c.count);
        report.metric(format!("serve.engine.shed.{}", reason.as_str()), count as f64);
    }
    report.metric("serve.engine.alarms_retained", engine.alarms().len() as f64);
    report.metric("serve.engine.scrape_us", stats::median(&p.scrape_us));
    report.metric("serve.engine.report_us", stats::median(&p.report_us));
    // Without an alarm the delay is at least the shifted wafers served.
    let delay = p.alarm_delay.unwrap_or(p.served_after_shift);
    report.metric("serve.monitor.alarm_delay_wafers", delay as f64);
    let waits = stats::tail(&p.queue_waits_ms).map_or(0.0, |t| t.tail);
    report.metric("loadgen.queue_wait_p99_ms", waits);
    for raw in nominal_maps.iter().map(RawWafer::from_map) {
        tr.begin("serve.engine.validate_raw");
        let ok = engine.validate_raw(&raw).is_ok();
        tr.end();
        report.check(ok, || "a nominal raw wafer failed validation".to_string());
    }
    report.metric(
        "serve.engine.validate_us_per_wafer",
        stats::median(&tr.durations("serve.engine.validate_raw")) * 1e6,
    );
    report.metric(
        "selective.model.calibrate_s",
        stats::median(&tr.durations("serve.engine.calibrate")),
    );
    report.metric("selective.bundle.load_s", stats::median(&tr.durations("selective.bundle.load")));
    report.metric("selective.bundle.save_s", prep.save_s);
    report.metric("selective.bundle.bytes", prep.bundle_bytes as f64);
    base.counters.report_pool(report);
    report.metric("nn.workspace.grows", base.counters.grows as f64);
    report.metric("process.allocs_per_wafer", ratio(base.counters.allocs, base.sent));
    report.metric("wafermap.gen_wafers_per_s", gen_wps);

    let bundle = CheckpointBundle::load(&prep.bundle_path).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&prep.bundle_path);
    let mut model = bundle.build_model().map_err(|e| e.to_string())?;
    let labelled: Vec<(&WaferMap, usize)> =
        prep.calib.samples().iter().map(|s| (&s.map, s.label.index())).collect();
    // `CheckpointBundle::build_model` initialises with seed 0.
    layers::probe(&mut model, 0, &nominal_maps, &labelled, tau, &mut tr, report);
    Ok(tr)
}
