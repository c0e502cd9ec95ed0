//! Chaos harness for the durability and graceful-degradation layer:
//! deterministic fault injection (`faultsim`) against the three
//! robustness claims the serving stack makes.
//!
//! Three scenario families, all driven by seeded fault plans so a
//! failure reproduces from nothing but the seed printed in the report:
//!
//! - **Corruption sweep** — every structurally distinct byte region
//!   ([`faultsim::byte_classes`]) of the one durable artifact, the
//!   `CheckpointBundle`, is truncated and bit-flipped; each corrupted
//!   copy must load as a *typed*
//!   [`selective::LoadError`] — never a panic, never a silently wrong
//!   value. Loads run under `catch_unwind` and the report counts
//!   panics (acceptance: zero).
//! - **Fallback recovery** — a generation chain of bundles with the
//!   newest N-1 corrupted must always recover via
//!   [`CheckpointBundle::load_with_fallback`] as long as one intact
//!   generation remains (acceptance: 100% recovery), and must return
//!   `FallbackExhausted` — not a panic — when none does.
//! - **Serving degradation** — an engine under a `SimClock` deadline,
//!   a queue cap, and plan-poisoned raw wafers must shed exactly the
//!   overloaded / invalid wafers to the reject option and serve the
//!   rest; the shed ledger must balance (`submitted = served + shed`)
//!   and the full decision vector must be bit-identical across pool
//!   widths {1, 4} × SIMD dispatch {on, off}.
//!
//! Writes `BENCH_chaos.json` into the current directory and prints a
//! summary table. Pass `--smoke` for a CI-sized run (smaller model,
//! fewer seeds); the acceptance bars are identical in both modes —
//! chaos results are deterministic, so "smoke" only shrinks coverage,
//! never loosens it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use faultsim::{byte_classes, flip_bit_at, truncate_at, FaultPlan, SimClock};
use nn::pool;
use nn::simd;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selective::{CheckpointBundle, LoadError, SelectiveConfig, SelectiveModel};
use serde::Serialize;
use serve::{Engine, RawWafer, ServeConfig, ShedReason, WaferDecision};

#[derive(Serialize)]
struct CorruptionScenario {
    artifact: String,
    fault: String,
    offset: u64,
    /// `LoadError` variant name the corrupted load produced, or
    /// "ok" when the fault did not structurally damage the artifact
    /// (possible only for payload-region faults caught by the CRC —
    /// never observed — or offsets past a short file, skipped).
    outcome: String,
    panicked: bool,
}

#[derive(Serialize)]
struct CorruptionSummary {
    scenarios: u64,
    typed_errors: u64,
    panics: u64,
    by_variant: Vec<(String, u64)>,
    details: Vec<CorruptionScenario>,
}

#[derive(Serialize)]
struct FallbackSummary {
    /// Trials with at least one intact generation left.
    trials: u64,
    recovered: u64,
    /// Must be 1.0: with an intact fallback on disk, recovery is not
    /// best-effort, it is guaranteed.
    recovery_rate: f64,
    /// Trials with every generation corrupted; all must come back as
    /// `FallbackExhausted` (counted), never a panic.
    exhausted_trials: u64,
    exhausted_typed: u64,
    panics: u64,
}

#[derive(Serialize)]
struct DegradationSummary {
    submitted: u64,
    served: u64,
    shed_invalid_input: u64,
    shed_deadline_exceeded: u64,
    shed_queue_full: u64,
    ledger_balanced: bool,
    /// Decisions (routes, confidences, scores — compared bit-for-bit
    /// via `==` on the f32 fields) identical across pool widths
    /// {1, 4} × SIMD {on, off}.
    decisions_invariant: bool,
}

#[derive(Serialize)]
struct Report {
    description: String,
    smoke: bool,
    grid: usize,
    seed: u64,
    corruption: CorruptionSummary,
    fallback: FallbackSummary,
    degradation: DegradationSummary,
}

fn variant_name(err: &LoadError) -> &'static str {
    match err {
        LoadError::Io { .. } => "Io",
        LoadError::Truncated { .. } => "Truncated",
        LoadError::ChecksumMismatch { .. } => "ChecksumMismatch",
        LoadError::UnsupportedVersion { .. } => "UnsupportedVersion",
        LoadError::Malformed(_) => "Malformed",
    }
}

/// Run one corrupted-load attempt under `catch_unwind`, classifying
/// the outcome. `load` returns the variant name of the typed error,
/// or `"ok"` if the load (unexpectedly) succeeded.
fn probe<F: FnOnce() -> Option<&'static str>>(load: F) -> (String, bool) {
    match catch_unwind(AssertUnwindSafe(load)) {
        Ok(Some(variant)) => (variant.to_string(), false),
        Ok(None) => ("ok".to_string(), false),
        Err(_) => ("PANIC".to_string(), true),
    }
}

/// The corruption sweep over one artifact: for every representative
/// byte offset, truncate-at and bit-flip-at a fresh copy of
/// `pristine`, then attempt a typed load.
fn sweep_artifact(
    dir: &Path,
    artifact: &str,
    pristine: &Path,
    load_variant: &dyn Fn(&Path) -> Option<&'static str>,
    plan: &mut FaultPlan,
    details: &mut Vec<CorruptionScenario>,
) {
    let len = std::fs::metadata(pristine).expect("pristine artifact exists").len();
    for offset in byte_classes(len) {
        // Truncation at this offset (cutting at len-1 is the shortest
        // possible torn write; cutting at 0 leaves an empty file).
        let target = dir.join(format!("{artifact}_trunc_{offset}.bin"));
        std::fs::copy(pristine, &target).expect("copy artifact");
        truncate_at(&target, offset).expect("inject truncation");
        let (outcome, panicked) = probe(|| load_variant(&target));
        details.push(CorruptionScenario {
            artifact: artifact.to_string(),
            fault: "truncate".to_string(),
            offset,
            outcome,
            panicked,
        });
        let _ = std::fs::remove_file(&target);

        // Bit flip at a plan-chosen bit of this offset's byte.
        let bit = u8::try_from(offset % 8).expect("mod 8 fits");
        let target = dir.join(format!("{artifact}_flip_{offset}.bin"));
        std::fs::copy(pristine, &target).expect("copy artifact");
        flip_bit_at(&target, offset, bit).expect("inject bit flip");
        let (outcome, panicked) = probe(|| load_variant(&target));
        details.push(CorruptionScenario {
            artifact: artifact.to_string(),
            fault: format!("bit_flip:{bit}"),
            offset,
            outcome,
            panicked,
        });
        let _ = std::fs::remove_file(&target);
    }
    // One plan-random fault per artifact on top of the deterministic
    // sweep, so repeated seeds widen coverage beyond the class list.
    let target = dir.join(format!("{artifact}_random.bin"));
    std::fs::copy(pristine, &target).expect("copy artifact");
    let fault = plan.flip_file_bit(&target).expect("inject random flip");
    let (outcome, panicked) = probe(|| load_variant(&target));
    details.push(CorruptionScenario {
        artifact: artifact.to_string(),
        fault: format!("random:{fault}"),
        offset: fault.offset,
        outcome,
        panicked,
    });
    let _ = std::fs::remove_file(&target);
}

fn corruption_sweep(dir: &Path, bundle: &CheckpointBundle, seed: u64) -> CorruptionSummary {
    let bundle_path = dir.join("pristine_bundle.json");
    bundle.save(&bundle_path).expect("save bundle");

    let mut plan = FaultPlan::new(seed);
    let mut details = Vec::new();
    let bundle_load: &dyn Fn(&Path) -> Option<&'static str> =
        &|p| CheckpointBundle::load(p).err().as_ref().map(variant_name);
    sweep_artifact(dir, "bundle", &bundle_path, bundle_load, &mut plan, &mut details);

    let mut by_variant: Vec<(String, u64)> = Vec::new();
    let mut typed_errors = 0;
    let mut panics = 0;
    for s in &details {
        if s.panicked {
            panics += 1;
            continue;
        }
        if s.outcome != "ok" {
            typed_errors += 1;
        }
        match by_variant.iter_mut().find(|(v, _)| *v == s.outcome) {
            Some((_, n)) => *n += 1,
            None => by_variant.push((s.outcome.clone(), 1)),
        }
    }
    CorruptionSummary { scenarios: details.len() as u64, typed_errors, panics, by_variant, details }
}

fn fallback_trials(
    dir: &Path,
    bundle: &CheckpointBundle,
    seeds: std::ops::Range<u64>,
) -> FallbackSummary {
    let mut trials: u32 = 0;
    let mut recovered: u32 = 0;
    let mut exhausted_trials: u32 = 0;
    let mut exhausted_typed: u32 = 0;
    let mut panics: u32 = 0;
    for seed in seeds {
        let mut plan = FaultPlan::new(seed);
        // A three-generation chain, gen2 newest. Corrupt the newest
        // `corrupt` generations; recovery must land on the newest
        // intact one.
        for corrupt in 1..=3usize {
            let gens: Vec<PathBuf> =
                (0..3).map(|g| dir.join(format!("fb_{seed}_{corrupt}_gen{g}.json"))).collect();
            for path in &gens {
                bundle.save(path).expect("save generation");
            }
            for victim in gens.iter().rev().take(corrupt) {
                // Alternate fault family deterministically via the plan.
                let _ = plan.truncate_file(victim).expect("inject");
            }
            let newest_first: Vec<&PathBuf> = gens.iter().rev().collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                CheckpointBundle::load_with_fallback(newest_first[0], &newest_first[1..])
            }));
            match outcome {
                Ok(Ok(load)) => {
                    trials += 1;
                    // Recovery must land exactly `corrupt` steps back.
                    if corrupt < 3 && load.source_index == corrupt {
                        recovered += 1;
                    }
                }
                Ok(Err(exhausted)) => {
                    exhausted_trials += 1;
                    if exhausted.failures.len() == 3 {
                        exhausted_typed += 1;
                    }
                }
                Err(_) => panics += 1,
            }
            for path in &gens {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    let recovery_rate = if trials == 0 { 0.0 } else { f64::from(recovered) / f64::from(trials) };
    FallbackSummary {
        trials: u64::from(trials),
        recovered: u64::from(recovered),
        recovery_rate,
        exhausted_trials: u64::from(exhausted_trials),
        exhausted_typed: u64::from(exhausted_typed),
        panics: u64::from(panics),
    }
}

/// One full degraded-serving pass: deadline + queue cap + poisoned
/// wafers, deterministic via `SimClock`. Returns the decision vector
/// and the engine's report.
fn degraded_pass(
    bundle: &CheckpointBundle,
    raw: &[RawWafer],
    threads: usize,
    force_scalar: bool,
) -> (Vec<WaferDecision>, serve::ServeReport) {
    pool::set_thread_limit(threads);
    simd::set_force_scalar(force_scalar);
    // A fresh clock per pass: 10ms per read, read once at submit start
    // and once before each micro-batch, so which batches breach the
    // 25ms budget is a pure function of the workload — two batches fit
    // (checked at t=10ms and t=20ms), the third (t=30ms) sheds.
    let clock = Arc::new(SimClock::with_step(Duration::from_millis(10)));
    let mut engine = Engine::from_bundle(
        bundle,
        ServeConfig {
            micro_batch: 8,
            deadline: Some(0.025),
            max_queue_depth: Some(30),
            ..ServeConfig::default()
        },
    )
    .expect("valid bundle")
    .with_clock(clock);
    let decisions = engine.submit_raw(raw);
    simd::set_force_scalar(false);
    let report = engine.report();
    (decisions, report)
}

fn degradation_scenario(bundle: &CheckpointBundle, grid: usize, seed: u64) -> DegradationSummary {
    // 60 wafers cycling through the defect classes; every 5th is
    // poisoned. With the pass's cap and budget the ledger is exact:
    // 60 submitted = 16 served + 12 invalid + 18 queue + 14 deadline.
    let cfg = wafermap::gen::GenConfig::new(grid);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut raw: Vec<RawWafer> = (0..60)
        .map(|i| {
            let class = wafermap::DefectClass::from_index(i % wafermap::DefectClass::COUNT)
                .expect("valid class");
            RawWafer::from_map(&wafermap::gen::generate(class, &cfg, &mut rng))
        })
        .collect();
    let mut plan = FaultPlan::new(seed);
    for wafer in raw.iter_mut().step_by(5) {
        let _ = plan.poison_pixels(&mut wafer.pixels);
    }

    let baseline_threads = pool::num_threads().max(4);
    let (reference, report) = degraded_pass(bundle, &raw, baseline_threads, false);
    let mut decisions_invariant = true;
    for (threads, force_scalar) in [(1, false), (4, false), (4, true), (1, true)] {
        let (got, _) = degraded_pass(bundle, &raw, threads, force_scalar);
        if got != reference {
            decisions_invariant = false;
            eprintln!(
                "DIVERGENCE: decisions differ at threads={threads}, force_scalar={force_scalar}"
            );
        }
    }
    pool::set_thread_limit(baseline_threads);

    let shed_for = |reason: ShedReason| {
        report
            .serving
            .shed_per_reason
            .iter()
            .find(|c| c.reason == reason.as_str())
            .map_or(0, |c| c.count)
    };
    let submitted = report.serving.submitted;
    let served = report.serving.wafers;
    let shed_invalid = shed_for(ShedReason::InvalidInput);
    let shed_deadline = shed_for(ShedReason::DeadlineExceeded);
    let shed_queue = shed_for(ShedReason::QueueFull);
    DegradationSummary {
        submitted,
        served,
        shed_invalid_input: shed_invalid,
        shed_deadline_exceeded: shed_deadline,
        shed_queue_full: shed_queue,
        ledger_balanced: submitted == served + shed_invalid + shed_deadline + shed_queue,
        decisions_invariant,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = 2020;
    let grid = if smoke { 16 } else { 32 };
    let fallback_seeds = if smoke { 0..2u64 } else { 0..8u64 };

    let dir = std::env::temp_dir().join(format!("wm_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("chaos scratch dir");

    let config = if smoke {
        SelectiveConfig::for_grid(grid).with_conv_channels([2, 2, 2]).with_fc(8)
    } else {
        SelectiveConfig::for_grid(grid)
    };
    let mut model = SelectiveModel::new(&config, seed);
    let bundle = CheckpointBundle::export(&mut model);

    println!("chaos_report: grid {grid}, seed {seed}{}\n", if smoke { " [smoke]" } else { "" });

    let corruption = corruption_sweep(&dir, &bundle, seed);
    println!(
        "  corruption sweep: {} scenarios, {} typed errors, {} panics",
        corruption.scenarios, corruption.typed_errors, corruption.panics
    );
    for (variant, n) in &corruption.by_variant {
        println!("    {variant:<20} {n}");
    }

    let fallback = fallback_trials(&dir, &bundle, fallback_seeds);
    println!(
        "\n  fallback recovery: {}/{} recovered ({:.0}%), {} exhausted-typed, {} panics",
        fallback.recovered,
        fallback.trials,
        fallback.recovery_rate * 100.0,
        fallback.exhausted_typed,
        fallback.panics
    );

    let degradation = degradation_scenario(&bundle, grid, seed);
    println!(
        "\n  degraded serving: {} submitted = {} served + {} invalid + {} deadline + {} queue \
         (balanced: {}, invariant: {})",
        degradation.submitted,
        degradation.served,
        degradation.shed_invalid_input,
        degradation.shed_deadline_exceeded,
        degradation.shed_queue_full,
        degradation.ledger_balanced,
        degradation.decisions_invariant
    );

    let _ = std::fs::remove_dir_all(&dir);

    // Acceptance bars — identical in smoke and full mode.
    assert_eq!(corruption.panics, 0, "corrupted loads must never panic");
    assert_eq!(
        corruption.typed_errors + corruption.panics,
        corruption.scenarios,
        "every corruption must surface as a typed LoadError"
    );
    assert!(
        (fallback.recovery_rate - 1.0).abs() < f64::EPSILON,
        "with an intact fallback on disk, recovery must be 100%"
    );
    assert_eq!(fallback.panics, 0, "fallback loading must never panic");
    assert_eq!(
        fallback.exhausted_typed, fallback.exhausted_trials,
        "exhausted chains must report every per-path failure"
    );
    assert!(degradation.ledger_balanced, "shed ledger must balance");
    assert!(degradation.decisions_invariant, "shed decisions must be bit-identical");

    let report = Report {
        description: "deterministic chaos harness: byte-class corruption sweep over the \
                      checkpoint bundle (typed errors, zero panics), generation-chain \
                      fallback recovery (100% with any intact generation), and degraded \
                      serving under SimClock deadline + queue cap + poisoned inputs \
                      (balanced shed ledger, decisions bit-identical across pool width \
                      and SIMD dispatch)"
            .to_string(),
        smoke,
        grid,
        seed,
        corruption,
        fallback,
        degradation,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_chaos.json", json).expect("write BENCH_chaos.json");
    println!("\nwrote BENCH_chaos.json");
}
