//! Untimed preparation shared by the serving workloads: the serving
//! bundle trained from the seed, the held-out calibration split, and
//! the seeded wafer pools the streams draw from.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use selective::{CheckpointBundle, SelectiveConfig, SelectiveModel, TrainConfig, Trainer};
use serve::{Engine, ServeConfig, WaferDecision};
use wafermap::gen::SyntheticWm811k;
use wafermap::shift::{shifted_dataset, ShiftConfig};
use wafermap::{Dataset, DefectClass, Sample, WaferMap};

use crate::report::Report;
use crate::trace::Tracer;

/// Wafer grid of every workload: the Table I serving shape.
pub const GRID: usize = 32;
/// Target coverage c0 the serving τ is calibrated to.
pub const C0: f64 = 0.75;
/// Engine micro-batch (the engine default).
pub const MICRO_BATCH: usize = 64;
/// Serving-bundle training: Table II mix at this scale, these epochs.
const BUNDLE_SCALE: f64 = 0.02;
const BUNDLE_EPOCHS: usize = 4;
/// Times the serving set-up is repeated; `setup_s` is the median of the
/// faster half.
pub const SETUP_REPEATS: usize = 9;

/// The Trainer configuration shared by the serving bundle and the
/// training workload: the paper's selective objective at c0.
pub fn train_config(epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 32,
        learning_rate: 3e-3,
        target_coverage: C0 as f32,
        lambda: 0.5,
        alpha: 0.5,
        seed,
    }
}

pub fn serve_config() -> ServeConfig {
    ServeConfig { micro_batch: MICRO_BATCH, target_coverage: C0, ..ServeConfig::default() }
}

pub struct ServingPrep {
    pub bundle_path: PathBuf,
    pub bundle_bytes: u64,
    pub save_s: f64,
    /// The generator's held-out split τ is calibrated on.
    pub calib: Dataset,
}

/// Train the serving model from the seed and save it as a bundle file.
pub fn serving_bundle(seed: u64, out_dir: &Path, report: &mut Report) -> ServingPrep {
    let (train, calib) = SyntheticWm811k::new(GRID).scale(BUNDLE_SCALE).seed(seed).build();
    let mut model = SelectiveModel::new(&SelectiveConfig::for_grid(GRID), seed);
    let trained = Trainer::new(train_config(BUNDLE_EPOCHS, seed)).run(&mut model, &train);
    let loss = trained.last().loss;
    report.check(loss.is_finite(), || format!("serving-bundle training loss {loss} is not finite"));
    let bundle = CheckpointBundle::export(&mut model);
    let bundle_path = out_dir.join(format!("serving-{seed}.bundle"));
    let start = Instant::now();
    bundle.save(&bundle_path).expect("write the serving bundle into the benchmark's out directory");
    let save_s = start.elapsed().as_secs_f64();
    let bundle_bytes = std::fs::metadata(&bundle_path).map(|m| m.len()).unwrap_or(0);
    ServingPrep { bundle_path, bundle_bytes, save_s, calib }
}

/// `n` nominal wafers in the Table II mix, shuffled, plus the
/// generation rate in wafers per second.
pub fn nominal_pool(seed: u64, n: usize) -> (Vec<Sample>, f64) {
    let scale = n as f64 / 54_355.0 * 1.05;
    let start = Instant::now();
    let (a, b) = SyntheticWm811k::new(GRID).scale(scale).seed(seed ^ 0x6e6f_6d69).build();
    let secs = start.elapsed().as_secs_f64();
    let generated = a.len() + b.len();
    let mut pool: Vec<Sample> = a.samples().iter().chain(b.samples()).cloned().collect();
    pool.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x7368_7566));
    assert!(pool.len() >= n, "the Table II builder made {} of {n} wafers", pool.len());
    pool.truncate(n);
    (pool, generated as f64 / secs)
}

/// `n` wafers under `ShiftConfig::severe()`, shuffled.
pub fn shifted_pool(seed: u64, n: usize) -> Vec<Sample> {
    let per_class = n.div_ceil(DefectClass::COUNT);
    let ds = shifted_dataset(GRID, per_class, &ShiftConfig::severe(), seed ^ 0x7368_6966);
    let mut pool = ds.samples().to_vec();
    pool.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x6d69_7865));
    pool.truncate(n);
    pool
}

/// The timed part of serving set-up, repeated: bundle file → load →
/// engine → calibrate → first warm micro-batch. Holds the last engine
/// and every repetition's wall time.
pub struct Setup {
    pub engine: Engine,
    pub total_s: Vec<f64>,
    /// Wafers the warm batches sent to the returned engine.
    pub warm_wafers: u64,
}

pub fn set_up(prep: &ServingPrep, warm: &[WaferMap], tr: &mut Tracer) -> Result<Setup, String> {
    let mut total_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        tr.new_trace();
        tr.begin("setup.serving");
        let start = Instant::now();
        tr.begin("selective.bundle.load");
        let bundle = CheckpointBundle::load(&prep.bundle_path).map_err(|e| e.to_string())?;
        tr.end();
        tr.begin("serve.engine.from_bundle");
        let mut engine = Engine::from_bundle(&bundle, serve_config()).map_err(|e| e.to_string())?;
        tr.end();
        tr.begin("serve.engine.calibrate");
        engine.calibrate(&prep.calib, C0).map_err(|e| e.to_string())?;
        tr.end();
        tr.begin("serve.engine.submit");
        engine.submit(warm).map_err(|e| e.to_string())?;
        tr.end();
        total_s.push(start.elapsed().as_secs_f64());
        tr.end();
        last = Some(engine);
    }
    let engine = last.expect("at least one set-up");
    Ok(Setup { engine, total_s, warm_wafers: warm.len() as u64 })
}

/// Whether two decisions agree bit for bit on route, confidence and
/// selection score (the alarm depends on the monitor's history).
pub fn same_decision(a: &WaferDecision, b: &WaferDecision) -> bool {
    a.route == b.route
        && a.confidence.to_bits() == b.confidence.to_bits()
        && a.selection_score.to_bits() == b.selection_score.to_bits()
}

/// Reference decisions for `maps`, from a fresh engine on the bundle.
pub fn reference_decisions(
    prep: &ServingPrep,
    maps: &[WaferMap],
) -> Result<(Vec<WaferDecision>, f32), String> {
    let bundle = CheckpointBundle::load(&prep.bundle_path).map_err(|e| e.to_string())?;
    let mut engine = Engine::from_bundle(&bundle, serve_config()).map_err(|e| e.to_string())?;
    let tau = engine.calibrate(&prep.calib, C0).map_err(|e| e.to_string())?;
    Ok((engine.submit(maps).map_err(|e| e.to_string())?, tau))
}

/// Run `submit` on a fresh engine for every micro-batch in {1, 64} and
/// pool width in {1, cores}; every configuration must return the same
/// decisions, alarms included.
pub fn check_batching_invariance<F>(
    prep: &ServingPrep,
    cores: usize,
    what: &str,
    report: &mut Report,
    mut submit: F,
) -> Result<(), String>
where
    F: FnMut(&mut Engine) -> Vec<WaferDecision>,
{
    let bundle = CheckpointBundle::load(&prep.bundle_path).map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for width in [1, cores] {
        nn::pool::set_thread_limit(width);
        for micro_batch in [1, MICRO_BATCH] {
            let config = ServeConfig { micro_batch, ..serve_config() };
            let mut engine = Engine::from_bundle(&bundle, config).map_err(|e| e.to_string())?;
            engine.calibrate(&prep.calib, C0).map_err(|e| e.to_string())?;
            runs.push(((width, micro_batch), submit(&mut engine)));
        }
    }
    nn::pool::set_thread_limit(cores);
    let (_, first) = &runs[0];
    for ((width, micro_batch), decisions) in &runs[1..] {
        report.check(decisions == first, || {
            format!(
                "{what}: decisions at pool width {width}, micro_batch {micro_batch} differ \
                 from pool width 1, micro_batch 1"
            )
        });
    }
    Ok(())
}
