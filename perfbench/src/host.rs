//! Host provenance and the configuration the benchmark insists on:
//! runtime SIMD dispatch, the pooled compute core, and a pool exactly
//! as wide as the machine has cores.

use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Host {
    pub cores: usize,
    pub pool_width: usize,
    pub avx2: bool,
    pub fma: bool,
    pub avx512f: bool,
    pub simd_active: bool,
    pub fma_peak_gflops: f64,
}

fn env_set(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.trim().is_empty())
}

impl Host {
    /// Fix the pool width to the core count and refuse settings that
    /// would measure something other than the shipped program.
    pub fn prepare() -> Result<Host, String> {
        if env_set("WM_FORCE_SCALAR").is_some_and(|v| v.trim() != "0") {
            return Err(
                "WM_FORCE_SCALAR is set; the benchmark measures runtime SIMD dispatch".into()
            );
        }
        let cores = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        if let Some(v) = env_set("WM_NUM_THREADS") {
            match v.trim().parse::<usize>() {
                Ok(n) if n <= cores => {}
                _ => {
                    return Err(format!(
                        "WM_NUM_THREADS={v} asks for more pool threads than the {cores} cores"
                    ))
                }
            }
        }
        nn::pool::set_thread_limit(cores);
        let pool_width = nn::pool::num_threads();
        if pool_width > cores {
            return Err(format!("pool width {pool_width} exceeds the {cores} cores"));
        }
        if nn::pool::compute_mode() != nn::pool::ComputeMode::Pooled {
            return Err("the compute core is not the default pooled mode".into());
        }
        #[cfg(target_arch = "x86_64")]
        let (avx2, fma, avx512f) = (
            is_x86_feature_detected!("avx2"),
            is_x86_feature_detected!("fma"),
            is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, fma, avx512f) = (false, false, false);
        Ok(Host {
            cores,
            pool_width,
            avx2,
            fma,
            avx512f,
            simd_active: nn::simd::active(),
            fma_peak_gflops: fma_peak_gflops(),
        })
    }

    /// One-line JSON provenance record.
    pub fn provenance(&self, workload: &str, seed: u64, trace: bool) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\"cores\":{},\
             \"pool_width\":{},\"isa\":{{\"avx2\":{},\"fma\":{},\"avx512f\":{}}},\
             \"simd_active\":{},\"host.fma_peak_gflops\":{:.2},\"git_rev\":\"{}\",\"rustc\":\"{}\"}}",
            self.cores,
            self.pool_width,
            self.avx2,
            self.fma,
            self.avx512f,
            self.simd_active,
            self.fma_peak_gflops,
            env!("PERFBENCH_GIT_REV"),
            env!("PERFBENCH_RUSTC"),
        )
    }
}

/// Single-thread f32 FMA peak: 128 independent `mul_add` chains,
/// which the compiler keeps in vector registers. Best of five samples.
fn fma_peak_gflops() -> f64 {
    const LANES: usize = 128;
    const ITERS: usize = 400_000;
    let mul = black_box(0.999f32);
    let add = black_box(1e-3f32);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut acc = black_box([0.5f32; LANES]);
        let start = Instant::now();
        for _ in 0..ITERS {
            for a in &mut acc {
                *a = a.mul_add(mul, add);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max(2.0 * (LANES * ITERS) as f64 / secs / 1e9);
    }
    best
}
