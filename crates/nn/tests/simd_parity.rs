//! Bit-identity of the SIMD GEMM kernels against the scalar path.
//!
//! The SIMD kernels (`crates/nn/src/simd.rs`) vectorize across output
//! columns, so every output element still folds its contraction in
//! strictly increasing `p` order with one fused multiply-add per step
//! — exactly the [`nn::gemm::reference`] contract. These tests demand
//! **bitwise** equality, with SIMD active and with the scalar path
//! forced, over random shapes (odd tails, `k` 0 and 1) and the exact
//! Table I shapes the benchmark's `nn.gemm.*` metrics time.

use std::sync::{Mutex, MutexGuard, PoisonError};

use nn::{gemm, simd};
use proptest::prelude::*;

/// The SIMD dispatch switch is process-global; tests that flip it hold
/// this lock so cargo's parallel runner cannot interleave them.
static SIMD_CONFIG: Mutex<()> = Mutex::new(());

fn simd_lock() -> MutexGuard<'static, ()> {
    SIMD_CONFIG.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Put the dispatch switch back the way the process environment wants
/// it (`WM_FORCE_SCALAR` wins over hardware detection).
fn restore_dispatch() {
    let forced = std::env::var_os("WM_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
    simd::set_force_scalar(forced);
}

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

type Kernel = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

/// Run `fast` with SIMD active and with the scalar path forced; both
/// results must be bitwise equal to the serial reference. Operand
/// lengths `m·k` and `k·n` cover the transposed layouts too
/// (`m·k == k·m`, `k·n == n·k`), and `C` starts non-zero so the
/// accumulate contract is under test as well.
fn check_both_paths(fast: Kernel, reference: Kernel, m: usize, k: usize, n: usize, seed: u64) {
    let _guard = simd_lock();
    let a = rand_vec(m * k, seed);
    let b = rand_vec(k * n, seed ^ 0x9e3779b97f4a7c15);
    let c0 = rand_vec(m * n, seed ^ 0x85ebca6b);
    let mut expect = c0.clone();
    reference(m, k, n, &a, &b, &mut expect);
    for force_scalar in [false, true] {
        simd::set_force_scalar(force_scalar);
        let mut c = c0.clone();
        fast(m, k, n, &a, &b, &mut c);
        assert_eq!(
            c,
            expect,
            "shape ({m},{k},{n}), force_scalar={force_scalar}, simd_active={}",
            simd::active()
        );
    }
    restore_dispatch();
}

fn check_all_kernels(m: usize, k: usize, n: usize, seed: u64) {
    check_both_paths(gemm::sgemm, gemm::reference::sgemm, m, k, n, seed);
    check_both_paths(gemm::sgemm_nt, gemm::reference::sgemm_nt, m, k, n, seed ^ 0xa5a5);
    check_both_paths(gemm::sgemm_tn, gemm::reference::sgemm_tn, m, k, n, seed ^ 0x5a5a);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sgemm_simd_is_bit_identical(
        seed in any::<u64>(), m in 1usize..40, k in 0usize..96, n in 1usize..80,
    ) {
        check_both_paths(gemm::sgemm, gemm::reference::sgemm, m, k, n, seed);
    }

    #[test]
    fn sgemm_nt_simd_is_bit_identical(
        seed in any::<u64>(), m in 1usize..40, k in 0usize..96, n in 1usize..80,
    ) {
        check_both_paths(gemm::sgemm_nt, gemm::reference::sgemm_nt, m, k, n, seed);
    }

    #[test]
    fn sgemm_tn_simd_is_bit_identical(
        seed in any::<u64>(), m in 1usize..40, k in 0usize..96, n in 1usize..80,
    ) {
        check_both_paths(gemm::sgemm_tn, gemm::reference::sgemm_tn, m, k, n, seed);
    }

    #[test]
    fn narrow_nt_simd_is_bit_identical(
        seed in any::<u64>(), m in 1usize..3, k in 1usize..600, n in 1usize..300,
    ) {
        // m <= 2 routes to the narrow transpose kernel at every size.
        check_both_paths(gemm::sgemm_nt, gemm::reference::sgemm_nt, m, k, n, seed);
    }
}

/// The exact Table I shapes `perfbench` times (its `nn.gemm.*` metrics),
/// for all three kernels: conv forwards (`nn`), the fc forward and conv
/// weight-gradient (`nt`), and the conv input-gradients (`tn`).
#[test]
fn paper_shapes_are_bit_identical() {
    for &(m, k, n) in &[
        (64, 25, 1024),
        (32, 576, 256),
        (32, 288, 64),
        (32, 512, 256),
        (32, 256, 576),
        (25, 64, 1024),
        (576, 32, 256),
    ] {
        check_all_kernels(m, k, n, 101);
    }
    // The serving-sized fc products that route to the narrow kernel.
    check_both_paths(gemm::sgemm_nt, gemm::reference::sgemm_nt, 1, 512, 256, 103);
    check_both_paths(gemm::sgemm_nt, gemm::reference::sgemm_nt, 2, 512, 256, 104);
}

/// Edge tails of every vector loop: `k` 0 and 1, widths that are not
/// multiples of 8, 16 or 32 (masked and staged edge tiles, narrow-kernel
/// column tails), row-block remainders, and contractions longer than
/// one `KC` strip.
#[test]
fn edge_tails_are_bit_identical() {
    for &(m, k, n) in &[
        (1, 1, 1),
        (2, 0, 8),
        (3, 0, 5),
        (70, 1, 70),
        (33, 7, 31),
        (65, 130, 19),
        (37, 1030, 33),
        (37, 33, 129),
        (5, 64, 64),
        (17, 64, 100),
        (16, 65, 24),
        (31, 63, 41),
        (4, 16, 16),
        (1, 512, 9),
        (2, 100, 30),
        (2, 513, 263),
        (1, 1031, 100),
    ] {
        check_all_kernels(m, k, n, 211);
    }
}

/// The edges of the 8×32 register-tile grid: rows around `MR` = 8 and
/// the Table I row counts, columns around `NR` = 32 (and conv2's 576),
/// contractions around conv1's 25, the `k <= 64` input gradients and
/// `KC` = 256. Every `m` meets every `k`, and the `n` values cycle
/// through both.
#[test]
fn tile_grid_edges_are_bit_identical() {
    let ms = [7, 8, 9, 25, 33];
    let ns = [9, 31, 32, 33, 576];
    let ks = [25, 32, 64, 255, 256, 257];
    for (i, &m) in ms.iter().enumerate() {
        for (j, &k) in ks.iter().enumerate() {
            let n = ns[(i + j) % ns.len()];
            check_all_kernels(m, k, n, (m * 1000 + k) as u64);
        }
    }
}

/// `set_force_scalar(true)` (the `WM_FORCE_SCALAR=1` escape hatch)
/// must actually switch dispatch off, and switching back must restore
/// the hardware decision.
#[test]
fn force_scalar_switch_disables_simd() {
    let _guard = simd_lock();
    simd::set_force_scalar(true);
    assert!(!simd::active(), "forced scalar must disable the SIMD kernels");
    simd::set_force_scalar(false);
    #[cfg(target_arch = "x86_64")]
    assert_eq!(
        simd::active(),
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma"),
        "re-enabling must follow hardware detection"
    );
    #[cfg(not(target_arch = "x86_64"))]
    assert!(!simd::active(), "non-x86_64 has no SIMD kernels");
    restore_dispatch();
}
