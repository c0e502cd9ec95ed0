//! Bit-identity of the parallel compute core across thread limits.
//!
//! The worker pool's contract (DESIGN.md, "Threading model &
//! determinism") is that results never depend on the thread count: the
//! chunk grid is a function of the problem shape alone and every
//! cross-chunk reduction runs in a fixed order. These tests pin that
//! contract for the three GEMM kernels and the batch-parallel `Conv2d`
//! passes against single-thread serial references.

use std::sync::{Mutex, MutexGuard, PoisonError};

use nn::layers::Conv2d;
use nn::pool;
use nn::{Layer, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread limits to sweep: `1` forces the serial inline path, `2` and
/// `7` exercise pool dispatch with fewer and (typically) more threads
/// than chunks.
const LIMITS: [usize; 3] = [1, 2, 7];

/// The pool limit is process-global state; tests that reconfigure it
/// must hold this lock so cargo's parallel test runner cannot
/// interleave them.
static POOL_CONFIG: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    POOL_CONFIG.lock().unwrap_or_else(PoisonError::into_inner)
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

/// Run `fast` at every thread limit and demand bitwise equality with
/// the single-thread naive `slow` kernel. Operand lengths `m·k` and
/// `k·n` cover the transposed layouts too (`m·k == k·m`).
fn check_kernel(fast: Kernel, slow: Kernel, m: usize, k: usize, n: usize, seed: u64) {
    let _guard = pool_lock();
    let a = rand_vec(m * k, seed);
    let b = rand_vec(k * n, seed ^ 0x9e3779b97f4a7c15);
    let c0 = rand_vec(m * n, seed ^ 0x85ebca6b);
    let mut expect = c0.clone();
    slow(m, k, n, &a, &b, &mut expect);
    for limit in LIMITS {
        pool::set_thread_limit(limit);
        let mut c = c0.clone();
        fast(m, k, n, &a, &b, &mut c);
        assert_eq!(c, expect, "shape ({m},{k},{n}) at thread limit {limit}");
    }
    pool::set_thread_limit(pool::default_thread_limit());
}

/// Forward and backward a fresh identically-seeded `Conv2d` at each
/// thread limit; outputs, input gradients, and parameter gradients
/// must all be bitwise equal to the single-thread run.
fn check_conv(seed: u64, batch: usize, c_in: usize, c_out: usize, hw: usize) {
    let _guard = pool_lock();
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Tensor::randn(&[batch, c_in, hw, hw], 1.0, &mut rng);
    let run = |limit: usize, grad: Option<&Tensor>| {
        pool::set_thread_limit(limit);
        let mut conv = Conv2d::same(c_in, c_out, 3, &mut StdRng::seed_from_u64(seed ^ 1));
        let y = conv.forward(&x);
        let grad = match grad {
            Some(g) => g.clone(),
            None => Tensor::randn(y.shape(), 1.0, &mut StdRng::seed_from_u64(seed ^ 2)),
        };
        let gx = conv.backward(&grad);
        let mut param_grads = Vec::new();
        conv.visit_params(&mut |p| param_grads.push(p.grad.data().to_vec()));
        (y, grad, gx, param_grads)
    };
    let (y1, grad, gx1, pg1) = run(1, None);
    for limit in [2usize, 7] {
        let (y, _, gx, pg) = run(limit, Some(&grad));
        assert_eq!(y.data(), y1.data(), "forward at thread limit {limit}");
        assert_eq!(gx.data(), gx1.data(), "grad_input at thread limit {limit}");
        assert_eq!(pg, pg1, "parameter grads at thread limit {limit}");
    }
    pool::set_thread_limit(pool::default_thread_limit());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sgemm_matches_reference_at_any_thread_limit(
        seed in any::<u64>(), m in 1usize..48, k in 1usize..80, n in 1usize..48,
    ) {
        check_kernel(nn::gemm::sgemm, nn::gemm::reference::sgemm, m, k, n, seed);
    }

    #[test]
    fn sgemm_nt_matches_reference_at_any_thread_limit(
        seed in any::<u64>(), m in 1usize..48, k in 1usize..80, n in 1usize..48,
    ) {
        check_kernel(nn::gemm::sgemm_nt, nn::gemm::reference::sgemm_nt, m, k, n, seed);
    }

    #[test]
    fn sgemm_tn_matches_reference_at_any_thread_limit(
        seed in any::<u64>(), m in 1usize..48, k in 1usize..80, n in 1usize..48,
    ) {
        check_kernel(nn::gemm::sgemm_tn, nn::gemm::reference::sgemm_tn, m, k, n, seed);
    }

    #[test]
    fn conv2d_batch_parallelism_is_invisible(
        seed in any::<u64>(),
        batch in 1usize..6,
        c_in in 1usize..3,
        c_out in 1usize..4,
        hw in 3usize..8,
    ) {
        check_conv(seed, batch, c_in, c_out, hw);
    }
}

/// Odd shapes large enough to cross `PARALLEL_THRESHOLD`, covering a
/// thin contraction, edge tiles of the MR×NR grid, and a contraction
/// longer than one KC strip — paths the bounded random dims above rarely
/// reach.
#[test]
fn large_shapes_cross_the_parallel_threshold() {
    for &(m, k, n) in &[(67, 33, 129), (67, 129, 65), (33, 1030, 17)] {
        check_kernel(nn::gemm::sgemm, nn::gemm::reference::sgemm, m, k, n, 21);
        check_kernel(nn::gemm::sgemm_nt, nn::gemm::reference::sgemm_nt, m, k, n, 22);
        check_kernel(nn::gemm::sgemm_tn, nn::gemm::reference::sgemm_tn, m, k, n, 23);
    }
}
