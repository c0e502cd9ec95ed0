//! Single-precision matrix-multiply kernels.
//!
//! Everything compute-heavy in this crate (convolution via im2col,
//! linear layers and their backward passes) funnels into the three
//! kernels here, and every shape takes one cache-blocked path; only
//! `A·Bᵀ` products with one or two rows keep a dot-product sweep
//! ([`sgemm_nt`]). Each row block packs `A` into `MR`-row groups and
//! each `KC`-deep strip of `B` into one `NR`-wide panel, in fixed-size
//! per-thread buffers, and an `MR`×`NR` = 8×32 register tile
//! ([`crate::simd`], one arm per instruction set) keeps the output tile
//! in registers across the strip. Row blocks fan out across the
//! persistent worker pool ([`crate::pool`]) once the FLOP count
//! justifies the dispatch.
//!
//! The public kernels **accumulate** (`C += ...`). Inside the crate each
//! also has an **overwrite** form (`C = ...`, `Store::Overwrite`): on
//! the first `KC` strip the register tile starts its accumulators at
//! `+0.0` instead of loading `C`, so a caller that wants a plain product
//! never zero-fills its destination. Starting at `+0.0` gives the bits
//! that loading a zero-filled `C` gives, so the two forms agree.
//!
//! # Determinism
//!
//! For every output element the blocked kernels add contributions in
//! strictly increasing `p` order onto the resident `C` value (onto
//! `+0.0` in the overwrite form), using `f32::mul_add` for each step.
//! That is exactly what the serial kernels in
//! [`reference`](mod@reference) compute, so the fast path is
//! bit-identical to the reference for every shape and every thread
//! count: the row block / panel / tile grid depends only on the problem
//! shape, and the pool only changes which thread computes which block.
//! The padded tile lanes (when `m % MR != 0` or `n % NR != 0`) read
//! stale packing slots and are never stored.

use std::cell::RefCell;

use crate::pool::{self, Shards};
use crate::simd::{self, Arm};

/// Packing buffers for one row block: the `A` panels of its row
/// groups and one `B` strip. [`pack_a`] and [`pack_b`] write every slot
/// a stored tile lane depends on; pad slots keep stale values, so reuse
/// needs no clearing.
struct Pack {
    a: [f32; MC * KC],
    b: [f32; KC * NR],
}

thread_local! {
    /// One fixed-size [`Pack`] per thread (64 KiB, zero-initialised
    /// with the thread). It never grows, so no GEMM shape or schedule
    /// can grow scratch memory, and unlike a stack array it costs no
    /// clearing per call. A chunk borrows it only while it packs and
    /// runs its tiles, which never re-enter the pool.
    static PACK: RefCell<Pack> =
        const { RefCell::new(Pack { a: [0.0; MC * KC], b: [0.0; KC * NR] }) };
}

/// Register tile height (rows of `C` kept in registers).
pub(crate) const MR: usize = 8;
/// Register tile width (columns of `C` kept in registers).
pub(crate) const NR: usize = 32;
/// Contraction-axis strip length per packed `A` panel. One `B` panel
/// strip (`KC·NR` floats = 32 KiB) stays L1-resident while every row
/// group of the block re-reads it.
const KC: usize = 256;
/// Rows of `C` per parallel chunk (one row block = one pool chunk).
const MC: usize = 32;

/// FLOP threshold (m·k·n) above which row blocks fan out to the pool.
const PARALLEL_THRESHOLD: usize = 1 << 18;

/// How `A[i,p]` is stored.
#[derive(Clone, Copy)]
enum ALayout {
    /// `a[i * k + p]` (the `[m,k]` operand of [`sgemm`] / [`sgemm_nt`]).
    RowMajor,
    /// `a[p * m + i]` (the `[k,m]` operand of [`sgemm_tn`]).
    KMajor,
}

/// How `B[p,j]` is stored.
#[derive(Clone, Copy)]
enum BLayout {
    /// `b[p * n + j]` (the `[k,n]` operand of [`sgemm`] / [`sgemm_tn`]).
    RowMajor,
    /// `b[j * k + p]` (the `[n,k]` operand of [`sgemm_nt`]).
    Transposed,
}

/// What a kernel does with the `C` it is given.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Store {
    /// `C += A·B` (the public kernels).
    Accumulate,
    /// `C = A·B`: the old contents of `C` are never read.
    Overwrite,
}

/// `C[m,n] += A[m,k] * B[k,n]`, all row-major.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` shape implies.
pub fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm_with(Store::Accumulate, m, k, n, a, b, c);
}

/// [`sgemm`] with the given [`Store`].
pub(crate) fn sgemm_with(
    store: Store,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    blocked(m, k, n, a, b, c, ALayout::RowMajor, BLayout::RowMajor, store);
}

/// `C[m,n] += A[m,k] * B[n,k]^T` (i.e. `C[i,j] += Σ_p A[i,p]·B[j,p]`).
///
/// This transposed form computes `dY · Wᵀ`-style products where the
/// second operand's rows are the contraction axis.
///
/// # Panics
///
/// Panics if any slice is shorter than its shape implies.
pub fn sgemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm_nt_with(Store::Accumulate, m, k, n, a, b, c);
}

/// [`sgemm_nt`] with the given [`Store`].
pub(crate) fn sgemm_nt_with(
    store: Store,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= n * k, "B too short: {} < {}", b.len(), n * k);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    if m <= 2 {
        // At most two rows: zeroing them is cheaper than a second
        // pair of narrow kernels.
        if store == Store::Overwrite {
            c[..m * n].fill(0.0);
        }
        if !simd::arm().nt_narrow(m, k, n, a, b, c) {
            nt_narrow(m, k, n, a, b, c);
        }
    } else {
        blocked(m, k, n, a, b, c, ALayout::RowMajor, BLayout::Transposed, store);
    }
}

/// Columns of `C` computed together per [`nt_narrow`] strip (that many
/// independent accumulation chains hide the `mul_add` latency).
pub(crate) const NTW: usize = 8;

/// Narrow-batch kernel for the `A[m,k] · B[n,k]ᵀ` form with `m <= 2`:
/// inference-sized matrix-vector products where packing `B` (the
/// weight matrix, re-read every call) would dominate the work. Rows of
/// `B` are already contiguous along the contraction axis, so each
/// output is a plain dot product; `NTW` outputs run as parallel
/// accumulation chains. Per element the contraction still runs in
/// strictly increasing `p` order with `mul_add` onto the resident `C`
/// value — bit-identical to the reference kernel.
fn nt_narrow(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        let x = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        let mut j0 = 0;
        while j0 < n {
            let jw = NTW.min(n - j0);
            let mut acc = [0.0f32; NTW];
            acc[..jw].copy_from_slice(&c_row[j0..j0 + jw]);
            if jw == NTW {
                let rows: [&[f32]; NTW] =
                    std::array::from_fn(|jj| &b[(j0 + jj) * k..(j0 + jj + 1) * k]);
                for (p, &xv) in x.iter().enumerate() {
                    for (jj, row) in rows.iter().enumerate() {
                        acc[jj] = xv.mul_add(row[p], acc[jj]);
                    }
                }
            } else {
                for (jj, slot) in acc.iter_mut().enumerate().take(jw) {
                    let row = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
                    for (p, &xv) in x.iter().enumerate() {
                        *slot = xv.mul_add(row[p], *slot);
                    }
                }
            }
            c_row[j0..j0 + jw].copy_from_slice(&acc[..jw]);
            j0 += jw;
        }
    }
}

/// `C[m,n] += A[k,m]^T * B[k,n]` (i.e. `C[i,j] += Σ_p A[p,i]·B[p,j]`).
///
/// This is the weight-gradient form: `dW = dYᵀ · X` with batch as the
/// contraction axis.
///
/// # Panics
///
/// Panics if any slice is shorter than its shape implies.
pub fn sgemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm_tn_with(Store::Accumulate, m, k, n, a, b, c);
}

/// [`sgemm_tn`] with the given [`Store`].
pub(crate) fn sgemm_tn_with(
    store: Store,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert!(a.len() >= k * m, "A too short: {} < {}", a.len(), k * m);
    assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    blocked(m, k, n, a, b, c, ALayout::KMajor, BLayout::RowMajor, store);
}

/// Blocked driver shared by all three public kernels.
#[allow(clippy::too_many_arguments)]
fn blocked(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    a_layout: ALayout,
    b_layout: BLayout,
    store: Store,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // An empty contraction: C += 0 is a no-op, C = 0 a fill.
        if store == Store::Overwrite {
            c[..m * n].fill(0.0);
        }
        return;
    }
    let arm = simd::arm();
    let n_panels = n.div_ceil(NR);
    let c = &mut c[..m * n];
    let work = |blk: usize, c_block: &mut [f32]| {
        let i0 = blk * MC;
        let mb = (m - i0).min(MC);
        let groups = mb.div_ceil(MR);
        PACK.with(|cell| {
            let Pack { a: a_packed, b: b_packed } = &mut *cell.borrow_mut();
            for p0 in (0..k).step_by(KC) {
                let kc = KC.min(k - p0);
                // The overwrite store starts the first strip's tiles at
                // +0.0; later strips accumulate onto what it stored.
                let zero = p0 == 0 && store == Store::Overwrite;
                pack_a(a_packed, a, a_layout, m, k, i0, mb, p0, kc);
                for jp in 0..n_panels {
                    let j0 = jp * NR;
                    let nr = NR.min(n - j0);
                    // The strip is packed right before its row groups
                    // read it, so it is still L1-hot for every one.
                    pack_b(b_packed, b, b_layout, k, n, p0, kc, j0, arm);
                    for g in 0..groups {
                        let r0 = g * MR;
                        let mr = MR.min(mb - r0);
                        let a_panel = &a_packed[g * kc * MR..(g + 1) * kc * MR];
                        let c_tile = &mut c_block[r0 * n + j0..];
                        arm.tile(kc, a_panel, b_packed, c_tile, n, mr, nr, zero);
                    }
                }
            }
        });
    };
    if m * k * n < PARALLEL_THRESHOLD {
        // Not worth a pool dispatch (or the shard table's allocation);
        // same chunk grid, same results.
        for (blk, c_block) in c.chunks_mut(MC * n).enumerate() {
            work(blk, c_block);
        }
    } else {
        let shards = Shards::new(c, MC * n);
        pool::parallel_for(shards.count(), |blk| work(blk, shards.claim(blk)));
    }
}

/// Pack the `kc`-row strip of `B` starting at contraction row `p0`,
/// over the `NR` columns starting at `j0`, into `[p][jr]` order. The pad
/// columns of a partial last strip keep stale values.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    bp: &mut [f32],
    b: &[f32],
    layout: BLayout,
    k: usize,
    n: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    arm: Arm,
) {
    let w = NR.min(n - j0);
    // Rows `< rows` and columns `< cols` of a transposed strip are
    // packed by the arm's 8×8 block transposes.
    let (rows, cols) = match layout {
        BLayout::RowMajor => (0, 0),
        BLayout::Transposed => arm.pack_strip_transposed(bp, &b[j0 * k..(j0 + w) * k], k, p0, kc),
    };
    for p in 0..kc {
        let dst = &mut bp[p * NR..(p + 1) * NR];
        let row = p0 + p;
        match layout {
            BLayout::RowMajor => dst[..w].copy_from_slice(&b[row * n + j0..row * n + j0 + w]),
            // One `p` row across the strip's columns at a time: the
            // destination streams and the `w` source lines stay L1-hot
            // across consecutive `p`.
            BLayout::Transposed => {
                let start = if p < rows { cols } else { 0 };
                for (jr, slot) in dst[..w].iter_mut().enumerate().skip(start) {
                    *slot = b[(j0 + jr) * k + row];
                }
            }
        }
    }
}

/// Pack one row block of `A` into `[group][p][r]` order, covering
/// contraction columns `p0..p0 + kc`. The pad rows of a partial last
/// group keep stale values.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    ap: &mut [f32],
    a: &[f32],
    layout: ALayout,
    m: usize,
    k: usize,
    i0: usize,
    mb: usize,
    p0: usize,
    kc: usize,
) {
    let groups = mb.div_ceil(MR);
    match layout {
        ALayout::RowMajor => {
            for g in 0..groups {
                let base = g * kc * MR;
                for r in 0..MR.min(mb - g * MR) {
                    let i = i0 + g * MR + r;
                    let row = &a[i * k + p0..i * k + p0 + kc];
                    for (p, &v) in row.iter().enumerate() {
                        ap[base + p * MR + r] = v;
                    }
                }
            }
        }
        ALayout::KMajor => {
            // A[i,p] = a[p*m + i]: contiguous in `r` for fixed `p`.
            for g in 0..groups {
                let base = g * kc * MR;
                let rows = MR.min(mb - g * MR);
                for p in 0..kc {
                    let src = &a[(p0 + p) * m + i0 + g * MR..][..rows];
                    ap[base + p * MR..][..rows].copy_from_slice(src);
                }
            }
        }
    }
}

/// Serial, single-thread reference kernels.
///
/// These define the numerical contract: per output element,
/// contributions are folded onto the resident `C` value in strictly
/// increasing `p` order with `f32::mul_add`. The blocked kernels are
/// bit-identical to these for every shape and thread count, which is
/// what the property tests in `tests/parallel_determinism.rs` assert.
pub mod reference {
    /// Reference for [`super::sgemm`].
    pub fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            let c_row = &mut c[i * n..(i + 1) * n];
            for p in 0..k {
                let a_ip = a[i * k + p];
                let b_row = &b[p * n..(p + 1) * n];
                for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row) {
                    *c_ij = a_ip.mul_add(b_pj, *c_ij);
                }
            }
        }
    }

    /// Reference for [`super::sgemm_nt`] (`B` stored `[n,k]`).
    pub fn sgemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            let c_row = &mut c[i * n..(i + 1) * n];
            for p in 0..k {
                let a_ip = a[i * k + p];
                for (j, c_ij) in c_row.iter_mut().enumerate() {
                    *c_ij = a_ip.mul_add(b[j * k + p], *c_ij);
                }
            }
        }
    }

    /// Reference for [`super::sgemm_tn`] (`A` stored `[k,m]`).
    pub fn sgemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            let c_row = &mut c[i * n..(i + 1) * n];
            for p in 0..k {
                let a_pi = a[p * m + i];
                let b_row = &b[p * n..(p + 1) * n];
                for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row) {
                    *c_ij = a_pi.mul_add(b_pj, *c_ij);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        // Small deterministic LCG; avoids pulling rand into this module.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn sgemm_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (7, 7, 7), (16, 32, 8)] {
            let a = rand_vec(m * k, 1);
            let b = rand_vec(k * n, 2);
            let mut c = vec![0.0; m * n];
            sgemm(m, k, n, &a, &b, &mut c);
            let expect = naive(m, k, n, &a, &b);
            for (x, y) in c.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn sgemm_accumulates() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut c = vec![10.0; 4];
        sgemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn sgemm_nt_matches_naive() {
        let (m, k, n) = (5, 6, 4);
        let a = rand_vec(m * k, 3);
        let bt = rand_vec(n * k, 4); // B stored [n,k]
                                     // Build B [k,n] explicitly for the naive reference.
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut c = vec![0.0; m * n];
        sgemm_nt(m, k, n, &a, &bt, &mut c);
        let expect = naive(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn sgemm_tn_matches_naive() {
        let (m, k, n) = (4, 7, 3);
        let at = rand_vec(k * m, 5); // A stored [k,m]
        let b = rand_vec(k * n, 6);
        let mut a = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = at[p * m + i];
            }
        }
        let mut c = vec![0.0; m * n];
        sgemm_tn(m, k, n, &at, &b, &mut c);
        let expect = naive(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn large_parallel_gemm_matches_naive() {
        // Big enough to cross PARALLEL_THRESHOLD (m*k*n = 2^21).
        let (m, k, n) = (128, 128, 128);
        let a = rand_vec(m * k, 7);
        let b = rand_vec(k * n, 8);
        let mut c = vec![0.0; m * n];
        sgemm(m, k, n, &a, &b, &mut c);
        let expect = naive(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_is_bit_identical_to_reference() {
        // Shapes straddling every edge of the grid: rows around MR = 8
        // and MC = 32, columns around NR = 32, and contractions around
        // KC = 256 (one strip, a strip plus one, several strips).
        for &(m, k, n) in &[
            (1, 1, 1),
            (7, 5, 31),
            (8, 25, 32),
            (9, 7, 33),
            (33, 64, 65),
            (25, 255, 64),
            (31, 256, 17),
            (37, 257, 100),
            (65, 600, 19),
        ] {
            let a = rand_vec(m * k, 11);
            let b = rand_vec(k * n, 12);
            for b_layout in [BLayout::RowMajor, BLayout::Transposed] {
                for store in [Store::Accumulate, Store::Overwrite] {
                    // The overwrite store must equal the reference run
                    // on a zero-filled C, whatever C held before.
                    let mut c = rand_vec(m * n, 13);
                    let mut expect =
                        if store == Store::Overwrite { vec![0.0; m * n] } else { c.clone() };
                    blocked(m, k, n, &a, &b, &mut c, ALayout::RowMajor, b_layout, store);
                    match b_layout {
                        BLayout::RowMajor => reference::sgemm(m, k, n, &a, &b, &mut expect),
                        BLayout::Transposed => reference::sgemm_nt(m, k, n, &a, &b, &mut expect),
                    }
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&c), bits(&expect), "shape ({m},{k},{n}) {store:?}");
                }
            }
        }
    }

    /// One GEMM form with an explicit [`Store`].
    type Kernel = fn(Store, usize, usize, usize, &[f32], &[f32], &mut [f32]);

    #[test]
    fn overwrite_forms_ignore_the_old_c() {
        // Every public form, including the narrow `nt` rows and an
        // empty contraction, against the accumulate form on a zeroed C.
        let kernels: [(Kernel, &str); 3] =
            [(sgemm_with, "nn"), (sgemm_nt_with, "nt"), (sgemm_tn_with, "tn")];
        for &(m, k, n) in &[(1, 9, 13), (2, 40, 8), (3, 0, 5), (9, 300, 33)] {
            let a = rand_vec(m * k, 21);
            let b = rand_vec(k * n, 22);
            for (kernel, name) in kernels {
                let mut expect = vec![0.0; m * n];
                kernel(Store::Accumulate, m, k, n, &a, &b, &mut expect);
                let mut c = rand_vec(m * n, 23);
                kernel(Store::Overwrite, m, k, n, &a, &b, &mut c);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&c), bits(&expect), "{name} ({m},{k},{n})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "A too short")]
    fn sgemm_validates_input_sizes() {
        let mut c = vec![0.0; 4];
        sgemm(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }
}
