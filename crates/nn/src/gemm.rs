//! Single-precision matrix-multiply kernels.
//!
//! Everything compute-heavy in this crate (convolution via im2col,
//! linear layers and their backward passes) funnels into the three
//! kernels here. The default implementation is cache-blocked: `B` is
//! packed once into column panels, each row block packs `A` into
//! register-tile order, and an `MR`×`NR` microkernel keeps the output
//! tile in registers across a `KC`-deep strip of the contraction axis.
//! Row blocks fan out across the persistent worker pool
//! ([`crate::pool`]) once the FLOP count justifies the dispatch.
//!
//! All kernels **accumulate** (`C += ...`); callers zero `C` when they
//! want a plain product.
//!
//! # Determinism
//!
//! For every output element the blocked kernels add contributions in
//! strictly increasing `p` order onto the resident `C` value, using
//! `f32::mul_add` for each step. That is exactly what the serial
//! kernels in [`reference`](mod@reference) compute, so the fast path is bit-identical
//! to the reference for every shape and every thread count: the row
//! block / panel / microkernel grid depends only on the problem shape,
//! and the pool only changes which thread computes which block. The
//! padded microkernel lanes (when `m % MR != 0` or `n % NR != 0`)
//! operate on zero-filled packing slots and are never stored.

use std::cell::RefCell;

use crate::pool::{self, Shards};
use crate::{simd, workspace};

thread_local! {
    /// Reusable `B`-panel packing buffer. A fresh `Vec` per call would
    /// cross the allocator's mmap threshold for the larger layer
    /// shapes, paying map/unmap and page-fault costs on every GEMM;
    /// pool workers are persistent, so one warm buffer per thread
    /// amortizes that away. [`pack_b`] writes every slot it hands to
    /// the microkernel (pad lanes included), so reuse needs no
    /// re-zeroing.
    static B_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Reusable `A`-panel packing buffer ([`pack_a`] also writes every
    /// slot it exposes, including zero-filled edge rows).
    static A_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Microkernel tile height (rows of `C` kept in registers).
pub(crate) const MR: usize = 4;
/// Microkernel tile width (columns of `C` kept in registers).
pub(crate) const NR: usize = 16;
/// Contraction-axis strip length per packed `A` panel. Sized so one
/// `B` panel strip (`KC·NR` floats = 16 KiB) and one `A` panel
/// (`KC·MR` floats = 4 KiB) fit L1 together: every row group of the
/// block re-reads the same `B` strip, and with a 1024-deep strip those
/// re-reads all came from L2.
const KC: usize = 256;
/// Rows of `C` per parallel chunk (one row block = one pool chunk).
pub(crate) const MC: usize = 32;

/// FLOP threshold (m·k·n) above which row blocks fan out to the pool.
const PARALLEL_THRESHOLD: usize = 1 << 18;
/// Contraction length at or below which the `MR`×`NR` tile grid is a
/// bad fit (per-tile `C` traffic stops amortizing) and the row-sweep
/// kernel in [`thin_k`] runs instead.
pub(crate) const THIN_K: usize = 64;
/// Columns of `C` kept in registers per [`thin_k`] row sweep.
pub(crate) const TW: usize = 32;
/// FLOP threshold below which packing costs more than it saves and the
/// (bit-identical) reference kernel is used directly.
const SMALL_THRESHOLD: usize = 1 << 12;

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

/// `C[m,n] += A[m,k] * B[k,n]`, all row-major.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` shape implies.
pub fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    if m * k * n < SMALL_THRESHOLD {
        reference::sgemm(m, k, n, a, b, c);
    } else {
        blocked(m, k, n, a, b, c, ALayout::RowMajor, BLayout::RowMajor);
    }
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
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= n * k, "B too short: {} < {}", b.len(), n * k);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    if m * k * n < SMALL_THRESHOLD {
        reference::sgemm_nt(m, k, n, a, b, c);
    } else if m <= 2 {
        if !simd::nt_narrow(m, k, n, a, b, c) {
            nt_narrow(m, k, n, a, b, c);
        }
    } else {
        blocked(m, k, n, a, b, c, ALayout::RowMajor, BLayout::Transposed);
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
    assert!(a.len() >= k * m, "A too short: {} < {}", a.len(), k * m);
    assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    if m * k * n < SMALL_THRESHOLD {
        reference::sgemm_tn(m, k, n, a, b, c);
    } else {
        blocked(m, k, n, a, b, c, ALayout::KMajor, BLayout::RowMajor);
    }
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
) {
    if m == 0 || n == 0 || k == 0 {
        return; // C += 0, i.e. a no-op, matching the loop-based kernels
    }
    if k <= THIN_K && matches!(b_layout, BLayout::RowMajor) {
        return thin_k(m, k, n, a, b, c, a_layout);
    }
    let n_panels = n.div_ceil(NR);
    // Pack all of B once, shared read-only by every row block:
    // b_packed[(panel * k + p) * NR + jr] = B[p, panel*NR + jr], with
    // out-of-range columns zero-filled by `pack_b` itself.
    B_SCRATCH.with(|cell| {
        let mut b_buf = cell.borrow_mut();
        let b_need = n_panels * k * NR;
        let b_packed = workspace::reserve_f32(&mut b_buf, b_need);
        pack_b(b_packed, b, b_layout, k, n);

        let row_blocks = m.div_ceil(MC);
        let c = &mut c[..m * n];
        let shards = Shards::new(c, MC * n);
        let b_packed = &*b_packed;
        let work = |blk: usize| {
            let c_block = shards.claim(blk);
            let i0 = blk * MC;
            let mb = (m - i0).min(MC);
            let groups = mb.div_ceil(MR);
            let a_need = groups * KC.min(k) * MR;
            A_SCRATCH.with(|a_cell| {
                let mut a_buf = a_cell.borrow_mut();
                let a_packed = workspace::reserve_f32(&mut a_buf, a_need);
                for p0 in (0..k).step_by(KC) {
                    let kc = KC.min(k - p0);
                    pack_a(a_packed, a, a_layout, m, k, i0, mb, p0, kc);
                    for jp in 0..n_panels {
                        let j0 = jp * NR;
                        let nr = NR.min(n - j0);
                        let b_panel = &b_packed[(jp * k + p0) * NR..(jp * k + p0 + kc) * NR];
                        for g in 0..groups {
                            let r0 = g * MR;
                            let mr = MR.min(mb - r0);
                            let a_panel = &a_packed[g * kc * MR..(g + 1) * kc * MR];
                            microkernel(
                                kc,
                                a_panel,
                                b_panel,
                                &mut c_block[r0 * n + j0..],
                                n,
                                mr,
                                nr,
                            );
                        }
                    }
                }
            });
        };
        if m * k * n < PARALLEL_THRESHOLD {
            // Not worth a pool dispatch; same chunk grid, same results.
            for blk in 0..row_blocks {
                work(blk);
            }
        } else {
            pool::parallel_for(row_blocks, work);
        }
    });
}

/// Row-sweep kernel for thin contractions (`k <= THIN_K`, row-major
/// `B`): pairs of `C` rows are processed in `TW`-wide register strips,
/// with the whole contraction in one pass per strip. Compared to the
/// tile grid this touches each `C` element once, reads `B` rows as
/// contiguous vectors (shared by both output rows, halving `B`
/// traffic), and skips packing entirely, which wins when `k` is too
/// short to amortize per-tile loads and stores. The accumulation order
/// per element is unchanged: increasing `p`, `mul_add` onto the
/// resident value.
fn thin_k(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], a_layout: ALayout) {
    let row_blocks = m.div_ceil(MC);
    let c = &mut c[..m * n];
    let shards = Shards::new(c, MC * n);
    let work = |blk: usize| {
        let c_block = shards.claim(blk);
        let i0 = blk * MC;
        let mb = (m - i0).min(MC);
        let gather = |r: usize, dest: &mut [f32; THIN_K]| {
            for (p, slot) in dest.iter_mut().enumerate().take(k) {
                *slot = a_at(a, a_layout, m, k, i0 + r, p);
            }
        };
        if simd::thin_block(k, n, mb, b, c_block, gather) {
            return;
        }
        let mut a_rows = [[0.0f32; THIN_K]; 2];
        let mut r = 0;
        while r < mb {
            let rows = (mb - r).min(2);
            for (rr, a_row) in a_rows.iter_mut().enumerate().take(rows) {
                gather(r + rr, a_row);
            }
            let c_rows = &mut c_block[r * n..(r + rows) * n];
            if rows == 2 {
                thin_sweep::<2>(k, n, &a_rows, b, c_rows);
            } else {
                thin_sweep::<1>(k, n, &a_rows, b, c_rows);
            }
            r += rows;
        }
    };
    if m * k * n < PARALLEL_THRESHOLD {
        for blk in 0..row_blocks {
            work(blk);
        }
    } else {
        pool::parallel_for(row_blocks, work);
    }
}

/// One [`thin_k`] sweep: `ROWS` (1 or 2) adjacent `C` rows across all
/// `TW`-wide strips of `n`, contracting over the gathered `A` scalars.
#[inline(always)]
fn thin_sweep<const ROWS: usize>(
    k: usize,
    n: usize,
    a_rows: &[[f32; THIN_K]; 2],
    b: &[f32],
    c_rows: &mut [f32],
) {
    let mut j0 = 0;
    while j0 + TW <= n {
        let mut acc = [[0.0f32; TW]; ROWS];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            *acc_r = c_rows[r * n + j0..r * n + j0 + TW].try_into().expect("C strip");
        }
        for p in 0..k {
            let bv: &[f32; TW] = b[p * n + j0..p * n + j0 + TW].try_into().expect("B strip");
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = a_rows[r][p];
                for j in 0..TW {
                    acc_r[j] = av.mul_add(bv[j], acc_r[j]);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            c_rows[r * n + j0..r * n + j0 + TW].copy_from_slice(acc_r);
        }
        j0 += TW;
    }
    if j0 < n {
        // Tail strip, same element-wise order at partial width.
        let w = n - j0;
        let mut acc = [[0.0f32; TW]; ROWS];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r[..w].copy_from_slice(&c_rows[r * n + j0..r * n + j0 + w]);
        }
        for p in 0..k {
            let bv = &b[p * n + j0..p * n + j0 + w];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = a_rows[r][p];
                for j in 0..w {
                    acc_r[j] = av.mul_add(bv[j], acc_r[j]);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            c_rows[r * n + j0..r * n + j0 + w].copy_from_slice(&acc_r[..w]);
        }
    }
}

/// `A[i,p]` under either storage layout.
#[inline(always)]
fn a_at(a: &[f32], layout: ALayout, m: usize, k: usize, i: usize, p: usize) -> f32 {
    match layout {
        ALayout::RowMajor => a[i * k + p],
        ALayout::KMajor => a[p * m + i],
    }
}

/// `MR`×`NR` register tile: load `C`, accumulate a `kc`-strip in
/// strictly increasing `p` order, store `C`. Padded lanes (`r >= mr`,
/// `j >= nr`) accumulate zero-filled packing slots and are not stored.
#[inline]
fn microkernel(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    if simd::microkernel(kc, ap, bp, c, ldc, mr, nr) {
        return;
    }
    // Hoisted length proofs: the per-`p` slices below stay in bounds,
    // so the hot loop compiles without per-iteration checks.
    let ap = &ap[..kc * MR];
    let bp = &bp[..kc * NR];
    let mut acc = [[0.0f32; NR]; MR];
    if nr == NR {
        // Full-width tile (the common case): fixed-size row moves.
        for r in 0..mr {
            acc[r] = c[r * ldc..r * ldc + NR].try_into().expect("C tile row");
        }
    } else {
        for r in 0..mr {
            acc[r][..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
        }
    }
    for p in 0..kc {
        let av: &[f32; MR] = ap[p * MR..(p + 1) * MR].try_into().expect("A panel stride");
        let bv: &[f32; NR] = bp[p * NR..(p + 1) * NR].try_into().expect("B panel stride");
        for r in 0..MR {
            let a = av[r];
            for j in 0..NR {
                acc[r][j] = a.mul_add(bv[j], acc[r][j]);
            }
        }
    }
    if nr == NR {
        for r in 0..mr {
            c[r * ldc..r * ldc + NR].copy_from_slice(&acc[r]);
        }
    } else {
        for r in 0..mr {
            c[r * ldc..r * ldc + nr].copy_from_slice(&acc[r][..nr]);
        }
    }
}

/// Pack `B` into `[panel][p][jr]` order with zero-filled edge columns.
fn pack_b(bp: &mut [f32], b: &[f32], layout: BLayout, k: usize, n: usize) {
    let n_panels = n.div_ceil(NR);
    match layout {
        BLayout::RowMajor => {
            for jp in 0..n_panels {
                let j0 = jp * NR;
                let w = NR.min(n - j0);
                for p in 0..k {
                    let dst = (jp * k + p) * NR;
                    bp[dst..dst + w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
                    bp[dst + w..dst + NR].fill(0.0);
                }
            }
        }
        BLayout::Transposed => {
            if simd::pack_b_transposed(bp, b, k, n) {
                return;
            }
            for jp in 0..n_panels {
                let j0 = jp * NR;
                let w = NR.min(n - j0);
                for p in 0..k {
                    let dst = (jp * k + p) * NR;
                    bp[dst + w..dst + NR].fill(0.0);
                }
                for jr in 0..w {
                    let col = &b[(j0 + jr) * k..(j0 + jr + 1) * k];
                    for (p, &v) in col.iter().enumerate() {
                        bp[(jp * k + p) * NR + jr] = v;
                    }
                }
            }
        }
    }
}

/// Pack one row block of `A` into `[group][p][r]` order with zero-filled
/// edge rows, covering contraction columns `p0..p0 + kc`.
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
                for r in 0..MR {
                    if g * MR + r < mb {
                        let i = i0 + g * MR + r;
                        let row = &a[i * k + p0..i * k + p0 + kc];
                        for (p, &v) in row.iter().enumerate() {
                            ap[base + p * MR + r] = v;
                        }
                    } else {
                        for p in 0..kc {
                            ap[base + p * MR + r] = 0.0;
                        }
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
                    let dst = &mut ap[base + p * MR..base + (p + 1) * MR];
                    dst[..rows].copy_from_slice(src);
                    dst[rows..].fill(0.0);
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
        // Shapes straddling every edge case of the MR/NR/MC/KC grid and
        // the thin-k row sweep (k <= THIN_K with and without a tail
        // strip narrower than TW).
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 17),
            (4, 16, 16),
            (33, 7, 31),
            (65, 130, 19),
            (37, 1030, 33),
            (37, 33, 129),
            (5, 64, 64),
        ] {
            let a = rand_vec(m * k, 11);
            let b = rand_vec(k * n, 12);
            let mut c = rand_vec(m * n, 13);
            let mut expect = c.clone();
            blocked(m, k, n, &a, &b, &mut c, ALayout::RowMajor, BLayout::RowMajor);
            reference::sgemm(m, k, n, &a, &b, &mut expect);
            assert_eq!(c, expect, "shape ({m},{k},{n})");
        }
    }

    #[test]
    #[should_panic(expected = "A too short")]
    fn sgemm_validates_input_sizes() {
        let mut c = vec![0.0; 4];
        sgemm(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }
}
