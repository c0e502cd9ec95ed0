//! Single-precision matrix-multiply kernels.
//!
//! Everything compute-heavy in this crate (convolution, linear layers
//! and their backward passes) funnels into the three kernels here, and
//! every shape takes one cache-blocked path; only `A·Bᵀ` products with
//! one or two rows keep a dot-product sweep ([`sgemm_nt`]) on the
//! vector arms. Each row block packs `A` into `MR`-row groups and each
//! `KC`-deep strip of `B` into one `NR`-wide panel, in fixed-size
//! per-thread buffers, and an `MR`×`NR` = 8×32 register tile
//! ([`crate::simd`], one arm per instruction set) keeps the output tile
//! in registers across the strip. Row blocks fan out across the
//! persistent worker pool ([`crate::pool`]) once the FLOP count
//! justifies the dispatch.
//!
//! A convolution never unfolds its input into an im2col matrix. Inside
//! the crate, `B` can be a window: one sample's zero-padded planes read
//! as the unfolded `[C·k·k, OH·OW]` operand, which `pack_b` copies into
//! its panels straight from the planes, for the forward product
//! (`W · col`) and the weight gradient (`dOut · colᵀ`).
//!
//! The public kernels **accumulate** (`C += ...`). The conv layers' forms
//! inside the crate (the window products and [`sgemm_tn`]'s) take an
//! **overwrite** store too (`C = ...`, `Store::Overwrite`): on
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
/// groups, one `B` strip, and the `B` operand's memory offsets of the
/// strip's rows and of the panel's columns. [`pack_a`] and [`pack_b`]
/// write every slot a stored tile lane depends on; pad slots keep stale
/// values, so reuse needs no clearing. The panels come first and the
/// whole is 64-byte aligned, so no tile load of a panel row splits a
/// cache line.
#[repr(C, align(64))]
struct Pack {
    a: [f32; MC * KC],
    b: [f32; KC * NR],
    rows: [usize; KC],
    cols: [usize; NR],
}

thread_local! {
    /// One fixed-size [`Pack`] per thread (~66 KiB, zero-initialised
    /// with the thread). It never grows, so no GEMM shape or schedule
    /// can grow scratch memory, and unlike a stack array it costs no
    /// clearing per call. A chunk borrows it only while it packs and
    /// runs its tiles, which never re-enter the pool.
    static PACK: RefCell<Pack> = const {
        RefCell::new(Pack { a: [0.0; MC * KC], b: [0.0; KC * NR], rows: [0; KC], cols: [0; NR] })
    };
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

/// Where the `B` operand's elements live: `B[p,j] = data[row(p) +
/// col(j)]`, with one [`Axis`] of memory offsets along the contraction
/// (`p`) and one along the output columns (`j`).
#[derive(Clone, Copy)]
struct BOperand<'a> {
    data: &'a [f32],
    rows: Axis,
    cols: Axis,
}

impl<'a> BOperand<'a> {
    /// `b[p * n + j]` (the `[k,n]` operand of [`sgemm`] / [`sgemm_tn`]).
    fn row_major(data: &'a [f32], n: usize) -> Self {
        BOperand { data, rows: Axis::Strided(n), cols: Axis::Strided(1) }
    }

    /// `b[j * k + p]` (the `[n,k]` operand of [`sgemm_nt`]).
    fn transposed(data: &'a [f32], k: usize) -> Self {
        BOperand { data, rows: Axis::Strided(1), cols: Axis::Strided(k) }
    }
}

/// The memory offsets of the indices along one axis of a `B` operand.
#[derive(Clone, Copy, Debug)]
enum Axis {
    /// Index `i` at `i·stride`.
    Strided(usize),
    /// Output pixel `j` of a [`Window`], at `(j / ow)·wp + j % ow`.
    Pixels { ow: usize, wp: usize },
    /// Tap `q = (c, ky, kx)` of a [`Window`] (`q = (c·k + ky)·k + kx`),
    /// at `c·plane + ky·wp + kx`.
    Taps { k: usize, wp: usize, plane: usize },
}

impl Axis {
    /// `out[i]` = the offset of index `start + i`. The window axes walk
    /// their coordinates incrementally: one division per call.
    fn fill(self, start: usize, out: &mut [usize]) {
        match self {
            Axis::Strided(stride) => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = (start + i) * stride;
                }
            }
            Axis::Pixels { ow, wp } => {
                let (mut row, mut x) = (start / ow * wp, start % ow);
                for slot in out {
                    *slot = row + x;
                    x += 1;
                    if x == ow {
                        (row, x) = (row + wp, 0);
                    }
                }
            }
            Axis::Taps { k, wp, plane } => {
                let (c, tap) = (start / (k * k), start % (k * k));
                let (mut base, mut ky, mut kx) = (c * plane + tap / k * wp, tap / k, tap % k);
                for slot in out {
                    *slot = base + kx;
                    kx += 1;
                    if kx == k {
                        (base, ky, kx) = (base + wp, ky + 1, 0);
                        if ky == k {
                            // Next channel: back up the k rows walked.
                            (base, ky) = (base + plane - k * wp, 0);
                        }
                    }
                }
            }
        }
    }

    /// Whether every run of 8 indices starting at a multiple of 8 lies
    /// at 8 consecutive offsets, so it moves as one `[f32; 8]` chunk.
    fn chunked(self) -> bool {
        match self {
            Axis::Strided(stride) => stride == 1,
            Axis::Pixels { ow, .. } => ow % 8 == 0,
            Axis::Taps { .. } => false,
        }
    }
}

/// One sample's zero-padded planes `[C, Hp, Wp]`, read as the unfolded
/// `[C·k·k, OH·OW]` operand of a stride-1 `k`×`k` convolution without
/// materializing it: element `(q, j)`, with tap `q = (c, ky, kx)` and
/// output pixel `j`, is `padded[c·Hp·Wp + ky·Wp + kx + (j / OW)·Wp +
/// j % OW]`, where `OH = Hp − k + 1` and `OW = Wp − k + 1`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Window<'a> {
    padded: &'a [f32],
    kernel: usize,
    hp: usize,
    wp: usize,
}

impl<'a> Window<'a> {
    /// The window of `k`×`k` taps over `padded`, whose `C` planes are
    /// `hp`×`wp` each.
    ///
    /// # Panics
    ///
    /// Panics if `padded` is not a whole number of planes, or a plane is
    /// smaller than the kernel.
    pub(crate) fn new(padded: &'a [f32], kernel: usize, [hp, wp]: [usize; 2]) -> Self {
        assert!(kernel >= 1 && hp >= kernel && wp >= kernel, "plane smaller than the kernel");
        assert!(padded.len().is_multiple_of(hp * wp), "not a whole number of {hp}x{wp} planes");
        Window { padded, kernel, hp, wp }
    }

    /// Rows of the unfolded operand, `C·k·k`.
    fn taps(&self) -> usize {
        self.padded.len() / (self.hp * self.wp) * self.kernel * self.kernel
    }

    /// Columns of the unfolded operand, `OH·OW`.
    fn pixels(&self) -> usize {
        (self.hp - self.kernel + 1) * (self.wp - self.kernel + 1)
    }

    /// The product form, `B[p, j]` = element `(p, j)`.
    fn operand(&self) -> BOperand<'a> {
        BOperand { data: self.padded, rows: self.tap_axis(), cols: self.pixel_axis() }
    }

    /// The transposed form, `B[p, j]` = element `(j, p)`.
    fn operand_transposed(&self) -> BOperand<'a> {
        BOperand { data: self.padded, rows: self.pixel_axis(), cols: self.tap_axis() }
    }

    fn tap_axis(&self) -> Axis {
        Axis::Taps { k: self.kernel, wp: self.wp, plane: self.hp * self.wp }
    }

    fn pixel_axis(&self) -> Axis {
        Axis::Pixels { ow: self.wp - self.kernel + 1, wp: self.wp }
    }
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
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    let b = BOperand::row_major(b, n);
    blocked(m, k, n, a, ALayout::RowMajor, b, c, Store::Accumulate, simd::arm());
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
    let arm = simd::arm();
    if m <= 2 && arm != Arm::Scalar {
        arm.nt_narrow(m, k, n, a, b, c);
    } else {
        let b = BOperand::transposed(b, k);
        blocked(m, k, n, a, ALayout::RowMajor, b, c, Store::Accumulate, arm);
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
    let b = BOperand::row_major(b, n);
    blocked(m, k, n, a, ALayout::KMajor, b, c, store, simd::arm());
}

/// `C[m, OH·OW] = A[m, C·k·k] · window` (or `+=`, per `store`): a
/// convolution's forward product, `A` row-major.
///
/// # Panics
///
/// Panics if `a` or `c` is shorter than its shape implies.
pub(crate) fn sgemm_window(store: Store, m: usize, a: &[f32], window: &Window, c: &mut [f32]) {
    let (k, n) = (window.taps(), window.pixels());
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    blocked(m, k, n, a, ALayout::RowMajor, window.operand(), c, store, simd::arm());
}

/// `C[m, C·k·k] = A[m, OH·OW] · windowᵀ` (or `+=`, per `store`): a
/// convolution's weight gradient `dOut · colᵀ`, `A` row-major. Every
/// `m` takes the blocked path.
///
/// # Panics
///
/// Panics if `a` or `c` is shorter than its shape implies.
pub(crate) fn sgemm_nt_window(store: Store, m: usize, a: &[f32], window: &Window, c: &mut [f32]) {
    let (k, n) = (window.pixels(), window.taps());
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    blocked(m, k, n, a, ALayout::RowMajor, window.operand_transposed(), c, store, simd::arm());
}

/// Blocked driver shared by every kernel, on tile arm `arm`.
#[allow(clippy::too_many_arguments)]
fn blocked(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_layout: ALayout,
    b: BOperand,
    c: &mut [f32],
    store: Store,
    arm: Arm,
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
    let n_panels = n.div_ceil(NR);
    let c = &mut c[..m * n];
    let work = |blk: usize, c_block: &mut [f32]| {
        let i0 = blk * MC;
        let mb = (m - i0).min(MC);
        let groups = mb.div_ceil(MR);
        PACK.with(|cell| {
            let Pack { a: a_packed, b: b_packed, rows, cols } = &mut *cell.borrow_mut();
            for p0 in (0..k).step_by(KC) {
                let kc = KC.min(k - p0);
                // The overwrite store starts the first strip's tiles at
                // +0.0; later strips accumulate onto what it stored.
                let zero = p0 == 0 && store == Store::Overwrite;
                pack_a(a_packed, a, a_layout, m, k, i0, mb, p0, kc);
                b.rows.fill(p0, &mut rows[..kc]);
                for jp in 0..n_panels {
                    let j0 = jp * NR;
                    let nr = NR.min(n - j0);
                    b.cols.fill(j0, &mut cols[..nr]);
                    // The strip is packed right before its row groups
                    // read it, so it is still L1-hot for every one.
                    pack_b(b_packed, b, &rows[..kc], &cols[..nr], arm);
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

/// Pack one strip of `B` into `[p][jr]` order: `bp[p·NR + jr] =
/// b.data[rows[p] + cols[jr]]` for the strip's `kc = rows.len()`
/// contraction rows and `w = cols.len()` columns. A row-major matrix
/// moves each row as one slice. When the columns run in chunks of 8 (a
/// [`Window`] with `OW % 8 == 0`) each row moves as `[f32; 8]` copies,
/// which compile to vector moves and never to a `memcpy` call per
/// short run. When the rows do (a transposed matrix, the transposed
/// window), the vector arms move 8×8 blocks through in-register
/// transposes. Everything else moves element by element. The pad
/// columns of a partial last strip keep stale values.
fn pack_b(bp: &mut [f32], b: BOperand, rows: &[usize], cols: &[usize], arm: Arm) {
    let (kc, w) = (rows.len(), cols.len());
    let data = b.data;
    // Rows `< done_rows` and columns `< done_cols` are packed by chunks.
    let (done_rows, done_cols) = if let Axis::Strided(1) = b.cols {
        // A row-major matrix: each strip row is one run.
        for (dst, &row) in bp.chunks_exact_mut(NR).zip(rows) {
            dst[..w].copy_from_slice(&data[row + cols[0]..][..w]);
        }
        (kc, w)
    } else if b.cols.chunked() {
        let full = w - w % 8;
        for (dst, &row) in bp.chunks_exact_mut(NR).zip(rows) {
            for (chunk, &col) in dst[..full].chunks_exact_mut(8).zip(cols.iter().step_by(8)) {
                let chunk: &mut [f32; 8] = chunk.try_into().expect("8 floats");
                *chunk = data[row + col..][..8].try_into().expect("8 floats");
            }
        }
        (kc, full)
    } else if b.rows.chunked() {
        arm.pack_strip_transposed(bp, data, &rows[..kc - kc % 8], &cols[..w - w % 8])
    } else {
        (0, 0)
    };
    for (p, (dst, &row)) in bp.chunks_exact_mut(NR).zip(rows).enumerate() {
        let start = if p < done_rows { done_cols } else { 0 };
        for (slot, &col) in dst[start..w].iter_mut().zip(&cols[start..]) {
            *slot = data[row + col];
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
            for transposed in [false, true] {
                for store in [Store::Accumulate, Store::Overwrite] {
                    // The overwrite store must equal the reference run
                    // on a zero-filled C, whatever C held before.
                    let mut c = rand_vec(m * n, 13);
                    let mut expect =
                        if store == Store::Overwrite { vec![0.0; m * n] } else { c.clone() };
                    let operand = if transposed {
                        reference::sgemm_nt(m, k, n, &a, &b, &mut expect);
                        BOperand::transposed(&b, k)
                    } else {
                        reference::sgemm(m, k, n, &a, &b, &mut expect);
                        BOperand::row_major(&b, n)
                    };
                    blocked(m, k, n, &a, ALayout::RowMajor, operand, &mut c, store, simd::arm());
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&c), bits(&expect), "shape ({m},{k},{n}) {store:?}");
                }
            }
        }
    }

    /// `window` unfolded into an explicit `[C·k·k, OH·OW]` matrix.
    fn unfold(window: &Window) -> Vec<f32> {
        let Window { padded, kernel: k, hp, wp } = *window;
        let (oh, ow) = (hp - k + 1, wp - k + 1);
        let mut col = Vec::with_capacity(window.taps() * window.pixels());
        for plane in padded.chunks_exact(hp * wp) {
            for ky in 0..k {
                for kx in 0..k {
                    for y in 0..oh {
                        col.extend_from_slice(&plane[(ky + y) * wp + kx..][..ow]);
                    }
                }
            }
        }
        col
    }

    /// Both forms of the window operand, on every arm this CPU runs
    /// (scalar included) and under both stores, are bitwise equal to
    /// the reference kernels on the explicitly unfolded matrix. The
    /// planes hold random values border included, so a misplaced
    /// offset cannot hide behind a zero.
    #[test]
    fn window_operand_is_bit_identical_to_the_unfolded_matrix() {
        // (C, k, H, W, pad, m), giving (CKK, OH·OW):
        for &(c, k, h, w, pad, m) in &[
            // C = 1, pad 2, OW = 32: (25, 1024), a transposed k > KC.
            (1, 5, 32, 32, 2, 9),
            // pad 2, OW = 13: (300, 78), a product k > KC, n % NR ≠ 0.
            (12, 5, 6, 13, 2, 8),
            // pad 0, OW = 16: (27, 128).
            (3, 3, 10, 18, 0, 5),
            // Table I conv3 at grid 32, m > MC: (288, 64).
            (32, 3, 8, 8, 1, 33),
            // OW = 45: panels start mid-row; m = 1 as in a 1-channel dW.
            (2, 3, 5, 45, 1, 1),
            // OW = 4, shorter than a chunk: (36, 16).
            (4, 3, 4, 4, 1, 3),
        ] {
            let (hp, wp) = (h + 2 * pad, w + 2 * pad);
            let padded = rand_vec(c * hp * wp, (c * 100 + k) as u64);
            let window = Window::new(&padded, k, [hp, wp]);
            let (ckk, ohw) = (window.taps(), window.pixels());
            let col = unfold(&window);
            let forms = [
                (ckk, ohw, window.operand(), reference::sgemm as Reference),
                (ohw, ckk, window.operand_transposed(), reference::sgemm_nt as Reference),
            ];
            for (kk, n, operand, reference) in forms {
                let a = rand_vec(m * kk, 31);
                for store in [Store::Accumulate, Store::Overwrite] {
                    let c0 = rand_vec(m * n, 32);
                    let mut expect =
                        if store == Store::Overwrite { vec![0.0; m * n] } else { c0.clone() };
                    reference(m, kk, n, &a, &col, &mut expect);
                    for arm in simd::supported_arms() {
                        let mut got = c0.clone();
                        blocked(m, kk, n, &a, ALayout::RowMajor, operand, &mut got, store, arm);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&got),
                            bits(&expect),
                            "{arm:?} {store:?} C={c} k={k} {h}x{w} pad={pad} m={m} ({kk},{n})"
                        );
                    }
                }
            }
        }
    }

    /// A serial reference kernel.
    type Reference = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

    #[test]
    fn overwrite_forms_ignore_the_old_c() {
        // The overwrite `tn` form, an empty contraction included,
        // against the accumulate form on a zeroed C. (The window test
        // above checks the window forms' overwrite store.)
        for &(m, k, n) in &[(1, 9, 13), (2, 40, 8), (3, 0, 5), (9, 300, 33)] {
            let a = rand_vec(m * k, 21);
            let b = rand_vec(k * n, 22);
            let mut expect = vec![0.0; m * n];
            sgemm_tn_with(Store::Accumulate, m, k, n, &a, &b, &mut expect);
            let mut c = rand_vec(m * n, 23);
            sgemm_tn_with(Store::Overwrite, m, k, n, &a, &b, &mut c);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&c), bits(&expect), "tn ({m},{k},{n})");
        }
    }

    #[test]
    #[should_panic(expected = "A too short")]
    fn sgemm_validates_input_sizes() {
        let mut c = vec![0.0; 4];
        sgemm(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }
}
