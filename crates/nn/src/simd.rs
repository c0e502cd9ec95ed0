//! Register-tile kernels for the GEMM core, one per instruction set.
//!
//! The blocked GEMM ([`crate::gemm`]) hands every `MR`×`NR` = 8×32
//! output tile to `Arm::tile`, which runs one of three arms of the
//! same contract:
//!
//! - **AVX-512F**: sixteen `zmm` accumulators (8 rows × 2 vectors); per
//!   `p`, two `B` loads, eight broadcasts and sixteen fused
//!   multiply-adds. Edge tiles load and store `C` under lane masks.
//! - **AVX2 + FMA**: the tile as four 4×16 sub-tiles of eight `ymm`
//!   accumulators each. Edge sub-tiles are staged through a zero-padded
//!   4×16 tile.
//! - **Scalar**: the same 4×16 sub-tiling in safe code. Its 64
//!   accumulators stay in registers, where one 8×32 accumulator would
//!   spill.
//!
//! `arm()` picks the arm once per process from runtime CPU detection;
//! `WM_FORCE_SCALAR` (any value other than empty or `0`) and
//! [`set_force_scalar`] pin the scalar arm.
//!
//! # Bit-identity
//!
//! The numerical contract ([`crate::gemm::reference`]) is: per output
//! element, contributions fold onto the resident `C` value in strictly
//! increasing `p` order via `f32::mul_add` (fused, single rounding).
//! Every arm vectorizes across **output columns**, so each lane walks
//! its own element's contraction in increasing `p` order, and
//! `_mm512_fmadd_ps` / `_mm256_fmadd_ps` are lane-wise exactly
//! `f32::mul_add`. The arms are therefore bit-identical to each other
//! and to the reference: same summands, same order, same rounding. A
//! dot-product-style vectorization along `p` (horizontal reduction)
//! would *not* have this property, which is why the narrow `nt` kernel
//! transposes 8×8 blocks of `B` into column-major registers instead of
//! reducing along rows.
//!
//! With `zero` set (the first strip of the GEMM's overwrite store) a
//! tile starts its accumulators at `+0.0` instead of loading `C`: the
//! same value a zero-filled `C` would load.
//!
//! Padded lanes (rows `>= mr`, columns `>= nr`) accumulate whatever the
//! packed panels hold there and are never stored.

// Deny-by-default in the crate root; raw-pointer vector loads/stores
// with hoisted bounds proofs are this module's documented exception.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

use crate::gemm::{MR, NR};

/// Rows of one scalar / AVX2 sub-tile.
const SR: usize = 4;
/// Columns of one scalar / AVX2 sub-tile.
const SC: usize = 16;

/// One implementation of the `MR`×`NR` register-tile contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Arm {
    /// Portable safe code.
    Scalar = 1,
    /// AVX2 + FMA intrinsics.
    Avx2 = 2,
    /// AVX-512F intrinsics (the host also has AVX2 + FMA).
    Avx512 = 3,
}

/// Latched dispatch decision: `0` until the first call, else an [`Arm`].
static STATE: AtomicU8 = AtomicU8::new(0);

/// The arm this process runs, latched on first use. The hot path reads
/// it with one relaxed atomic load per GEMM call.
#[inline]
pub(crate) fn arm() -> Arm {
    match STATE.load(Ordering::Relaxed) {
        1 => Arm::Scalar,
        2 => Arm::Avx2,
        3 => Arm::Avx512,
        _ => {
            let arm = if force_scalar_env() { Arm::Scalar } else { detect() };
            STATE.store(arm as u8, Ordering::Relaxed);
            arm
        }
    }
}

/// Whether a vector arm (AVX-512F or AVX2) is active for this process.
///
/// First call probes the CPU (`is_x86_feature_detected!`) and the
/// `WM_FORCE_SCALAR` environment variable (any value other than empty
/// or `0` forces the scalar arm); the decision is latched.
#[inline]
pub fn active() -> bool {
    arm() != Arm::Scalar
}

/// Force the scalar arm on (`true`) or re-enable hardware detection
/// (`false`), overriding both the latched decision and the
/// `WM_FORCE_SCALAR` environment variable. Intended for tests and
/// benchmarks that compare the arms in one process.
pub fn set_force_scalar(on: bool) {
    let arm = if on { Arm::Scalar } else { detect() };
    STATE.store(arm as u8, Ordering::Relaxed);
}

/// `WM_FORCE_SCALAR` is set to something truthy.
fn force_scalar_env() -> bool {
    std::env::var_os("WM_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0")
}

/// The fastest arm the CPU this process runs on can execute.
#[cfg(target_arch = "x86_64")]
fn detect() -> Arm {
    use std::arch::is_x86_feature_detected as has;
    match (has!("avx2") && has!("fma"), has!("avx512f")) {
        (true, true) => Arm::Avx512,
        (true, false) => Arm::Avx2,
        _ => Arm::Scalar,
    }
}

/// The fastest arm the CPU this process runs on can execute.
#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Arm {
    Arm::Scalar
}

impl Arm {
    /// One register tile: `C[r, j] += Σ_p ap[p·MR + r] · bp[p·NR + j]`
    /// for `r < mr`, `j < nr`, folded over `p = 0..kc` in increasing
    /// order (onto `+0.0` instead of `C` when `zero`). `ap` is a packed
    /// `[p][MR]` `A` panel, `bp` a packed `[p][NR]` `B` panel, and `C`
    /// row `r` starts at `c[r * ldc]`.
    ///
    /// # Panics
    ///
    /// Panics if `ap`, `bp` or `c` is shorter than that implies.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tile(
        self,
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        c: &mut [f32],
        ldc: usize,
        mr: usize,
        nr: usize,
        zero: bool,
    ) {
        let ap = &ap[..kc * MR];
        let bp = &bp[..kc * NR];
        let c = &mut c[..(mr - 1) * ldc + nr];
        match self {
            // SAFETY: the vector arms are latched only after their
            // runtime feature detection; the slices above cover every
            // access the kernels make.
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => unsafe { avx512::tile(kc, ap, bp, c, ldc, mr, nr, zero) },
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => unsafe { avx2::tile(kc, ap, bp, c, ldc, mr, nr, zero) },
            _ => scalar_tile(kc, ap, bp, c, ldc, mr, nr, zero),
        }
    }

    /// Packs the 8×8-aligned block of one strip of a transposed
    /// (`[n,k]`) `B` operand with `w = cols.len() / k` columns:
    /// `strip[p·NR + jr] = cols[jr·k + p0 + p]` for every `p < rows =
    /// kc - kc % 8` and `jr < done = w - w % 8`, moving 8×8 blocks
    /// through a transpose instead of an element scatter. Returns
    /// `(rows, done)`; the caller packs the rest.
    #[inline]
    pub(crate) fn pack_strip_transposed(
        self,
        strip: &mut [f32],
        cols: &[f32],
        k: usize,
        p0: usize,
        kc: usize,
    ) -> (usize, usize) {
        let w = cols.len() / k;
        let (rows, done) = (kc - kc % 8, w - w % 8);
        assert!(p0 + kc <= k && w <= NR && strip.len() >= rows * NR);
        match self {
            // SAFETY: both vector arms imply AVX2 (see `detect`); the
            // assert above covers every access.
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 | Arm::Avx2 => unsafe {
                avx2::pack_strip_transposed(strip, cols, k, p0, rows, done);
            },
            _ => {
                for pb in (0..rows).step_by(8) {
                    for q in (0..done).step_by(8) {
                        let block: [&[f32; 8]; 8] = std::array::from_fn(|r| {
                            cols[(q + r) * k + p0 + pb..][..8].try_into().expect("8 floats")
                        });
                        for (pp, dst) in strip[pb * NR..].chunks_exact_mut(NR).take(8).enumerate() {
                            for (slot, src) in dst[q..q + 8].iter_mut().zip(block) {
                                *slot = src[pp];
                            }
                        }
                    }
                }
            }
        }
        (rows, done)
    }

    /// Vector narrow `A·Bᵀ` kernel (`m <= 2`): returns `true` if it
    /// ran, `false` if the caller must run the scalar one.
    #[inline]
    pub(crate) fn nt_narrow(
        self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) -> bool {
        #[cfg(target_arch = "x86_64")]
        if self != Arm::Scalar {
            // SAFETY: both vector arms imply AVX2 + FMA (see `detect`).
            unsafe {
                if m == 2 {
                    avx2::nt_narrow::<2>(k, n, a, b, c);
                } else {
                    avx2::nt_narrow::<1>(k, n, a, b, c);
                }
            }
            return true;
        }
        let _ = (m, k, n, a, b, c);
        false
    }
}

/// Scalar arm of [`Arm::tile`]: the tile as `SR`×`SC` sub-tiles.
#[allow(clippy::too_many_arguments)]
fn scalar_tile(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    zero: bool,
) {
    if mr == MR && nr == NR {
        // Full tile: constant sub-tile offsets and sizes let every
        // bound and edge branch fold away.
        for (r0, j0) in [(0, 0), (0, SC), (SR, 0), (SR, SC)] {
            scalar_sub(kc, ap, bp, r0, j0, &mut c[r0 * ldc + j0..], ldc, [SR, SC], zero);
        }
        return;
    }
    for r0 in (0..mr).step_by(SR) {
        for j0 in (0..nr).step_by(SC) {
            let (sr, sc) = ((mr - r0).min(SR), (nr - j0).min(SC));
            scalar_sub(kc, ap, bp, r0, j0, &mut c[r0 * ldc + j0..], ldc, [sr, sc], zero);
        }
    }
}

/// One `SR`×`SC` sub-tile of [`scalar_tile`] at packed row `r0` and
/// column `j0`, storing its `sr`×`sc` corner (loading it first unless
/// `zero`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn scalar_sub(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    r0: usize,
    j0: usize,
    c: &mut [f32],
    ldc: usize,
    [sr, sc]: [usize; 2],
    zero: bool,
) {
    // Hoisted bounds proof: every per-`p` slice below is in range.
    assert!(r0 + SR <= MR && j0 + SC <= NR);
    let (ap, bp) = (ap.as_chunks::<MR>().0, bp.as_chunks::<NR>().0);
    let mut acc = [[0.0f32; SC]; SR];
    let loaded_rows = if zero { 0 } else { sr };
    for (r, acc_r) in acc.iter_mut().enumerate().take(loaded_rows) {
        if sc == SC {
            *acc_r = c[r * ldc..r * ldc + SC].try_into().expect("C row");
        } else {
            acc_r[..sc].copy_from_slice(&c[r * ldc..r * ldc + sc]);
        }
    }
    for (a_p, b_p) in ap[..kc].iter().zip(&bp[..kc]) {
        let av: &[f32; SR] = a_p[r0..r0 + SR].try_into().expect("A sub-row");
        let bv: &[f32; SC] = b_p[j0..j0 + SC].try_into().expect("B sub-row");
        for (acc_r, &a) in acc.iter_mut().zip(av) {
            for (slot, &bj) in acc_r.iter_mut().zip(bv) {
                *slot = a.mul_add(bj, *slot);
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(sr) {
        c[r * ldc..r * ldc + sc].copy_from_slice(&acc_r[..sc]);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        __mmask16, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
        _mm512_set1_ps, _mm512_setzero_ps,
    };

    use crate::gemm::{MR, NR};

    /// AVX-512F arm of [`super::Arm::tile`]. Dispatches on `mr` so an
    /// edge tile of `R` rows keeps `2R` accumulators and does no work
    /// for its padded rows. With `zero`, the accumulators start at
    /// `+0.0` and `C` is only stored.
    ///
    /// # Safety
    ///
    /// AVX-512F available; `ap.len() >= kc*MR`, `bp.len() >= kc*NR`,
    /// `c.len() >= (mr-1)*ldc + nr`, `1 <= mr <= MR`, `1 <= nr <= NR`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tile(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        c: &mut [f32],
        ldc: usize,
        mr: usize,
        nr: usize,
        zero: bool,
    ) {
        // Lane masks of the two 16-wide column halves.
        let bits = u32::MAX >> (NR - nr);
        let masks = [bits as __mmask16, (bits >> 16) as __mmask16];
        match mr {
            8 => rows::<8>(kc, ap, bp, c, ldc, masks, zero),
            7 => rows::<7>(kc, ap, bp, c, ldc, masks, zero),
            6 => rows::<6>(kc, ap, bp, c, ldc, masks, zero),
            5 => rows::<5>(kc, ap, bp, c, ldc, masks, zero),
            4 => rows::<4>(kc, ap, bp, c, ldc, masks, zero),
            3 => rows::<3>(kc, ap, bp, c, ldc, masks, zero),
            2 => rows::<2>(kc, ap, bp, c, ldc, masks, zero),
            _ => rows::<1>(kc, ap, bp, c, ldc, masks, zero),
        }
    }

    /// `R` rows × two 16-lane vectors of one tile. Masked-off lanes are
    /// neither loaded (they start at zero) nor stored; with `zero`, no
    /// lane is loaded.
    ///
    /// # Safety
    ///
    /// As [`tile`], with `mr == R` and `masks` covering `nr` lanes.
    #[target_feature(enable = "avx512f")]
    unsafe fn rows<const R: usize>(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        c: &mut [f32],
        ldc: usize,
        masks: [__mmask16; 2],
        zero: bool,
    ) {
        const { assert!(R >= 1 && R <= MR) };
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        let loaded_rows = if zero { 0 } else { R };
        for (r, acc_r) in acc.iter_mut().enumerate().take(loaded_rows) {
            for (h, slot) in acc_r.iter_mut().enumerate() {
                // Masked-off lanes are never touched, so the address
                // may run past `c` when `nr <= 16`.
                *slot = _mm512_maskz_loadu_ps(masks[h], c.as_ptr().wrapping_add(r * ldc + h * 16));
            }
        }
        for p in 0..kc {
            // In bounds: p < kc, so p*NR + 31 < bp.len() and
            // p*MR + R - 1 < ap.len().
            let b0 = _mm512_loadu_ps(bp.as_ptr().add(p * NR));
            let b1 = _mm512_loadu_ps(bp.as_ptr().add(p * NR + 16));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*ap.get_unchecked(p * MR + r));
                acc_r[0] = _mm512_fmadd_ps(a, b0, acc_r[0]);
                acc_r[1] = _mm512_fmadd_ps(a, b1, acc_r[1]);
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (h, &v) in acc_r.iter().enumerate() {
                _mm512_mask_storeu_ps(c.as_mut_ptr().wrapping_add(r * ldc + h * 16), masks[h], v);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_permute2f128_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_unpackhi_ps,
        _mm256_unpacklo_ps,
    };

    use super::{SC, SR};
    use crate::gemm::{MR, NR, NTW};

    /// AVX2 arm of [`super::Arm::tile`]: the tile as `SR`×`SC` = 4×16
    /// sub-tiles. Full sub-tiles accumulate straight from/to `C`; edge
    /// sub-tiles are staged through a zero-padded 4×16 tile so the
    /// vector loop still runs full-width. With `zero`, nothing is
    /// loaded from `C`.
    ///
    /// # Safety
    ///
    /// AVX2 + FMA available; `ap.len() >= kc*MR`, `bp.len() >= kc*NR`,
    /// `c.len() >= (mr-1)*ldc + nr`, `mr <= MR`, `nr <= NR`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tile(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        c: &mut [f32],
        ldc: usize,
        mr: usize,
        nr: usize,
        zero: bool,
    ) {
        for r0 in (0..mr).step_by(SR) {
            for j0 in (0..nr).step_by(SC) {
                let (sr, sc) = ((mr - r0).min(SR), (nr - j0).min(SC));
                let c = &mut c[r0 * ldc + j0..];
                if sr == SR && sc == SC {
                    let _ = &c[..(SR - 1) * ldc + SC]; // hoisted bounds proof
                    sub(kc, ap, bp, r0, j0, c.as_mut_ptr(), ldc, zero);
                } else {
                    let mut staged = [[0.0f32; SC]; SR];
                    let loaded_rows = if zero { 0 } else { sr };
                    for r in 0..loaded_rows {
                        staged[r][..sc].copy_from_slice(&c[r * ldc..r * ldc + sc]);
                    }
                    sub(kc, ap, bp, r0, j0, staged.as_mut_ptr().cast(), SC, zero);
                    for r in 0..sr {
                        c[r * ldc..r * ldc + sc].copy_from_slice(&staged[r][..sc]);
                    }
                }
            }
        }
    }

    /// One full 4×16 sub-tile at packed row `r0` and column `j0`,
    /// starting from `C` or, with `zero`, from `+0.0`.
    ///
    /// # Safety
    ///
    /// AVX2 + FMA available; `c` valid for `SR` rows of `SC` floats at
    /// stride `ldc`; `r0 + SR <= MR`, `j0 + SC <= NR`, and the panels
    /// hold `kc` strides.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn sub(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        r0: usize,
        j0: usize,
        c: *mut f32,
        ldc: usize,
        zero: bool,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; SR];
        let loaded_rows = if zero { 0 } else { SR };
        for (r, acc_r) in acc.iter_mut().enumerate().take(loaded_rows) {
            acc_r[0] = _mm256_loadu_ps(c.add(r * ldc));
            acc_r[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
        }
        for p in 0..kc {
            // In bounds: p*NR + j0 + 15 < kc*NR and p*MR + r0 + 3 < kc*MR.
            let b0 = _mm256_loadu_ps(bp.as_ptr().add(p * NR + j0));
            let b1 = _mm256_loadu_ps(bp.as_ptr().add(p * NR + j0 + 8));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*ap.get_unchecked(p * MR + r0 + r));
                acc_r[0] = _mm256_fmadd_ps(a, b0, acc_r[0]);
                acc_r[1] = _mm256_fmadd_ps(a, b1, acc_r[1]);
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            _mm256_storeu_ps(c.add(r * ldc), acc_r[0]);
            _mm256_storeu_ps(c.add(r * ldc + 8), acc_r[1]);
        }
    }

    /// AVX2 narrow `A·Bᵀ` kernel (`ROWS = m` is 1 or 2), bit-identical
    /// to the scalar `nt_narrow`: `NTW = 8` outputs per row run as one
    /// vector of independent accumulation chains. `B`'s rows are
    /// contiguous along `p`, so 8×8 blocks are transposed in registers
    /// to put each `p` across the 8 output lanes; the `k % 8`
    /// remainder and the `n % 8` column tail finish as scalar
    /// `mul_add` chains over the same index ranges.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 + FMA are available, `a.len() >=
    /// ROWS*k`, `b.len() >= n*k`, `c.len() >= ROWS*n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn nt_narrow<const ROWS: usize>(
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        const { assert!(ROWS == 1 || ROWS == 2) };
        let a = &a[..ROWS * k];
        let b = &b[..n * k];
        let c = &mut c[..ROWS * n];
        let mut j0 = 0;
        while j0 + NTW <= n {
            let mut acc = [_mm256_setzero_ps(); ROWS];
            for (r, slot) in acc.iter_mut().enumerate() {
                // In bounds: r*n + j0 + 8 <= ROWS*n.
                *slot = _mm256_loadu_ps(c.as_ptr().add(r * n + j0));
            }
            let mut p0 = 0;
            while p0 + 8 <= k {
                // In bounds: (j0 + jj)*k + p0 + 8 <= (j0 + 8)*k <= n*k.
                let bb = b.as_ptr().add(j0 * k + p0);
                let t = transpose8([
                    _mm256_loadu_ps(bb),
                    _mm256_loadu_ps(bb.add(k)),
                    _mm256_loadu_ps(bb.add(2 * k)),
                    _mm256_loadu_ps(bb.add(3 * k)),
                    _mm256_loadu_ps(bb.add(4 * k)),
                    _mm256_loadu_ps(bb.add(5 * k)),
                    _mm256_loadu_ps(bb.add(6 * k)),
                    _mm256_loadu_ps(bb.add(7 * k)),
                ]);
                for (pp, &col) in t.iter().enumerate() {
                    for (r, slot) in acc.iter_mut().enumerate() {
                        let x = _mm256_set1_ps(*a.get_unchecked(r * k + p0 + pp));
                        *slot = _mm256_fmadd_ps(x, col, *slot);
                    }
                }
                p0 += 8;
            }
            if p0 < k {
                // k tail: finish each lane's chain serially, same
                // increasing-p order the vector prefix left off at.
                for (r, slot) in acc.iter_mut().enumerate() {
                    let mut lanes = [0.0f32; NTW];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), *slot);
                    for (jj, lane) in lanes.iter_mut().enumerate() {
                        let row = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
                        for p in p0..k {
                            *lane = a[r * k + p].mul_add(row[p], *lane);
                        }
                    }
                    *slot = _mm256_loadu_ps(lanes.as_ptr());
                }
            }
            for (r, &slot) in acc.iter().enumerate() {
                _mm256_storeu_ps(c.as_mut_ptr().add(r * n + j0), slot);
            }
            j0 += NTW;
        }
        for jj in j0..n {
            let row = &b[jj * k..(jj + 1) * k];
            for r in 0..ROWS {
                let mut slot = c[r * n + jj];
                for p in 0..k {
                    slot = a[r * k + p].mul_add(row[p], slot);
                }
                c[r * n + jj] = slot;
            }
        }
    }

    /// AVX2 body of [`super::Arm::pack_strip_transposed`]: moves 8×8
    /// blocks through in-register transposes instead of an element
    /// scatter, for `p < rows` and `jr < cols` (both multiples of 8).
    ///
    /// # Safety
    ///
    /// AVX2 available, `strip.len() >= rows*NR`, `cols <= NR`,
    /// `src.len() >= cols*k`, `p0 + rows <= k`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn pack_strip_transposed(
        strip: &mut [f32],
        src: &[f32],
        k: usize,
        p0: usize,
        rows: usize,
        cols: usize,
    ) {
        for pb in (0..rows).step_by(8) {
            for q in (0..cols).step_by(8) {
                // In bounds: the deepest load ends at
                // (q + 7)*k + p0 + pb + 8 <= cols*k, the deepest store
                // at (pb + 7)*NR + q + 8 <= rows*NR.
                let base = src.as_ptr().add(q * k + p0 + pb);
                let t = transpose8(std::array::from_fn(|r| _mm256_loadu_ps(base.add(r * k))));
                for (pp, &row) in t.iter().enumerate() {
                    _mm256_storeu_ps(strip.as_mut_ptr().add((pb + pp) * NR + q), row);
                }
            }
        }
    }

    /// 8×8 in-register transpose: `out[i][j] = rows[j][i]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(rows: [__m256; 8]) -> [__m256; 8] {
        let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
        let t0 = _mm256_unpacklo_ps(r0, r1);
        let t1 = _mm256_unpackhi_ps(r0, r1);
        let t2 = _mm256_unpacklo_ps(r2, r3);
        let t3 = _mm256_unpackhi_ps(r2, r3);
        let t4 = _mm256_unpacklo_ps(r4, r5);
        let t5 = _mm256_unpackhi_ps(r4, r5);
        let t6 = _mm256_unpacklo_ps(r6, r7);
        let t7 = _mm256_unpackhi_ps(r6, r7);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    /// Every arm this CPU can run, scalar first.
    fn supported_arms() -> Vec<Arm> {
        let mut arms = vec![Arm::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") && has!("fma") {
                arms.push(Arm::Avx2);
                if has!("avx512f") {
                    arms.push(Arm::Avx512);
                }
            }
        }
        arms
    }

    /// Each arm's tile, run directly (whatever `arm()` latched), is
    /// bitwise equal to a per-element `mul_add` fold over random packed
    /// panels, for every edge-tile height and width and for strips
    /// around the vector and `KC` boundaries. The pad lanes of the
    /// panels hold random values too, so a pad lane that leaks into a
    /// stored element fails the comparison, and `C` past the tile
    /// (row stride `ldc > nr`) must come back untouched. The zero-start
    /// form folds onto `+0.0` and must not read the tile's old `C`.
    #[test]
    fn every_arm_tile_is_bit_identical_to_scalar_fold() {
        let ldc = NR + 3;
        for kc in [1, 7, 8, 255, 256] {
            let ap = rand_vec(kc * MR, kc as u64);
            let bp = rand_vec(kc * NR, kc as u64 ^ 0x9e37);
            for mr in 1..=MR {
                for nr in [1, 15, 16, 17, 31, 32] {
                    for zero in [false, true] {
                        let c0 = rand_vec(MR * ldc, (mr * 64 + nr) as u64);
                        let mut expect = c0.clone();
                        for r in 0..mr {
                            for j in 0..nr {
                                let slot = &mut expect[r * ldc + j];
                                if zero {
                                    *slot = 0.0;
                                }
                                for p in 0..kc {
                                    *slot = ap[p * MR + r].mul_add(bp[p * NR + j], *slot);
                                }
                            }
                        }
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        for arm in supported_arms() {
                            let mut c = c0.clone();
                            let len = (mr - 1) * ldc + nr;
                            arm.tile(kc, &ap, &bp, &mut c[..len], ldc, mr, nr, zero);
                            assert_eq!(
                                bits(&c),
                                bits(&expect),
                                "{arm:?} kc={kc} mr={mr} nr={nr} zero={zero}"
                            );
                        }
                    }
                }
            }
        }
    }
}
