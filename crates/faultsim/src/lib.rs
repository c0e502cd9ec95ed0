//! Deterministic fault-injection harness for the workspace's
//! durability and graceful-degradation story.
//!
//! Production failures are rare, diverse, and — worst of all —
//! unrepeatable. This crate makes them cheap and repeatable instead:
//! a [`FaultPlan`] seeded through the in-tree `rand` crate injects
//! the three fault families the serving stack must survive, and the
//! same seed always injects the same faults, so every chaos test and
//! the `chaos_report` bench are bit-reproducible:
//!
//! - **File corruption** — [`truncate_at`] / [`flip_bit_at`] hit a
//!   chosen offset; [`FaultPlan::truncate_file`] /
//!   [`FaultPlan::flip_file_bit`] pick one deterministically from the
//!   seed. [`byte_classes`] enumerates one representative offset per
//!   on-disk region (magic, version, length, checksum, payload head /
//!   interior / tail) so a test can sweep every structurally distinct
//!   corruption without trying every byte of a megabyte checkpoint.
//! - **Clock pressure** — [`SimClock`] is a monotonic clock that
//!   advances by a fixed step on every read. The serving engine reads time
//!   through its `Clock` trait, so deadline breaches become a
//!   deterministic function of the submitted workload instead of a
//!   flaky wall-clock race.
//! - **Input poisoning** — [`FaultPlan::poison_pixels`] corrupts a raw
//!   wafer image buffer with one of the illegal-input shapes the
//!   serving validator must catch (NaN, infinity, out-of-range or
//!   non-canonical pixel levels).
//!
//! The crate is a leaf: it depends only on `std` and the in-tree
//! `rand`, so `nn`, `core`, `serve`, and `bench` can all use it (as a
//! regular or dev dependency) without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Targeted file corruption
// ---------------------------------------------------------------------------

/// Truncate the file at `path` to exactly `len` bytes.
///
/// Simulates a crash mid-write (or a torn copy): everything past the
/// cut is lost, everything before it is intact.
///
/// # Errors
///
/// Propagates filesystem errors; truncating to at or beyond the
/// current length is an error (the fault would be a no-op).
pub fn truncate_at<P: AsRef<Path>>(path: P, len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(&path)?;
    let current = file.metadata()?.len();
    if len >= current {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("truncate to {len} >= current length {current} injects no fault"),
        ));
    }
    file.set_len(len)?;
    file.sync_all()
}

/// Flip bit `bit` (0–7) of the byte at `offset` in the file at `path`.
///
/// Simulates silent media / transfer corruption: the file keeps its
/// length but one bit of its content lies.
///
/// # Errors
///
/// Propagates filesystem errors; an out-of-range offset or bit index
/// is [`std::io::ErrorKind::InvalidInput`].
pub fn flip_bit_at<P: AsRef<Path>>(path: P, offset: u64, bit: u8) -> std::io::Result<()> {
    if bit > 7 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("bit index {bit} out of range"),
        ));
    }
    let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
    let len = file.metadata()?.len();
    if offset >= len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("offset {offset} beyond file length {len}"),
        ));
    }
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(&mut byte)?;
    byte[0] ^= 1 << bit;
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(&byte)?;
    file.sync_all()
}

/// A file-corruption fault that was injected, for logging / reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFault {
    /// What was done to the file.
    pub kind: FileFaultKind,
    /// Byte offset the fault hit (new length for truncations).
    pub offset: u64,
    /// File length before the fault.
    pub original_len: u64,
}

/// The kind of an injected [`FileFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFaultKind {
    /// File cut to `offset` bytes.
    Truncated,
    /// Bit `bit` of the byte at `offset` inverted.
    BitFlipped {
        /// Bit index 0–7 within the byte.
        bit: u8,
    },
}

impl std::fmt::Display for FileFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FileFaultKind::Truncated => {
                write!(f, "truncated {} -> {} bytes", self.original_len, self.offset)
            }
            FileFaultKind::BitFlipped { bit } => {
                write!(f, "flipped bit {bit} of byte {}/{}", self.offset, self.original_len)
            }
        }
    }
}

/// One representative byte offset per structurally distinct region of
/// a length-`len` v2 serialization container (see `nn::serialize`):
/// the magic bytes, the version field, the length field, the checksum
/// field, and the payload's first / middle / last byte. Offsets are
/// clamped to the file and deduplicated, so the sweep is meaningful
/// for any file length — including files too short to have all
/// regions.
#[must_use]
pub fn byte_classes(len: u64) -> Vec<u64> {
    // Header layout of the v2 container: 8 magic + 4 version +
    // 8 payload length + 4 CRC32 = 24 bytes, payload after.
    let candidates = [0, 8, 12, 20, 24, len / 2, len.saturating_sub(1)];
    let mut out = Vec::new();
    for &c in &candidates {
        let clamped = c.min(len.saturating_sub(1));
        if !out.contains(&clamped) {
            out.push(clamped);
        }
    }
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------------
// Input poisoning
// ---------------------------------------------------------------------------

/// The poison injected into a raw wafer image buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PixelFault {
    /// A pixel became NaN.
    Nan {
        /// Index of the poisoned pixel.
        index: usize,
    },
    /// A pixel became +∞.
    Infinite {
        /// Index of the poisoned pixel.
        index: usize,
    },
    /// A pixel left the legal `[0, 1]` intensity range.
    OutOfRange {
        /// Index of the poisoned pixel.
        index: usize,
        /// The illegal value written.
        value: f32,
    },
    /// A pixel moved off the three canonical WM-811K levels
    /// (0.0 / 0.5 / 1.0) while staying inside `[0, 1]`.
    NonCanonicalLevel {
        /// Index of the poisoned pixel.
        index: usize,
        /// The illegal value written.
        value: f32,
    },
}

impl PixelFault {
    /// Index of the pixel the fault hit.
    #[must_use]
    pub fn index(&self) -> usize {
        match *self {
            PixelFault::Nan { index }
            | PixelFault::Infinite { index }
            | PixelFault::OutOfRange { index, .. }
            | PixelFault::NonCanonicalLevel { index, .. } => index,
        }
    }
}

// ---------------------------------------------------------------------------
// The seeded plan
// ---------------------------------------------------------------------------

/// Seeded source of fault decisions. Two plans with the same seed
/// inject the same faults in the same order — determinism is the whole
/// point: a chaos failure reproduces from nothing but the seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rng: StdRng,
}

impl FaultPlan {
    /// A fresh plan for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rng: StdRng::seed_from_u64(seed) }
    }

    /// The seed this plan was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Truncate the file at a plan-chosen length in `[0, len)`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; an empty file cannot be
    /// truncated further.
    pub fn truncate_file<P: AsRef<Path>>(&mut self, path: P) -> std::io::Result<FileFault> {
        let len = std::fs::metadata(&path)?.len();
        if len == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cannot truncate an empty file further",
            ));
        }
        let cut = self.rng.gen_range(0..len);
        truncate_at(&path, cut)?;
        Ok(FileFault { kind: FileFaultKind::Truncated, offset: cut, original_len: len })
    }

    /// Flip a plan-chosen bit of a plan-chosen byte of the file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; an empty file has no bit to flip.
    pub fn flip_file_bit<P: AsRef<Path>>(&mut self, path: P) -> std::io::Result<FileFault> {
        let len = std::fs::metadata(&path)?.len();
        if len == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cannot flip a bit of an empty file",
            ));
        }
        let offset = self.rng.gen_range(0..len);
        let bit = self.rng.gen_range(0..8u8) & 7;
        flip_bit_at(&path, offset, bit)?;
        Ok(FileFault { kind: FileFaultKind::BitFlipped { bit }, offset, original_len: len })
    }

    /// Poison one pixel of a raw wafer image buffer with a plan-chosen
    /// fault family, returning what was injected.
    ///
    /// # Panics
    ///
    /// Panics if `pixels` is empty — there is nothing to poison.
    pub fn poison_pixels(&mut self, pixels: &mut [f32]) -> PixelFault {
        assert!(!pixels.is_empty(), "cannot poison an empty pixel buffer");
        let index = self.rng.gen_range(0..pixels.len());
        match self.rng.gen_range(0..4u32) {
            0 => {
                pixels[index] = f32::NAN;
                PixelFault::Nan { index }
            }
            1 => {
                pixels[index] = f32::INFINITY;
                PixelFault::Infinite { index }
            }
            2 => {
                let value = if self.rng.gen_bool(0.5) { -1.5 } else { 2.5 };
                pixels[index] = value;
                PixelFault::OutOfRange { index, value }
            }
            _ => {
                // Strictly between the canonical levels, away from any
                // plausible tolerance band around 0.0 / 0.5 / 1.0.
                let value = if self.rng.gen_bool(0.5) { 0.23 } else { 0.77 };
                pixels[index] = value;
                PixelFault::NonCanonicalLevel { index, value }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Simulated clock
// ---------------------------------------------------------------------------

/// A monotonic clock that advances by a fixed step on every read.
///
/// `now()` reports the time elapsed since the clock's construction and
/// then advances it by the step — a cheap model of "each observation
/// costs `step` of wall time", which is how the chaos harness applies
/// deterministic deadline pressure to the serving engine.
///
/// The counter is atomic, so a `SimClock` can be shared behind an
/// `Arc` between a test and the engine reading it.
#[derive(Debug)]
pub struct SimClock {
    nanos: AtomicU64,
    step_nanos: u64,
}

impl SimClock {
    /// A clock at zero that advances by `step` after every
    /// [`SimClock::now`] read.
    #[must_use]
    pub fn with_step(step: Duration) -> Self {
        SimClock {
            nanos: AtomicU64::new(0),
            step_nanos: u64::try_from(step.as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Time elapsed since construction; the clock then advances by its
    /// step.
    #[must_use]
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.fetch_add(self.step_nanos, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("faultsim_tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("{tag}_{}.bin", std::process::id()));
        std::fs::write(&path, bytes).expect("write");
        path
    }

    #[test]
    fn truncate_cuts_the_tail() {
        let path = temp_file("trunc", &[1, 2, 3, 4, 5]);
        truncate_at(&path, 2).expect("truncate");
        assert_eq!(std::fs::read(&path).expect("read"), vec![1, 2]);
        assert!(truncate_at(&path, 2).is_err(), "no-op truncation must be rejected");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let path = temp_file("flip", &[0b1010_1010; 4]);
        flip_bit_at(&path, 2, 0).expect("flip");
        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(bytes[2], 0b1010_1011);
        assert_eq!(bytes[0], 0b1010_1010);
        assert!(flip_bit_at(&path, 4, 0).is_err(), "offset beyond EOF");
        assert!(flip_bit_at(&path, 0, 8).is_err(), "bit index out of range");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn plans_with_equal_seeds_inject_equal_faults() {
        let a_path = temp_file("plan_a", &[7u8; 64]);
        let b_path = temp_file("plan_b", &[7u8; 64]);
        let mut a = FaultPlan::new(99);
        let mut b = FaultPlan::new(99);
        let fa = a.flip_file_bit(&a_path).expect("flip a");
        let fb = b.flip_file_bit(&b_path).expect("flip b");
        assert_eq!(fa, fb);
        assert_eq!(
            std::fs::read(&a_path).expect("read a"),
            std::fs::read(&b_path).expect("read b")
        );
        let ta = a.truncate_file(&a_path).expect("truncate a");
        let tb = b.truncate_file(&b_path).expect("truncate b");
        assert_eq!(ta, tb);
        let _ = std::fs::remove_file(&a_path);
        let _ = std::fs::remove_file(&b_path);
    }

    #[test]
    fn poison_is_deterministic_and_reported_faithfully() {
        let mut base = vec![0.0f32, 0.5, 1.0, 0.5];
        let mut a = base.clone();
        let mut b = base.clone();
        let fault_a = FaultPlan::new(5).poison_pixels(&mut a);
        let fault_b = FaultPlan::new(5).poison_pixels(&mut b);
        assert_eq!(fault_a, fault_b);
        assert_eq!(a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), {
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        });
        // The reported index is the one that changed (or became NaN).
        let idx = fault_a.index();
        base[idx] = a[idx];
        for (i, (x, y)) in base.iter().zip(&a).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "pixel {i} changed unexpectedly");
        }
    }

    #[test]
    fn sim_clock_steps_after_each_read() {
        let clock = SimClock::with_step(Duration::from_millis(2));
        assert_eq!(clock.now(), Duration::ZERO);
        assert_eq!(clock.now(), Duration::from_millis(2));
        assert_eq!(clock.now(), Duration::from_millis(4));
    }

    #[test]
    fn byte_classes_cover_header_and_payload_regions() {
        let classes = byte_classes(100);
        assert_eq!(classes, vec![0, 8, 12, 20, 24, 50, 99]);
        // Short files clamp and deduplicate.
        let short = byte_classes(3);
        assert_eq!(short, vec![0, 1, 2]);
        assert_eq!(byte_classes(1), vec![0]);
    }
}
