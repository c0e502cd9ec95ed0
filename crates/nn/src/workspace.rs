//! Hot-path scratch buffers with growth accounting.
//!
//! The training and serving hot paths reuse long-lived buffers instead
//! of allocating per batch or per sample. The convolution layers'
//! buffers are [`Scratch`]es, grouped in one workspace type
//! (`conv.rs`'s `ConvScratch`, which gives each size) that their one
//! forward kernel takes as an argument: each layer owns one for
//! training, and the `&self` inference pass borrows one per thread,
//! since a layer shared across workers cannot lend out its own. A
//! layer's workspace lives as long as the layer, so every kept model
//! holds one: the last input (zero-padded), the pool argmax and the
//! per-sample gradient partials, plus, per group of
//! [`crate::pool::SAMPLE_BLOCK`] samples, one pre-activation plane (a
//! pooled block) and one input-gradient column buffer (a layer whose
//! `backward` returns the input gradient). No buffer holds an unfolded
//! (im2col) input: the GEMM packs it from the padded input. A thread's
//! holds only the input and plane terms, for the largest batch it
//! served.
//! (The loss scratch and the trainer's staging are reused `Tensor`s
//! and `Vec`s, outside this accounting.) A [`Scratch`] is sized through
//! [`Scratch::reserve`], which grows it at most to the largest size
//! ever requested and **counts each growth** in the process-wide
//! [`telemetry::global`] registry:
//!
//! - `hotpath_scratch_grows_total` — number of buffer growths,
//! - `hotpath_scratch_grow_bytes_total` — bytes added by growths,
//! - `hotpath_scratch_bytes` — bytes held by live buffers (gauge): a
//!   growth adds to it and dropping a buffer (with its layer, or with a
//!   thread) subtracts its bytes.
//!
//! In steady state (fixed shapes after the first batch) the grow
//! counter must stay flat: that is the workspace-growth contract,
//! asserted by `crates/core/tests/hot_path_alloc.rs`. It covers these
//! buffers only; layer outputs and other per-call tensors are still
//! heap-allocated. The counters are monotone and process-global, so
//! tests assert on deltas.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Scratch metrics, registered once in the process-wide registry
/// (scratch buffers span crates and threads, like the worker pool).
struct ScratchMetrics {
    grows: telemetry::Counter,
    grow_bytes: telemetry::Counter,
    bytes: telemetry::Gauge,
}

/// Current total scratch bytes; the gauge mirrors this (the telemetry
/// [`telemetry::Gauge`] is set-only, so the running sum lives here).
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

fn metrics() -> &'static ScratchMetrics {
    static METRICS: OnceLock<ScratchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = telemetry::global();
        ScratchMetrics {
            grows: registry
                .counter("hotpath_scratch_grows_total", "Hot-path scratch buffer growths"),
            grow_bytes: registry.counter(
                "hotpath_scratch_grow_bytes_total",
                "Bytes added by hot-path scratch growths",
            ),
            bytes: registry.gauge("hotpath_scratch_bytes", "Current hot-path scratch bytes held"),
        }
    })
}

/// A hot-path scratch buffer: a `Vec` that only grows, through
/// [`Scratch::reserve`], and whose bytes count towards the
/// `hotpath_scratch_bytes` gauge for as long as it lives.
#[derive(Debug, Default)]
pub struct Scratch<T> {
    buf: Vec<T>,
}

impl<T> Scratch<T> {
    /// An empty buffer (usable in `const` thread-local initialisers).
    #[must_use]
    pub const fn new() -> Self {
        Scratch { buf: Vec::new() }
    }
}

impl<T: Copy + Default> Scratch<T> {
    /// Ensure the buffer holds at least `len` elements and return the
    /// first `len` as a slice.
    ///
    /// Growth is amortized-once: after the largest shape has been
    /// seen, calls never allocate. New elements are `T::default()`
    /// (zero); **existing elements keep their prior contents**, so
    /// callers overwrite what they read.
    pub fn reserve(&mut self, len: usize) -> &mut [T] {
        if self.buf.len() < len {
            let grown = (len - self.buf.len()) * std::mem::size_of::<T>();
            self.buf.resize(len, T::default());
            let m = metrics();
            m.grows.inc();
            m.grow_bytes.add(grown as u64);
            let total = TOTAL_BYTES.fetch_add(grown as u64, Ordering::Relaxed) + grown as u64;
            m.bytes.set(total as f64);
        }
        &mut self.buf[..len]
    }
}

impl<T> std::ops::Deref for Scratch<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf
    }
}

impl<T> std::ops::DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf
    }
}

impl<T> Drop for Scratch<T> {
    fn drop(&mut self) {
        let bytes = (self.buf.len() * std::mem::size_of::<T>()) as u64;
        if bytes > 0 {
            let total = TOTAL_BYTES.fetch_sub(bytes, Ordering::Relaxed) - bytes;
            metrics().bytes.set(total as f64);
        }
    }
}

/// Total number of scratch growths so far (process-wide, monotone).
///
/// Steady-state training must leave this flat between batches; the
/// allocation-freedom tests snapshot it around a warm run.
#[must_use]
pub fn grow_count() -> u64 {
    metrics().grows.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_grows_once_and_counts() {
        let before = grow_count();
        let mut buf = Scratch::<f32>::new();
        let s = buf.reserve(128);
        assert_eq!(s.len(), 128);
        assert!(s.iter().all(|&v| v == 0.0));
        s.fill(3.0);
        assert_eq!(grow_count(), before + 1);

        // Same or smaller size: no growth, contents preserved.
        let s = buf.reserve(64);
        assert_eq!(s.len(), 64);
        assert!(s.iter().all(|&v| v == 3.0));
        assert_eq!(grow_count(), before + 1);

        // Larger: exactly one more growth, zero-filled new tail.
        let s = buf.reserve(256);
        assert_eq!(s.len(), 256);
        assert!(s[128..].iter().all(|&v| v == 0.0));
        assert_eq!(grow_count(), before + 2);
    }
}
