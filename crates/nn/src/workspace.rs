//! Hot-path scratch buffers with growth accounting.
//!
//! The training and serving hot paths reuse long-lived buffers —
//! per-layer workspaces, per-thread thread-locals, trainer staging —
//! instead of allocating per batch or per sample. Every such buffer is
//! sized through [`reserve_f32`], which grows it at most to the
//! largest size ever requested and **counts each growth** in the
//! process-wide [`telemetry::global`] registry:
//!
//! - `hotpath_scratch_grows_total` — number of buffer growths,
//! - `hotpath_scratch_grow_bytes_total` — bytes added by growths,
//! - `hotpath_scratch_bytes` — current total bytes held (gauge).
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

/// Ensure `buf` holds at least `len` elements and return the first
/// `len` as a slice.
///
/// Growth is amortized-once: after the largest shape has been seen,
/// calls never allocate. New elements are zero-filled; **existing
/// elements keep their prior contents** — callers that need a zeroed
/// buffer (e.g. GEMM accumulation targets) must `fill(0.0)` the
/// returned slice themselves, which touches memory but allocates
/// nothing.
pub fn reserve_f32(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        let grown = (len - buf.len()) * std::mem::size_of::<f32>();
        buf.resize(len, 0.0);
        let m = metrics();
        m.grows.inc();
        m.grow_bytes.add(grown as u64);
        let total = TOTAL_BYTES.fetch_add(grown as u64, Ordering::Relaxed) + grown as u64;
        m.bytes.set(total as f64);
    }
    &mut buf[..len]
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
        let mut buf = Vec::new();
        let s = reserve_f32(&mut buf, 128);
        assert_eq!(s.len(), 128);
        assert!(s.iter().all(|&v| v == 0.0));
        s.fill(3.0);
        assert_eq!(grow_count(), before + 1);

        // Same or smaller size: no growth, contents preserved.
        let s = reserve_f32(&mut buf, 64);
        assert_eq!(s.len(), 64);
        assert!(s.iter().all(|&v| v == 3.0));
        assert_eq!(grow_count(), before + 1);

        // Larger: exactly one more growth, zero-filled new tail.
        let s = reserve_f32(&mut buf, 256);
        assert_eq!(s.len(), 256);
        assert!(s[128..].iter().all(|&v| v == 0.0));
        assert_eq!(grow_count(), before + 2);
    }
}
