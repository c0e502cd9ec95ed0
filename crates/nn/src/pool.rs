//! Persistent worker pool: the batch-parallel compute core.
//!
//! Every parallel region in the workspace — GEMM row blocks, per-sample
//! convolution work, per-class augmentation, batch feature extraction —
//! funnels through [`parallel_for`] here instead of spawning OS threads
//! per call. The pool is created lazily on first use, sized by the
//! `WM_NUM_THREADS` environment variable (default: the machine's
//! available parallelism), and its workers live for the rest of the
//! process.
//!
//! # Determinism contract
//!
//! Callers must partition work into a **chunk grid that depends only on
//! the problem shape**, never on the thread count, and must perform any
//! cross-chunk reduction in a fixed order after the parallel region.
//! Under that contract the pool only changes *which thread* computes
//! each chunk, so results are bit-identical for every `WM_NUM_THREADS`,
//! including 1. [`Shards`] enforces the "disjoint output per chunk"
//! half of the contract at runtime.
//!
//! # Nesting
//!
//! A chunk body that itself calls [`parallel_for`] runs that inner
//! region serially inline (chunks in index order). This keeps nested
//! parallelism deadlock-free and means inner code needs no special
//! casing.
//!
//! # Safety
//!
//! This is the one module in the crate allowed to use `unsafe`
//! (the crate root is `#![deny(unsafe_code)]`, not `forbid`, exactly
//! for this file). Two invariants carry all of it:
//!
//! - A submitted job's closure pointer is only dereferenced between
//!   submission and the moment its last chunk completes, and
//!   [`parallel_for`] does not return before that moment — so the
//!   borrow it erases is always live when used.
//! - [`Shards::claim`] hands out each disjoint sub-slice at most once
//!   (checked at runtime), so no two `&mut` views alias.

#![allow(unsafe_code)]

use std::cell::Cell;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// The crate's compute implementation: blocked kernels on the
/// persistent pool, the only one there is.
///
/// Kept as a one-variant enum because the benchmark harness
/// (`perfbench/src/host.rs`) checks `compute_mode() == Pooled` in its
/// provenance line; nothing in the workspace switches modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeMode {
    /// Blocked kernels + persistent pool.
    Pooled,
}

/// The compute implementation in use: always [`ComputeMode::Pooled`].
#[must_use]
pub fn compute_mode() -> ComputeMode {
    ComputeMode::Pooled
}

/// Erased pointer to a `Fn(usize)` chunk body whose borrow outlives the
/// job (guaranteed by `parallel_for` blocking until completion).
struct FuncPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared across threads by design) and
// the pointer is only dereferenced while the submitting call keeps the
// underlying closure alive (see module docs).
unsafe impl Send for FuncPtr {}
unsafe impl Sync for FuncPtr {}

/// One submitted parallel region.
struct Job {
    func: FuncPtr,
    chunks: usize,
    /// Next chunk index to claim (work stealing: threads race on this,
    /// which never affects results — only who computes what).
    next: AtomicUsize,
    /// Chunks fully executed.
    finished: AtomicUsize,
    /// Threads working this job (the submitter counts as one).
    participants: AtomicUsize,
    max_participants: usize,
    /// Set when any chunk body panicked.
    panicked: AtomicBool,
}

impl Job {
    fn complete(&self) -> bool {
        self.finished.load(Ordering::Acquire) >= self.chunks
    }
}

struct PoolState {
    job: Option<Arc<Job>>,
    /// Max threads per region, including the submitting thread.
    limit: usize,
    /// Workers spawned so far (grown on demand up to `limit - 1`).
    workers: usize,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a job to appear.
    work: Condvar,
    /// Submitters wait here for completion (and for the slot to free).
    done: Condvar,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        state: Mutex::new(PoolState { job: None, limit: default_limit(), workers: 0 }),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

/// Initial thread limit: `WM_NUM_THREADS` if set and valid, else the
/// machine's available parallelism, clamped to `[1, 64]`.
#[must_use]
pub fn default_thread_limit() -> usize {
    default_limit()
}

fn default_limit() -> usize {
    let configured = std::env::var("WM_NUM_THREADS").ok().and_then(|v| v.trim().parse().ok());
    let fallback = || std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
    configured.unwrap_or_else(fallback).clamp(1, 64)
}

/// Current thread limit (including the submitting thread).
#[must_use]
pub fn num_threads() -> usize {
    shared().state.lock().expect("pool lock").limit
}

/// Override the thread limit at runtime. Missing workers are spawned
/// lazily on the next [`parallel_for`]. Intended for tests and
/// benchmarks that need to vary parallelism within one process (the
/// `WM_NUM_THREADS` environment variable is read only once).
pub fn set_thread_limit(threads: usize) {
    let mut state = shared().state.lock().expect("pool lock");
    state.limit = threads.clamp(1, 64);
}

thread_local! {
    /// True on pool workers always, and on a submitting thread while it
    /// participates in its own job. Makes nested regions run serially.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Pool counters, registered once in the process-wide
/// [`telemetry::global`] registry (the pool is itself a process-wide
/// singleton with no owning object to hang a registry off).
struct PoolMetrics {
    /// Regions fanned out across the pool.
    jobs: telemetry::Counter,
    /// Regions run serially inline (single chunk, limit 1, or nested
    /// inside a pool chunk).
    serial_regions: telemetry::Counter,
    /// Chunks executed, by anyone.
    chunks: telemetry::Counter,
    /// Chunks executed by pool worker threads (the rest ran on the
    /// submitting thread) — `worker_chunks / chunks` is the pool's
    /// effective utilization.
    worker_chunks: telemetry::Counter,
    /// Submissions that found another job in flight and had to queue.
    queue_waits: telemetry::Counter,
    /// Current thread limit (including the submitting thread).
    thread_limit: telemetry::Gauge,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = telemetry::global();
        PoolMetrics {
            jobs: registry.counter("pool_jobs_total", "Parallel regions fanned out to the pool"),
            serial_regions: registry
                .counter("pool_serial_regions_total", "Parallel regions run serially inline"),
            chunks: registry.counter("pool_chunks_total", "Chunks executed"),
            worker_chunks: registry
                .counter("pool_worker_chunks_total", "Chunks executed on pool worker threads"),
            queue_waits: registry
                .counter("pool_queue_waits_total", "Submissions that queued behind another job"),
            thread_limit: registry
                .gauge("pool_thread_limit", "Thread limit including the submitting thread"),
        }
    })
}

fn spawn_worker(index: usize) {
    std::thread::Builder::new()
        .name(format!("wm-pool-{index}"))
        .spawn(|| {
            IN_POOL.with(|f| f.set(true));
            let shared = shared();
            loop {
                let job = {
                    let mut state = shared.state.lock().expect("pool lock");
                    loop {
                        if let Some(job) = &state.job {
                            let open = job.participants.load(Ordering::Relaxed)
                                < job.max_participants
                                && job.next.load(Ordering::Relaxed) < job.chunks;
                            if open {
                                job.participants.fetch_add(1, Ordering::Relaxed);
                                break job.clone();
                            }
                        }
                        state = shared.work.wait(state).expect("pool lock");
                    }
                };
                run_chunks(&job, true);
            }
        })
        .expect("spawn pool worker");
}

/// Claim-and-run loop shared by workers and the submitting thread.
/// Chunk counters are accumulated locally and published once per call
/// so the claim loop stays free of shared-cacheline traffic.
fn run_chunks(job: &Job, is_worker: bool) {
    // SAFETY: `parallel_for` keeps the closure alive until
    // `job.finished == job.chunks`, and we only reach this dereference
    // for chunk indices `< chunks`, i.e. strictly before completion.
    let func = unsafe { &*job.func.0 };
    let mut ran = 0u64;
    loop {
        let chunk = job.next.fetch_add(1, Ordering::Relaxed);
        if chunk >= job.chunks {
            break;
        }
        ran += 1;
        if catch_unwind(AssertUnwindSafe(|| func(chunk))).is_err() {
            job.panicked.store(true, Ordering::Release);
        }
        if job.finished.fetch_add(1, Ordering::AcqRel) + 1 == job.chunks {
            let shared = shared();
            let mut state = shared.state.lock().expect("pool lock");
            if state.job.as_ref().is_some_and(|j| std::ptr::eq(Arc::as_ptr(j), job)) {
                state.job = None;
            }
            drop(state);
            shared.done.notify_all();
        }
    }
    if ran > 0 {
        let m = metrics();
        m.chunks.add(ran);
        if is_worker {
            m.worker_chunks.add(ran);
        }
    }
}

/// Run `body(chunk)` for every `chunk in 0..chunks`, fanning out across
/// the worker pool when profitable.
///
/// Runs serially inline (chunks in index order) when any of these hold:
/// fewer than two chunks, the thread limit is 1, or the caller is
/// already inside a pool chunk (nested region).
///
/// # Panics
///
/// Panics if any chunk body panicked (after all chunks have finished,
/// so sibling chunks never observe a half-torn region).
pub fn parallel_for<F>(chunks: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if chunks == 0 {
        return;
    }
    let nested = IN_POOL.with(Cell::get);
    if chunks == 1 || nested || num_threads() <= 1 {
        metrics().serial_regions.inc();
        for chunk in 0..chunks {
            body(chunk);
        }
        return;
    }

    let erased: &(dyn Fn(usize) + Sync) = &body;
    // SAFETY: this erases the borrow's lifetime; the pointer is only
    // dereferenced before the job completes, and this function does not
    // return (so `body` stays alive) until the job completes.
    let func = FuncPtr(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(erased)
    });

    let shared = shared();
    let job = {
        let mut state = shared.state.lock().expect("pool lock");
        // One job at a time; queue behind any region another thread is
        // running (its completion notifies `done`).
        if state.job.is_some() {
            metrics().queue_waits.inc();
        }
        while state.job.is_some() {
            state = shared.done.wait(state).expect("pool lock");
        }
        let wanted = state.limit.saturating_sub(1).min(chunks - 1);
        while state.workers < wanted {
            spawn_worker(state.workers);
            state.workers += 1;
        }
        let job = Arc::new(Job {
            func,
            chunks,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            participants: AtomicUsize::new(1),
            max_participants: state.limit,
            panicked: AtomicBool::new(false),
        });
        state.job = Some(job.clone());
        let m = metrics();
        m.jobs.inc();
        m.thread_limit.set(state.limit as f64);
        shared.work.notify_all();
        job
    };

    IN_POOL.with(|f| f.set(true));
    run_chunks(&job, false);
    IN_POOL.with(|f| f.set(false));

    let mut state = shared.state.lock().expect("pool lock");
    while !job.complete() {
        state = shared.done.wait(state).expect("pool lock");
    }
    drop(state);
    assert!(!job.panicked.load(Ordering::Acquire), "a parallel chunk panicked");
}

/// Run `f(i)` for `i in 0..n` and collect the results in index order.
///
/// The output order (and therefore any downstream reduction) is
/// independent of the thread count.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        let shards = Shards::new(&mut slots, 1);
        parallel_for(n, |i| {
            shards.claim(i)[0] = Some(f(i));
        });
    }
    slots.into_iter().map(|slot| slot.expect("every chunk fills its slot")).collect()
}

/// Disjoint mutable views over a slice, claimable by chunk index from
/// concurrent chunk bodies.
///
/// Splits a slice into `ceil(len / chunk_len)` consecutive shards of
/// `chunk_len` elements (the last may be shorter). Each shard can be
/// [`claim`](Shards::claim)ed **at most once** — a second claim of the
/// same index panics — which is what makes handing `&mut` views out of
/// a shared `&self` sound.
pub struct Shards<'a, T> {
    base: *mut T,
    len: usize,
    chunk_len: usize,
    claimed: Vec<AtomicBool>,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: a `Shards` only hands out non-overlapping sub-slices, each at
// most once, so sharing it across threads is no more than sharing
// disjoint `&mut [T]`s.
unsafe impl<T: Send> Send for Shards<'_, T> {}
unsafe impl<T: Send> Sync for Shards<'_, T> {}

impl<'a, T> Shards<'a, T> {
    /// Split `slice` into shards of `chunk_len` elements.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    #[must_use]
    pub fn new(slice: &'a mut [T], chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "shard length must be non-zero");
        let count = slice.len().div_ceil(chunk_len);
        Shards {
            base: slice.as_mut_ptr(),
            len: slice.len(),
            chunk_len,
            claimed: (0..count).map(|_| AtomicBool::new(false)).collect(),
            _marker: PhantomData,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        self.claimed.len()
    }

    /// Take exclusive ownership of shard `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the shard was already
    /// claimed.
    #[must_use]
    #[allow(clippy::mut_from_ref)] // exclusivity enforced by the claim flag
    pub fn claim(&self, index: usize) -> &mut [T] {
        let already = self.claimed[index].swap(true, Ordering::AcqRel);
        assert!(!already, "shard {index} claimed twice");
        let start = index * self.chunk_len;
        let end = (start + self.chunk_len).min(self.len);
        // SAFETY: `claimed[index]` guarantees this range is handed out
        // exactly once, ranges for distinct indices are disjoint, and
        // the parent slice is mutably borrowed for `'a`.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(start), end - start) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_fill_identically() {
        let n = 1000usize;
        let compute = |limit: usize| {
            set_thread_limit(limit);
            let mut out = vec![0u64; n];
            {
                let shards = Shards::new(&mut out, 7);
                parallel_for(n.div_ceil(7), |c| {
                    for (off, v) in shards.claim(c).iter_mut().enumerate() {
                        let i = c * 7 + off;
                        *v = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    }
                });
            }
            out
        };
        let one = compute(1);
        let four = compute(4);
        set_thread_limit(default_limit());
        assert_eq!(one, four);
    }

    #[test]
    fn parallel_map_preserves_order() {
        set_thread_limit(3);
        let out = parallel_map(50, |i| i * i);
        set_thread_limit(default_limit());
        assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_regions_run_serially() {
        set_thread_limit(4);
        let outer = parallel_map(4, |i| {
            // Inner region must run inline without deadlocking.
            let inner = parallel_map(3, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        set_thread_limit(default_limit());
        assert_eq!(outer, vec![3, 33, 63, 93]);
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn double_claim_is_rejected() {
        let mut data = vec![0u8; 10];
        let shards = Shards::new(&mut data, 4);
        let _a = shards.claim(1);
        let _b = shards.claim(1);
    }

    #[test]
    fn pool_counters_record_jobs_and_chunks() {
        // Counters are process-global and shared with concurrently
        // running tests, so assert on deltas of monotone counters.
        let read = |name: &str| {
            telemetry::global()
                .snapshot()
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        set_thread_limit(4);
        let jobs0 = read("pool_jobs_total");
        let chunks0 = read("pool_chunks_total");
        parallel_for(16, |_| {});
        set_thread_limit(default_limit());
        assert!(read("pool_jobs_total") > jobs0, "fanned-out region must count as a job");
        assert!(read("pool_chunks_total") >= chunks0 + 16, "all 16 chunks must be counted");

        let serial0 = read("pool_serial_regions_total");
        parallel_for(1, |_| {});
        assert!(
            read("pool_serial_regions_total") > serial0,
            "single-chunk region must count as serial"
        );
    }

    #[test]
    fn chunk_panic_propagates_to_submitter() {
        set_thread_limit(2);
        let result = std::panic::catch_unwind(|| {
            parallel_for(8, |i| assert!(i != 5, "boom"));
        });
        set_thread_limit(default_limit());
        assert!(result.is_err());
    }
}
