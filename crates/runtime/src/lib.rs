//! Deterministic data-parallel runtime for the workload-prediction suite.
//!
//! A std-only persistent thread pool (no external dependencies: parked
//! helper threads, one `Mutex` with two `Condvar`s and an atomic work
//! counter per batch) exposing two primitives used by every hot path in the
//! workspace:
//!
//! * [`par_map_indexed`] — evaluate `f(0..n)` across the pool and
//!   return the results **in index order**, bit-identical to the
//!   sequential `(0..n).map(f).collect()`.
//! * [`par_pairs`] — schedule the upper triangle `{(i, j) : i < j < n}`
//!   across the pool and return `(i, j, value)` triples in row-major
//!   order, the same order a nested `for i { for j }` loop visits them.
//!
//! # The pool
//!
//! Helper threads are spawned lazily, the first time a batch asks for
//! more of them than exist, and then live for the rest of the process,
//! parked on a condition variable between batches. The pool grows to
//! the widest batch ever requested and never beyond it; several
//! threads submitting batches at once (the server's request workers)
//! share the same helpers.
//!
//! A batch of width `w` publishes `w − 1` seats and wakes that many
//! parked helpers, then **the calling thread claims work itself** from
//! the same atomic counter. The caller therefore never waits for a
//! wake-up to make progress: if every helper is busy or slow to wake,
//! the caller simply runs the whole batch. When its own share is done
//! the caller withdraws the seats nobody took and blocks until every
//! helper that did join has finished with the batch.
//!
//! That last wait is what makes the pool sound. Helpers run a closure
//! that borrows the caller's stack (the task function, the work
//! counter, the result shards), so the caller must outlive every
//! helper's use of the batch. The borrow's lifetime is erased in one
//! place, documented at its `unsafe` block, and a drop guard performs
//! the wait even when the caller's own share panics.
//!
//! # Determinism
//!
//! Work is claimed dynamically (an atomic counter), so *which* thread
//! computes a given index varies between runs — but every result is
//! keyed by its index and scattered back into an index-ordered output
//! vector. As long as `f` itself is a pure function of its index, the
//! returned vector is byte-for-byte identical regardless of thread
//! count. Callers that reduce (sum, argmax, …) must fold over the
//! returned vector in order; all in-tree call sites do.
//!
//! # Thread-count resolution
//!
//! [`thread_count`] resolves, in priority order:
//!
//! 1. a thread-local override installed by [`with_thread_count`]
//!    (used by in-process determinism tests and benchmarks),
//! 2. the `WP_THREADS` environment variable (`WP_THREADS=1` forces the
//!    sequential fallback: no threads are spawned at all),
//! 3. [`std::thread::available_parallelism`], looked up once per
//!    process (it reads cgroup files, tens of microseconds per call).
//!
//! Nested parallelism is suppressed: a task running on a pool helper,
//! or on a caller while it works through its own batch, executes
//! nested `par_*` calls sequentially, so e.g. the per-channel
//! parallelism inside `dtw_independent` does not oversubscribe the
//! machine when invoked from an already-parallel `try_distance_matrix`.
//!
//! # Panics
//!
//! A panic inside a task is caught on the thread that ran it and
//! propagated to the caller with its original payload once every
//! participant has left the batch. Helper threads survive task panics.
#![warn(clippy::undocumented_unsafe_blocks)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use wp_obs::{LazyCounter, LazyGauge, LazySpan};

pub mod scratch;

/// Tasks (`f(i)` evaluations) scheduled through [`par_map_indexed`].
static OBS_TASKS: LazyCounter = LazyCounter::new("wp_runtime_tasks_total");
/// `par_map_indexed` invocations (batches), including sequential ones.
static OBS_BATCHES: LazyCounter = LazyCounter::new("wp_runtime_batches_total");
/// Thread count resolved by the most recent batch.
static OBS_THREADS: LazyGauge = LazyGauge::new("wp_runtime_threads");
/// Helper threads alive in the pool; set whenever the pool grows.
static OBS_HELPERS: LazyGauge = LazyGauge::new("wp_runtime_helpers");
/// Wall time of each batch, scheduling included.
static OBS_BATCH_SPAN: LazySpan = LazySpan::new("wp_runtime_batch");

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads `par_*` calls on this thread will use.
///
/// Resolution order: [`with_thread_count`] override, then the
/// `WP_THREADS` environment variable, then the machine's available
/// parallelism (resolved once per process). Inside a pool task this
/// always returns 1 (nested parallelism runs sequentially). Never
/// returns 0.
pub fn thread_count() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(raw) = std::env::var("WP_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `f` with the thread count pinned to `n` (clamped to ≥ 1) on the
/// current thread, restoring the previous setting afterwards — even on
/// panic. Takes precedence over `WP_THREADS`.
///
/// This is the in-process equivalent of setting `WP_THREADS`: tests and
/// benchmarks use it to compare sequential and parallel executions of
/// the same code without racing on global environment state.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Batches smaller than this run sequentially even when threads are
/// available. A parallel batch still pays to wake parked helpers (a
/// condition-variable signal and a context switch per helper, several
/// microseconds on a loaded host) and to merge their result shards;
/// on tiny batches that overhead swamps the win, and it used to drag
/// the measured parallel factor below 1.0 at small input sizes (see
/// `exp_speedup`). The fallback is the exact sequential loop, so
/// bit-identity is untouched.
pub const SEQUENTIAL_FALLBACK_TASKS: usize = 32;

/// Evaluates `f(i)` for every `i in 0..n` across the pool and returns
/// the results in index order.
///
/// Equivalent to `(0..n).map(f).collect()` — including bit-identical
/// floating-point results — but spread over [`thread_count`] threads:
/// the caller plus up to `thread_count() − 1` pool helpers. Falls back
/// to the plain sequential loop when the effective thread count is 1
/// or `n` is below [`SEQUENTIAL_FALLBACK_TASKS`] (per-task work on
/// batches that small undercuts the cost of waking helpers).
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    OBS_BATCHES.add(1);
    OBS_TASKS.add(n as u64);
    let _span = OBS_BATCH_SPAN.start();
    let available = thread_count();
    OBS_THREADS.set(available as u64);
    let threads = available.min(n);
    if threads <= 1 || n < SEQUENTIAL_FALLBACK_TASKS {
        return (0..n).map(f).collect();
    }

    // Participants claim *chunks* of contiguous indices rather than
    // single tasks: one atomic RMW per chunk instead of per task keeps
    // the claim counter off the critical path for fine-grained
    // workloads (distance-matrix cells take microseconds each), and
    // contiguous ranges preserve the cache locality a sequential scan
    // would have. 8 chunks per thread still load-balances uneven task
    // costs.
    let chunk = (n / (threads * 8)).max(1);
    let next = AtomicUsize::new(0);
    let shards: Mutex<Vec<Vec<(usize, T)>>> = Mutex::new(Vec::with_capacity(threads));
    let work = || {
        let mut local = Vec::with_capacity(n / threads + 1);
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            for i in start..(start + chunk).min(n) {
                local.push((i, f(i)));
            }
        }
        if !local.is_empty() {
            shards
                .lock()
                .expect("no participant panics while holding the shard lock")
                .push(local);
        }
    };
    POOL.run(&work, threads - 1);

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let shards = shards
        .into_inner()
        .expect("no participant panics while holding the shard lock");
    for shard in shards {
        for (i, value) in shard {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|v| v.expect("par_map_indexed: a participant skipped an index"))
        .collect()
}

/// A batch's work loop as helpers see it: the caller's closure with its
/// borrow lifetime erased (see [`Pool::run`]).
type Job = &'static (dyn Fn() + Sync);

/// A panic payload caught on a helper, carried back to the caller.
type Payload = Box<dyn Any + Send>;

/// The process-wide pool shared by every submitting thread.
static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        helpers: 0,
        next_id: 0,
        open: Vec::new(),
    }),
    work: Condvar::new(),
    done: Condvar::new(),
};

struct Pool {
    state: Mutex<PoolState>,
    /// Parked helpers wait here for a batch with a free seat.
    work: Condvar,
    /// Callers wait here for the helpers inside their batch to leave.
    done: Condvar,
}

struct PoolState {
    /// Helper threads spawned so far; only ever grows.
    helpers: usize,
    /// Identifies the next published batch.
    next_id: u64,
    /// Batches whose caller has not yet returned.
    open: Vec<OpenBatch>,
}

struct OpenBatch {
    id: u64,
    job: Job,
    /// Helpers that may still join.
    seats: usize,
    /// Helpers currently inside `job`.
    running: usize,
    /// The first panic a helper caught while running `job`.
    panic: Option<Payload>,
}

impl Pool {
    /// Locks the pool state. No code panics while holding this lock and
    /// every update leaves the state consistent, so a poisoned lock is
    /// recovered rather than propagated; that also keeps the drop guard
    /// in [`Pool::run`] free of panics.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `job` on the calling thread and on up to `helpers` pool
    /// helpers, returning only once every helper that joined has left
    /// it. A panic in the caller's share propagates after that wait; a
    /// helper's panic is re-raised afterwards with its original payload.
    fn run(&'static self, job: &(dyn Fn() + Sync), helpers: usize) {
        /// Marks the caller as a pool participant while it runs its
        /// share, so nested `par_*` calls inside its tasks stay
        /// sequential.
        struct Participate(bool);
        impl Drop for Participate {
            fn drop(&mut self) {
                IN_WORKER.with(|w| w.set(self.0));
            }
        }

        // SAFETY: helpers reach `erased` only through the `OpenBatch`
        // published below, and `retire` is a local that is never moved
        // or forgotten. Whether this frame returns or unwinds, the
        // retire call or its drop closes the batch's seats, blocks until
        // no helper is inside the job and only then removes the batch.
        // So no helper calls the job after this frame ends, and every
        // borrow the job holds outlives every call made through it.
        let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        let mut retire = Retire {
            pool: self,
            id: Some(self.publish(erased, helpers)),
        };
        for _ in 0..helpers {
            self.work.notify_one();
        }
        {
            let _participate = Participate(IN_WORKER.with(|w| w.replace(true)));
            job();
        }
        if let Some(payload) = retire.retire() {
            resume_unwind(payload);
        }
    }

    /// Opens a batch with `seats` free seats for helpers, growing the
    /// pool to at least `seats` helpers first, and returns its id.
    fn publish(&'static self, job: Job, seats: usize) -> u64 {
        let mut state = self.lock();
        let before = state.helpers;
        while state.helpers < seats {
            // Helpers live for the rest of the process and catch every
            // task panic, so there is nothing to join: the handle is
            // dropped. If the OS refuses a thread the batch runs with
            // fewer helpers; the caller covers the rest of the work.
            let spawned = std::thread::Builder::new()
                .name(format!("wp-runtime-{}", state.helpers))
                .spawn(move || self.serve());
            if spawned.is_err() {
                break;
            }
            state.helpers += 1;
        }
        if state.helpers != before {
            OBS_HELPERS.set(state.helpers as u64);
        }
        let id = state.next_id;
        state.next_id += 1;
        state.open.push(OpenBatch {
            id,
            job,
            seats,
            running: 0,
            panic: None,
        });
        id
    }

    /// A helper thread's life: park until an open batch has a free seat,
    /// run its job, report back, repeat.
    fn serve(&self) {
        IN_WORKER.with(|w| w.set(true));
        let mut state = self.lock();
        loop {
            let Some(batch) = state.open.iter_mut().find(|b| b.seats > 0) else {
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            batch.seats -= 1;
            batch.running += 1;
            let (id, job) = (batch.id, batch.job);
            drop(state);
            let outcome = catch_unwind(AssertUnwindSafe(job));
            state = self.lock();
            let batch = state
                .open
                .iter_mut()
                .find(|b| b.id == id)
                .expect("a batch stays open while a helper runs it");
            batch.running -= 1;
            if let Err(payload) = outcome {
                batch.panic.get_or_insert(payload);
            }
            if batch.running == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// Closes a published batch: on [`Retire::retire`], or on drop while the
/// caller's own share unwinds.
struct Retire {
    pool: &'static Pool,
    /// `None` once retired.
    id: Option<u64>,
}

impl Retire {
    /// Withdraws the batch's free seats, blocks until no helper is
    /// inside it, removes it and returns the first panic a helper
    /// caught. Does nothing after the first call.
    fn retire(&mut self) -> Option<Payload> {
        let id = self.id.take()?;
        let mut state = self.pool.lock();
        loop {
            // Only this guard removes the batch, so it is still open.
            let at = state.open.iter().position(|b| b.id == id)?;
            let batch = &mut state.open[at];
            batch.seats = 0;
            if batch.running == 0 {
                return state.open.remove(at).panic;
            }
            state = self
                .pool
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Retire {
    fn drop(&mut self) {
        self.retire();
    }
}

/// Maps a flat upper-triangle index `k in 0..n*(n-1)/2` back to its
/// pair `(i, j)` with `i < j < n`, in the row-major order a nested
/// `for i in 0..n { for j in i+1..n }` loop visits pairs.
pub fn pair_from_index(n: usize, k: usize) -> (usize, usize) {
    debug_assert!(n >= 2, "pair_from_index needs n >= 2");
    debug_assert!(k < n * (n - 1) / 2, "pair index {k} out of range");
    // Row i starts at offset i*(2n-i-1)/2 (= i*(n-1) - i*(i-1)/2,
    // rearranged to stay in usize); binary-search the row.
    let offset = |i: usize| i * (2 * n - i - 1) / 2;
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if offset(mid) <= k {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let i = if offset(hi) <= k { hi } else { lo };
    (i, i + 1 + (k - offset(i)))
}

/// Evaluates `f(i, j)` for every unordered pair `i < j < n` across the
/// pool and returns `(i, j, value)` triples in row-major upper-triangle
/// order — the exact order the sequential nested loop produces.
pub fn par_pairs<T, F>(n: usize, f: F) -> Vec<(usize, usize, T)>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    if n < 2 {
        return Vec::new();
    }
    let pairs = n * (n - 1) / 2;
    par_map_indexed(pairs, |k| {
        let (i, j) = pair_from_index(n, k);
        (i, j, f(i, j))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn pair_unranking_round_trips() {
        for n in 2..=17 {
            let mut k = 0;
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(pair_from_index(n, k), (i, j), "n={n} k={k}");
                    k += 1;
                }
            }
            assert_eq!(k, n * (n - 1) / 2);
        }
    }

    #[test]
    fn par_map_matches_sequential() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
            for threads in [1, 2, 8] {
                let par = with_thread_count(threads, || {
                    par_map_indexed(n, |i| (i as u64).wrapping_mul(0x9E37))
                });
                assert_eq!(par, seq, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn par_pairs_is_row_major_and_complete() {
        let n = 9;
        let expected: Vec<(usize, usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j, i * n + j)))
            .collect();
        for threads in [1, 4] {
            let got = with_thread_count(threads, || par_pairs(n, |i, j| i * n + j));
            assert_eq!(got, expected, "threads={threads}");
        }
        assert!(par_pairs(1, |i, j| i + j).is_empty());
        assert!(par_pairs(0, |i, j| i + j).is_empty());
    }

    #[test]
    fn float_sums_are_bit_identical() {
        let f = |i: usize| ((i as f64) * 0.3141).sin() / (i as f64 + 1.0);
        let seq: f64 = (0..500).map(f).sum();
        let par: f64 = with_thread_count(8, || par_map_indexed(500, f))
            .iter()
            .sum();
        assert_eq!(seq.to_bits(), par.to_bits());
    }

    #[test]
    fn override_takes_precedence_and_restores() {
        assert_eq!(with_thread_count(3, thread_count), 3);
        assert_eq!(with_thread_count(0, thread_count), 1);
        let outer = with_thread_count(5, || with_thread_count(2, thread_count));
        assert_eq!(outer, 2);
        // After the scopes exit the override is gone (whatever the
        // ambient count is, it is not the pinned values).
        assert!(THREAD_OVERRIDE.with(Cell::get).is_none());
    }

    /// Spins until `flag` is set, giving up after a generous deadline so
    /// a broken pool fails the test instead of hanging it.
    fn wait_for(flag: &AtomicBool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !flag.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    #[test]
    fn nested_calls_run_sequentially_in_workers() {
        // batch large enough to dodge the small-input fallback, so the
        // closure really runs on pool helpers; helper tasks hold until
        // the caller has run one, so the caller's share is covered too
        let n = SEQUENTIAL_FALLBACK_TASKS * 2;
        let caller = std::thread::current().id();
        let caller_ran = AtomicBool::new(false);
        let seen = with_thread_count(4, || {
            par_map_indexed(n, |_| {
                let on_caller = std::thread::current().id() == caller;
                if on_caller {
                    caller_ran.store(true, Ordering::SeqCst);
                } else {
                    wait_for(&caller_ran);
                }
                (on_caller, thread_count())
            })
        });
        assert!(seen.iter().any(|&(on_caller, _)| on_caller));
        assert_eq!(seen.iter().map(|&(_, t)| t).collect::<Vec<_>>(), vec![1; n]);
        // the caller's own setting is back once the batch returns
        assert_eq!(with_thread_count(4, thread_count), 4);
    }

    #[test]
    fn small_batches_take_the_sequential_fallback() {
        // below the threshold the closure runs on the calling thread
        // (thread_count() still sees the override), and the output is
        // identical to the sequential loop
        let small = SEQUENTIAL_FALLBACK_TASKS - 1;
        let counts = with_thread_count(4, || par_map_indexed(small, |_| thread_count()));
        assert_eq!(counts, vec![4; small], "must not spawn workers");
        let f = |i: usize| ((i as f64) * 0.7).cos() * (i as f64);
        let seq: Vec<u64> = (0..small).map(|i| f(i).to_bits()).collect();
        let par = with_thread_count(8, || par_map_indexed(small, |i| f(i).to_bits()));
        assert_eq!(par, seq);
    }

    fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn worker_panics_propagate_with_payload() {
        let result = std::panic::catch_unwind(|| {
            with_thread_count(4, || {
                par_map_indexed(64, |i| {
                    if i == 33 {
                        panic!("task 33 exploded");
                    }
                    i
                })
            })
        });
        let payload = result.expect_err("panic should propagate");
        let msg = payload_text(payload.as_ref());
        assert!(msg.contains("task 33 exploded"), "payload was: {msg:?}");
    }

    #[test]
    fn helpers_survive_a_task_panic() {
        let n = SEQUENTIAL_FALLBACK_TASKS * 2;
        let caller = std::thread::current().id();
        // The caller's tasks hold until a helper has run (and panicked
        // in) a task, so the panic is forced onto a helper thread.
        let helper_ran = AtomicBool::new(false);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_thread_count(2, || {
                par_map_indexed(n, |i| {
                    if std::thread::current().id() == caller {
                        wait_for(&helper_ran);
                        return i;
                    }
                    helper_ran.store(true, Ordering::SeqCst);
                    panic!("helper task exploded");
                })
            })
        }));
        let payload = result.expect_err("a helper panic should reach the caller");
        assert_eq!(payload_text(payload.as_ref()), "helper task exploded");
        assert!(
            helper_ran.load(Ordering::SeqCst),
            "no helper joined the batch"
        );

        // A later batch on the same pool still gets a helper and a
        // complete, ordered result.
        let helper_ran = AtomicBool::new(false);
        let after = with_thread_count(2, || {
            par_map_indexed(n, |i| {
                if std::thread::current().id() == caller {
                    wait_for(&helper_ran);
                } else {
                    helper_ran.store(true, Ordering::SeqCst);
                }
                i * 3
            })
        });
        assert!(
            helper_ran.load(Ordering::SeqCst),
            "the helper did not survive"
        );
        assert_eq!(after, (0..n).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        // The server's shape: several request threads submitting
        // batches to one pool at the same time.
        let f = |i: usize| ((i as f64) * 0.37).sin().to_bits() ^ i as u64;
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        let submitters: Vec<_> = (0..4)
            .map(|s| {
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for b in 0..25 {
                        let n = SEQUENTIAL_FALLBACK_TASKS + 7 * b + s;
                        let got = with_thread_count(3, || par_map_indexed(n, f));
                        assert_eq!(got, (0..n).map(f).collect::<Vec<_>>(), "n={n}");
                    }
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().expect("submitter thread panicked");
        }
    }
}
