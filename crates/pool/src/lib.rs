//! The host's threads: one small fork-join pool (DESIGN.md §19).
//!
//! The single primitive is [`run`]: "run chunks `0..n` of this borrowed
//! closure, each exactly once, on the caller plus the workers". Everything
//! the workspace runs on more than one thread goes through it — the
//! colour passes of the EBE scatter, the chunked MCG lane passes, the
//! predictor's regions — and all of it is written so that *which* thread
//! runs a chunk cannot change a bit of the result: chunks write disjoint
//! memory ([`for_each_mut`] hands each its own pieces), and reductions
//! store one partial per chunk and add them in index order on the caller.
//!
//! * **Claimed, not assigned.** Caller and workers take chunks from one
//!   packed atomic holding the unclaimed range — the caller from its front,
//!   the workers from its back. The caller never waits for a chunk nobody
//!   has started, so a worker that is descheduled, still parked, or never
//!   wakes at all costs serial speed, not a stall.
//! * **Persistent workers.** `available_parallelism() − 1` threads are
//!   started once (first use) and live for the process. An idle worker
//!   counts spins, then parks; the caller unparks only a parked worker.
//!   No wall clock is read anywhere and a fork-join allocates nothing.
//! * **One fork-join at a time.** A call made while the pool is busy —
//!   nested inside a chunk, or from another thread — runs its chunks
//!   inline, in index order, on the calling thread.
//! * **Panics.** A panicking chunk is caught where it ran; the chunks not
//!   yet started are claimed and skipped, the join completes, the payload
//!   is re-raised on the caller, and the pool stays usable.
//!
//! Thread count comes from `available_parallelism()`; tests build a pool
//! of an explicit size with [`Pool::with_threads`] and make it the current
//! one for a scope with [`Pool::install`].

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};

/// Failed looks for work before an idle worker parks (≈ 30 µs of `pause`:
/// longer than the serial stretches between the passes of one CG
/// iteration, so a worker stays hot through a solve; short enough that a
/// serial phase does not keep a second core spinning).
const SPINS_BEFORE_PARK: u32 = 2_000;

/// Looks at the done count before a joining caller starts yielding its
/// time slice to whoever holds the last chunks (which matters when threads
/// outnumber cores: pools of 3–4 on two vCPUs, parallel `cargo test`).
const SPINS_BEFORE_YIELD: u32 = 200;

thread_local! {
    /// The pool [`Pool::install`] made current on this thread.
    static INSTALLED: RefCell<Option<Pool>> = const { RefCell::new(None) };
    /// Set while this thread runs chunks (always, on a worker): a [`run`]
    /// from inside a chunk runs inline.
    static INLINE: Cell<bool> = const { Cell::new(false) };
}

/// An atomic on a cache line of its own: idle workers poll `unclaimed`
/// while finishing chunks bump `done`.
#[repr(align(64))]
struct Padded<A>(A);

/// One fork-join as the threads see it: the borrowed chunk body. Lives on
/// the caller's stack for the fork-join's duration.
struct Job<'a> {
    body: &'a (dyn Fn(usize) + Sync + 'a),
}

/// Which end of the unclaimed range a thread claims from. The caller works
/// up from chunk 0 and the workers down from the last one, so that from one
/// fork-join to the next a thread tends to get the same part of the index
/// range — and, where chunk `i` touches the same memory every time (a
/// colour group's elements, a vector's rows), finds it in its own cache.
/// Only a tendency: any thread takes whatever is left.
#[derive(Clone, Copy)]
enum End {
    Front,
    Back,
}

/// What caller and workers share.
struct Shared {
    /// The unclaimed chunks `lo..hi` of the fork-join in flight, packed
    /// `lo << 32 | hi`; empty (`lo == hi`) between fork-joins. A successful
    /// step of `lo` up, or of `hi` down, is the claim of the chunk stepped
    /// over.
    unclaimed: Padded<AtomicU64>,
    /// Chunks finished (run, or skipped after a panic) in this fork-join.
    done: Padded<AtomicUsize>,
    /// The job in flight. Dereferenced only by a thread that holds a claim.
    job: AtomicPtr<Job<'static>>,
    /// A fork-join is in flight; a second caller runs inline instead.
    busy: AtomicBool,
    /// A chunk of this fork-join panicked: skip the ones not yet started.
    panicked: AtomicBool,
    /// The first panic's payload, re-raised on the caller after the join.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    shutdown: AtomicBool,
    /// Per worker: it is parked (or about to park) and needs an `unpark`.
    parked: Box<[AtomicBool]>,
}

impl Shared {
    /// Claim a chunk from one end of the unclaimed range: its index, or
    /// `None` when every chunk has an owner.
    ///
    /// Nothing read before the compare-exchange is used after it except the
    /// value it succeeded on, so a success is a claim on whatever fork-join
    /// is in flight *now*, however long this thread was descheduled since
    /// its load (no ABA).
    fn claim(&self, end: End) -> Option<usize> {
        // Acquire pairs with the caller's publishing store of `unclaimed`
        // (every successful claim continues its release sequence): the
        // claimer sees that fork-join's `job`, and `done`/`panicked` reset.
        let mut range = self.unclaimed.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = (range >> 32, range & 0xffff_ffff);
            if lo == hi {
                return None;
            }
            let (index, rest) = match end {
                End::Front => (lo, (lo + 1) << 32 | hi),
                End::Back => (hi - 1, lo << 32 | (hi - 1)),
            };
            match self.unclaimed.0.compare_exchange_weak(
                range,
                rest,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(index as usize),
                Err(now) => range = now,
            }
        }
    }

    /// Run the claimed chunk `index` (or skip it after a panic) and count
    /// it done.
    fn run_claimed(&self, index: usize) {
        // SAFETY: this thread holds a claim that is not yet counted in
        // `done`, and the caller of the fork-join the claim belongs to does
        // not return from `fork_join` — where the `Job` and the closure it
        // borrows live — before `done` counts every chunk: the join
        // outlives this borrow. The pointer is that fork-join's, stored
        // before `unclaimed` was published (see `claim`), and the next
        // fork-join cannot overwrite it before this one's join.
        #[allow(unsafe_code, reason = "a worker borrows the caller's job by pointer")]
        let job = unsafe { &*self.job.load(Ordering::Acquire) };
        // Relaxed: a hint to skip work; the payload travels in the mutex.
        if !self.panicked.load(Ordering::Relaxed) {
            // Unwind safety: the payload is re-raised on the caller, so
            // whatever the chunk left half-done is seen by exactly the code
            // that would see it had the chunk panicked on the caller.
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| (job.body)(index))) {
                // never held across a panic; recover the slot regardless
                let mut slot = self.payload.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(p);
                self.panicked.store(true, Ordering::Relaxed);
            }
        }
        // Release pairs with the joining caller's Acquire load: everything
        // the chunk wrote (and `panicked`) is visible once the caller counts
        // it, and the last use of `job` above is ordered before the
        // caller's return.
        self.done.0.fetch_add(1, Ordering::Release);
    }
}

/// What a worker runs until the pool shuts down.
fn worker_loop(shared: &Shared, me: usize) {
    INLINE.set(true);
    let mut idle = 0u32;
    loop {
        if let Some(index) = shared.claim(End::Back) {
            shared.run_claimed(index);
            idle = 0;
        } else if shared.shutdown.load(Ordering::Acquire) {
            return;
        } else if idle < SPINS_BEFORE_PARK {
            idle += 1;
            std::hint::spin_loop();
        } else {
            // SeqCst on this flag and on `unclaimed`/`shutdown` (here and
            // in `fork_join`/`drop`): either the caller's load sees the
            // flag and unparks, or this thread's loads see the new work.
            // `park` returns at once if the `unpark` came first.
            shared.parked[me].store(true, Ordering::SeqCst);
            let range = shared.unclaimed.0.load(Ordering::SeqCst);
            if range >> 32 == range & 0xffff_ffff && !shared.shutdown.load(Ordering::SeqCst) {
                thread::park();
            }
            shared.parked[me].store(false, Ordering::SeqCst);
            idle = 0;
        }
    }
}

struct Inner {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            w.thread().unpark();
            // a worker catches every chunk panic: nothing to report
            let _ = w.join();
        }
    }
}

/// A fork-join pool: the calling thread plus `threads() − 1` workers.
/// Cloning is cheap and shares the workers; they stop when the last clone
/// is dropped. Library code does not hold one — it calls [`run`] /
/// [`for_each_mut`], which use the pool current on the calling thread.
#[derive(Clone)]
pub struct Pool(Arc<Inner>);

impl Pool {
    /// A pool of exactly `threads` threads (the caller counts as one, so
    /// `1` starts no worker and runs everything inline). For tests; the
    /// process-wide pool sizes itself from `available_parallelism()`.
    pub fn with_threads(threads: usize) -> Pool {
        Pool::start(threads, Arc::new(|| ()))
    }

    /// [`Self::with_threads`], each worker calling `on_start` before it
    /// first looks for work.
    fn start(threads: usize, on_start: Arc<dyn Fn() + Send + Sync>) -> Pool {
        let n_workers = threads.max(1) - 1;
        let shared = Arc::new(Shared {
            unclaimed: Padded(AtomicU64::new(0)),
            done: Padded(AtomicUsize::new(0)),
            job: AtomicPtr::new(std::ptr::null_mut()),
            busy: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            parked: (0..n_workers).map(|_| AtomicBool::new(false)).collect(),
        });
        let workers = (0..n_workers)
            .map(|me| {
                let (shared, on_start) = (Arc::clone(&shared), Arc::clone(&on_start));
                thread::Builder::new()
                    .name(format!("hetsolve-pool-{me}"))
                    .spawn(move || {
                        on_start();
                        worker_loop(&shared, me)
                    })
                    .expect("spawn a pool worker thread")
            })
            .collect();
        Pool(Arc::new(Inner { shared, workers }))
    }

    /// Threads that run chunks: the workers and the caller.
    pub(crate) fn threads(&self) -> usize {
        self.0.workers.len() + 1
    }

    /// Run `f` with this pool current on the calling thread: every [`run`]
    /// / [`for_each_mut`] `f` makes from this thread uses it.
    pub fn install<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(Option<Pool>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(INSTALLED.with(|c| c.borrow_mut().replace(self.clone())));
        f()
    }

    /// The fork-join: publish the job, wake parked workers, claim chunks
    /// alongside them, wait for the claimed ones to finish.
    fn fork_join(&self, chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        let (sh, workers) = (&*self.0.shared, &self.0.workers);
        // Acquire/Release on `busy`: the previous fork-join's reads of the
        // shared slots are over before this one rewrites them.
        let packable = u32::try_from(chunks).is_ok();
        if workers.is_empty()
            || !packable
            || sh
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return (0..chunks).for_each(body);
        }
        let job = Job { body };
        // Relaxed: published by the store of `unclaimed` below.
        sh.done.0.store(0, Ordering::Relaxed);
        sh.panicked.store(false, Ordering::Relaxed);
        // The job's lifetime is erased here; `run_claimed` says why every
        // dereference happens before this function returns.
        let erased = &job as *const Job<'_> as *mut Job<'static>;
        sh.job.store(erased, Ordering::Relaxed);
        sh.unclaimed.0.store(chunks as u64, Ordering::SeqCst);
        for (parked, w) in sh.parked.iter().zip(workers) {
            if parked.load(Ordering::SeqCst) {
                w.thread().unpark();
            }
        }

        // Chunks catch their panics, so nothing unwinds past the join.
        let was_inline = INLINE.replace(true);
        while let Some(index) = sh.claim(End::Front) {
            sh.run_claimed(index);
        }
        let mut spins = 0u32;
        while sh.done.0.load(Ordering::Acquire) != chunks {
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        INLINE.set(was_inline);

        let payload = sh
            .panicked
            .load(Ordering::Relaxed)
            .then(|| sh.payload.lock().unwrap_or_else(|e| e.into_inner()).take());
        sh.busy.store(false, Ordering::Release);
        if let Some(p) = payload.flatten() {
            resume_unwind(p);
        }
    }
}

/// Call `f` with the pool current on this thread: the installed one, else
/// the process-wide one (started on first use, never stopped).
fn with_current<R>(f: impl FnOnce(&Pool) -> R) -> R {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    match INSTALLED.with(|c| c.borrow().clone()) {
        Some(pool) => f(&pool),
        None => f(GLOBAL.get_or_init(|| {
            Pool::with_threads(thread::available_parallelism().map_or(1, |n| n.get()))
        })),
    }
}

/// Threads of the pool current on the calling thread.
pub fn threads() -> usize {
    with_current(Pool::threads)
}

/// Run `body(i)` for every `i` in `0..chunks`, each exactly once, on the
/// calling thread and the current pool's workers; returns when all are
/// done. Which thread runs which chunk is not defined. With fewer than two
/// chunks, from inside a chunk, or while another fork-join has the pool,
/// the chunks run inline in index order. A panic in a chunk is re-raised
/// here once the rest have finished or been skipped.
pub fn run(chunks: usize, body: impl Fn(usize) + Sync) {
    if chunks < 2 || INLINE.get() {
        return (0..chunks).for_each(body);
    }
    with_current(|pool| pool.fork_join(chunks, &body));
}

/// [`run`] over a shared slice cut into `len`-long chunks (the last may be
/// shorter): `body(i, chunk i)` for every chunk.
pub fn for_each_chunk<T: Sync>(slice: &[T], len: usize, body: impl Fn(usize, &[T]) + Sync) {
    assert!(len > 0, "chunk length must be positive");
    run(slice.len().div_ceil(len), |i| {
        let lo = i * len;
        body(i, &slice[lo..slice.len().min(lo.saturating_add(len))])
    });
}

/// A mutable slice cut into `len`-long pieces (the last may be shorter)
/// that threads take by index.
struct Pieces<'a, T> {
    ptr: *mut T,
    total: usize,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: the pointer targets an exclusively borrowed `&mut [T]` (no safe
// code sees the slice while the `Pieces` lives), `&Pieces` exposes only
// `piece`, whose contract keeps the pieces handed out disjoint, and a piece
// may be used on another thread because `T: Send`.
#[allow(unsafe_code, reason = "threads take disjoint pieces of one slice")]
unsafe impl<T: Send> Sync for Pieces<'_, T> {}

impl<'a, T> Pieces<'a, T> {
    fn new(slice: &'a mut [T], len: usize) -> Self {
        assert!(len > 0, "piece length must be positive");
        Pieces {
            ptr: slice.as_mut_ptr(),
            total: slice.len(),
            len,
            _borrow: PhantomData,
        }
    }

    fn count(&self) -> usize {
        self.total.div_ceil(self.len)
    }

    /// Piece `i` of the slice.
    ///
    /// # Safety
    ///
    /// No two results for one `i` may be live at once.
    #[allow(clippy::mut_from_ref, reason = "`# Safety` keeps pieces unique")]
    #[allow(unsafe_code, reason = "hands out a `&mut` piece through `&self`")]
    unsafe fn piece(&self, i: usize) -> &mut [T] {
        let lo = i * self.len;
        assert!(lo < self.total, "piece {i} of {}", self.count());
        let n = self.len.min(self.total - lo);
        // SAFETY: `lo + n <= total` was just checked, so the range lies in
        // the borrowed slice; pieces of distinct indices do not overlap and
        // the caller hands out each index once at a time.
        #[allow(unsafe_code, reason = "builds the piece from raw parts")]
        unsafe {
            std::slice::from_raw_parts_mut(self.ptr.add(lo), n)
        }
    }
}

/// [`run`] over mutable slices cut into pieces: `body(i, [piece i of each
/// slice])` for every piece index, each exactly once. `parts` pairs every
/// slice with its piece length (the last piece may be shorter); all must
/// cut into the same number of pieces. This is how chunks get disjoint
/// output — and how a reduction stores one partial per chunk.
pub fn for_each_mut<T: Send, const N: usize>(
    parts: [(&mut [T], usize); N],
    body: impl Fn(usize, [&mut [T]; N]) + Sync,
) {
    let pieces = parts.map(|(slice, len)| Pieces::new(slice, len));
    let chunks = pieces.first().map_or(0, Pieces::count);
    assert!(
        pieces.iter().all(|p| p.count() == chunks),
        "slices cut into different numbers of pieces"
    );
    run(chunks, |i| {
        // SAFETY: `run` calls each index exactly once per fork-join and
        // returns only when every call has finished (the join outlives the
        // pieces' borrows), so no two pieces of one index are ever live.
        #[allow(unsafe_code, reason = "each chunk takes its own pieces, once")]
        body(i, std::array::from_fn(|k| unsafe { pieces[k].piece(i) }))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::{mpsc, Barrier};

    fn counters(n: usize) -> Vec<AtomicU32> {
        (0..n).map(|_| AtomicU32::new(0)).collect()
    }

    fn assert_each_once(hits: &[AtomicU32]) {
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "chunk {i}");
        }
    }

    #[test]
    fn each_chunk_runs_exactly_once_at_any_size() {
        for threads in 1..=4 {
            let pool = Pool::with_threads(threads);
            assert_eq!(pool.threads(), threads);
            pool.install(|| {
                assert_eq!(super::threads(), threads);
                for chunks in [0usize, 1, 2, 3, 7, 64, 1000] {
                    // many fork-joins back to back: claims of one never
                    // leak into the next
                    for _ in 0..50 {
                        let hits = counters(chunks);
                        run(chunks, |i| {
                            hits[i].fetch_add(1, Ordering::SeqCst);
                        });
                        assert_each_once(&hits);
                    }
                }
            });
        }
    }

    #[test]
    fn for_each_mut_hands_out_every_piece_once() {
        let pool = Pool::with_threads(3);
        pool.install(|| {
            let mut a: Vec<u64> = vec![0; 1000];
            let mut partial: Vec<u64> = vec![0; 1000usize.div_ceil(64)];
            for_each_mut(
                [(&mut a[..], 64), (&mut partial[..], 1)],
                |i, [piece, p]| {
                    assert_eq!(piece.len(), if i == 15 { 1000 - 15 * 64 } else { 64 });
                    for (k, v) in piece.iter_mut().enumerate() {
                        *v += (64 * i + k) as u64;
                    }
                    p[0] = piece.iter().sum();
                },
            );
            assert!(a.iter().enumerate().all(|(k, &v)| v == k as u64));
            assert_eq!(partial.iter().sum::<u64>(), 999 * 1000 / 2);
            // nothing to cut: no call
            for_each_mut([(&mut a[..0], 8)], |_, _| panic!("no piece"));
        });
    }

    #[test]
    #[should_panic(expected = "different numbers of pieces")]
    fn for_each_mut_rejects_mismatched_cuts() {
        let (mut a, mut b) = (vec![0u8; 10], vec![0u8; 10]);
        for_each_mut([(&mut a[..], 5), (&mut b[..], 3)], |_, _| ());
    }

    /// A `run` from inside a chunk runs inline on the thread that made it,
    /// worker or caller, in index order.
    #[test]
    fn nested_runs_are_inline() {
        let pool = Pool::with_threads(3);
        pool.install(|| {
            let hits = counters(16 * 8);
            run(16, |i| {
                let me = thread::current().id();
                let order = Mutex::new(Vec::new());
                run(8, |j| {
                    assert_eq!(thread::current().id(), me);
                    order.lock().unwrap().push(j);
                    hits[8 * i + j].fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
            });
            assert_each_once(&hits);
        });
    }

    /// Callers on many threads share one pool: whoever finds it busy runs
    /// inline, and every caller's every chunk still runs exactly once.
    #[test]
    fn concurrent_callers_all_complete() {
        let pool = Pool::with_threads(3);
        let start = Barrier::new(8);
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    pool.install(|| {
                        start.wait();
                        for _ in 0..200 {
                            let hits = counters(33);
                            run(33, |i| {
                                hits[i].fetch_add(1, Ordering::SeqCst);
                            });
                            assert_each_once(&hits);
                        }
                    })
                });
            }
        });
    }

    /// A chunk that panics on the worker: the worker is held at a channel
    /// rendez-vous with the caller's first chunk, so it is the worker's
    /// chunk that panics while the caller is mid-chunk. The rest are
    /// drained, the panic surfaces on the caller, the pool works after.
    #[test]
    fn worker_panic_is_reraised_on_the_caller_and_the_pool_survives() {
        let pool = Pool::with_threads(2);
        pool.install(|| {
            let caller = thread::current().id();
            let (tx, rx) = mpsc::sync_channel::<()>(0);
            let rx = Mutex::new(rx);
            let met = AtomicBool::new(false);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run(64, |i| {
                    if thread::current().id() == caller {
                        // the caller's first chunk waits for the worker's
                        if !met.swap(true, Ordering::SeqCst) {
                            rx.lock().unwrap().recv().unwrap();
                        }
                    } else {
                        tx.send(()).unwrap();
                        panic!("chunk {i} failed on the worker");
                    }
                });
            }));
            let payload = result.expect_err("the worker's panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(msg.ends_with("failed on the worker"), "{msg}");

            let hits = counters(64);
            run(64, |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert_each_once(&hits);
        });
    }

    /// A pool of two whose worker is held on a channel before it first
    /// looks for work, and the sender that lets it go.
    fn pool_with_held_worker() -> (Pool, mpsc::Sender<()>) {
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let pool = Pool::start(
            2,
            Arc::new(move || {
                // returns when `release` is dropped
                let _ = gate.lock().unwrap().recv();
            }),
        );
        (pool, release)
    }

    /// A worker that never wakes costs nothing but its share: the caller
    /// claims and runs every chunk itself and the join does not wait for
    /// the sleeper.
    #[test]
    fn a_worker_that_never_wakes_does_not_stall_the_join() {
        // `release` is declared last, so even a failing assertion drops it
        // before the pool joins its worker
        let (pool, release) = pool_with_held_worker();
        pool.install(|| {
            let caller = thread::current().id();
            let hits = counters(256);
            run(256, |i| {
                assert_eq!(thread::current().id(), caller);
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert_each_once(&hits);
        });
        drop(release);
    }

    /// A panic in the caller's own chunk takes the same path, and the
    /// chunks left are drained, not run: with the worker held, the caller
    /// claims them all in index order and runs none after the first.
    #[test]
    fn caller_panic_drains_the_remaining_chunks() {
        let (pool, release) = pool_with_held_worker();
        pool.install(|| {
            let ran = AtomicU32::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run(8, |i| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    panic!("chunk {i}");
                });
            }));
            let payload = result.expect_err("the panic must surface");
            assert_eq!(payload.downcast_ref::<String>().unwrap(), "chunk 0");
            assert_eq!(ran.load(Ordering::SeqCst), 1);
            let hits = counters(8);
            run(8, |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert_each_once(&hits);
        });
        drop(release);
    }
}
