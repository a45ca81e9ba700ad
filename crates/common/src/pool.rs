//! The one process-wide pool of parked worker threads behind every
//! parallel phase of a sharded deployment; an engine batch opens none.
//!
//! The only primitive is a **scoped job list over an atomic cursor**
//! ([`for_each_mut`]): the caller publishes `n` jobs and claims jobs itself;
//! idle workers join by `fetch_add` on the same cursor. Completion is
//! counted in *jobs*, not helpers, so a worker that wakes late finds the
//! cursor exhausted and costs nothing. A job that opens a nested scope runs
//! that scope's jobs itself instead of blocking on a worker, so nesting
//! cannot deadlock: a thread only ever waits for jobs that are executing on
//! another thread right now.
//!
//! The pool is sized once, `available_parallelism() − 1` workers started on
//! first parallel use, so with the caller the process never computes on
//! more threads than CPUs; on a 1-CPU host there are no workers and every
//! scope runs inline. Idle workers park on a condvar.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{JoinHandle, Thread};

/// A job that panicked inside [`for_each_mut`]: the panic was contained,
/// every other job of the scope still ran.
#[derive(Debug)]
pub struct JobPanic {
    /// Index of the panicking job (the lowest one if several panicked).
    pub job: usize,
    /// The panic message.
    pub message: String,
}

/// Renders a caught panic payload as text.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The host's parallelism, resolved once per process (the standard library
/// re-reads the cgroup files on every call): the workers plus the caller.
fn parallelism() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f(i, &mut items[i])` for every item, on the calling thread plus up
/// to `cap − 1` workers of the process-wide pool (`cap = 0`: as many as the
/// pool has; `cap = 1`: inline, the pool is never touched). Returns once
/// every job has finished, so results written through the `&mut` land by
/// job index however the jobs were scheduled. A panicking job is caught and
/// reported after the remaining jobs ran.
pub fn for_each_mut<T: Send>(
    items: &mut [T],
    cap: usize,
    f: impl Fn(usize, &mut T) + Sync,
) -> Result<(), JobPanic> {
    if cap == 1 || items.len() < 2 || parallelism() == 1 {
        return Pool::inline(items, f);
    }
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Pool::with_workers(parallelism() - 1))
        .for_each_mut(items, cap, f)
}

/// One published job list. Helpers hold it by `Arc`, so its counters
/// outlive the owner's stack frame; only `job` borrows from that frame.
struct Scope {
    job: &'static (dyn Fn(usize) + Sync),
    jobs: usize,
    /// Next unclaimed job. `Relaxed`: a claim needs atomicity only, the job
    /// data is published by the open-list mutex.
    cursor: AtomicUsize,
    /// Jobs not yet finished. Decremented with `Release` after a job's last
    /// write, read with `Acquire` by the owner before it returns.
    pending: AtomicUsize,
    /// Helpers that may still join (`cap − 1` at the start).
    tickets: AtomicUsize,
    owner: Thread,
    panic: Mutex<Option<JobPanic>>,
}

impl Scope {
    /// Claims and runs jobs until none is left unclaimed.
    fn work(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.job)(i))) {
                let mut slot = lock(&self.panic);
                if slot.as_ref().is_none_or(|p| i < p.job) {
                    *slot = Some(JobPanic {
                        job: i,
                        message: panic_message(payload),
                    });
                }
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.owner.unpark();
            }
        }
    }

    /// A helper's entry: takes a ticket if jobs are left to claim.
    fn try_join(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.jobs
            && self
                .tickets
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| t.checked_sub(1))
                .is_ok()
    }
}

/// Ends a scope on the owner's side, also when the owner unwinds: takes
/// the list off the board, forfeits whatever is unclaimed, and waits for
/// the jobs in flight on helpers.
struct Finish<'a>(&'a Shared, &'a Arc<Scope>);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        let Finish(shared, scope) = *self;
        lock(&shared.board).open.retain(|s| !Arc::ptr_eq(s, scope));
        let claimed = scope.cursor.fetch_add(scope.jobs, Ordering::Relaxed);
        let unclaimed = scope.jobs.saturating_sub(claimed);
        scope.pending.fetch_sub(unclaimed, Ordering::AcqRel);
        while scope.pending.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
    }
}

#[derive(Default)]
struct Board {
    /// Scopes with unclaimed jobs.
    open: Vec<Arc<Scope>>,
    /// Workers parked on `wake`.
    idle: usize,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    board: Mutex<Board>,
    wake: Condvar,
}

/// Locks a mutex whose critical sections run no caller code and leave the
/// data valid at every step, so a poisoned guard is as good as a clean one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    fn with_workers(workers: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let workers = (0..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("quasii-pool-{k}"))
                    .spawn(move || worker(&shared))
                    .expect("spawning a pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Every job on the calling thread, in order.
    fn inline<T>(items: &mut [T], f: impl Fn(usize, &mut T)) -> Result<(), JobPanic> {
        let mut first = None;
        for (job, item) in items.iter_mut().enumerate() {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(job, item))) {
                first.get_or_insert_with(|| JobPanic {
                    job,
                    message: panic_message(payload),
                });
            }
        }
        first.map_or(Ok(()), Err)
    }

    fn for_each_mut<T: Send>(
        &self,
        items: &mut [T],
        cap: usize,
        f: impl Fn(usize, &mut T) + Sync,
    ) -> Result<(), JobPanic> {
        let cap = if cap == 0 { usize::MAX } else { cap };
        let helpers = (cap - 1)
            .min(items.len().saturating_sub(1))
            .min(self.workers.len());
        if helpers == 0 {
            return Self::inline(items, f);
        }
        // One slot per job hands its `&mut` to whichever thread claims it.
        let slots: Vec<Mutex<Option<&mut T>>> =
            items.iter_mut().map(|t| Mutex::new(Some(t))).collect();
        let job = |i: usize| {
            let item = lock(&slots[i]).take().expect("a job index is claimed once");
            f(i, item);
        };
        let job: &(dyn Fn(usize) + Sync) = &job;
        // SAFETY: the transmute only erases the lifetime of `job`, which
        // borrows `slots` and `f` from this frame. `Scope::work` is the one
        // place that calls it, and only for an index `i < jobs` it claimed
        // from `cursor`; each claim is matched by one decrement of
        // `pending` *after* the call returned or unwound into its
        // `catch_unwind`. `Finish::drop` below runs before this frame is
        // left, by return or by unwinding, and does not come back before
        // `pending` is zero, having first claimed every unclaimed index for
        // itself. So no call is in flight or can start once the borrow
        // ends; a helper that still holds the `Arc<Scope>` then sees
        // `cursor >= jobs` and never touches `job` again.
        let job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let scope = Arc::new(Scope {
            job,
            jobs: slots.len(),
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(slots.len()),
            tickets: AtomicUsize::new(helpers),
            owner: std::thread::current(),
            panic: Mutex::new(None),
        });
        {
            let _finish = Finish(&self.shared, &scope);
            let mut board = lock(&self.shared.board);
            board.open.push(Arc::clone(&scope));
            let wake = helpers.min(board.idle);
            drop(board);
            for _ in 0..wake {
                self.shared.wake.notify_one();
            }
            scope.work();
        }
        let panic = lock(&scope.panic).take();
        panic.map_or(Ok(()), Err)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.board).shutdown = true;
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            // A worker runs caller code under `catch_unwind` only, so it
            // has no panic to report.
            w.join().ok();
        }
    }
}

/// A worker's life: join an open scope, or park until one is published.
fn worker(shared: &Shared) {
    let mut board = lock(&shared.board);
    while !board.shutdown {
        if let Some(scope) = board.open.iter().find(|s| s.try_join()).cloned() {
            drop(board);
            scope.work();
            board = lock(&shared.board);
        } else {
            board.idle += 1;
            board = shared
                .wake
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
            board.idle -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// Two levels of scopes: the outer jobs each fill a row through an
    /// inner scope. Returns the rows.
    fn nested(pool: &Pool, outer: usize, inner: usize) -> Vec<Vec<usize>> {
        let mut rows: Vec<Vec<usize>> = vec![vec![0; inner]; outer];
        pool.for_each_mut(&mut rows, 0, |r, row| {
            pool.for_each_mut(row, 0, |c, cell| *cell = r * 1000 + c)
                .unwrap();
        })
        .unwrap();
        rows
    }

    #[test]
    fn nested_scopes_complete_with_0_1_and_3_workers() {
        for workers in [0, 1, 3] {
            let pool = Pool::with_workers(workers);
            for _ in 0..200 {
                let rows = nested(&pool, 5, 7);
                for (r, row) in rows.iter().enumerate() {
                    for (c, cell) in row.iter().enumerate() {
                        assert_eq!(*cell, r * 1000 + c, "workers={workers}");
                    }
                }
            }
        }
    }

    #[test]
    fn helpers_really_join_and_respect_the_cap() {
        // Three jobs meet at a barrier: passes only if the owner and two
        // helpers run them at the same time.
        let pool = Pool::with_workers(3);
        let barrier = Barrier::new(3);
        let mut seen = vec![None; 3];
        pool.for_each_mut(&mut seen, 3, |_, s| {
            barrier.wait();
            *s = Some(std::thread::current().id());
        })
        .unwrap();
        let ids: HashSet<_> = seen.into_iter().flatten().collect();
        assert_eq!(ids.len(), 3, "three distinct threads");

        // cap = 1 never leaves the calling thread.
        let me = std::thread::current().id();
        let mut on = vec![None; 8];
        pool.for_each_mut(&mut on, 1, |_, s| *s = Some(std::thread::current().id()))
            .unwrap();
        assert!(on.iter().all(|s| *s == Some(me)));
    }

    #[test]
    fn panicking_job_is_contained_and_the_rest_finish() {
        for workers in [0, 2] {
            let pool = Pool::with_workers(workers);
            let mut done = vec![false; 16];
            let err = pool
                .for_each_mut(&mut done, 0, |i, d| {
                    if i == 5 || i == 11 {
                        panic!("job {i} fails");
                    }
                    *d = true;
                })
                .expect_err("the owner sees the failure");
            assert_eq!(err.job, 5, "lowest failing job is reported");
            assert_eq!(err.message, "job 5 fails");
            for (i, d) in done.iter().enumerate() {
                assert_eq!(*d, i != 5 && i != 11, "job {i}, workers={workers}");
            }
            // The pool is still usable.
            assert_eq!(nested(&pool, 2, 2)[1][1], 1001);
        }
    }

    #[test]
    fn results_land_by_job_index_under_a_shuffled_schedule() {
        let pool = Pool::with_workers(3);
        for round in 0..50u64 {
            let mut out = vec![0u64; 64];
            pool.for_each_mut(&mut out, 0, |i, o| {
                // A per-job pseudo-random amount of work reorders finishes.
                let spin = (i as u64 * 2_654_435_761 + round * 40_503) % 2_000;
                let mut acc = i as u64;
                for k in 0..spin {
                    acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k));
                }
                std::hint::black_box(acc);
                *o = i as u64 * i as u64;
            })
            .unwrap();
            for (i, o) in out.iter().enumerate() {
                assert_eq!(*o, (i * i) as u64);
            }
        }
    }

    #[test]
    fn borrowed_windows_are_released_only_after_the_last_job() {
        // The barrier puts one job on the owner and one on the helper; the
        // helper's job writes only after the owner has run out of jobs, so
        // a scope that returned before its last job would show a blank
        // window.
        let pool = Pool::with_workers(1);
        let mut buf = [0u32; 20];
        let owner = std::thread::current().id();
        let both_running = Barrier::new(2);
        let owner_done = AtomicBool::new(false);
        let mut windows: Vec<&mut [u32]> = buf.chunks_mut(10).collect();
        pool.for_each_mut(&mut windows, 2, |i, w| {
            both_running.wait();
            if std::thread::current().id() == owner {
                w.fill(i as u32 + 1);
                owner_done.store(true, Ordering::SeqCst);
            } else {
                while !owner_done.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                // Lets the owner reach its wait; the check does not need it.
                std::thread::sleep(std::time::Duration::from_millis(20));
                w.fill(i as u32 + 1);
            }
        })
        .unwrap();
        for (i, chunk) in buf.chunks(10).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as u32 + 1), "window {i}");
        }
    }
}
