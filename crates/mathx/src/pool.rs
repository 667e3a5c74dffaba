//! Persistent scoped worker pool — the process-wide compute threads behind
//! every data-parallel loop in the workspace.
//!
//! The GEMM and batched-convolution paths in `tahoma-nn` originally spawned
//! OS threads per call through `std::thread::scope`. That is correct but
//! pays thread creation/teardown on every call — measurable even when the
//! spawned workers do substantial work, and fatal for a query service that
//! runs thousands of batched inference calls per second. This module keeps `available_parallelism() - 1`
//! workers parked on a condvar for the life of the process and hands out
//! [`scope`], a drop-in replacement for `std::thread::scope` with the same
//! borrow-the-stack API:
//!
//! ```
//! let mut a = [0u64; 4];
//! tahoma_mathx::pool::scope(|s| {
//!     for (i, slot) in a.iter_mut().enumerate() {
//!         s.spawn(move || *slot = i as u64 + 1);
//!     }
//! });
//! assert_eq!(a, [1, 2, 3, 4]);
//! ```
//!
//! Design points:
//!
//! * **Caller helps.** The scope owner drains the shared queue while it
//!   waits, so a task is never stranded: even with zero pool workers (a
//!   1-core machine) every spawned closure runs — inline, with no boxing
//!   and no synchronization at all, which makes the pool free exactly
//!   where threading cannot help.
//! * **Panic-safe.** A panicking task is caught on the worker, recorded,
//!   and re-raised on the scope owner after every sibling task finished —
//!   the same contract as `std::thread::scope`, and the queue/workers
//!   survive for the next caller.
//! * **No shutdown.** Workers are process-lifetime daemons; they hold no
//!   resources beyond a parked stack, so they simply die with the process.
//!
//! Soundness of the lifetime erasure: a spawned closure may borrow the
//! caller's stack (`'scope`), but the queue stores `'static` boxed jobs.
//! The transmute in [`Scope::spawn`] is sound because [`scope`] does not
//! return — not even by unwinding — until every job it spawned has run to
//! completion, which bounds every borrow.
//!
//! This is one of the four files sanctioned to contain `unsafe`; see
//! `SAFETY.md` at the repository root for the unsafe policy. In debug
//! builds [`scope`] asserts its no-live-jobs invariant before returning.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

// Pool bookkeeping must stay usable after a task panicked (the panic is
// re-raised on the scope owner; the queue state itself is never left
// mid-update because critical sections below do not call user code).
use crate::lock;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    work_cv: Condvar,
    workers: usize,
}

impl PoolShared {
    fn push(&self, job: Job) {
        lock(&self.queue).push_back(job);
        self.work_cv.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        lock(&self.queue).pop_front()
    }
}

fn worker_loop(shared: &'static PoolShared) {
    loop {
        let mut q = lock(&shared.queue);
        loop {
            if let Some(job) = q.pop_front() {
                drop(q);
                // The job wrapper (built in `Scope::spawn`) catches panics
                // itself, so the worker thread never unwinds.
                job();
                break;
            }
            q = match shared.work_cv.wait(q) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

fn shared() -> &'static PoolShared {
    static POOL: OnceLock<PoolShared> = OnceLock::new();
    let pool = POOL.get_or_init(|| {
        let hw = std::thread::available_parallelism().map_or(1, |v| v.get());
        PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            workers: hw.saturating_sub(1),
        }
    });
    static STARTED: OnceLock<()> = OnceLock::new();
    STARTED.get_or_init(|| {
        for i in 0..pool.workers {
            std::thread::Builder::new()
                .name(format!("tahoma-pool-{i}"))
                .spawn(move || worker_loop(pool))
                .expect("spawn pool worker");
        }
    });
    pool
}

/// Number of persistent pool workers (machine parallelism minus the
/// caller's own thread; zero on a single-core machine, where every spawn
/// runs inline).
pub fn workers() -> usize {
    shared().workers
}

struct ScopeState {
    pending: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct ScopeSync {
    state: Mutex<ScopeState>,
    done_cv: Condvar,
}

/// Handle for spawning borrow-carrying tasks; see [`scope`]. Mirrors
/// `std::thread::Scope` (both lifetimes invariant, so the handle cannot be
/// smuggled out of the closure).
pub struct Scope<'scope, 'env: 'scope> {
    sync: Arc<ScopeSync>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Queue `f` on the pool (or run it inline when the pool has no
    /// workers). The closure may borrow anything that outlives the
    /// enclosing [`scope`] call; it is guaranteed to have finished when
    /// [`scope`] returns.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let pool = shared();
        if pool.workers == 0 {
            // Single-core: run in place. No boxing, no locks — threading
            // could only add overhead here, so the pool adds none either.
            f();
            return;
        }
        lock(&self.sync.state).pending += 1;
        let sync = Arc::clone(&self.sync);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            let mut st = lock(&sync.state);
            if let Err(p) = result {
                if st.panic.is_none() {
                    st.panic = Some(p);
                }
            }
            st.pending -= 1;
            if st.pending == 0 {
                sync.done_cv.notify_all();
            }
        });
        // SAFETY: `scope` blocks until `pending` drops to zero before
        // returning (normally or by unwind), so every borrow in `f`
        // outlives the job's execution; the 'scope -> 'static transmute
        // only widens the lifetime the queue stores, never the lifetime
        // the job actually runs under.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        pool.push(job);
    }
}

/// Run `f` with a [`Scope`] whose spawned tasks execute on the persistent
/// pool, returning once every task has completed. Drop-in replacement for
/// `std::thread::scope`: tasks may borrow the caller's stack, and a panic
/// in any task resurfaces on the caller after all tasks finish.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    let pool = shared();
    let sc = Scope {
        sync: Arc::new(ScopeSync {
            state: Mutex::new(ScopeState {
                pending: 0,
                panic: None,
            }),
            done_cv: Condvar::new(),
        }),
        _scope: PhantomData,
        _env: PhantomData,
    };
    // Run the user closure, but even if it panics the queued tasks borrow
    // this stack frame and must finish before we unwind through it.
    let result = catch_unwind(AssertUnwindSafe(|| f(&sc)));
    if pool.workers > 0 {
        loop {
            // Help: run queued jobs (ours or another scope's) instead of
            // idling — on a loaded machine the scope owner is often the
            // first thread free to execute its own spawns.
            while let Some(job) = pool.try_pop() {
                job();
            }
            let st = lock(&sc.sync.state);
            if st.pending == 0 {
                break;
            }
            // Short timed wait, then re-check the queue: our remaining
            // jobs are either mid-run on a worker (the wait ends when the
            // last one notifies) or still queued behind other scopes' work
            // (the timeout sends us back to helping).
            let _ = sc.sync.done_cv.wait_timeout(st, Duration::from_millis(1));
        }
    }
    // The soundness of the 'scope -> 'static transmute in `spawn` is
    // exactly this: no job survives the scope that lent it borrows.
    crate::checked::invariant(
        lock(&sc.sync.state).pending == 0,
        "pool scope returning with live borrowed jobs",
    );
    let panic = lock(&sc.sync.state).panic.take();
    match result {
        Err(p) => resume_unwind(p),
        Ok(v) => {
            if let Some(p) = panic {
                resume_unwind(p);
            }
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn tasks_borrow_and_fill_disjoint_slots() {
        let mut data = vec![0usize; 64];
        scope(|s| {
            for (i, chunk) in data.chunks_mut(8).enumerate() {
                s.spawn(move || {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = i * 8 + j;
                    }
                });
            }
        });
        assert_eq!(data, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn scope_returns_closure_value() {
        let n = scope(|s| {
            s.spawn(|| {});
            41 + 1
        });
        assert_eq!(n, 42);
    }

    #[test]
    fn sequential_scopes_reuse_the_pool() {
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn concurrent_scopes_from_many_threads() {
        // The serving scenario: many threads each running their own scoped
        // fan-out against one shared pool.
        let total = AtomicUsize::new(0);
        std::thread::scope(|outer| {
            for _ in 0..8 {
                outer.spawn(|| {
                    for _ in 0..50 {
                        let mut local = [0usize; 4];
                        scope(|s| {
                            for v in local.iter_mut() {
                                s.spawn(move || *v = 1);
                            }
                        });
                        total.fetch_add(local.iter().sum::<usize>(), Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 50 * 4);
    }

    #[test]
    fn task_panic_propagates_after_siblings_finish() {
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                for i in 0..4 {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == 2 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "task panic must resurface");
        // With pool workers, all three non-panicking siblings run before
        // the panic resurfaces; inline mode (zero workers) unwinds at the
        // panicking spawn, so the later sibling never starts.
        let done = finished.load(Ordering::Relaxed);
        let want = if workers() == 0 { 2 } else { 3 };
        assert_eq!(done, want);
        // Pool still works afterwards.
        let mut x = 0u32;
        scope(|s| s.spawn(|| x = 7));
        assert_eq!(x, 7);
    }
}
