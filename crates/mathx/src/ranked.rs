//! Ranked mutexes: `SAFETY.md`'s lock-order rule, checked at run time.
//!
//! Each lock of the serving stack is a [`Ranked`] with a rank from [`rank`],
//! and a thread may only take a rank above the highest it holds. Debug
//! builds keep a fixed-size stack of held ranks per thread and panic,
//! naming both locks, on an acquisition that breaks the rule, wherever the
//! two acquisitions are. Release builds compile the stack out:
//! [`Ranked::lock`] is [`crate::lock`] (poison-tolerant) on the inner
//! `Mutex`, with no thread-local access and no allocation.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Declares each rank const and its arm of [`rank::name`] from one list.
macro_rules! ranks {
    ($($name:ident = $rank:literal, $what:literal, $file:literal;)*) => {
        $(#[doc = concat!("The ", $what, " (`", $file, "`).")]
        pub const $name: u16 = $rank;)*

        /// The lock a rank names, for the inversion panic (debug builds
        /// only: release builds keep no held-rank stack to report).
        #[cfg(debug_assertions)]
        pub(super) fn name(rank: u16) -> &'static str {
            match rank {
                $($rank => $what,)*
                _ => "unlisted lock",
            }
        }
    };
}

/// The lock ranks, lowest first: a thread holding one of these locks may
/// only take locks listed below it. `SAFETY.md` ("Lock ordering") argues
/// the order; ranks are ordinals, so renumbering is fine.
pub mod rank {
    ranks! {
        CONN_QUEUE = 10, "connection queue", "serve/src/server.rs";
        PLAN_CACHE = 20, "plan-cache map", "serve/src/plan_cache.rs";
        STANDING_REGISTRY = 25, "standing-query registry", "serve/src/stream.rs";
        STANDING_WINDOW = 27, "standing-query window", "serve/src/stream.rs";
        SESSIONS = 30, "session-scratch pool", "serve/src/service.rs";
        BROKER_OPEN = 40, "broker open-batch map", "serve/src/broker.rs";
        BATCH_STATE = 50, "batch state", "serve/src/broker.rs";
        INGEST_PLANS = 65, "store ingest plan cache", "imagery/src/store.rs";
        QUARANTINE = 67, "store quarantine set", "imagery/src/store.rs";
        SHARD_WRITER = 70, "shard segment writer", "imagery/src/segment.rs";
        SHARD_INDEX = 71, "shard segment index", "imagery/src/segment.rs";
    }
}

/// A poison-tolerant mutex of rank `RANK` (a const from [`rank`]).
#[derive(Default)]
pub struct Ranked<T, const RANK: u16> {
    inner: Mutex<T>,
}

impl<T, const RANK: u16> Ranked<T, RANK> {
    pub const fn new(value: T) -> Self {
        Ranked {
            inner: Mutex::new(value),
        }
    }

    /// Take the lock. In debug builds this panics at the caller, before it
    /// blocks, if the thread already holds a lock of rank `RANK` or above.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> RankedGuard<'_, T> {
        RankedGuard {
            held: Held::enter(RANK),
            guard: crate::lock(&self.inner),
        }
    }
}

impl<T: std::fmt::Debug, const RANK: u16> std::fmt::Debug for Ranked<T, RANK> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ranked<{RANK}>({:?})", self.inner)
    }
}

/// The guard of a [`Ranked`] lock; the rank stays held until it drops.
pub struct RankedGuard<'a, T> {
    held: Held,
    guard: MutexGuard<'a, T>,
}

impl<T> RankedGuard<'_, T> {
    /// [`Condvar::wait`] on this guard. The rank stays held: a sleeping
    /// thread takes no lock until the wait returns.
    pub fn wait(self, cv: &Condvar) -> Self {
        let RankedGuard { held, guard } = self;
        let guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        RankedGuard { held, guard }
    }

    /// [`Condvar::wait_timeout`] on this guard; the rank stays held.
    pub fn wait_timeout(self, cv: &Condvar, dur: Duration) -> (Self, WaitTimeoutResult) {
        let RankedGuard { held, guard } = self;
        let (guard, timeout) = cv
            .wait_timeout(guard, dur)
            .unwrap_or_else(PoisonError::into_inner);
        (RankedGuard { held, guard }, timeout)
    }
}

impl<T> Deref for RankedGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankedGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Release builds keep no stack.
#[cfg(not(debug_assertions))]
struct Held;

#[cfg(not(debug_assertions))]
impl Held {
    #[inline(always)]
    fn enter(_rank: u16) -> Held {
        Held
    }
}

/// One held rank on this thread's stack; removed on drop.
#[cfg(debug_assertions)]
struct Held(u16);

/// Ranks held at once strictly ascend, so this bounds one chain of them.
#[cfg(debug_assertions)]
const DEPTH: usize = 16;

#[cfg(debug_assertions)]
thread_local! {
    /// This thread's held ranks, ascending, and how many there are.
    static HELD: std::cell::Cell<([u16; DEPTH], usize)> =
        const { std::cell::Cell::new(([0; DEPTH], 0)) };
}

#[cfg(debug_assertions)]
impl Held {
    #[track_caller]
    fn enter(rank: u16) -> Held {
        // Checked outside `with`: a closure cannot pass the caller on.
        let (mut ranks, depth) = HELD.with(std::cell::Cell::get);
        if let Some(&top) = ranks[..depth].last() {
            assert!(
                rank > top,
                "lock order: taking {} (rank {rank}) while holding {} (rank {top}); \
                 a thread may only take a rank above the highest it holds (SAFETY.md)",
                rank::name(rank),
                rank::name(top),
            );
        }
        assert!(depth < DEPTH, "more than {DEPTH} ranked locks held at once");
        ranks[depth] = rank;
        HELD.with(|cell| cell.set((ranks, depth + 1)));
        Held(rank)
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    /// Remove this rank wherever it sits: guards may drop in any order.
    fn drop(&mut self) {
        let (mut ranks, depth) = HELD.with(std::cell::Cell::get);
        if let Some(i) = ranks[..depth].iter().rposition(|&r| r == self.0) {
            ranks.copy_within(i + 1..depth, i);
            HELD.with(|cell| cell.set((ranks, depth - 1)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rank::*;
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    type L<const R: u16> = Ranked<u32, R>;

    /// Asserts this thread holds exactly `ranks` (release keeps no stack).
    fn assert_held(ranks: &[u16]) {
        #[cfg(debug_assertions)]
        HELD.with(|cell| assert_eq!(&cell.get().0[..cell.get().1], ranks));
        #[cfg(not(debug_assertions))]
        let _ = ranks;
    }

    /// The message `f` panics with, if it panics.
    fn panic_of(f: impl FnOnce()) -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
        Some(*payload.downcast::<String>().unwrap_or_default())
    }

    /// Whether taking `m` here trips the rank check, which fires before
    /// the mutex is touched.
    fn taking_panics<const R: u16>(m: &L<R>) -> bool {
        panic_of(|| drop(m.lock())).is_some()
    }

    /// `f` trips the rank check with `want` in debug builds and runs
    /// clean in release ones, which compile the check out.
    fn assert_trips(f: impl FnOnce(), want: &str) {
        let msg = panic_of(f);
        assert_eq!(msg.is_some(), cfg!(debug_assertions), "want {want:?}");
        if let Some(msg) = msg {
            assert!(msg.contains(want), "{msg}");
        }
    }

    #[test]
    fn an_inversion_panics_and_names_both_locks() {
        let (sessions, plans) = (L::<SESSIONS>::new(0), L::<PLAN_CACHE>::new(0));
        let take_both = || {
            let _s = sessions.lock();
            let _p = plans.lock();
        };
        let want = "taking plan-cache map (rank 20) while holding session-scratch pool (rank 30)";
        assert_trips(take_both, want);
        assert_held(&[]);
    }

    #[test]
    fn an_equal_rank_panics() {
        // Two shards' index locks share a rank, so they are never held together.
        let (a, b) = (L::<SHARD_INDEX>::new(0), L::<SHARD_INDEX>::new(0));
        let take_both = || {
            let _a = a.lock();
            let _b = b.lock();
        };
        assert_trips(
            take_both,
            "taking shard segment index (rank 71) while holding shard segment index (rank 71)",
        );
    }

    #[test]
    fn an_out_of_order_drop_leaves_the_stack_correct() {
        let queue = L::<CONN_QUEUE>::new(0);
        let (plans, sessions) = (L::<PLAN_CACHE>::new(0), L::<SESSIONS>::new(0));
        let registry = L::<STANDING_REGISTRY>::new(0);
        let (q, p, s) = (queue.lock(), plans.lock(), sessions.lock());
        assert_held(&[CONN_QUEUE, PLAN_CACHE, SESSIONS]);
        drop(p);
        assert_held(&[CONN_QUEUE, SESSIONS]);
        // Above the lowest held rank is not enough: it must top the highest.
        assert_eq!(taking_panics(&registry), cfg!(debug_assertions));
        drop(q);
        assert_held(&[SESSIONS]);
        drop(s);
        assert_held(&[]);
        assert!(!taking_panics(&registry) && !taking_panics(&queue));
    }

    #[test]
    fn wait_and_wait_timeout_keep_the_held_rank() {
        let (state, cv) = (Ranked::<bool, BATCH_STATE>::new(false), Condvar::new());
        let (open, shard) = (L::<BROKER_OPEN>::new(0), L::<SHARD_INDEX>::new(0));
        let still_held = || {
            assert_held(&[BATCH_STATE]);
            assert_eq!(taking_panics(&open), cfg!(debug_assertions));
            assert!(!taking_panics(&shard));
        };

        let (g, timeout) = state.lock().wait_timeout(&cv, Duration::from_millis(1));
        assert!(timeout.timed_out());
        still_held();
        drop(g);

        std::thread::scope(|s| {
            let mut g = state.lock();
            s.spawn(|| {
                *state.lock() = true;
                cv.notify_all();
            });
            while !*g {
                g = g.wait(&cv);
            }
            still_held();
        });
        assert_held(&[]);
    }

    #[test]
    fn a_guard_held_across_pool_scope_stays_on_its_own_thread() {
        let (window, plans) = (L::<STANDING_WINDOW>::new(0), L::<PLAN_CACHE>::new(0));
        let caller = std::thread::current().id();
        let _w = window.lock();
        crate::pool::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(2));
                    // The scope owner runs jobs while it waits, still holding
                    // the window lock; a pool worker holds none of its locks.
                    let on_owner = std::thread::current().id() == caller;
                    assert_eq!(taking_panics(&plans), on_owner && cfg!(debug_assertions));
                });
            }
        });
    }
}
