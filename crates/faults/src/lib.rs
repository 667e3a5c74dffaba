//! Seeded, deterministic fault injection and schedule perturbation for
//! the serving stack.
//!
//! The reliability layer (retry, quarantine, degradation ladders — see
//! `RELIABILITY.md`) is only trustworthy if its failure paths actually
//! run, and real I/O faults are too rare and too irreproducible to test
//! against. This crate plants *hooks* at the stack's failure edges —
//! segment reads/writes, store fetch/ingest, the coalescing broker's
//! leader, the protocol socket loop — and lets a test arm them with a
//! seeded [`FaultPlan`]: per-site fault rates in permille, so one seed
//! reproduces one exact fault schedule and 1000 seeds explore 1000
//! different ones (the chaos campaign in `tahoma-serve/tests/chaos.rs`).
//!
//! The broker's leader/follower protocol gets a second kind of hook,
//! [`perturb`], at its decision edges (submit, join, append, seal, run,
//! publish, wait). A thread that called [`install_schedule`] yields,
//! spins briefly or proceeds at each of them, so each seed reproduces one
//! exact interleaving pressure pattern (`tahoma-serve/tests/
//! broker_schedule.rs` asserts results stay bitwise identical to serial
//! under 1000 of them). The interleavings a quiet test box explores on its
//! own are a thin slice: threads are rarely preempted in the few
//! microseconds between a join and a seal.
//!
//! Both kinds of decision come from one stream: the splitmix64 finalizer
//! [`tahoma_mathx::hash64`] of `seed ^ site << 32 ^ counter`, one counter
//! per site (plans) or per thread (schedules), so a serial request
//! sequence replays the identical schedule for a given seed. Under
//! concurrency the *set* of fault decisions is still drawn from the
//! seeded stream, but which thread draws which depends on interleaving.
//!
//! The hooks are compiled into every build and only tests arm them. A
//! hook is armed while any guard from [`install`] or [`install_schedule`]
//! is live; unarmed, it is an inlined relaxed load and a not-taken branch,
//! and the armed path is `#[cold]` and out of line.
//!
//! Hooks in production code are held to the failure surface by clippy:
//! the root `clippy.toml` lists [`fire`], [`transient_io`], [`stall`] and
//! [`perturb`] under `disallowed-methods`, so every call site carries an
//! `#[expect(clippy::disallowed_methods, reason = "FAULT: …")]` whose
//! reason names the failure or preemption it models (see `SAFETY.md`).
#![expect(
    clippy::disallowed_methods,
    reason = "the hooks' own definitions build on `fire`"
)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tahoma_mathx::{hash64, lock};

/// Hook sites. Values are arbitrary but stable so a seed reproduces a
/// schedule even when new sites are added at the end. Fault sites index
/// the plan's rate table; schedule points only salt a thread's schedule
/// stream, so their values may repeat a fault site's.
pub mod site {
    /// Segment payload read: transient I/O error (retryable).
    pub const SEG_READ: u32 = 0;
    /// Segment payload read: CRC-corrupt record (permanent; quarantine).
    pub const SEG_READ_CORRUPT: u32 = 1;
    /// Segment payload read: short read (surfaces as transient I/O).
    pub const SEG_READ_SHORT: u32 = 2;
    /// Segment payload read: slow read (stall, no error).
    pub const SEG_READ_SLOW: u32 = 3;
    /// Segment append: transient I/O error.
    pub const SEG_WRITE: u32 = 4;
    // 5 is retired (a segment read side that no longer exists). It stays
    // a hole so every later site keeps its value and its decision stream.
    /// `RepresentationStore::fetch`: transient error above the tier.
    pub const STORE_FETCH: u32 = 6;
    /// `RepresentationStore::ingest`: transient error before the tier.
    pub const STORE_INGEST: u32 = 7;
    /// Coalescing broker: leader dies mid-merge (panic inside the guard).
    pub const BROKER_LEAD: u32 = 8;
    /// Protocol: connection read dropped mid-stream.
    pub const PROTO_READ: u32 = 9;
    /// Protocol: response write fails (client gone / partial write).
    pub const PROTO_WRITE: u32 = 10;
    /// Protocol: stalled client (stall, no error).
    pub const PROTO_STALL: u32 = 11;
    /// Standing-query tick evaluation fails once (retryable).
    pub const STREAM_TICK: u32 = 12;

    /// Number of fault sites (rate/counter table size).
    pub const COUNT: usize = 13;

    /// Schedule point: entry of `Broker::infer`, before the idle
    /// fast-path check.
    pub const SUBMIT: u32 = 1;
    /// Schedule point: before taking the open map to join/open a batch.
    pub const JOIN: u32 = 2;
    /// Schedule point: follower, after appending rows and waking the
    /// leader.
    pub const APPEND: u32 = 3;
    /// Schedule point: leader, after the coalescing window, before
    /// sealing.
    pub const SEAL: u32 = 4;
    /// Schedule point: leader, before the merged zoo call.
    pub const RUN: u32 = 5;
    /// Schedule point: leader, after publishing scores and waking
    /// followers.
    pub const PUBLISH: u32 = 6;
    /// Schedule point: follower, before blocking on batch completion.
    pub const WAIT: u32 = 7;
}

/// Per-site fault rates in permille, plus the seed deciding which
/// individual hook executions fire. `rate = 1000` fires every time,
/// `rate = 0` (the default for every site) never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Root seed of the decision stream.
    pub seed: u64,
    rates: [u16; site::COUNT],
}

impl FaultPlan {
    /// A plan that injects nothing; add rates with [`FaultPlan::with_rate`].
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0; site::COUNT],
        }
    }

    /// Set `site`'s fault rate in permille (clamped to 1000). Out-of-range
    /// sites are ignored.
    pub fn with_rate(mut self, site: u32, per_mille: u16) -> FaultPlan {
        if let Some(r) = self.rates.get_mut(site as usize) {
            *r = per_mille.min(1000);
        }
        self
    }

    /// Set every site's rate at once (the chaos campaign's broad-spectrum
    /// schedules).
    pub fn with_uniform_rate(mut self, per_mille: u16) -> FaultPlan {
        self.rates = [per_mille.min(1000); site::COUNT];
        self
    }
}

/// Live guards from [`install`] and [`install_schedule`]. Process-wide,
/// not thread-local: the server spawns the worker threads a plan must
/// reach, and an unarmed hook must not touch a thread-local at all. Hooks
/// load it `Relaxed` because it publishes nothing: the plan is read under
/// its mutex, and a schedule lives in its own thread's local.
static ARMED: AtomicUsize = AtomicUsize::new(0);

#[inline(always)]
fn armed() -> bool {
    ARMED.load(Ordering::Relaxed) != 0
}

/// The one seeded stream: the `counter`-th decision at `site` under
/// `seed`.
fn draw(seed: u64, site: u32, counter: u64) -> u64 {
    hash64(seed ^ ((site as u64) << 32) ^ counter)
}

struct State {
    plan: FaultPlan,
    /// One decision counter per site: each hook execution consumes
    /// exactly one draw, so serial request sequences replay.
    counters: [u64; site::COUNT],
    /// Faults actually injected per site (test assertions).
    injected: [u64; site::COUNT],
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

/// Guard returned by [`install`]; disarms the plan on drop so one chaos
/// schedule never leaks into the next.
pub struct Installed {
    _priv: (),
}

impl Drop for Installed {
    fn drop(&mut self) {
        *lock(&STATE) = None;
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Arm fault injection process-wide with `plan`. The previous plan (if
/// any) is replaced; counters restart from zero.
#[must_use]
pub fn install(plan: FaultPlan) -> Installed {
    *lock(&STATE) = Some(State {
        plan,
        counters: [0; site::COUNT],
        injected: [0; site::COUNT],
    });
    ARMED.fetch_add(1, Ordering::SeqCst);
    Installed { _priv: () }
}

/// Draw the next decision for `site`: should a fault be injected here?
/// Always `false` unless a test installed a plan.
#[inline]
pub fn fire(site: u32) -> bool {
    armed() && fire_armed(site)
}

#[cold]
#[inline(never)]
fn fire_armed(s: u32) -> bool {
    let mut g = lock(&STATE);
    let Some(st) = g.as_mut() else { return false };
    let i = s as usize;
    if i >= site::COUNT {
        return false;
    }
    let rate = st.plan.rates[i];
    if rate == 0 {
        return false;
    }
    let counter = st.counters[i];
    st.counters[i] += 1;
    let hit = draw(st.plan.seed, s, counter) % 1000 < rate as u64;
    if hit {
        st.injected[i] += 1;
    }
    hit
}

/// Faults injected at `site` since the current plan was installed.
pub fn injected(s: u32) -> u64 {
    lock(&STATE)
        .as_ref()
        .and_then(|st| st.injected.get(s as usize).copied())
        .unwrap_or(0)
}

/// Total faults injected across all sites under the current plan.
pub fn injected_total() -> u64 {
    lock(&STATE)
        .as_ref()
        .map(|st| st.injected.iter().sum())
        .unwrap_or(0)
}

/// A transient I/O error for `site`, when its decision fires. The kind is
/// `Interrupted` — classified retryable by every consumer.
#[inline]
pub fn transient_io(site: u32) -> Option<std::io::Error> {
    if fire(site) {
        Some(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            format!("injected transient fault (site {site})"),
        ))
    } else {
        None
    }
}

/// Deterministically stall for a few hundred microseconds when `site`'s
/// decision fires — the "slow read" / "stalled client" fault shape, which
/// must perturb timing without changing results.
#[inline]
pub fn stall(site: u32) {
    if fire(site) {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

thread_local! {
    /// The calling thread's schedule: `Some((seed, counter))` while a
    /// guard from [`install_schedule`] is live on it.
    static SCHEDULE: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Guard returned by [`install_schedule`]; clears the thread's schedule
/// on drop, so seeds never leak across tests sharing a pool thread.
pub struct Scheduled {
    _priv: (),
}

impl Drop for Scheduled {
    fn drop(&mut self) {
        SCHEDULE.with(|s| s.set(None));
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Arm schedule perturbation on the calling thread with `seed`. Distinct
/// threads of one test should install distinct seeds (e.g.
/// `seed ^ thread_rank`).
#[must_use]
pub fn install_schedule(seed: u64) -> Scheduled {
    SCHEDULE.with(|s| s.set(Some((seed, 0))));
    ARMED.fetch_add(1, Ordering::SeqCst);
    Scheduled { _priv: () }
}

/// What one schedule point does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Give up the slice entirely: forces another runnable thread (leader
    /// or follower) to make progress here.
    Yield,
    /// Short busy spin: shifts timing without a syscall, enough to move a
    /// racing thread past its own edge.
    Spin(u64),
    Proceed,
}

/// The calling thread's next step at `site`; `None` when it has no
/// schedule.
fn next_step(site: u32) -> Option<Step> {
    SCHEDULE.with(|s| {
        let (seed, counter) = s.get()?;
        s.set(Some((seed, counter + 1)));
        let r = draw(seed, site, counter);
        Some(match r % 8 {
            0 | 1 => Step::Yield,
            2 => Step::Spin((r >> 8) % 64),
            _ => Step::Proceed,
        })
    })
}

/// A schedule point. No-op unless the calling thread installed a
/// schedule; otherwise deterministically yields, spins, or proceeds.
#[inline]
pub fn perturb(site: u32) {
    if armed() {
        perturb_armed(site);
    }
}

#[cold]
#[inline(never)]
fn perturb_armed(site: u32) {
    match next_step(site) {
        Some(Step::Yield) => std::thread::yield_now(),
        Some(Step::Spin(n)) => {
            for _ in 0..n {
                std::hint::spin_loop();
            }
        }
        Some(Step::Proceed) | None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// One test at a time: the plan is process-global, so one test's
    /// `install` or guard drop would replace or clear another's.
    fn plan_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn unarmed_hooks_never_fire() {
        let _lock = plan_lock();
        assert!(!armed());
        assert!(!fire(site::SEG_READ));
        assert!(transient_io(site::SEG_WRITE).is_none());
        assert_eq!(next_step(site::SEAL), None);
    }

    #[test]
    fn seeded_schedule_replays_exactly() {
        let _lock = plan_lock();
        let draw = |seed: u64| -> Vec<bool> {
            let _g = install(FaultPlan::new(seed).with_rate(site::SEG_READ, 250));
            (0..64).map(|_| fire(site::SEG_READ)).collect()
        };
        let a = draw(7);
        let b = draw(7);
        let c = draw(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn rates_bound_behavior_and_counters_track() {
        let _lock = plan_lock();
        {
            let _g = install(FaultPlan::new(1).with_uniform_rate(1000));
            for _ in 0..10 {
                assert!(fire(site::BROKER_LEAD));
            }
            assert_eq!(injected(site::BROKER_LEAD), 10);
            assert_eq!(injected_total(), 10);
        }
        // Guard dropped: disarmed again.
        assert!(!fire(site::BROKER_LEAD));
        assert_eq!(injected_total(), 0);
        let _g = install(FaultPlan::new(2));
        assert!(!fire(site::SEG_READ), "zero-rate site never fires");
    }

    #[test]
    fn sites_decorrelate() {
        let _lock = plan_lock();
        let _g = install(FaultPlan::new(3).with_uniform_rate(500));
        let a: Vec<bool> = (0..64).map(|_| fire(site::SEG_READ)).collect();
        let b: Vec<bool> = (0..64).map(|_| fire(site::SEG_WRITE)).collect();
        assert_ne!(a, b);
    }

    /// The first 64 decisions of a chaos plan and of a broker schedule.
    /// Every seed in `chaos.rs` and `broker_schedule.rs` names one exact
    /// schedule, so these values must never change.
    #[test]
    fn golden_schedules_are_pinned() {
        let _lock = plan_lock();
        let mask = |s: u32| (0..64).fold(0u64, |m, i| m | ((fire(s) as u64) << i));
        {
            let _g = install(
                FaultPlan::new(7)
                    .with_rate(site::SEG_READ, 250)
                    .with_rate(site::BROKER_LEAD, 250),
            );
            assert_eq!(mask(site::SEG_READ), 0xd100_1008_c488_4030);
            assert_eq!(mask(site::BROKER_LEAD), 0x1902_a100_08a0_2281);
        }
        let _s = install_schedule(7);
        let steps: Vec<String> = (0..64)
            .map(|_| match next_step(site::SEAL) {
                Some(Step::Yield) => "y".to_string(),
                Some(Step::Spin(n)) => format!("s{n}"),
                Some(Step::Proceed) => ".".to_string(),
                None => "unarmed".to_string(),
            })
            .collect();
        assert_eq!(
            steps.join(" "),
            concat!(
                ". . . . . . . . . . . . y s61 . . . y . s12 s27 . . . s47 . . y . . y . ",
                "y . . . . . . . y . . y . . y y . . s58 . . . s43 . . . s28 . . . s5 ."
            )
        );
    }

    #[test]
    fn a_thread_schedule_arms_no_fault() {
        let _lock = plan_lock();
        let _s = install_schedule(1);
        assert!(armed());
        assert!(!fire(site::SEG_READ));
        assert!(next_step(site::JOIN).is_some());
        std::thread::spawn(|| assert_eq!(next_step(site::JOIN), None))
            .join()
            .unwrap();
    }
}
