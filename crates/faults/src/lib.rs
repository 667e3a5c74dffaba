//! Seeded, deterministic fault injection for the serving stack.
//!
//! The reliability layer (retry, quarantine, degradation ladders — see
//! `RELIABILITY.md`) is only trustworthy if its failure paths actually
//! run, and real I/O faults are too rare and too irreproducible to test
//! against. This crate plants *injection points* at the stack's failure
//! edges — segment reads/writes, store fetch/ingest, the coalescing
//! broker's leader, the protocol socket loop — and lets a test arm them
//! with a seeded [`FaultPlan`]: per-site fault rates in permille, decided
//! by a splitmix64 counter stream, so one seed reproduces one exact fault
//! schedule and 1000 seeds explore 1000 different ones (the chaos
//! campaign in `tahoma-serve/tests/chaos.rs`).
//!
//! The same `ARMED` fast-path discipline as `tahoma_serve::sched`: hooks
//! compiled without the `fault-inject` feature are `const` no-ops the
//! optimizer deletes, so production builds are bitwise-transparent; with
//! the feature on but no plan installed, each hook costs one relaxed
//! atomic load. Decisions consume one per-site counter each, so a serial
//! request sequence replays the identical schedule for a given seed;
//! under concurrency the *set* of decisions is still drawn from the
//! seeded stream, but which thread draws which depends on interleaving.
//!
//! Injection points in production code are audited: lint A7 in
//! `tahoma-audit` confines `tahoma_faults` usage to an allowlisted module
//! set and requires a `// FAULT:` tag at every call site (see
//! `SAFETY.md`).

/// Injection sites. Values are arbitrary but stable so a seed reproduces
/// a schedule even when new sites are added at the end; they index the
/// plan's rate table directly.
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
    /// Segment mmap (re)publish fails, forcing the pread fallback.
    pub const SEG_MMAP: u32 = 5;
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

    /// Number of sites (rate/counter table size).
    pub const COUNT: usize = 13;
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

/// splitmix64 finalizer: decorrelates consecutive counters into
/// independent-looking decisions (same mixer as `tahoma_serve::sched`).
#[cfg(feature = "fault-inject")]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(feature = "fault-inject")]
mod armed {
    use super::{mix, site, FaultPlan};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard};

    /// Process-wide arm flag: hooks pay one relaxed load when no plan is
    /// installed (worker threads are spawned by the server, so the state
    /// is process-global, not thread-local).
    static ARMED: AtomicBool = AtomicBool::new(false);

    struct State {
        plan: FaultPlan,
        /// One decision counter per site: each hook execution consumes
        /// exactly one draw, so serial request sequences replay.
        counters: [u64; site::COUNT],
        /// Faults actually injected per site (test assertions).
        injected: [u64; site::COUNT],
    }

    static STATE: Mutex<Option<State>> = Mutex::new(None);

    fn lock() -> MutexGuard<'static, Option<State>> {
        match STATE.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Guard returned by [`install`]; disarms the process on drop so one
    /// chaos schedule never leaks into the next.
    pub struct Installed {
        _priv: (),
    }

    impl Drop for Installed {
        fn drop(&mut self) {
            ARMED.store(false, Ordering::SeqCst);
            *lock() = None;
        }
    }

    /// Arm fault injection process-wide with `plan`. The previous plan
    /// (if any) is replaced; counters restart from zero.
    #[must_use]
    pub fn install(plan: FaultPlan) -> Installed {
        *lock() = Some(State {
            plan,
            counters: [0; site::COUNT],
            injected: [0; site::COUNT],
        });
        ARMED.store(true, Ordering::SeqCst);
        Installed { _priv: () }
    }

    /// Draw `site`'s next decision: true = inject a fault here.
    pub fn fire(s: u32) -> bool {
        if !ARMED.load(Ordering::Relaxed) {
            return false;
        }
        let mut g = lock();
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
        let hit = mix(st.plan.seed ^ ((s as u64) << 32) ^ counter) % 1000 < rate as u64;
        if hit {
            st.injected[i] += 1;
        }
        hit
    }

    /// Faults injected at `site` since the current plan was installed.
    pub fn injected(s: u32) -> u64 {
        lock()
            .as_ref()
            .and_then(|st| st.injected.get(s as usize).copied())
            .unwrap_or(0)
    }

    /// Total faults injected across all sites under the current plan.
    pub fn injected_total() -> u64 {
        lock()
            .as_ref()
            .map(|st| st.injected.iter().sum())
            .unwrap_or(0)
    }
}

#[cfg(feature = "fault-inject")]
pub use armed::{injected, injected_total, install, Installed};

/// Draw the next decision for `site`: should a fault be injected here?
/// Always `false` without the `fault-inject` feature (and compiled away).
#[cfg(feature = "fault-inject")]
#[inline]
pub fn fire(site: u32) -> bool {
    armed::fire(site)
}

/// Draw the next decision for `site`: should a fault be injected here?
/// Always `false` without the `fault-inject` feature (and compiled away).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn fire(_site: u32) -> bool {
    false
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

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// One test at a time: the plan and its arm flag are process-global, so
    /// one test's `install` or guard drop would re-arm or disarm another's.
    fn plan_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn unarmed_hooks_never_fire() {
        let _lock = plan_lock();
        assert!(!fire(site::SEG_READ));
        assert!(transient_io(site::SEG_WRITE).is_none());
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
}
