//! Plan cache: memoized cascade selection keyed on (predicate set,
//! accuracy target).
//!
//! Cold planning for a query walks, per content predicate, the system's
//! precomputed cascade outcomes to build the scenario-priced Pareto
//! frontier and select the fastest cascade meeting the accuracy
//! constraint — work that is identical for every query naming the same
//! predicates at the same accuracy target. The cache stores the finished
//! plan behind an `Arc`, so a repeat query's planning phase is one
//! hash-map probe (the `query_serve` bench gates the speedup; the
//! property test in `tests/concurrency.rs` asserts a hit is identical to
//! planning from scratch).
//!
//! Keys quantize the accuracy target to millis: callers express targets
//! as "max accuracy loss" percentages and nothing in the pipeline
//! resolves finer than 0.1%, so the quantization cannot alias two
//! genuinely different targets.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tahoma_core::pipeline::SelectedCascade;
use tahoma_imagery::ObjectKind;
// Poison-tolerant: the map holds finished `Arc<CachedPlan>`s inserted
// whole, so a poisoned guard holds no partially-applied state.
use tahoma_mathx::lock;

/// A fully planned query: one selected cascade per content predicate, in
/// execution order — ascending expected cost per unit of rejection on the
/// served corpus (`QueryService::plan_for`), so the conjunction narrows
/// the survivor set before the costly or unselective predicates run.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// Per-predicate selections, in execution order.
    pub entries: Vec<(ObjectKind, SelectedCascade)>,
}

type Key = (Vec<u8>, u32);

fn key(kinds: &[ObjectKind], acc_milli: u32) -> Key {
    let mut ks: Vec<u8> = kinds.iter().map(|k| k.index() as u8).collect();
    ks.sort_unstable();
    ks.dedup();
    (ks, acc_milli)
}

/// Concurrent (predicate set, accuracy target) → [`CachedPlan`] map.
#[derive(Default)]
pub struct PlanCache {
    // LOCK-ORDER: 20 — held only for map probes/inserts; never while
    // planning, executing, or taking any broker lock.
    map: Mutex<HashMap<Key, Arc<CachedPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Look up a plan; counts a hit or a miss.
    pub fn get(&self, kinds: &[ObjectKind], acc_milli: u32) -> Option<Arc<CachedPlan>> {
        let found = lock(&self.map).get(&key(kinds, acc_milli)).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert a freshly built plan. First insertion wins: when two
    /// concurrent misses both plan (planning is deterministic, so the
    /// plans are equal), the loser adopts the winner's `Arc` — every
    /// caller ends up sharing one allocation.
    pub fn insert(
        &self,
        kinds: &[ObjectKind],
        acc_milli: u32,
        plan: CachedPlan,
    ) -> Arc<CachedPlan> {
        let mut map = lock(&self.map);
        Arc::clone(
            map.entry(key(kinds, acc_milli))
                .or_insert_with(|| Arc::new(plan)),
        )
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached plan count.
    pub fn len(&self) -> usize {
        lock(&self.map).len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_core::Cascade;

    fn plan(kinds: &[ObjectKind]) -> CachedPlan {
        CachedPlan {
            entries: kinds
                .iter()
                .map(|&k| {
                    (
                        k,
                        SelectedCascade {
                            cascade: Cascade::single(0),
                            accuracy: 0.9,
                            throughput: 100.0,
                            description: String::new(),
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn key_is_order_insensitive_and_deduped() {
        let cache = PlanCache::new();
        let ab = [ObjectKind::Acorn, ObjectKind::Fence];
        let ba = [ObjectKind::Fence, ObjectKind::Acorn, ObjectKind::Fence];
        cache.insert(&ab, 20, plan(&ab));
        assert!(cache.get(&ba, 20).is_some());
        assert!(cache.get(&ab, 21).is_none());
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn first_insert_wins() {
        let cache = PlanCache::new();
        let k = [ObjectKind::Wallet];
        let first = cache.insert(&k, 20, plan(&k));
        let second = cache.insert(&k, 20, plan(&k));
        assert!(Arc::ptr_eq(&first, &second));
    }
}
