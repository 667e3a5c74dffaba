//! Multi-predicate ordering — the paper's explicitly-deferred future work
//! (§IV: "further query optimization could be done considering multiple
//! binary predicates in concert, we leave that for future work").
//!
//! For a conjunctive query with several `contains_object` predicates, the
//! classic System-R-style rule applies: evaluate predicates in increasing
//! `cost / rejection-rate` order so cheap, selective predicates prune the
//! item set before expensive ones run. This is the tree's one conjunct
//! ordering rule: [`crate::exec::VectorizedExecutor::execute`] and the
//! serving layer's `QueryService::plan_for` both rank with it.
//!
//! Both statistics come from one per-item decision walk,
//! [`crate::evaluator::cascade_stats`], over whichever items the caller
//! holds scores for: selectivity is the cascade's positive rate, and cost
//! is the scenario-priced expected per-image time of the walk's
//! stop-level histogram. `core::exec` walks the eval split; the serving
//! layer walks the corpus it serves, under the thresholds its execution
//! uses, so a conjunct that rejects nothing there ranks `+∞` and runs
//! last.

use crate::cascade::Cascade;
use crate::evaluator::{CostContext, Outcome};
use crate::order::nan_last;
use tahoma_imagery::ObjectKind;

/// One content predicate with its selected cascade and statistics.
#[derive(Debug, Clone)]
pub struct PlannedPredicate {
    /// The category tested.
    pub kind: ObjectKind,
    /// The cascade implementing it.
    pub cascade: Cascade,
    /// Expected per-image cost under the deployment scenario (seconds).
    pub expected_cost_s: f64,
    /// Expected fraction of items that pass (labeled positive).
    pub selectivity: f64,
}

impl PlannedPredicate {
    /// Build from a cascade's simulated outcome over `n_images` items and
    /// its pricing. `selectivity` is the positive rate of the same walk
    /// ([`crate::evaluator::cascade_stats`]), taken as an argument because
    /// the walk's items are the caller's: the eval split, or the corpus a
    /// service serves.
    pub fn new(
        kind: ObjectKind,
        cascade: Cascade,
        outcome: &Outcome,
        n_images: usize,
        cost: &CostContext,
        selectivity: f64,
    ) -> PlannedPredicate {
        PlannedPredicate {
            kind,
            cascade,
            expected_cost_s: cost.expected_cost_s(&cascade, outcome, n_images),
            selectivity: selectivity.clamp(0.0, 1.0),
        }
    }

    /// The rank metric: cost per unit of rejection. Lower runs earlier.
    /// A predicate that rejects nothing (selectivity 1) is infinitely
    /// unattractive to run early. A NaN cost (or a NaN selectivity, which
    /// survives the constructor's clamp) yields a NaN rank, which
    /// [`order_predicates`] treats as worse than infinite — a predicate
    /// whose statistics are unmeasurable runs last.
    pub fn rank(&self) -> f64 {
        let rejection = 1.0 - self.selectivity;
        if rejection <= 0.0 {
            f64::INFINITY
        } else {
            self.expected_cost_s / rejection
        }
    }
}

/// Order predicates for conjunctive evaluation: ascending `cost/rejection`.
///
/// The ordering is *total and deterministic* for every float input,
/// including the degenerate ones:
///
/// 1. ascending [`PlannedPredicate::rank`], NaN ranks after `+∞` (a
///    predicate with unmeasurable statistics never runs early, and never
///    panics the planner);
/// 2. ties — in particular *all* infinite-rank predicates, which share
///    `rank() == +∞` whenever selectivity ≥ 1 — break on lower expected
///    cost (NaN cost last): among predicates that reject nothing, the
///    cheapest runs first, bounding the wasted work;
/// 3. remaining ties break on lower selectivity (NaN last), preferring the
///    predicate more likely to reject if the estimates were conservative;
/// 4. and finally on [`ObjectKind`], so equal-statistics predicates come
///    out in a stable, input-permutation-independent order.
pub fn order_predicates(mut preds: Vec<PlannedPredicate>) -> Vec<PlannedPredicate> {
    preds.sort_by(cmp_planned);
    preds
}

/// The [`order_predicates`] comparator, exposed so index-based orderings
/// share the exact rule set.
fn cmp_planned(a: &PlannedPredicate, b: &PlannedPredicate) -> std::cmp::Ordering {
    nan_last(a.rank(), b.rank())
        .then_with(|| nan_last(a.expected_cost_s, b.expected_cost_s))
        .then_with(|| nan_last(a.selectivity, b.selectivity))
        .then_with(|| a.kind.cmp(&b.kind))
}

/// The execution-order permutation of `preds` under the exact
/// [`order_predicates`] rules, without moving the predicates — what the
/// vectorized executor ([`crate::exec`]) uses to run query positions in
/// rank order while still reporting relations in query order. Full ties
/// (identical statistics *and* kind, i.e. a duplicated predicate) keep
/// their input order, matching the stable sort in [`order_predicates`].
pub fn order_indices(preds: &[PlannedPredicate]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..preds.len()).collect();
    idx.sort_by(|&a, &b| cmp_planned(&preds[a], &preds[b]).then(a.cmp(&b)));
    idx
}

/// Expected per-item cost of evaluating the predicates in the given order
/// with short-circuiting (independence assumption across predicates).
///
/// The estimate is a plain product-sum, so it propagates whatever the
/// inputs carry: a NaN cost or selectivity makes the total NaN (callers
/// comparing plans should use [`crate::order::nan_last`], under which such
/// a plan loses to any measurable one), and an infinite cost makes it
/// infinite. An infinite *rank* is harmless here — rank only orders
/// predicates; the cost of a non-rejecting predicate still enters the sum
/// weighted by the survival probability of everything before it.
pub fn expected_conjunction_cost_s(ordered: &[PlannedPredicate]) -> f64 {
    let mut surviving = 1.0f64;
    let mut total = 0.0f64;
    for p in ordered {
        total += surviving * p.expected_cost_s;
        surviving *= p.selectivity;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(kind: ObjectKind, cost: f64, sel: f64) -> PlannedPredicate {
        PlannedPredicate {
            kind,
            cascade: Cascade::single(0),
            expected_cost_s: cost,
            selectivity: sel,
        }
    }

    #[test]
    fn cheap_selective_predicates_run_first() {
        let ordered = order_predicates(vec![
            pred(ObjectKind::Acorn, 10e-3, 0.5),  // rank 0.02
            pred(ObjectKind::Fence, 1e-3, 0.5),   // rank 0.002
            pred(ObjectKind::Wallet, 1e-3, 0.95), // rank 0.02
        ]);
        assert_eq!(ordered[0].kind, ObjectKind::Fence);
        // Acorn and Wallet tie on rank 0.02; lower cost (wallet) wins.
        assert_eq!(ordered[1].kind, ObjectKind::Wallet);
        assert_eq!(ordered[2].kind, ObjectKind::Acorn);
    }

    #[test]
    fn ordering_minimizes_expected_cost_for_two_predicates() {
        // Exhaustively check the rank rule against brute force on a grid.
        for &(c1, s1) in &[(1e-3, 0.2), (5e-3, 0.9), (2e-3, 0.5)] {
            for &(c2, s2) in &[(1e-4, 0.8), (8e-3, 0.1), (3e-3, 0.6)] {
                let a = pred(ObjectKind::Acorn, c1, s1);
                let b = pred(ObjectKind::Fence, c2, s2);
                let ordered = order_predicates(vec![a.clone(), b.clone()]);
                let chosen = expected_conjunction_cost_s(&ordered);
                let alt = expected_conjunction_cost_s(&[b.clone(), a.clone()]);
                let alt2 = expected_conjunction_cost_s(&[a, b]);
                let best = alt.min(alt2);
                assert!(
                    chosen <= best + 1e-12,
                    "({c1},{s1}) x ({c2},{s2}): chosen {chosen} > best {best}"
                );
            }
        }
    }

    #[test]
    fn non_rejecting_predicate_goes_last() {
        let ordered = order_predicates(vec![
            pred(ObjectKind::Acorn, 1e-6, 1.0), // rejects nothing
            pred(ObjectKind::Fence, 1e-2, 0.3),
        ]);
        assert_eq!(ordered[0].kind, ObjectKind::Fence);
        assert!(ordered[1].rank().is_infinite());
    }

    #[test]
    fn short_circuit_cost_accounts_for_survival() {
        let a = pred(ObjectKind::Acorn, 1e-3, 0.25);
        let b = pred(ObjectKind::Fence, 4e-3, 0.5);
        let cost = expected_conjunction_cost_s(&[a, b]);
        // 1e-3 on every item + 4e-3 on the surviving quarter.
        assert!((cost - (1e-3 + 0.25 * 4e-3)).abs() < 1e-12);
    }

    #[test]
    fn empty_plan_is_free() {
        assert_eq!(expected_conjunction_cost_s(&[]), 0.0);
    }

    #[test]
    fn order_indices_matches_order_predicates() {
        let preds = vec![
            pred(ObjectKind::Acorn, 10e-3, 0.5),
            pred(ObjectKind::Fence, 1e-3, 0.5),
            pred(ObjectKind::Wallet, 1e-3, 0.95),
            pred(ObjectKind::Fence, 1e-3, 0.5), // exact duplicate: stays in input order
            pred(ObjectKind::Coho, f64::NAN, 1.0),
        ];
        let idx = order_indices(&preds);
        let via_sort = order_predicates(preds.clone());
        for (rank, &i) in idx.iter().enumerate() {
            assert_eq!(
                (preds[i].kind, preds[i].expected_cost_s.to_bits()),
                (
                    via_sort[rank].kind,
                    via_sort[rank].expected_cost_s.to_bits()
                ),
                "rank {rank}"
            );
        }
        // The duplicate Fence entries keep input order (1 before 3).
        let f1 = idx.iter().position(|&i| i == 1).unwrap();
        let f3 = idx.iter().position(|&i| i == 3).unwrap();
        assert!(f1 < f3);
    }

    #[test]
    fn nan_statistics_demote_instead_of_panicking() {
        let ordered = order_predicates(vec![
            pred(ObjectKind::Acorn, f64::NAN, 0.5), // NaN rank
            pred(ObjectKind::Fence, 1e-2, 0.3),
            pred(ObjectKind::Wallet, 1e-3, f64::NAN), // NaN rank via selectivity
        ]);
        assert_eq!(ordered[0].kind, ObjectKind::Fence, "measurable runs first");
        assert!(ordered[1].rank().is_nan());
        assert!(ordered[2].rank().is_nan());
        // Among the unmeasurable, the one with a real (lower) cost first.
        assert_eq!(ordered[1].kind, ObjectKind::Wallet);
    }

    #[test]
    fn infinite_ranks_order_by_cost_then_kind() {
        // Three non-rejecting predicates all rank +inf; cheapest first, and
        // an exact cost tie falls through to the kind ordering.
        let ordered = order_predicates(vec![
            pred(ObjectKind::Wallet, 5e-3, 1.0),
            pred(ObjectKind::Fence, 1e-3, 1.0),
            pred(ObjectKind::Acorn, 1e-3, 1.0),
        ]);
        assert!(ordered.iter().all(|p| p.rank() == f64::INFINITY));
        assert_eq!(ordered[0].kind, ObjectKind::Acorn);
        assert_eq!(ordered[1].kind, ObjectKind::Fence);
        assert_eq!(ordered[2].kind, ObjectKind::Wallet);
    }
}
