//! Oracles shared by the root integration tests: the brute-force
//! conjunction (metadata filter, the item-at-a-time reference walk per
//! predicate over every item, `HashSet` intersection) and the bitwise
//! relation comparison.
//!
//! Every test crate compiles this module on its own and uses a subset of
//! it, hence the crate-local `dead_code` allowance.
#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap, HashSet};
use tahoma::core::exec::VectorizedExecutor;
use tahoma::core::query::{
    Corpus, CorpusItem, ItemScorer, MetaPredicate, PredicateRelation, Query, QueryResult,
};
use tahoma::core::Cascade;
use tahoma::imagery::ObjectKind;

/// What brute force decides for an item slice.
pub struct BruteForce {
    /// Ids passing the metadata filter, in slice order.
    pub survivors: Vec<u64>,
    /// Ids passing the metadata filter and every step, in slice order.
    pub matched: Vec<u64>,
}

/// The conjunction by brute force: no shrinking pack, no ordering, sets
/// only. Every step's reference relation runs over *every* item.
pub fn brute_force(
    executor: &VectorizedExecutor<'_>,
    metadata: &[MetaPredicate],
    steps: &[(ObjectKind, Cascade)],
    items: &[&CorpusItem],
    scorer: &dyn ItemScorer,
) -> BruteForce {
    let survivors: Vec<u64> = items
        .iter()
        .filter(|item| metadata.iter().all(|p| p.holds(item)))
        .map(|item| item.id)
        .collect();
    let mut expected: HashSet<u64> = survivors.iter().copied().collect();
    for &(kind, cascade) in steps {
        let relation = executor
            .run_cascade_reference(kind, cascade, items, scorer)
            .expect("reference runs");
        let pass: HashSet<u64> = relation
            .rows
            .iter()
            .filter(|r| r.value)
            .map(|r| r.id)
            .collect();
        expected = expected.intersection(&pass).copied().collect();
    }
    let matched = survivors
        .iter()
        .copied()
        .filter(|id| expected.contains(id))
        .collect();
    BruteForce { survivors, matched }
}

/// Row for row and bit for bit: decisions, scores, histogram, accuracy and
/// the simulated-time totals.
pub fn assert_relations_identical(a: &PredicateRelation, b: &PredicateRelation) {
    assert_eq!(a.kind, b.kind);
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.id, rb.id);
        assert_eq!(ra.value, rb.value, "item {}", ra.id);
        assert_eq!(ra.decided_at, rb.decided_at, "item {}", ra.id);
        assert_eq!(
            ra.score.to_bits(),
            rb.score.to_bits(),
            "item {} score {} vs {}",
            ra.id,
            ra.score,
            rb.score
        );
    }
    assert_eq!(a.level_histogram, b.level_histogram);
    assert_eq!(a.accuracy, b.accuracy);
    // Same per-item prefix costs summed in the same order: bitwise equal.
    assert_eq!(a.simulated_time_s.to_bits(), b.simulated_time_s.to_bits());
    assert_eq!(a.throughput_fps.to_bits(), b.throughput_fps.to_bits());
}

/// Check `got` — `executor.execute(query, corpus, cascades, …)` with a
/// batch scorer whose scores equal `scorer`'s — against brute force:
///
/// * `matched_ids` and `metadata_survivors` are brute force's;
/// * the first executed relation covers every metadata survivor, and no
///   relation covers anything else;
/// * each relation, in query-text order, is identical to the reference
///   walk over exactly the rows it covers;
/// * no more than `n_preds × survivors` rows were scored.
///
/// Returns the brute force for further checks.
pub fn assert_execute_matches_brute_force(
    executor: &VectorizedExecutor<'_>,
    query: &Query,
    corpus: &Corpus,
    cascades: &BTreeMap<ObjectKind, Cascade>,
    scorer: &dyn ItemScorer,
    got: &QueryResult,
) -> BruteForce {
    let items: Vec<&CorpusItem> = corpus.items.iter().collect();
    let steps: Vec<(ObjectKind, Cascade)> = query
        .content
        .iter()
        .map(|kind| (*kind, cascades[kind]))
        .collect();
    let bf = brute_force(executor, &query.metadata, &steps, &items, scorer);
    assert_eq!(got.matched_ids, bf.matched);
    assert_eq!(got.metadata_survivors, bf.survivors.len());
    assert_eq!(got.relations.len(), steps.len());

    let row_ids = |rel: &PredicateRelation| -> Vec<u64> { rel.rows.iter().map(|r| r.id).collect() };
    if !steps.is_empty() {
        assert!(
            got.relations.iter().any(|rel| row_ids(rel) == bf.survivors),
            "no relation covers every metadata survivor"
        );
    }
    let survivor_set: HashSet<u64> = bf.survivors.iter().copied().collect();
    let by_id: HashMap<u64, &CorpusItem> = items.iter().map(|item| (item.id, *item)).collect();
    for (rel, &(kind, cascade)) in got.relations.iter().zip(&steps) {
        let covered: Vec<&CorpusItem> = rel
            .rows
            .iter()
            .map(|r| {
                assert!(survivor_set.contains(&r.id), "row {} failed metadata", r.id);
                by_id[&r.id]
            })
            .collect();
        let reference = executor
            .run_cascade_reference(kind, cascade, &covered, scorer)
            .expect("reference runs");
        assert_relations_identical(&reference, rel);
    }
    let scored: usize = got.relations.iter().map(|rel| rel.rows.len()).sum();
    assert!(
        scored <= steps.len() * bf.survivors.len(),
        "scored {scored} rows for {} predicates over {} survivors",
        steps.len(),
        bf.survivors.len()
    );
    bf
}
