//! Integration of the query layer: SQL parsing, metadata pushdown, cascade
//! execution over a corpus, and cost accounting consistency.

mod common;

use std::collections::BTreeMap;
use tahoma::core::evaluator::CostContext;
use tahoma::core::exec::{SurrogateBatchScorer, VectorizedExecutor};
use tahoma::core::query::{QueryResult, SurrogateItemScorer};
use tahoma::prelude::*;

struct Fixture {
    system: tahoma::core::pipeline::TahomaSystem,
    scorer: SurrogateScorer,
    corpus: Corpus,
}

fn fixture(kind: ObjectKind) -> Fixture {
    let pred = PredicateSpec::for_kind(kind);
    let cfg = SurrogateBuildConfig {
        n_config: 250,
        n_eval: 300,
        seed: 20,
        variants: Some(paper_variants().into_iter().step_by(11).collect()),
        ..Default::default()
    };
    let scorer = SurrogateScorer {
        pred,
        params: cfg.params,
        seed: cfg.seed,
    };
    let repo = build_surrogate_repository(pred, &cfg, &DeviceProfile::k80());
    Fixture {
        system: tahoma::core::pipeline::TahomaSystem::initialize_paper_main(repo),
        scorer,
        corpus: Corpus::synthetic(3000, 0.3, 8),
    }
}

fn execute(fx: &Fixture, sql: &str, scenario: Scenario) -> QueryResult {
    let query = Query::parse(sql).expect("parses");
    let profiler = AnalyticProfiler::paper_testbed(scenario);
    let chosen = fx
        .system
        .select(
            &profiler,
            Constraints {
                max_accuracy_loss: Some(0.03),
                max_throughput_loss: None,
            },
        )
        .expect("feasible");
    let cost = CostContext::build(&fx.system.repo, &profiler);
    let executor = VectorizedExecutor::new(&fx.system.repo, &fx.system.thresholds, &cost);
    let mut cascades = BTreeMap::new();
    for &kind in &query.content {
        cascades.insert(kind, chosen.cascade);
    }
    let mut scorer = SurrogateBatchScorer::new(&fx.scorer, &fx.system.repo);
    executor
        .execute(&query, &fx.corpus, &cascades, &mut scorer)
        .expect("executes")
}

#[test]
fn metadata_pushdown_reduces_classified_items() {
    let fx = fixture(ObjectKind::Fence);
    let all = execute(
        &fx,
        "SELECT * FROM f WHERE contains_object(fence)",
        Scenario::Ongoing,
    );
    let filtered = execute(
        &fx,
        "SELECT * FROM f WHERE contains_object(fence) AND location = 'Detroit'",
        Scenario::Ongoing,
    );
    assert_eq!(all.metadata_survivors, fx.corpus.len());
    assert!(filtered.metadata_survivors < all.metadata_survivors);
    assert_eq!(
        filtered.relations[0].rows.len(),
        filtered.metadata_survivors
    );
    // The filtered result must be a subset of the unfiltered result.
    let all_set: std::collections::HashSet<u64> = all.matched_ids.iter().copied().collect();
    for id in &filtered.matched_ids {
        assert!(
            all_set.contains(id),
            "id {id} appears only in filtered result"
        );
    }
}

#[test]
fn relation_accuracy_is_high_and_rows_complete() {
    let fx = fixture(ObjectKind::Komondor);
    let r = execute(
        &fx,
        "SELECT * FROM f WHERE contains_object(komondor)",
        Scenario::Camera,
    );
    let rel = &r.relations[0];
    assert_eq!(rel.rows.len(), fx.corpus.len());
    assert!(rel.accuracy > 0.8, "relation accuracy {}", rel.accuracy);
    // Level histogram covers every classified item exactly once.
    let total: u64 = rel.level_histogram.iter().sum();
    assert_eq!(total as usize, rel.rows.len());
}

#[test]
fn simulated_time_respects_scenario_ordering() {
    let fx = fixture(ObjectKind::Scorpion);
    let sql = "SELECT * FROM f WHERE contains_object(scorpion)";
    let infer = execute(&fx, sql, Scenario::InferOnly);
    let ongoing = execute(&fx, sql, Scenario::Ongoing);
    let archive = execute(&fx, sql, Scenario::Archive);
    let t = |r: &QueryResult| r.relations[0].simulated_time_s;
    assert!(t(&infer) < t(&ongoing), "INFER-ONLY should be cheapest");
    assert!(
        t(&ongoing) < t(&archive),
        "ARCHIVE should be most expensive"
    );
}

#[test]
fn query_results_are_deterministic() {
    let fx = fixture(ObjectKind::Wallet);
    let sql = "SELECT * FROM f WHERE contains_object(wallet) AND camera <= 5";
    let a = execute(&fx, sql, Scenario::Ongoing);
    let b = execute(&fx, sql, Scenario::Ongoing);
    assert_eq!(a.matched_ids, b.matched_ids);
    assert_eq!(
        a.relations[0].simulated_time_s,
        b.relations[0].simulated_time_s
    );
}

#[test]
fn conjunction_short_circuit_strictly_reduces_scored_items() {
    // A two-content-predicate query through the vectorized executor: the
    // later predicate evaluates only the earlier one's survivors, so fewer
    // rows are scored than both predicates over every survivor, while
    // `matched_ids` equals brute force's exactly.
    let fx = fixture(ObjectKind::Fence);
    let query =
        Query::parse("SELECT * FROM f WHERE contains_object(fence) AND contains_object(wallet)")
            .unwrap();
    let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
    let chosen = fx
        .system
        .select(
            &profiler,
            Constraints {
                max_accuracy_loss: Some(0.03),
                max_throughput_loss: None,
            },
        )
        .expect("feasible");
    let cost = CostContext::build(&fx.system.repo, &profiler);
    let executor = VectorizedExecutor::new(&fx.system.repo, &fx.system.thresholds, &cost);
    let mut cascades = BTreeMap::new();
    for &kind in &query.content {
        cascades.insert(kind, chosen.cascade);
    }

    let mut scorer = SurrogateBatchScorer::new(&fx.scorer, &fx.system.repo);
    let shortcut = executor
        .execute(&query, &fx.corpus, &cascades, &mut scorer)
        .expect("short-circuit executes");
    let item_scorer = SurrogateItemScorer {
        scorer: &fx.scorer,
        repo: &fx.system.repo,
    };
    common::assert_execute_matches_brute_force(
        &executor,
        &query,
        &fx.corpus,
        &cascades,
        &item_scorer,
        &shortcut,
    );

    assert!(
        !shortcut.matched_ids.is_empty(),
        "query should match something"
    );
    let scored: usize = shortcut.relations.iter().map(|rel| rel.rows.len()).sum();
    let full = query.content.len() * shortcut.metadata_survivors;
    assert!(
        scored < full,
        "short-circuit scored {scored} rows, every predicate over every survivor {full}"
    );
}

#[test]
fn missing_cascade_for_predicate_is_an_error() {
    let fx = fixture(ObjectKind::Fence);
    let query = Query::parse("SELECT * FROM f WHERE contains_object(acorn)").unwrap();
    let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
    let cost = CostContext::build(&fx.system.repo, &profiler);
    let executor = VectorizedExecutor::new(&fx.system.repo, &fx.system.thresholds, &cost);
    let mut scorer = SurrogateBatchScorer::new(&fx.scorer, &fx.system.repo);
    let cascades = BTreeMap::new(); // no cascade registered for acorn
    assert!(executor
        .execute(&query, &fx.corpus, &cascades, &mut scorer)
        .is_err());
}
