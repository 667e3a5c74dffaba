//! Ingest-time materialization pipeline — the paper's §III ONGOING
//! scenario, end to end:
//!
//! 1. frames are ingested: the representation store materializes the small
//!    physical representations models will want (real bytes, real codec);
//! 2. a content query runs a fast selected cascade over the corpus through
//!    the vectorized executor, priced under ONGOING;
//! 3. a multi-predicate plan orders its predicates by cost-per-rejection
//!    (§IV future work).
//!
//! ```text
//! cargo run --release --example ingest_pipeline
//! ```

use tahoma::core::evaluator::CostContext;
use tahoma::core::exec::{SurrogateBatchScorer, VectorizedExecutor};
use tahoma::core::planner::{expected_conjunction_cost_s, order_predicates, PlannedPredicate};
use tahoma::imagery::{RepresentationStore, SceneParams, SceneRenderer};
use tahoma::prelude::*;

fn main() {
    // --- 1. Representation store: materialize small reps at ingest -------
    let reps = vec![
        Representation::new(30, ColorMode::Gray),
        Representation::new(60, ColorMode::Rgb),
    ];
    let rep_store = RepresentationStore::temporary(reps).expect("temporary store");
    let renderer = SceneRenderer::new(ObjectKind::Fence, SceneParams::default(), 99);
    for id in 0..24 {
        let (frame, _) = renderer.render(id, id % 3 == 0);
        rep_store.ingest(id, &frame).expect("ingest succeeds");
    }
    println!(
        "representation store: {} frames x {} reps = {} KB total \
         ({:.2}x one compressed full frame per frame)",
        rep_store.frames(),
        rep_store.representations().len(),
        rep_store.total_bytes() / 1024,
        rep_store.amplification_vs(60_000),
    );

    // --- 2. Query time: one content predicate over the corpus ----------
    let pred = PredicateSpec::for_kind(ObjectKind::Fence);
    let cfg = SurrogateBuildConfig {
        n_config: 300,
        n_eval: 400,
        seed: 404,
        variants: Some(paper_variants().into_iter().step_by(8).collect()),
        ..Default::default()
    };
    let scorer = SurrogateScorer {
        pred,
        params: cfg.params,
        seed: cfg.seed,
    };
    let repo = build_surrogate_repository(pred, &cfg, &DeviceProfile::k80());
    let system = tahoma::core::pipeline::TahomaSystem::initialize_paper_main(repo);
    let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
    let cost = CostContext::build(&system.repo, &profiler);
    let select = |max_loss: f64| {
        system
            .select(
                &profiler,
                Constraints {
                    max_accuracy_loss: Some(max_loss),
                    max_throughput_loss: None,
                },
            )
            .expect("feasible")
    };
    let accurate = select(0.0);
    let fast = select(0.05);
    println!(
        "\nfast cascade ({}): {:.0} fps @ accuracy {:.3}",
        fast.description, fast.throughput, fast.accuracy
    );

    let corpus = Corpus::synthetic(5000, 0.25, 42);
    let query = Query::parse("SELECT * FROM frames WHERE contains_object(fence)").expect("parses");
    let cascades = [(ObjectKind::Fence, fast.cascade)].into_iter().collect();
    let result = VectorizedExecutor::new(&system.repo, &system.thresholds, &cost)
        .execute(
            &query,
            &corpus,
            &cascades,
            &mut SurrogateBatchScorer::new(&scorer, &system.repo),
        )
        .expect("query executes");
    let positives = result.matched_ids.len();
    println!(
        "query over {} frames: {positives} positives, {:.3} simulated s",
        corpus.len(),
        result.relations[0].simulated_time_s
    );

    // --- 3. Multi-predicate ordering (§IV future work) -------------------
    // Three predicates with different costs and selectivities; the planner
    // runs cheap, selective ones first.
    let plans = vec![
        PlannedPredicate {
            kind: ObjectKind::Fence,
            cascade: fast.cascade,
            expected_cost_s: 1.0 / fast.throughput,
            selectivity: positives as f64 / corpus.len() as f64,
        },
        PlannedPredicate {
            kind: ObjectKind::Komondor,
            cascade: accurate.cascade,
            expected_cost_s: 1.0 / accurate.throughput,
            selectivity: 0.25,
        },
        PlannedPredicate {
            kind: ObjectKind::Wallet,
            cascade: fast.cascade,
            expected_cost_s: 2.0 / fast.throughput,
            selectivity: 0.9, // rejects little: should run last
        },
    ];
    let naive_cost = expected_conjunction_cost_s(&plans);
    let ordered = order_predicates(plans);
    let planned_cost = expected_conjunction_cost_s(&ordered);
    println!("\nconjunctive plan order:");
    for p in &ordered {
        println!(
            "  contains_object({}) — {:.2} ms/item, selectivity {:.2}",
            p.kind,
            p.expected_cost_s * 1e3,
            p.selectivity
        );
    }
    println!(
        "expected per-item cost: {:.3} ms ordered vs {:.3} ms naive ({:.0}% saved)",
        planned_cost * 1e3,
        naive_cost * 1e3,
        (1.0 - planned_cost / naive_cost) * 100.0
    );
}
