//! Materialized predicate relations with trigger-style incremental ingest —
//! the paper's RDBMS integration sketch (§V-A): "UDF output could be stored
//! as a partially materialized table, enabling further query optimization
//! [...] database triggers could be used to execute the TAHOMA UDFs over
//! newly ingested data [...] In such situations, slower processing may be
//! tolerated for more accurate results, allowing a different Pareto-optimal
//! cascade choice than at query time."
//!
//! [`MaterializedStore`] caches per-(predicate, image) classification
//! results. A query first consults the store and classifies only the
//! *misses* (the partially-materialized-table read path); an
//! [`IngestTrigger`] classifies newly ingested items eagerly with its own —
//! typically slower, more accurate — cascade (the trigger write path).

use crate::cascade::Cascade;
use crate::evaluator::CostContext;
use crate::exec::validate_cascade;
use crate::query::{walk_cascade_item, CorpusItem, ItemScorer};
use crate::thresholds::ThresholdTable;
use std::collections::HashMap;
use tahoma_imagery::ObjectKind;
use tahoma_zoo::ModelRepository;

/// One cached classification result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaterializedRow {
    /// The predicate's value.
    pub value: bool,
    /// Deciding score.
    pub score: f32,
    /// Cascade level that decided.
    pub decided_at: u8,
}

/// Cache of predicate results keyed by (category, image id).
#[derive(Debug, Default)]
pub struct MaterializedStore {
    rows: HashMap<(ObjectKind, u64), MaterializedRow>,
    hits: u64,
    misses: u64,
}

impl MaterializedStore {
    /// Empty store.
    pub fn new() -> MaterializedStore {
        MaterializedStore::default()
    }

    /// Number of materialized rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing is materialized.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// (hits, misses) counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Lookup, counting hit/miss.
    pub fn get(&mut self, kind: ObjectKind, id: u64) -> Option<MaterializedRow> {
        match self.rows.get(&(kind, id)) {
            Some(row) => {
                self.hits += 1;
                Some(*row)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert or overwrite a row.
    pub fn put(&mut self, kind: ObjectKind, id: u64, row: MaterializedRow) {
        self.rows.insert((kind, id), row);
    }

    /// Drop every row for a category (e.g. after recalibrating its models).
    pub fn invalidate(&mut self, kind: ObjectKind) {
        self.rows.retain(|(k, _), _| *k != kind);
    }
}

/// Classify one item with a cascade, returning the row and simulated cost
/// ([`walk_cascade_item`], the same item-at-a-time walk the reference
/// executor loops). Shared by the trigger (eager path) and the query-time
/// miss path.
pub fn classify_item(
    repo: &ModelRepository,
    thresholds: &ThresholdTable,
    cost: &CostContext,
    cascade: &Cascade,
    scorer: &dyn ItemScorer,
    item: &CorpusItem,
) -> (MaterializedRow, f64) {
    debug_assert!(validate_cascade(repo, cascade).is_ok());
    let (d, time) = walk_cascade_item(thresholds, cost, cascade, scorer, item);
    (
        MaterializedRow {
            value: d.value,
            score: d.score,
            decided_at: d.level,
        },
        time,
    )
}

/// Trigger that classifies newly ingested items into the store, §V-A style:
/// it may use a slower, more accurate cascade than query time would pick.
pub struct IngestTrigger<'a> {
    repo: &'a ModelRepository,
    thresholds: &'a ThresholdTable,
    cost: &'a CostContext,
    kind: ObjectKind,
    cascade: Cascade,
    ingested: u64,
    simulated_time_s: f64,
}

impl<'a> IngestTrigger<'a> {
    /// Create a trigger for one predicate.
    pub fn new(
        repo: &'a ModelRepository,
        thresholds: &'a ThresholdTable,
        cost: &'a CostContext,
        kind: ObjectKind,
        cascade: Cascade,
    ) -> IngestTrigger<'a> {
        IngestTrigger {
            repo,
            thresholds,
            cost,
            kind,
            cascade,
            ingested: 0,
            simulated_time_s: 0.0,
        }
    }

    /// Fire on one newly ingested item: classify and materialize.
    pub fn on_insert(
        &mut self,
        store: &mut MaterializedStore,
        scorer: &dyn ItemScorer,
        item: &CorpusItem,
    ) {
        let (row, t) = classify_item(
            self.repo,
            self.thresholds,
            self.cost,
            &self.cascade,
            scorer,
            item,
        );
        store.put(self.kind, item.id, row);
        self.ingested += 1;
        self.simulated_time_s += t;
    }

    /// (items ingested, simulated seconds spent).
    pub fn stats(&self) -> (u64, f64) {
        (self.ingested, self.simulated_time_s)
    }
}

/// Query-time read path: serve from the store, classify only misses with
/// the query-time cascade, materializing their results for next time.
/// Returns (rows in item order, simulated seconds spent on misses).
#[allow(clippy::too_many_arguments)]
pub fn read_through(
    store: &mut MaterializedStore,
    repo: &ModelRepository,
    thresholds: &ThresholdTable,
    cost: &CostContext,
    kind: ObjectKind,
    cascade: &Cascade,
    scorer: &dyn ItemScorer,
    items: &[&CorpusItem],
) -> (Vec<MaterializedRow>, f64) {
    let mut out = Vec::with_capacity(items.len());
    let mut time = 0.0f64;
    for item in items {
        let row = match store.get(kind, item.id) {
            Some(row) => row,
            None => {
                let (row, t) = classify_item(repo, thresholds, cost, cascade, scorer, item);
                time += t;
                store.put(kind, item.id, row);
                row
            }
        };
        out.push(row);
    }
    (out, time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BuilderConfig;
    use crate::pipeline::TahomaSystem;
    use crate::query::{Corpus, SurrogateItemScorer};
    use tahoma_costmodel::{AnalyticProfiler, Scenario};
    use tahoma_zoo::repository::{build_surrogate_repository, SurrogateBuildConfig};
    use tahoma_zoo::{PredicateSpec, SurrogateScorer};

    struct Fixture {
        system: TahomaSystem,
        scorer: SurrogateScorer,
        corpus: Corpus,
        cost: CostContext,
    }

    fn fixture() -> Fixture {
        let pred = PredicateSpec::for_kind(ObjectKind::Fence);
        let cfg = SurrogateBuildConfig {
            n_config: 150,
            n_eval: 200,
            seed: 33,
            variants: Some(
                tahoma_zoo::variant::paper_variants()
                    .into_iter()
                    .step_by(20)
                    .collect(),
            ),
            ..Default::default()
        };
        let scorer = SurrogateScorer {
            pred,
            params: cfg.params,
            seed: cfg.seed,
        };
        let repo = build_surrogate_repository(pred, &cfg, &tahoma_costmodel::DeviceProfile::k80());
        let builder = BuilderConfig {
            n_settings: 2,
            ..BuilderConfig::paper_main(&repo)
        };
        let system = TahomaSystem::initialize(repo, &[0.95, 0.99], &builder);
        let cost = CostContext::build(
            &system.repo,
            &AnalyticProfiler::paper_testbed(Scenario::Ongoing),
        );
        Fixture {
            scorer,
            corpus: Corpus::synthetic(300, 0.3, 12),
            cost,
            system,
        }
    }

    #[test]
    fn read_through_materializes_and_then_hits() {
        let fx = fixture();
        let mut store = MaterializedStore::new();
        let scorer = SurrogateItemScorer {
            scorer: &fx.scorer,
            repo: &fx.system.repo,
        };
        let cascade = Cascade::new(&[(0, 1), (1, 0)]);
        let items: Vec<&CorpusItem> = fx.corpus.items.iter().collect();
        let (rows1, t1) = read_through(
            &mut store,
            &fx.system.repo,
            &fx.system.thresholds,
            &fx.cost,
            ObjectKind::Fence,
            &cascade,
            &scorer,
            &items,
        );
        assert_eq!(rows1.len(), items.len());
        assert_eq!(store.len(), items.len());
        assert!(t1 > 0.0);
        // Second read: all hits, zero classification time, identical rows.
        let (rows2, t2) = read_through(
            &mut store,
            &fx.system.repo,
            &fx.system.thresholds,
            &fx.cost,
            ObjectKind::Fence,
            &cascade,
            &scorer,
            &items,
        );
        assert_eq!(rows1, rows2);
        assert_eq!(t2, 0.0);
        let (hits, misses) = store.stats();
        assert_eq!(misses, items.len() as u64);
        assert_eq!(hits, items.len() as u64);
    }

    #[test]
    fn trigger_prematerializes_for_query_time() {
        let fx = fixture();
        let mut store = MaterializedStore::new();
        let scorer = SurrogateItemScorer {
            scorer: &fx.scorer,
            repo: &fx.system.repo,
        };
        // Trigger uses a slower, more accurate cascade (§V-A).
        let resnet = fx.system.repo.resnet.unwrap().0 as u16;
        let trigger_cascade = Cascade::new(&[(0, 1), (resnet, 0)]);
        let mut trigger = IngestTrigger::new(
            &fx.system.repo,
            &fx.system.thresholds,
            &fx.cost,
            ObjectKind::Fence,
            trigger_cascade,
        );
        for item in &fx.corpus.items {
            trigger.on_insert(&mut store, &scorer, item);
        }
        let (ingested, trigger_time) = trigger.stats();
        assert_eq!(ingested, fx.corpus.len() as u64);
        assert!(trigger_time > 0.0);
        // Query time: everything is already materialized.
        let items: Vec<&CorpusItem> = fx.corpus.items.iter().collect();
        let query_cascade = Cascade::single(0);
        let (_, query_time) = read_through(
            &mut store,
            &fx.system.repo,
            &fx.system.thresholds,
            &fx.cost,
            ObjectKind::Fence,
            &query_cascade,
            &scorer,
            &items,
        );
        assert_eq!(query_time, 0.0, "all rows should be served from the store");
    }

    #[test]
    fn invalidation_clears_only_the_target_predicate() {
        let mut store = MaterializedStore::new();
        let row = MaterializedRow {
            value: true,
            score: 0.9,
            decided_at: 0,
        };
        store.put(ObjectKind::Fence, 1, row);
        store.put(ObjectKind::Acorn, 1, row);
        store.invalidate(ObjectKind::Fence);
        assert!(store.get(ObjectKind::Fence, 1).is_none());
        assert!(store.get(ObjectKind::Acorn, 1).is_some());
    }

    #[test]
    fn classify_item_matches_query_processor_costs() {
        // classify_item and QueryProcessor::run_cascade share the costing
        // rules: fixed once, reps deduped, inference per level.
        let fx = fixture();
        let scorer = SurrogateItemScorer {
            scorer: &fx.scorer,
            repo: &fx.system.repo,
        };
        let cascade = Cascade::new(&[(2, 0), (5, 0)]);
        let item = &fx.corpus.items[0];
        let (_, t) = classify_item(
            &fx.system.repo,
            &fx.system.thresholds,
            &fx.cost,
            &cascade,
            &scorer,
            item,
        );
        // Lower bound: fixed + first-level inference + its rep.
        let lb = fx.cost.fixed_s + fx.cost.infer_s[2] + fx.cost.rep_marginal_s[2];
        assert!(t >= lb - 1e-15);
    }
}
