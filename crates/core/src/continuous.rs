//! Continuous queries over live streams: sliding-window incremental
//! evaluation with per-tick result deltas.
//!
//! The paper optimizes predicates over a *static* archive, but its §III
//! ONGOING scenario is a stream: "video is continually ingested" and
//! transformed into stored representations at arrival time (§V's
//! ingest-time materialization — in this codebase,
//! `RepresentationStore::ingest` runs the lattice-planned transcode per
//! frame). This module adds the query half of that scenario: register a
//! query once, feed arriving items, and evaluate on sliding count windows
//! (RANGE/STEP, tick-driven, RSP-engine style) *incrementally*.
//!
//! The trick that makes incremental evaluation exact rather than
//! approximate is the same determinism the §IV cost model prices: a
//! cascade's decision for an item depends only on the (model, item) score
//! pairs, never on which other items share the batch. So on each window
//! slide only the newly-arrived items are scored through the cascade
//! (batched level-major, the PR 5 executor — §IV's batch pricing applies
//! to exactly these packs), newly-expired items are retired, and every
//! surviving decision carries over unchanged. The result set after any
//! tick is therefore *identical* — matched ids and deltas — to a
//! from-scratch re-evaluation of the whole window, while the work per tick
//! is proportional to STEP instead of RANGE. At the RANGE ≥ 4×STEP shapes
//! the bench gates, that is the whole speedup.
//!
//! Window semantics (count-based, the RSP RANGE/STEP template):
//!
//! * arrivals are numbered 0, 1, 2, … in ingest order (the *arrival
//!   position* — ids may arrive in any order);
//! * after `t` ticks the window covers arrival positions
//!   `[max(0, t·STEP − RANGE), t·STEP)`;
//! * [`ContinuousExecutor::tick`] requires its `STEP` new arrivals to have
//!   been ingested first (the serve layer drives ingest and tick from the
//!   same request, so this is structural there);
//! * with `STEP > RANGE` the positions that fall in the gap between
//!   consecutive windows are never scored at all.
//!
//! Each tick emits a [`TickDeltas`]: `+id` for newly matched items, `-id`
//! for expired ones, in arrival order. Ids must be unique among in-window
//! items for the deltas to be meaningful (streams satisfy this by
//! construction: one id per frame).
//!
//! This module owns the *window* — which items enter, which expire, which
//! decisions carry over — and nothing else. Deciding a set of items is
//! [`crate::exec::run_conjunction`], the walk an ad-hoc query runs over the
//! corpus: [`ContinuousExecutor::tick`] hands it the tick's entrants and
//! [`ContinuousExecutor::rescan`] the whole window, with the registered
//! steps in query order and the caller's evaluation closure — so a serving
//! layer routes each kind to its own backend and threads its own error
//! type through ([`ContinuousExecutor::tick_batched`] is the single-backend
//! convenience of tests and benches). `rescan() == matched()` after every
//! tick is this module's correctness bar, enforced by
//! `tests/continuous_proptests.rs` against a brute force over the
//! item-at-a-time reference walk
//! ([`VectorizedExecutor::run_cascade_reference`] per predicate over every
//! window item, `HashSet` intersection).

use crate::cascade::Cascade;
use crate::error::CoreError;
use crate::exec::{run_conjunction, BatchScorer, VectorizedExecutor};
use crate::query::{CorpusItem, Query};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use tahoma_imagery::ObjectKind;

/// A sliding count window: every tick advances the window end by `step`
/// arrivals; the window covers the last `range` arrivals before the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    range: u64,
    step: u64,
}

impl WindowSpec {
    /// Validate `RANGE`/`STEP`; both must be ≥ 1. `STEP > RANGE` is legal
    /// (sampled windows with gaps).
    pub fn new(range: u64, step: u64) -> Result<WindowSpec, CoreError> {
        if range == 0 || step == 0 {
            return Err(CoreError::Window(format!(
                "RANGE and STEP must be >= 1 (got RANGE {range} STEP {step})"
            )));
        }
        Ok(WindowSpec { range, step })
    }

    /// Window width in arrivals.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Arrivals consumed per tick.
    pub fn step(&self) -> u64 {
        self.step
    }
}

/// One tick's result delta: what entered and left the matched set when the
/// window slid, plus the incremental work accounting the bench reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickDeltas {
    /// 1-based tick number.
    pub tick: u64,
    /// Window coverage in arrival positions, `[start, end)`.
    pub window_start: u64,
    /// Exclusive window end (equals `tick * step`).
    pub window_end: u64,
    /// Ids newly matched this tick, in arrival order.
    pub added: Vec<u64>,
    /// Previously matched ids that expired out of the window, in arrival
    /// order.
    pub removed: Vec<u64>,
    /// Matched items currently in the window (after this slide).
    pub matched: usize,
    /// Items that entered the window this tick.
    pub entered: usize,
    /// Cascade rows scored this tick (one per surviving item per content
    /// predicate) — the incremental cost the RANGE-sized rescan avoids.
    pub scored: usize,
}

/// An in-window item: its arrival position, the item itself (retained so
/// [`ContinuousExecutor::rescan`] can re-derive everything from scratch),
/// and its carried decision.
#[derive(Debug, Clone)]
struct WindowEntry {
    pos: u64,
    item: CorpusItem,
    passes: bool,
}

/// A registered standing query with its window state. See the module docs
/// for semantics; drive it with [`ContinuousExecutor::ingest`] +
/// [`ContinuousExecutor::tick`].
#[derive(Debug)]
pub struct ContinuousExecutor {
    query: Query,
    /// The registered plan: one `(kind, cascade)` step per content
    /// predicate, in query order.
    steps: Vec<(ObjectKind, Cascade)>,
    window: WindowSpec,
    /// Arrivals not yet consumed by a tick, FIFO; front position is
    /// `next_pos - pending.len()`.
    pending: VecDeque<CorpusItem>,
    /// Position the next ingested arrival gets.
    next_pos: u64,
    /// In-window items with carried decisions, ascending position.
    entries: VecDeque<WindowEntry>,
    /// Exclusive end of the current window (`ticks * step`).
    end: u64,
    ticks: u64,
    scored_total: u64,
}

impl ContinuousExecutor {
    /// Register a standing query. Every content predicate must have a
    /// cascade in `cascades` (the plan made at registration time — the
    /// serve layer takes these from its plan cache).
    pub fn register(
        query: Query,
        cascades: BTreeMap<ObjectKind, Cascade>,
        window: WindowSpec,
    ) -> Result<ContinuousExecutor, CoreError> {
        let steps = query
            .content
            .iter()
            .map(|kind| match cascades.get(kind) {
                Some(&cascade) => Ok((*kind, cascade)),
                None => Err(CoreError::Window(format!(
                    "no cascade registered for content predicate '{}'",
                    kind.name()
                ))),
            })
            .collect::<Result<_, _>>()?;
        Ok(ContinuousExecutor {
            query,
            steps,
            window,
            pending: VecDeque::new(),
            next_pos: 0,
            entries: VecDeque::new(),
            end: 0,
            ticks: 0,
            scored_total: 0,
        })
    }

    /// The registered query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The window specification.
    pub fn window(&self) -> WindowSpec {
        self.window
    }

    /// Feed one arrival. Items are buffered (unscored) until a tick slides
    /// the window over their position.
    pub fn ingest(&mut self, item: CorpusItem) {
        self.pending.push_back(item);
        self.next_pos += 1;
    }

    /// Total arrivals ingested so far.
    pub fn arrived(&self) -> u64 {
        self.next_pos
    }

    /// Ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Total cascade rows scored across all ticks (the incremental cost).
    pub fn scored_total(&self) -> u64 {
        self.scored_total
    }

    /// Currently matched ids, in arrival order.
    pub fn matched(&self) -> Vec<u64> {
        self.entries
            .iter()
            .filter(|e| e.passes)
            .map(|e| e.item.id)
            .collect()
    }

    /// Items currently in the window, in arrival order.
    pub fn window_len(&self) -> usize {
        self.entries.len()
    }

    /// Slide the window one STEP. Only items entering the window are
    /// scored (through `eval`, once per content predicate over the
    /// surviving pack); expired items are retired; every other decision
    /// carries over. Requires the tick's `STEP` arrivals to be ingested.
    ///
    /// Failure-atomic: if `eval` returns an error, no window state has
    /// changed — arrivals stay pending, decisions stay carried — so the
    /// identical tick can be retried (the serve layer's degraded-stream
    /// recovery depends on this; see RELIABILITY.md).
    ///
    /// `eval` is [`run_conjunction`]'s evaluation seam: it receives the
    /// predicate kind, its registered cascade, and the pack of surviving
    /// items, and returns one pass/fail per pack item — it must be
    /// deterministic per (kind, item) for the incremental ≡ rescan
    /// guarantee to hold (every scorer in this workspace is). Its error
    /// type is the caller's; the executor's own failures convert into it.
    pub fn tick<E: From<CoreError>>(
        &mut self,
        eval: impl FnMut(ObjectKind, Cascade, &[&CorpusItem]) -> Result<Vec<bool>, E>,
    ) -> Result<TickDeltas, E> {
        let end = self.end + self.window.step;
        if self.next_pos < end {
            return Err(CoreError::Window(format!(
                "tick {} needs {} arrivals, only {} ingested",
                self.ticks + 1,
                end,
                self.next_pos
            ))
            .into());
        }
        let start = end.saturating_sub(self.window.range);

        // Plan the slide without mutating anything: which entries expire
        // (ascending positions, all at the front), how many gap arrivals
        // to drop (STEP > RANGE: positions no window ever covers), and
        // which pending arrivals enter this window.
        let n_expired = self.entries.iter().take_while(|e| e.pos < start).count();
        let removed: Vec<u64> = self
            .entries
            .iter()
            .take(n_expired)
            .filter(|e| e.passes)
            .map(|e| e.item.id)
            .collect();
        let front_pos = self.next_pos - self.pending.len() as u64;
        let n_gap = (start.saturating_sub(front_pos) as usize).min(self.pending.len());
        let entrant_pos = front_pos + n_gap as u64;
        let n_entrants = (end.saturating_sub(entrant_pos) as usize).min(self.pending.len() - n_gap);

        // Decide the entrants in place. A failure here — the `?` — leaves
        // the executor bit-for-bit untouched, so the serve layer can retry
        // the same tick idempotently (RELIABILITY.md).
        let items: Vec<&CorpusItem> = self.pending.iter().skip(n_gap).take(n_entrants).collect();
        let walk = run_conjunction(&self.query.metadata, &self.steps, &items, eval)?;
        drop(items);
        let (passes, scored) = (walk.passes, walk.scored);

        // Eval succeeded: commit the slide.
        self.entries.drain(..n_expired);
        self.pending.drain(..n_gap);
        let mut added = Vec::new();
        for (k, pass) in passes.iter().enumerate() {
            let item = self.pending.pop_front().expect("entrants counted above");
            if *pass {
                added.push(item.id);
            }
            self.entries.push_back(WindowEntry {
                pos: entrant_pos + k as u64,
                item,
                passes: *pass,
            });
        }
        let entered = n_entrants;

        self.end = end;
        self.ticks += 1;
        self.scored_total += scored as u64;
        Ok(TickDeltas {
            tick: self.ticks,
            window_start: start,
            window_end: end,
            added,
            removed,
            matched: self.entries.iter().filter(|e| e.passes).count(),
            entered,
            scored,
        })
    }

    /// [`ContinuousExecutor::tick`] through one [`VectorizedExecutor`] and
    /// one [`BatchScorer`] for every predicate — the single-backend path
    /// used by tests and benches.
    pub fn tick_batched(
        &mut self,
        exec: &VectorizedExecutor<'_>,
        scorer: &mut dyn BatchScorer,
    ) -> Result<TickDeltas, CoreError> {
        self.tick(|kind, cascade, pack| {
            Ok(exec
                .run_cascade_batched(kind, cascade, pack, scorer)?
                .passes())
        })
    }

    /// Re-evaluate the current window from scratch (every in-window item
    /// through metadata + every cascade pack), ignoring all carried
    /// decisions. Returns matched ids in arrival order. This is the
    /// RANGE-sized cost the incremental path avoids — and the equivalence
    /// oracle: `rescan() == matched()` always.
    pub fn rescan<E: From<CoreError>>(
        &self,
        eval: impl FnMut(ObjectKind, Cascade, &[&CorpusItem]) -> Result<Vec<bool>, E>,
    ) -> Result<Vec<u64>, E> {
        let items: Vec<&CorpusItem> = self.entries.iter().map(|e| &e.item).collect();
        Ok(run_conjunction(&self.query.metadata, &self.steps, &items, eval)?.matched_ids(&items))
    }

    /// [`ContinuousExecutor::rescan`] through one executor + scorer.
    pub fn rescan_batched(
        &self,
        exec: &VectorizedExecutor<'_>,
        scorer: &mut dyn BatchScorer,
    ) -> Result<Vec<u64>, CoreError> {
        self.rescan(|kind, cascade, pack| {
            Ok(exec
                .run_cascade_batched(kind, cascade, pack, scorer)?
                .passes())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::CostContext;
    use crate::exec::ItemScorerBatchAdapter;
    use crate::query::{Corpus, ItemScorer};
    use crate::thresholds::{DecisionThresholds, ThresholdTable};
    use std::collections::HashSet;
    use tahoma_costmodel::{AnalyticProfiler, DeviceProfile, Scenario};
    use tahoma_mathx::DetRng;
    use tahoma_zoo::repository::{build_surrogate_repository, SurrogateBuildConfig};
    use tahoma_zoo::{ModelId, ModelRepository, PredicateSpec};

    /// Deterministic pseudo-random scorer (same shape as the exec
    /// property-test scorer): score depends only on (model, item id).
    struct HashScorer {
        seed: u64,
    }

    impl ItemScorer for HashScorer {
        fn score(&self, model: ModelId, item: &CorpusItem) -> f32 {
            let mut rng = DetRng::from_coords(self.seed ^ ((model.0 as u64) << 32), item.id);
            rng.uniform() as f32
        }
    }

    fn fixture() -> (ModelRepository, ThresholdTable, CostContext) {
        let repo = build_surrogate_repository(
            PredicateSpec::for_kind(ObjectKind::Fence),
            &SurrogateBuildConfig {
                n_config: 120,
                n_eval: 150,
                seed: 0xC0F1,
                variants: Some(
                    tahoma_zoo::variant::paper_variants()
                        .into_iter()
                        .step_by(23)
                        .collect(),
                ),
                ..Default::default()
            },
            &DeviceProfile::k80(),
        );
        let thresholds = ThresholdTable {
            settings: vec![0.95],
            per_model: vec![
                vec![DecisionThresholds {
                    p_low: 0.3,
                    p_high: 0.7,
                }];
                repo.len()
            ],
        };
        let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
        let cost = CostContext::build(&repo, &profiler);
        (repo, thresholds, cost)
    }

    fn standing(range: u64, step: u64) -> (ContinuousExecutor, Corpus) {
        let query =
            Query::parse("SELECT * FROM frames WHERE contains_object(fence)").expect("parses");
        let mut cascades = BTreeMap::new();
        cascades.insert(ObjectKind::Fence, Cascade::new(&[(0, 0), (3, 0)]));
        let window = WindowSpec::new(range, step).expect("valid");
        let exec = ContinuousExecutor::register(query, cascades, window).expect("registers");
        let corpus = Corpus::synthetic(256, 0.4, 0x7E57);
        (exec, corpus)
    }

    #[test]
    fn window_spec_validates() {
        assert!(WindowSpec::new(0, 1).is_err());
        assert!(WindowSpec::new(1, 0).is_err());
        assert!(WindowSpec::new(4, 8).is_ok(), "gaps are legal");
    }

    #[test]
    fn register_requires_cascades() {
        let query =
            Query::parse("SELECT * FROM frames WHERE contains_object(acorn)").expect("parses");
        let err = ContinuousExecutor::register(
            query,
            BTreeMap::new(),
            WindowSpec::new(4, 2).expect("valid"),
        );
        assert!(err.is_err());
    }

    #[test]
    fn tick_ahead_of_arrivals_errors() {
        let (mut cx, corpus) = standing(8, 4);
        let (repo, thresholds, cost) = fixture();
        let exec = VectorizedExecutor::new(&repo, &thresholds, &cost);
        let scorer = HashScorer { seed: 1 };
        let mut adapter = ItemScorerBatchAdapter(&scorer);
        for item in corpus.items.iter().take(3) {
            cx.ingest(item.clone());
        }
        assert!(matches!(
            cx.tick_batched(&exec, &mut adapter),
            Err(CoreError::Window(_))
        ));
        cx.ingest(corpus.items[3].clone());
        assert!(cx.tick_batched(&exec, &mut adapter).is_ok());
    }

    #[test]
    fn incremental_equals_rescan_and_reference() {
        let (mut cx, corpus) = standing(16, 4);
        let (repo, thresholds, cost) = fixture();
        let exec = VectorizedExecutor::new(&repo, &thresholds, &cost);
        let scorer = HashScorer { seed: 0xAB };
        let mut prev: Vec<u64> = Vec::new();
        let mut feed = corpus.items.iter();
        for tick in 1..=20u64 {
            let mut cxadapter = ItemScorerBatchAdapter(&scorer);
            for _ in 0..4 {
                cx.ingest(feed.next().expect("corpus big enough").clone());
            }
            let d = cx.tick_batched(&exec, &mut cxadapter).expect("ticks");
            assert_eq!(d.tick, tick);
            let matched = cx.matched();
            assert_eq!(matched.len(), d.matched);
            // Deltas reconstruct the matched set from the previous one.
            let mut rebuilt: Vec<u64> = prev
                .iter()
                .filter(|id| !d.removed.contains(id))
                .copied()
                .collect();
            rebuilt.extend(&d.added);
            assert_eq!(rebuilt, matched, "tick {tick} deltas");
            // From-scratch rescan through the batched path agrees.
            let mut fresh = ItemScorerBatchAdapter(&scorer);
            assert_eq!(
                cx.rescan_batched(&exec, &mut fresh).expect("rescan"),
                matched
            );
            // And so does brute force over the window: metadata filter, the
            // item-at-a-time reference per predicate over every item, sets.
            let window: Vec<&CorpusItem> = cx.entries.iter().map(|e| &e.item).collect();
            let mut expected: HashSet<u64> = window
                .iter()
                .filter(|item| cx.query().metadata.iter().all(|p| p.holds(item)))
                .map(|item| item.id)
                .collect();
            for &(kind, cascade) in &cx.steps {
                let relation = exec
                    .run_cascade_reference(kind, cascade, &window, &scorer)
                    .expect("reference runs");
                let pass: HashSet<u64> = relation
                    .rows
                    .iter()
                    .filter(|r| r.value)
                    .map(|r| r.id)
                    .collect();
                expected.retain(|id| pass.contains(id));
            }
            let reference: Vec<u64> = window
                .iter()
                .map(|item| item.id)
                .filter(|id| expected.contains(id))
                .collect();
            assert_eq!(reference, matched, "tick {tick} vs reference");
            prev = matched;
        }
        assert!(cx.scored_total() > 0);
    }

    #[test]
    fn gap_windows_skip_unseen_positions() {
        // STEP 8 > RANGE 2: only the last 2 arrivals of each step are ever
        // scored; the executor must neither score nor retain the gap.
        let (mut cx, corpus) = standing(2, 8);
        let (repo, thresholds, cost) = fixture();
        let exec = VectorizedExecutor::new(&repo, &thresholds, &cost);
        let scorer = HashScorer { seed: 7 };
        let mut adapter = ItemScorerBatchAdapter(&scorer);
        for item in corpus.items.iter().take(16) {
            cx.ingest(item.clone());
        }
        let d1 = cx.tick_batched(&exec, &mut adapter).expect("tick 1");
        assert_eq!((d1.window_start, d1.window_end), (6, 8));
        assert_eq!(d1.entered, 2);
        assert!(cx.window_len() <= 2);
        let d2 = cx.tick_batched(&exec, &mut adapter).expect("tick 2");
        assert_eq!((d2.window_start, d2.window_end), (14, 16));
        assert_eq!(d2.entered, 2);
        // Everything from the first window expired.
        let expired: Vec<u64> = d1.added;
        assert_eq!(d2.removed, expired);
    }

    #[test]
    fn metadata_predicates_filter_before_scoring() {
        let query =
            Query::parse("SELECT * FROM frames WHERE camera = 1 AND contains_object(fence)")
                .expect("parses");
        let mut cascades = BTreeMap::new();
        cascades.insert(ObjectKind::Fence, Cascade::new(&[(0, 0)]));
        let mut cx =
            ContinuousExecutor::register(query, cascades, WindowSpec::new(8, 8).expect("valid"))
                .expect("registers");
        let corpus = Corpus::synthetic(8, 0.5, 3);
        for item in &corpus.items {
            cx.ingest(item.clone());
        }
        let expected_meta: Vec<u64> = corpus
            .items
            .iter()
            .filter(|i| i.camera == 1)
            .map(|i| i.id)
            .collect();
        // A pass-everything eval: matched == metadata survivors, and the
        // pack never contains a metadata-failing item.
        let d = cx
            .tick(|_, _, pack| {
                assert!(pack.iter().all(|i| i.camera == 1));
                Ok::<_, CoreError>(vec![true; pack.len()])
            })
            .expect("ticks");
        assert_eq!(d.added, expected_meta);
    }
}
