//! Query execution: the one conjunction walk, the level-major cascade
//! driver under it, and the batch scoring backends.
//!
//! §IV's cost model prices one thing — an item climbing a cascade's level
//! prefix, predicates evaluated cheapest-first over a shrinking survivor
//! set — and this module holds the one implementation of each half:
//!
//! * **The conjunction walk** ([`run_conjunction`]): metadata filter, then
//!   each `(kind, cascade)` step in the caller's order over the shrinking
//!   survivor pack, through a caller-supplied evaluation seam. Its callers
//!   are every product path: [`VectorizedExecutor::execute`] (planner rank
//!   order), [`crate::continuous::ContinuousExecutor`] (query order, over a
//!   tick's entrants or a whole window) and the serving layer's ad-hoc
//!   `QUERY` (plan order over the corpus, the seam threading deadline,
//!   broker interest and per-kind backends). Scores are deterministic per
//!   (model, item), so the match set is invariant under step order
//!   (pinned against brute force in `tests/exec_proptests.rs`).
//! * **Level-major execution with survivor compaction**
//!   ([`run_level_major`] under [`VectorizedExecutor::run_cascade_batched`]):
//!   each cascade level scores the still-undecided items as one pack
//!   through a single [`BatchScorer`] call, thresholds apply over the whole
//!   score vector, and the pack is compacted in place. An item stopping at
//!   level *k* pays `fixed + Σ infer(0..=k) + Σ marginal(distinct reps in
//!   0..=k)`, so the walk is decision-for-decision *and* cost-for-cost
//!   identical to the item-at-a-time oracle
//!   ([`VectorizedExecutor::run_cascade_reference`]).
//! * **Batch scoring backends**: [`SurrogateBatchScorer`] hoists the
//!   per-(model, split) stream derivation out of the item loop;
//!   [`SharedNnScorer`] serves real CNN inference over a shared
//!   [`RepresentationStore`] and model zoo.
//!
//! Scoring is fallible: a backend that cannot produce a pack's scores
//! returns a [`CoreError`], which every caller above propagates as a value.
//! clippy denies `unwrap`, `expect` and the `panic!` family here outside
//! tests (policy in `SAFETY.md`).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

use crate::cascade::Cascade;
use crate::error::CoreError;
use crate::evaluator::{cascade_stats, CostContext};
use crate::planner::{order_indices, PlannedPredicate};
use crate::query::{
    walk_cascade_item, Corpus, CorpusItem, ItemScorer, MetaPredicate, PredicateRelation, Query,
    QueryResult, CORPUS_SCORE_SALT,
};
use crate::thresholds::ThresholdTable;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use tahoma_imagery::engine::{self, TranscodeEngine};
use tahoma_imagery::{Fetched, ObjectKind, Representation, RepresentationStore};
// Poison-tolerant: a lane that panicked mid-morsel leaves a tally
// the call is about to discard anyway (the panic re-raises on the owner).
use tahoma_mathx::lock;
use tahoma_nn::{RowSource, Sequential};
use tahoma_zoo::surrogate::{Split, VariantStream};
use tahoma_zoo::{ModelId, ModelRepository, SurrogateScorer};

// ---------------------------------------------------------------------------
// Batch scoring
// ---------------------------------------------------------------------------

/// One packed level's worth of still-undecided items.
#[derive(Clone, Copy)]
pub struct ScorePack<'a> {
    /// The packed items, in survivor (compaction) order.
    pub items: &'a [&'a CorpusItem],
    /// Index of each packed item within the full item slice the enclosing
    /// [`BatchScorer::begin_cascade`] saw — strictly increasing. `None`
    /// for packs scored outside an executor cascade run. Columnar backends
    /// use these to gather from per-cascade column arrays instead of
    /// chasing scattered item pointers.
    pub indices: Option<&'a [usize]>,
}

impl<'a> ScorePack<'a> {
    /// A standalone pack with no enclosing cascade context.
    pub fn standalone(items: &'a [&'a CorpusItem]) -> ScorePack<'a> {
        ScorePack {
            items,
            indices: None,
        }
    }
}

/// Scores a pack of items against one model in a single call — the
/// vectorized counterpart of [`ItemScorer`]. Implementations append exactly
/// `pack.items.len()` scores to `out` (the executor clears it first), in
/// pack order, and may keep mutable state (stream caches, column arrays,
/// decode pools, model activations) across calls. A backend that cannot
/// score the pack returns the reason; `out` is then unspecified.
pub trait BatchScorer {
    /// Called once before each cascade run with the cascade about to
    /// execute and the full item slice it will run over, so backends can
    /// hoist per-cascade state — variant streams, columnar copies of the
    /// per-item scoring fields, shared-representation plans — and reset
    /// per-run caches. The default does nothing.
    fn begin_cascade(&mut self, cascade: &Cascade, items: &[&CorpusItem]) {
        let _ = (cascade, items);
    }

    /// Append `model`'s score for every item of the pack to `out`.
    fn score_batch(
        &mut self,
        model: ModelId,
        pack: ScorePack<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), CoreError>;
}

/// Adapts any [`ItemScorer`] to the batch interface by looping it, so the
/// property suites can drive the vectorized executor and the item-at-a-time
/// reference with one scorer. Scores are trivially identical to the
/// wrapped scorer's.
pub struct ItemScorerBatchAdapter<'a>(pub &'a dyn ItemScorer);

impl BatchScorer for ItemScorerBatchAdapter<'_> {
    fn score_batch(
        &mut self,
        model: ModelId,
        pack: ScorePack<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), CoreError> {
        out.extend(pack.items.iter().map(|item| self.0.score(model, item)));
        Ok(())
    }
}

/// Surrogate-backed batch scorer: the vectorized counterpart of
/// [`crate::query::SurrogateItemScorer`], bit-identical to it score for
/// score. Two hoists make it fast:
///
/// * the per-(model, split) derivation — variant separation (seeded RNG
///   draw plus exponentials) and the noise-stream seed — happens once per
///   cascade level in [`BatchScorer::begin_cascade`], not per (item,
///   level);
/// * the per-item scoring fields (salted id, ground-truth label,
///   difficulty) are extracted into dense column arrays once per cascade,
///   so later levels gather 16-byte rows by survivor index instead of
///   re-chasing scattered `CorpusItem` heap structures — the
///   column-oriented execution shape the module docs cite.
pub struct SurrogateBatchScorer<'a> {
    scorer: &'a SurrogateScorer,
    repo: &'a ModelRepository,
    streams: Vec<(u32, VariantStream)>,
    /// Columnar (salted id, label, difficulty) rows for the cascade's full
    /// item slice, built in `begin_cascade`.
    cols: Vec<(u64, bool, f32)>,
}

impl<'a> SurrogateBatchScorer<'a> {
    /// Bind the predicate's surrogate family to the repository whose model
    /// ids cascades reference.
    pub fn new(scorer: &'a SurrogateScorer, repo: &'a ModelRepository) -> SurrogateBatchScorer<'a> {
        SurrogateBatchScorer {
            scorer,
            repo,
            streams: Vec::new(),
            cols: Vec::new(),
        }
    }

    fn stream_for(&mut self, model: ModelId) -> VariantStream {
        if let Some(&(_, s)) = self.streams.iter().find(|(id, _)| *id == model.0) {
            return s;
        }
        let s = self
            .scorer
            .variant_stream(&self.repo.entry(model).variant, Split::Eval);
        self.streams.push((model.0, s));
        s
    }
}

/// The (salted id, ground-truth label, difficulty) row a surrogate stream
/// scores an item from.
fn surrogate_row(item: &CorpusItem, kind: ObjectKind) -> (u64, bool, f32) {
    (
        item.id ^ CORPUS_SCORE_SALT,
        item.contains(kind),
        item.difficulty,
    )
}

impl BatchScorer for SurrogateBatchScorer<'_> {
    fn begin_cascade(&mut self, cascade: &Cascade, items: &[&CorpusItem]) {
        self.streams.clear();
        for l in 0..cascade.depth() {
            self.stream_for(ModelId(cascade.model_at(l) as u32));
        }
        self.cols.clear();
        // Column extraction pays for itself only when a later level will
        // re-gather survivors; a depth-1 cascade scores every item exactly
        // once, straight off the item refs.
        if cascade.depth() > 1 {
            let kind = self.scorer.pred.kind;
            self.cols
                .extend(items.iter().map(|item| surrogate_row(item, kind)));
        }
    }

    fn score_batch(
        &mut self,
        model: ModelId,
        pack: ScorePack<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), CoreError> {
        let stream = self.stream_for(model);
        match pack.indices {
            // Executor pack: gather the dense column rows by survivor index.
            Some(indices) if !self.cols.is_empty() => {
                stream.score_into(indices.iter().map(|&i| self.cols[i]), out);
            }
            // Standalone pack (or no begin_cascade yet): extract inline.
            _ => {
                let kind = self.scorer.pred.kind;
                stream.score_into(pack.items.iter().map(|item| surrogate_row(item, kind)), out);
            }
        }
        Ok(())
    }
}

/// Per-stage time accounting of the real-NN scoring backend, accumulated
/// across [`BatchScorer::score_batch`] calls — what the `query_exec` bench
/// reports so the end-to-end number decomposes into the paper's cost-model
/// stages (data handling vs inference, §IV).
///
/// Data handling runs on the inference lanes: whichever lane scores a row
/// fetches, decodes and standardizes it first. So the three data-handling
/// fields are **lane-seconds** — summed over every lane, they can exceed
/// the wall time of the call they ran in — and [`NnStageStats::infer_s`]
/// is the call's wall time, data handling included. Each lane sums its
/// rows' times locally and adds them here once per morsel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NnStageStats {
    /// Lane-seconds spent fetching encoded representations from the store
    /// and decoding them into pooled pixel buffers.
    pub fetch_decode_s: f64,
    /// Lane-seconds spent transcoding a stored source representation into
    /// a level's input representation — only paid when the exact
    /// representation is not stored (the ONGOING layout pays zero here).
    pub transcode_s: f64,
    /// Lane-seconds of per-image standardization (zero mean / unit
    /// variance), the model input discipline shared with the training
    /// path.
    pub standardize_s: f64,
    /// Wall time of the inference calls (`SharedModelZoo::infer`, local or
    /// dispatched), which includes the data handling above.
    pub infer_s: f64,
    /// `score_batch` calls served.
    pub batches: u64,
    /// Locally scored `score_batch` calls whose pack was big enough to run
    /// as morsels across the worker pool (broker-dispatched calls count in
    /// the broker's stats instead).
    pub morsel_calls: u64,
    /// Items scored (sum of pack sizes).
    pub items_scored: u64,
    /// Pack slots produced fresh: fetched from the store (or re-derived
    /// from the source) and standardized. Every scored item is either this
    /// or a cache hit.
    pub fetches: u64,
    /// Pack slots served from the shared-representation cache instead of a
    /// fresh fetch/transcode.
    pub cache_hits: u64,
    /// Pack slots whose stored representation was quarantined (corrupt or
    /// persistently unreadable) and were served through the
    /// transcode-from-source degradation path instead (RELIABILITY.md).
    pub degraded_fetches: u64,
}

impl NnStageStats {
    /// Add a lane's data-handling tally.
    fn add_handling(&mut self, lane: &NnStageStats) {
        self.fetch_decode_s += lane.fetch_decode_s;
        self.transcode_s += lane.transcode_s;
        self.standardize_s += lane.standardize_s;
        self.fetches += lane.fetches;
        self.cache_hits += lane.cache_hits;
        self.degraded_fetches += lane.degraded_fetches;
    }
}

struct NnModel {
    rep: Representation,
    model: Sequential,
}

// ---------------------------------------------------------------------------
// Real-NN scoring
// ---------------------------------------------------------------------------

/// The rows an inference call scores, as [`InferDispatch`] receives them:
/// a pack's standardized inputs, produced on demand by whichever lane
/// scores each row. A row that cannot be produced is a
/// [`CoreError::Scoring`].
pub type InputRows<'a> = dyn RowSource<Error = CoreError> + 'a;

/// Immutable model zoo: the (model id → network, input representation)
/// table, built once and then only ever borrowed shared. Every inference
/// goes through `Sequential::predict_proba_rows`, so any number of query
/// sessions can score against one zoo simultaneously, each bringing its
/// own [`tahoma_nn::InferScratch`].
#[derive(Default)]
pub struct SharedModelZoo {
    models: HashMap<u32, NnModel>,
    source_rep: Option<Representation>,
}

impl SharedModelZoo {
    /// Empty zoo; register models before serving.
    pub fn new() -> SharedModelZoo {
        SharedModelZoo::default()
    }

    /// Configure the stored source representation to transcode from when a
    /// model's exact input representation is not in the store. Must be RGB.
    pub fn with_source(mut self, rep: Representation) -> SharedModelZoo {
        self.source_rep = Some(rep);
        self
    }

    /// Register the network serving `id`, consuming `rep` as its input.
    pub fn register(&mut self, id: ModelId, rep: Representation, model: Sequential) {
        self.models.insert(id.0, NnModel { rep, model });
    }

    /// Register a whole repository's networks, aligned with `repo.entries`
    /// (the shape `build_real_repository_keeping_models` returns).
    pub fn register_repository(&mut self, repo: &ModelRepository, models: Vec<Sequential>) {
        assert_eq!(repo.len(), models.len(), "one network per repository entry");
        for (entry, model) in repo.entries.iter().zip(models) {
            self.register(entry.variant.id, entry.variant.input, model);
        }
    }

    /// Input representation of a registered model, `None` if unregistered.
    pub fn input_rep(&self, model: ModelId) -> Option<Representation> {
        self.models.get(&model.0).map(|m| m.rep)
    }

    /// Score every row of `rows` against `model` with caller-owned
    /// scratch, reading each row on the lane that scores it. This is the
    /// zoo's only inference entry point — brokers and direct callers alike
    /// land here, so their scores are bitwise identical by construction. A
    /// row the source cannot produce fails the call with the lowest such
    /// row's error.
    ///
    /// # Panics
    ///
    /// Panics when `model` was never registered — a caller bug, not a
    /// data-dependent condition: [`SharedNnScorer`] resolves the model's
    /// input representation (and fails with a typed error) before it ever
    /// builds rows to dispatch, and that is the only way rows get here.
    #[expect(
        clippy::panic,
        reason = "documented precondition: InferDispatch stays infallible because \
                  SharedNnScorer resolves the model's input representation (typed \
                  CoreError::UnknownModel) before it builds rows to dispatch"
    )]
    pub fn infer<S: RowSource + ?Sized>(
        &self,
        model: ModelId,
        rows: &S,
        scratch: &mut tahoma_nn::InferScratch,
    ) -> Result<Vec<f32>, S::Error> {
        let entry = self
            .models
            .get(&model.0)
            .unwrap_or_else(|| panic!("model m{} is not registered", model.0));
        entry.model.predict_proba_rows(rows, scratch)
    }
}

/// Where a [`SharedNnScorer`] sends its packs for inference. The serving
/// layer implements this with a cross-query batch broker (merging survivor
/// packs from concurrent queries into one GEMM call); `None` in the scorer
/// means "score locally on this thread and the pool's lanes".
///
/// Contract: return exactly one probability per row, in row order,
/// numerically identical to [`SharedModelZoo::infer`] on any
/// [`tahoma_nn::InferScratch`] — which batch-shape invariance makes
/// automatic for any implementation that scores the rows through the zoo —
/// or the error of the lowest row that cannot be produced.
pub trait InferDispatch: Sync {
    /// Score every row of `rows` against `model`. `scratch` is the
    /// caller's inference scratch, for calls the dispatch runs on the
    /// caller's behalf.
    fn infer(
        &self,
        model: ModelId,
        rows: &InputRows<'_>,
        scratch: &mut tahoma_nn::InferScratch,
    ) -> Result<Vec<f32>, CoreError>;
}

/// Per-query mutable state for [`SharedNnScorer`] — everything written
/// during scoring lives here, so the store and zoo stay shared. Sessions
/// are cheap to create and profitable to reuse (the inference scratch and
/// its lanes warm up), which is why the serving layer checks them out of a
/// pool per query. Pixels pass through no buffer here: each row is
/// produced into the scoring lane's one-row input buffer.
#[derive(Default)]
pub struct NnSessionScratch {
    infer: tahoma_nn::InferScratch,
    shared: Vec<Representation>,
    cache: HashMap<(u64, Representation), Vec<f32>>,
    stats: NnStageStats,
}

impl NnSessionScratch {
    /// Fresh session scratch. Every inference scratch scores a row with
    /// the same bits whether it was scored alone here or merged into a
    /// broker batch with other queries' rows.
    pub fn new() -> NnSessionScratch {
        NnSessionScratch::default()
    }

    /// Fresh session scratch whose inference fans out over at most
    /// `threads` lanes (`Some(1)`: on the calling thread alone; `None`:
    /// every pool worker plus the caller, as [`NnSessionScratch::new`]).
    pub fn with_threads(threads: Option<usize>) -> NnSessionScratch {
        let mut scratch = NnSessionScratch::new();
        scratch.infer.threads = threads;
        scratch
    }

    /// Per-stage timings accumulated across queries served with this
    /// scratch (or since [`NnSessionScratch::reset_stats`]).
    pub fn stats(&self) -> NnStageStats {
        self.stats
    }

    /// Zero the stage accounting.
    pub fn reset_stats(&mut self) {
        self.stats = NnStageStats::default();
    }
}

/// Real-CNN batch scorer: store fetch → pooled decode → transcode →
/// standardize → batched GEMM inference, per row on the lane that scores
/// it.
///
/// Per pack item the backend obtains the model's input representation
/// either directly from the [`RepresentationStore`] (the ONGOING layout:
/// the representation was materialized at ingest) or by fetching the zoo's
/// configured *source* representation and replaying the store's transcode
/// plan (the fallback when only the full frame is stored, and the
/// degradation path for quarantined records — RELIABILITY.md). Inputs are
/// standardized per image, matching the training path's input discipline.
/// The pack is scored in one call — locally, or through an
/// [`InferDispatch`] so a serving layer can coalesce packs from concurrent
/// queries — whose lanes each fetch, decode and standardize a row straight
/// into their one-row input buffer (with this thread's
/// [`engine::with_local_engine`]) just before running it through the
/// network; no pixel pack is ever assembled.
///
/// Representations used by more than one level of the current cascade are
/// cached per item for the duration of the cascade run, so the §V-B
/// sharing discount (`rep_marginal_s` charged once per distinct
/// representation) holds for the live pixel work too.
///
/// The store and zoo are borrowed *shared*; every mutation happens in the
/// caller's [`NnSessionScratch`] or a lane's thread-local engine, so any
/// number of scorers run concurrently. Scoring is bitwise identical to a
/// serial run regardless of concurrency, lane count or coalescing: inputs
/// are standardized per item (shape-independent), and inference (every
/// layer through the one GEMM path) is batch-shape invariant.
///
/// `score_batch` fails with [`CoreError::UnknownModel`] for a cascade
/// level whose model was never registered in the zoo, and with
/// [`CoreError::Scoring`] naming the lowest pack row whose representation
/// is absent (or quarantined) and cannot be re-derived — no source
/// configured, source missing or unreadable, transcode failed. A corrupt
/// stored blob is not an error: the store quarantines it and the scorer
/// degrades.
pub struct SharedNnScorer<'a> {
    store: &'a RepresentationStore,
    zoo: &'a SharedModelZoo,
    dispatch: Option<&'a dyn InferDispatch>,
    scratch: &'a mut NnSessionScratch,
}

impl<'a> SharedNnScorer<'a> {
    /// Score locally: inference runs on the calling thread and the pool's
    /// lanes.
    pub fn new(
        store: &'a RepresentationStore,
        zoo: &'a SharedModelZoo,
        scratch: &'a mut NnSessionScratch,
    ) -> SharedNnScorer<'a> {
        SharedNnScorer {
            store,
            zoo,
            dispatch: None,
            scratch,
        }
    }

    /// Route inference through `dispatch` (the serving layer's coalescing
    /// broker) instead of scoring locally.
    pub fn with_dispatch(mut self, dispatch: &'a dyn InferDispatch) -> SharedNnScorer<'a> {
        self.dispatch = Some(dispatch);
        self
    }
}

/// One pack's input rows for one model, produced on demand: the
/// [`RowSource`] a [`SharedNnScorer`] hands to inference.
struct PackRows<'a> {
    store: &'a RepresentationStore,
    source_rep: Option<Representation>,
    items: &'a [&'a CorpusItem],
    rep: Representation,
    /// The cascade's cross-level cache, when `rep` is shared across its
    /// levels: rows are served from it when present, and freshly produced
    /// rows are collected in `fresh` for the scorer to add after the call.
    cache: Option<&'a HashMap<(u64, Representation), Vec<f32>>>,
    fresh: Mutex<Vec<(u64, Vec<f32>)>>,
    /// Lanes' data-handling tallies, added once per `visit_rows` call.
    stats: Mutex<NnStageStats>,
}

impl PackRows<'_> {
    /// Write `item`'s standardized input into `dst`: direct pooled fetch
    /// when the store holds the representation, otherwise fetch-source +
    /// transcode. Pixel buffers are drawn from and recycled to `engine`.
    fn produce(
        &self,
        item: &CorpusItem,
        engine: &mut TranscodeEngine,
        dst: &mut [f32],
        tally: &mut NnStageStats,
    ) -> Result<(), CoreError> {
        let rep = self.rep;
        let failed = |what: String| CoreError::Scoring(format!("item {}: {what}", item.id));
        tally.fetches += 1;
        let t0 = Instant::now();
        let direct = self.store.fetch_classified(item.id, rep, engine);
        tally.fetch_decode_s += t0.elapsed().as_secs_f64();
        let img = match direct {
            Fetched::Hit(img) => img,
            Fetched::Absent | Fetched::Quarantined => {
                // Quarantined → same source-transcode fallback as absent
                // (bitwise-identical input), counted for STATS visibility.
                if matches!(direct, Fetched::Quarantined) {
                    tally.degraded_fetches += 1;
                }
                let src_rep = self.source_rep.ok_or_else(|| {
                    failed(format!(
                        "no stored {rep} and no source representation is configured"
                    ))
                })?;
                let t1 = Instant::now();
                // Pinned: the source must not be quarantined by a fault
                // burst, or the degradation would become permanent.
                let src = self
                    .store
                    .fetch_pinned(item.id, src_rep, engine)
                    .ok_or_else(|| failed(format!("no stored source {src_rep}")))?
                    .map_err(|e| failed(format!("source {src_rep}: {e}")))?;
                tally.fetch_decode_s += t1.elapsed().as_secs_f64();
                let t2 = Instant::now();
                // The store's re-derivation, not a bare transcode: it
                // lands on the stored u8 grid, so the degraded input is
                // bitwise what ingest stored.
                let out = self
                    .store
                    .rederive(&src, rep, engine)
                    .map_err(|e| failed(format!("transcode to {rep}: {e}")))?;
                tally.transcode_s += t2.elapsed().as_secs_f64();
                engine.recycle([src]);
                out
            }
        };
        let t3 = Instant::now();
        engine.standardize_into(&img, dst);
        tally.standardize_s += t3.elapsed().as_secs_f64();
        engine.recycle([img]);
        Ok(())
    }
}

impl RowSource for PackRows<'_> {
    type Error = CoreError;

    fn rows(&self) -> usize {
        self.items.len()
    }

    fn row_len(&self) -> usize {
        self.rep.value_count()
    }

    fn visit_rows(
        &self,
        range: Range<usize>,
        buf: &mut [f32],
        visit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CoreError> {
        let mut tally = NnStageStats::default();
        let mut fresh = Vec::new();
        let mut read = Ok(());
        for item in &self.items[range] {
            if let Some(row) = self.cache.and_then(|c| c.get(&(item.id, self.rep))) {
                tally.cache_hits += 1;
                visit(row);
                continue;
            }
            // The engine is borrowed for the fetch alone: `visit` runs the
            // network, which may help drain the pool's queue.
            read = engine::with_local_engine(|e| self.produce(item, e, buf, &mut tally));
            if read.is_err() {
                break;
            }
            if self.cache.is_some() {
                fresh.push((item.id, buf.to_vec()));
            }
            visit(buf);
        }
        lock(&self.stats).add_handling(&tally);
        if !fresh.is_empty() {
            lock(&self.fresh).append(&mut fresh);
        }
        read
    }
}

impl BatchScorer for SharedNnScorer<'_> {
    fn begin_cascade(&mut self, cascade: &Cascade, _items: &[&CorpusItem]) {
        let sc = &mut *self.scratch;
        sc.cache.clear();
        sc.shared.clear();
        let mut reps: Vec<Representation> = Vec::with_capacity(cascade.depth());
        for l in 0..cascade.depth() {
            if let Some(rep) = self.zoo.input_rep(ModelId(cascade.model_at(l) as u32)) {
                reps.push(rep);
            }
        }
        for (i, &rep) in reps.iter().enumerate() {
            if reps[..i].contains(&rep) && !sc.shared.contains(&rep) {
                sc.shared.push(rep);
            }
        }
    }

    fn score_batch(
        &mut self,
        model: ModelId,
        pack: ScorePack<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), CoreError> {
        let rep = self
            .zoo
            .input_rep(model)
            .ok_or(CoreError::UnknownModel(model.0))?;
        let sc = &mut *self.scratch;
        let rows = PackRows {
            store: self.store,
            source_rep: self.zoo.source_rep,
            items: pack.items,
            rep,
            cache: sc.shared.contains(&rep).then_some(&sc.cache),
            fresh: Mutex::default(),
            stats: Mutex::default(),
        };
        let t = Instant::now();
        let scored = match self.dispatch {
            Some(broker) => broker.infer(model, &rows, &mut sc.infer),
            None => {
                let before = sc.infer.morsel_calls();
                let scored = self.zoo.infer(model, &rows, &mut sc.infer);
                sc.stats.morsel_calls += sc.infer.morsel_calls() - before;
                scored
            }
        };
        sc.stats.infer_s += t.elapsed().as_secs_f64();
        let PackRows { fresh, stats, .. } = rows;
        sc.stats
            .add_handling(&stats.into_inner().unwrap_or_else(PoisonError::into_inner));
        let fresh = fresh.into_inner().unwrap_or_else(PoisonError::into_inner);
        sc.cache
            .extend(fresh.into_iter().map(|(id, row)| ((id, rep), row)));
        out.extend(scored?);
        sc.stats.batches += 1;
        sc.stats.items_scored += pack.items.len() as u64;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Level-major cascade driver
// ---------------------------------------------------------------------------

/// One item's cascade outcome from [`run_level_major`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelDecision {
    /// The decided label.
    pub value: bool,
    /// Score of the deciding level.
    pub score: f32,
    /// Cascade level that decided (0-based).
    pub level: u8,
}

/// Run one cascade level-major over `n_items` abstract items: per level,
/// the still-undecided item indices are packed contiguously and handed to
/// `score_level` (level, model, pack, score buffer) in one call; decisions
/// are applied vectorially (terminal level at 0.5, earlier levels through
/// the threshold table — a NaN score satisfies neither threshold
/// inequality and falls through, and compares `>= 0.5` false at the
/// terminal, exactly the item-at-a-time rules) and the pack is compacted
/// in place. Decisions are identical to the item-major walk for any
/// deterministic scorer because score visitation order never affects a
/// per-(model, item) score. A level that fails to score aborts the walk
/// with the level closure's error.
///
/// Generic over what an "item" is — the query executor drives it with
/// corpus items, TAHOMA+DD with video frames.
pub fn run_level_major<E>(
    cascade: &Cascade,
    thresholds: &ThresholdTable,
    n_items: usize,
    mut score_level: impl FnMut(usize, ModelId, &[usize], &mut Vec<f32>) -> Result<(), E>,
) -> Result<Vec<LevelDecision>, E> {
    let depth = cascade.depth();
    let mut decided = vec![
        LevelDecision {
            value: false,
            score: f32::NAN,
            level: 0,
        };
        n_items
    ];
    let mut undecided: Vec<usize> = (0..n_items).collect();
    let mut scores: Vec<f32> = Vec::new();
    for l in 0..depth {
        if undecided.is_empty() {
            break;
        }
        let m = cascade.model_at(l);
        scores.clear();
        score_level(l, ModelId(m as u32), &undecided, &mut scores)?;
        assert_eq!(
            scores.len(),
            undecided.len(),
            "scorer must produce one score per packed item"
        );
        let terminal = l + 1 == depth;
        let thr = (!terminal).then(|| thresholds.get(m as usize, cascade.setting_at(l) as usize));
        let mut w = 0usize;
        for k in 0..undecided.len() {
            // In-place compaction: the write cursor trails the read cursor,
            // so `undecided[w] = i` never clobbers an unread entry.
            let i = undecided[k];
            let s = scores[k];
            let decision = match thr {
                None => Some(s >= 0.5),
                Some(thr) => thr.decide(s),
            };
            match decision {
                Some(value) => {
                    decided[i] = LevelDecision {
                        value,
                        score: s,
                        level: l as u8,
                    }
                }
                None => {
                    undecided[w] = i;
                    w += 1;
                }
            }
        }
        undecided.truncate(w);
    }
    debug_assert!(undecided.is_empty(), "terminal level always decides");
    Ok(decided)
}

// ---------------------------------------------------------------------------
// Query execution
// ---------------------------------------------------------------------------

/// Every model id a cascade names must exist in the repository.
fn validate_cascade(repo: &ModelRepository, cascade: &Cascade) -> Result<(), CoreError> {
    match cascade
        .levels()
        .iter()
        .find(|&&(m, _)| m as usize >= repo.len())
    {
        Some(&(m, _)) => Err(CoreError::UnknownModel(m as u32)),
        None => Ok(()),
    }
}

/// The vectorized query executor — the product query path — and, beside
/// it, the item-at-a-time reference it is property-tested against.
pub struct VectorizedExecutor<'a> {
    repo: &'a ModelRepository,
    thresholds: &'a ThresholdTable,
    cost: &'a CostContext,
}

impl<'a> VectorizedExecutor<'a> {
    /// Bind repository, calibrated thresholds, and scenario pricing.
    pub fn new(
        repo: &'a ModelRepository,
        thresholds: &'a ThresholdTable,
        cost: &'a CostContext,
    ) -> VectorizedExecutor<'a> {
        VectorizedExecutor {
            repo,
            thresholds,
            cost,
        }
    }

    /// Run one cascade level-major over the given items, producing its
    /// relation. Decision-for-decision identical to
    /// [`VectorizedExecutor::run_cascade_reference`] for any
    /// scorer whose batch scores equal its per-item scores, with the
    /// simulated time accumulated in the same operation order (bitwise
    /// equal totals).
    pub fn run_cascade_batched(
        &self,
        kind: ObjectKind,
        cascade: Cascade,
        items: &[&CorpusItem],
        scorer: &mut dyn BatchScorer,
    ) -> Result<PredicateRelation, CoreError> {
        validate_cascade(self.repo, &cascade)?;
        scorer.begin_cascade(&cascade, items);
        let mut pack: Vec<&CorpusItem> = Vec::new();
        let decisions = run_level_major(
            &cascade,
            self.thresholds,
            items.len(),
            |_, model, idxs, out| {
                pack.clear();
                pack.extend(idxs.iter().map(|&i| items[i]));
                scorer.score_batch(
                    model,
                    ScorePack {
                        items: &pack,
                        indices: Some(idxs),
                    },
                    out,
                )
            },
        )?;
        let prefix = self.cost.prefix_costs(&cascade);
        let priced = decisions.into_iter().map(|d| (d, prefix[d.level as usize]));
        Ok(PredicateRelation::collect(kind, items, priced))
    }

    /// Run one cascade over the filtered items item-at-a-time
    /// ([`walk_cascade_item`] per item), producing its relation — the
    /// reference implementation the vectorized path is property-tested
    /// against. Kept deliberately simple.
    pub fn run_cascade_reference(
        &self,
        kind: ObjectKind,
        cascade: Cascade,
        items: &[&CorpusItem],
        scorer: &dyn ItemScorer,
    ) -> Result<PredicateRelation, CoreError> {
        validate_cascade(self.repo, &cascade)?;
        let walked = items
            .iter()
            .map(|item| walk_cascade_item(self.thresholds, self.cost, &cascade, scorer, item));
        Ok(PredicateRelation::collect(kind, items, walked))
    }

    /// Execute a parsed query: metadata filter, then the content
    /// predicates through the level-major cascade driver.
    ///
    /// This is [`run_conjunction`] with the predicates in planner rank
    /// order ([`order_predicates`](crate::planner::order_predicates),
    /// statistics measured on the eval split by
    /// [`cascade_stats`]), each relation covering only the items
    /// still undecided when it ran. Relations are returned in query-text
    /// order. `cascades` maps each content predicate to the cascade
    /// implementing it; a missing entry is an error.
    pub fn execute(
        &self,
        query: &Query,
        corpus: &Corpus,
        cascades: &BTreeMap<ObjectKind, Cascade>,
        scorer: &mut dyn BatchScorer,
    ) -> Result<QueryResult, CoreError> {
        let by_pos: Vec<Cascade> = query
            .content
            .iter()
            .map(|kind| {
                cascades
                    .get(kind)
                    .copied()
                    .ok_or(CoreError::EmptySet("cascade for content predicate"))
            })
            .collect::<Result<_, _>>()?;
        for cascade in &by_pos {
            validate_cascade(self.repo, cascade)?;
        }
        let n_preds = query.content.len();

        let order: Vec<usize> = if n_preds <= 1 {
            (0..n_preds).collect()
        } else {
            let planned: Vec<PlannedPredicate> = query
                .content
                .iter()
                .zip(&by_pos)
                .map(|(&kind, &cascade)| {
                    let eval = |m: usize, i: usize| self.repo.entries[m].eval_scores[i];
                    let (outcome, selectivity) =
                        cascade_stats(&cascade, self.thresholds, &self.repo.eval.labels, eval);
                    PlannedPredicate::new(
                        kind,
                        cascade,
                        &outcome,
                        self.repo.eval.len(),
                        self.cost,
                        selectivity,
                    )
                })
                .collect();
            order_indices(&planned)
        };
        let steps: Vec<(ObjectKind, Cascade)> = order
            .iter()
            .map(|&pi| (query.content[pi], by_pos[pi]))
            .collect();
        let items: Vec<&CorpusItem> = corpus.items.iter().collect();
        let mut executed: Vec<PredicateRelation> = Vec::with_capacity(n_preds);
        let walk = run_conjunction(&query.metadata, &steps, &items, |kind, cascade, pack| {
            let rel = self.run_cascade_batched(kind, cascade, pack, scorer)?;
            let passes = rel.passes();
            executed.push(rel);
            Ok::<_, CoreError>(passes)
        })?;
        // The walk ran every step, in `order`; report in query-text order.
        let mut by_query_pos: Vec<(usize, PredicateRelation)> =
            order.into_iter().zip(executed).collect();
        by_query_pos.sort_by_key(|&(pi, _)| pi);
        Ok(QueryResult {
            matched_ids: walk.matched_ids(&items),
            metadata_survivors: walk.metadata_survivors,
            relations: by_query_pos.into_iter().map(|(_, rel)| rel).collect(),
        })
    }
}

/// What [`run_conjunction`] decided for an item slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conjunction {
    /// One flag per input item: it satisfies the metadata predicates and
    /// every step.
    pub passes: Vec<bool>,
    /// Items that survived the metadata filter (the first step's pack).
    pub metadata_survivors: usize,
    /// Cascade rows evaluated: the sum of the pack sizes handed to `eval`.
    pub scored: usize,
}

impl Conjunction {
    /// Ids of the passing items of the slice the walk ran over, in order.
    pub fn matched_ids(&self, items: &[&CorpusItem]) -> Vec<u64> {
        let passing = items.iter().zip(&self.passes).filter(|(_, &pass)| pass);
        passing.map(|(item, _)| item.id).collect()
    }
}

/// The conjunction walk — the only one in the workspace (module docs list
/// the callers). Filter `items` by the `metadata` predicates, then hand each
/// `(kind, cascade)` step, in the given order, the pack of items that passed
/// everything so far (in `items` order); `eval` returns one pass flag per
/// pack item and only the passing items reach the next step. Every step
/// runs, even over an empty pack, so `eval` sees each step exactly once.
/// `eval` must be deterministic per (kind, item) for the result to be
/// independent of step order — every scorer in this workspace is.
///
/// Generic over the caller's error type, so a serving layer threads its own
/// errors (timeouts, unserved kinds) through untouched; the walk itself
/// fails only when `eval` breaks the one-flag-per-item contract.
pub fn run_conjunction<E: From<CoreError>>(
    metadata: &[MetaPredicate],
    steps: &[(ObjectKind, Cascade)],
    items: &[&CorpusItem],
    mut eval: impl FnMut(ObjectKind, Cascade, &[&CorpusItem]) -> Result<Vec<bool>, E>,
) -> Result<Conjunction, E> {
    let mut survivors: Vec<usize> = (0..items.len())
        .filter(|&i| metadata.iter().all(|p| p.holds(items[i])))
        .collect();
    let metadata_survivors = survivors.len();
    let mut scored = 0usize;
    let mut pack: Vec<&CorpusItem> = Vec::new();
    for &(kind, cascade) in steps {
        pack.clear();
        pack.extend(survivors.iter().map(|&i| items[i]));
        let flags = eval(kind, cascade, &pack)?;
        if flags.len() != pack.len() {
            return Err(CoreError::Scoring(format!(
                "eval returned {} decisions for a pack of {}",
                flags.len(),
                pack.len()
            ))
            .into());
        }
        scored += pack.len();
        let mut flag = flags.iter();
        survivors.retain(|_| flag.next().is_some_and(|&pass| pass));
    }
    let mut passes = vec![false; items.len()];
    for i in survivors {
        passes[i] = true;
    }
    Ok(Conjunction {
        passes,
        metadata_survivors,
        scored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::DecisionThresholds;

    #[test]
    fn level_major_compacts_and_decides_everything() {
        // Level 0 decides even indices (score 0.9/0.1 alternating against
        // wide-open thresholds); the terminal decides the rest at 0.5.
        let thresholds = ThresholdTable {
            settings: vec![0.95],
            per_model: vec![
                vec![DecisionThresholds {
                    p_low: 0.2,
                    p_high: 0.8,
                }],
                vec![DecisionThresholds::never_decide()],
            ],
        };
        let cascade = Cascade::new(&[(0, 0), (1, 0)]);
        let mut packs: Vec<Vec<usize>> = Vec::new();
        let walk = run_level_major(&cascade, &thresholds, 6, |l, _, pack, out| {
            packs.push(pack.to_vec());
            out.extend(pack.iter().map(|&i| match (l, i % 2) {
                (0, 0) => 0.9,
                (0, _) => 0.5,
                (_, _) => {
                    if i < 3 {
                        0.7
                    } else {
                        0.2
                    }
                }
            }));
            Ok::<(), CoreError>(())
        });
        let decisions = walk.expect("infallible level closure");
        assert_eq!(packs[0], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(packs[1], vec![1, 3, 5], "survivors compacted in order");
        for (i, d) in decisions.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!((d.value, d.level), (true, 0), "item {i}");
            } else {
                assert_eq!((d.value, d.level), (i < 3, 1), "item {i}");
            }
        }
    }

    #[test]
    fn level_major_nan_scores_fall_through_and_lose_at_terminal() {
        let thresholds = ThresholdTable {
            settings: vec![0.95],
            per_model: vec![
                vec![DecisionThresholds {
                    p_low: 0.4,
                    p_high: 0.6,
                }],
                vec![DecisionThresholds::never_decide()],
            ],
        };
        let cascade = Cascade::new(&[(0, 0), (1, 0)]);
        let decisions = run_level_major(&cascade, &thresholds, 2, |_, _, pack, out| {
            out.extend(pack.iter().map(|_| f32::NAN));
            Ok::<(), CoreError>(())
        })
        .expect("infallible level closure");
        for d in &decisions {
            assert_eq!(d.level, 1, "NaN must stay uncertain at level 0");
            assert!(!d.value, "NaN >= 0.5 is false at the terminal");
        }
    }
}
