//! The shared-executor front door: one [`QueryService`] owns the corpus
//! and, per served predicate, a scoring backend (surrogate tables, or a
//! shared representation store + model zoo + coalescing broker), and
//! executes SQL queries with `&self` from any number of threads.
//!
//! The service does not walk predicates itself. A query is the planning
//! prefix (cascade selection per content predicate, then — for two or more
//! — the System-R rank of [`tahoma_core::planner::order_predicates`], fed
//! each cascade's statistics on the served corpus; served from the
//! [`PlanCache`] on repeat queries) followed by one call to
//! the core conjunction walk ([`tahoma_core::exec::run_conjunction`]) over
//! the corpus with the plan's steps. The service contributes the walk's
//! evaluation seam, `QueryService::eval_kind_pack` — one pack through
//! `kind`'s backend with its thresholds, scratch pool and broker — which an
//! ad-hoc `QUERY` wraps with its deadline check, broker-interest release
//! and degraded-slot count, and which a standing query's `TICK`/`DELTAS`
//! ([`crate::stream`]) hand to the continuous executor unchanged. Every
//! backend is deterministic per (model, item) — the NN path by
//! batch-shape-invariant inference (every layer through the one GEMM
//! path) — so step order changes cost, never results.
//!
//! All mutable per-query state lives in scratch checked out of per-kind
//! pools; everything else is only ever borrowed shared. Concurrent queries
//! therefore return bitwise-identical results to a serial run — with or
//! without broker coalescing — which `tests/concurrency.rs` asserts under
//! load. Failures are values: a pack a backend cannot score is a
//! [`tahoma_core::CoreError`] that reaches the wire as `ERR execution: …`;
//! the request-level `catch_unwind`s are a backstop counted in
//! [`ServiceStats::panics_caught`].

use crate::broker::{Broker, BrokerStats};
use crate::plan_cache::{CachedPlan, PlanCache};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tahoma_core::evaluator::{cascade_stats, CostContext, Outcome};
use tahoma_core::exec::{
    run_conjunction, BatchScorer, NnSessionScratch, ScorePack, SharedModelZoo, SharedNnScorer,
    VectorizedExecutor,
};
use tahoma_core::pipeline::TahomaSystem;
use tahoma_core::planner::{order_predicates, PlannedPredicate};
use tahoma_core::query::{Corpus, CorpusItem, Query};
use tahoma_core::thresholds::ThresholdTable;
use tahoma_core::{Cascade, Constraints, CoreError, SurrogateBatchScorer};
use tahoma_costmodel::AnalyticProfiler;
use tahoma_imagery::{ObjectKind, RepresentationStore};
use tahoma_mathx::lock;
use tahoma_zoo::{ModelId, SurrogateScorer};

/// Per-query execution switches (the protocol exposes them for A/B runs;
/// the defaults are what a production front door would run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Serve repeat plans from the [`PlanCache`].
    pub use_plan_cache: bool,
    /// Route NN inference through the coalescing [`Broker`].
    pub coalesce: bool,
    /// Server-side execution budget: past this deadline the query stops at
    /// the next predicate boundary with [`ServeError::Timeout`] (the
    /// protocol's `DEADLINE` wrapper and the server's default budget both
    /// land here; policy in RELIABILITY.md). `None` = unbounded.
    pub deadline: Option<Deadline>,
}

impl Default for ExecPolicy {
    fn default() -> ExecPolicy {
        ExecPolicy {
            use_plan_cache: true,
            coalesce: true,
            deadline: None,
        }
    }
}

/// A query's execution budget: the absolute expiry instant plus the
/// original budget (kept so the `TIMEOUT` response can say what ran out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// Absolute expiry.
    pub at: std::time::Instant,
    /// The budget this deadline was derived from, in milliseconds.
    pub budget_ms: u64,
}

impl Deadline {
    /// A deadline `budget_ms` from now.
    pub fn in_ms(budget_ms: u64) -> Deadline {
        Deadline {
            at: std::time::Instant::now() + std::time::Duration::from_millis(budget_ms),
            budget_ms,
        }
    }

    /// Whether the budget has run out.
    pub fn expired(&self) -> bool {
        std::time::Instant::now() >= self.at
    }
}

/// What a query returns to the client.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Ids satisfying every predicate, in corpus order.
    pub matched_ids: Vec<u64>,
    /// Items surviving the metadata filter (classified by the first
    /// content predicate).
    pub metadata_survivors: usize,
    /// Whether planning was served from the cache.
    pub plan_hit: bool,
    /// Pack slots this query served through the quarantine degradation
    /// path (transcode-from-source instead of the stored representation).
    /// Zero on a healthy store; surfaced on the wire as ` degraded=N`.
    pub degraded: u64,
}

/// Service-level error, stringly typed at the protocol boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The SQL failed to parse.
    Query(String),
    /// The query names a predicate this service was not configured for.
    UnservedKind(ObjectKind),
    /// No cascade satisfies the accuracy constraint.
    Planning(String),
    /// Cascade execution failed.
    Exec(String),
    /// The query's deadline expired before execution finished. Encoded on
    /// the wire as a `TIMEOUT` response, not an `ERR` — the budget ran
    /// out; nothing is wrong with the query or the service.
    Timeout {
        /// The budget that expired, in milliseconds.
        budget_ms: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Query(e) => write!(f, "query: {e}"),
            ServeError::UnservedKind(k) => write!(f, "predicate not served: {k}"),
            ServeError::Planning(e) => write!(f, "planning: {e}"),
            ServeError::Exec(e) => write!(f, "execution: {e}"),
            ServeError::Timeout { budget_ms } => {
                write!(f, "deadline exceeded after {budget_ms} ms budget")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Every executor and scorer failure is an execution error on the wire
/// (`ERR execution: …`); parse and window-spec errors are classified
/// `Query` where they are raised instead.
impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> ServeError {
        ServeError::Exec(e.to_string())
    }
}

/// Aggregated service counters (the `STATS` protocol verb).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Queries executed (successfully or not) since startup.
    pub queries: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Broker counters summed over every served kind.
    pub broker: BrokerStats,
    /// Uncoalesced (locally scored) inference calls that ran as morsels
    /// across the worker pool; brokered ones count in
    /// `broker.morsel_calls`. Not on the wire.
    pub morsel_calls: u64,
    /// Store reliability counters (retries, degraded fetches, quarantine
    /// size) summed over the distinct stores behind the served kinds.
    pub store: tahoma_imagery::ReliabilityStats,
    /// Queries stopped by an expired [`Deadline`].
    pub timeouts: u64,
    /// Panics the request-level backstops caught (`server`'s request
    /// guard, the standing-query tick guard). Every failure on the query
    /// path is a typed error, so anything but zero is a bug.
    pub panics_caught: u64,
}

enum KindBackend {
    /// Surrogate scoring (no pixels): per-query scorer over shared tables.
    Surrogate(SurrogateScorer),
    /// Real-NN scoring over the shared store and zoo.
    Nn(NnBackend),
}

struct NnBackend {
    store: Arc<RepresentationStore>,
    zoo: Arc<SharedModelZoo>,
    broker: Broker,
    /// Queries in flight that still owe this kind a cascade execution;
    /// shared with the broker, whose leaders seal early once every
    /// interested query has a pack aboard (and skip batching entirely
    /// when a kind has at most one interested query).
    active: Arc<AtomicUsize>,
    // LOCK-ORDER: 30 — session-scratch pool; held only to pop/push a
    // buffer, never across scoring (the broker's locks rank above).
    sessions: Mutex<Vec<NnSessionScratch>>,
    /// Per model id, the model's score for every corpus item (empty for a
    /// model with no network): the statistics a conjunction is ordered by.
    corpus_scores: Vec<Vec<f32>>,
    /// Locally scored inference calls that ran as morsels.
    morsel_calls: AtomicU64,
}

struct KindState {
    system: TahomaSystem,
    cost: CostContext,
    /// Execution-time threshold override (the NN fixtures calibrate
    /// decision cuts from live score distributions rather than the
    /// surrogate config split); planning always uses the system's table.
    exec_thresholds: Option<ThresholdTable>,
    backend: KindBackend,
}

/// The concurrent query service. Construct, register kinds, then share
/// behind an `Arc` and call [`QueryService::execute`] from any thread.
pub struct QueryService {
    profiler: AnalyticProfiler,
    accuracy_loss: f64,
    /// The one corpus every served kind scores: a query hands the same
    /// item slice to several kinds' backends, so there is exactly one.
    corpus: Arc<Corpus>,
    kinds: BTreeMap<ObjectKind, KindState>,
    plan_cache: PlanCache,
    queries: AtomicU64,
    timeouts: AtomicU64,
    panics_caught: AtomicU64,
}

/// Per-kind in-flight registrations held by one executing query.
/// Releases a kind as soon as its cascade entry completes — a query past
/// the fence predicate must not keep fence batch leaders waiting — and
/// releases everything on drop (error paths included).
pub(crate) struct InterestGuard {
    counters: Vec<(ObjectKind, Arc<AtomicUsize>)>,
}

impl InterestGuard {
    fn release(&mut self, kind: ObjectKind) {
        if let Some(pos) = self.counters.iter().position(|(k, _)| *k == kind) {
            let (_, c) = self.counters.swap_remove(pos);
            c.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for InterestGuard {
    fn drop(&mut self) {
        for (_, c) in &self.counters {
            c.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl QueryService {
    /// A service over `corpus`, pricing costs with `profiler` and planning
    /// every query at `accuracy_loss` maximum accuracy loss (the paper's
    /// `U_acc`).
    pub fn new(
        profiler: AnalyticProfiler,
        accuracy_loss: f64,
        corpus: Arc<Corpus>,
    ) -> QueryService {
        QueryService {
            profiler,
            accuracy_loss,
            corpus,
            kinds: BTreeMap::new(),
            plan_cache: PlanCache::new(),
            queries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
        }
    }

    /// Serve `kind` with surrogate scoring.
    pub fn add_surrogate_kind(
        &mut self,
        kind: ObjectKind,
        system: TahomaSystem,
        scorer: SurrogateScorer,
    ) {
        let cost = CostContext::build(&system.repo, &self.profiler);
        self.kinds.insert(
            kind,
            KindState {
                system,
                cost,
                exec_thresholds: None,
                backend: KindBackend::Surrogate(scorer),
            },
        );
    }

    /// Serve `kind` with real-NN scoring over `store` and `zoo`. The
    /// broker is created here so it shares the kind's in-flight interest
    /// counter; `exec_thresholds`, when given, replaces the system's
    /// calibrated table at execution time only. `corpus_scores[m]` is
    /// model `m`'s score for every corpus item, in corpus order (empty for
    /// a model with no network); a conjunction naming `kind` is ordered by
    /// its planned cascade's walk over them, and planning one fails if a
    /// model of that cascade has none. The broker coalesces within
    /// [`Broker::DEFAULT_WINDOW`].
    pub fn add_nn_kind(
        &mut self,
        kind: ObjectKind,
        system: TahomaSystem,
        exec_thresholds: Option<ThresholdTable>,
        corpus_scores: Vec<Vec<f32>>,
        store: Arc<RepresentationStore>,
        zoo: SharedModelZoo,
    ) {
        let cost = CostContext::build(&system.repo, &self.profiler);
        let zoo = Arc::new(zoo);
        let active = Arc::new(AtomicUsize::new(0));
        let broker = Broker::new(Arc::clone(&zoo), Arc::clone(&active));
        self.kinds.insert(
            kind,
            KindState {
                system,
                cost,
                exec_thresholds,
                backend: KindBackend::Nn(NnBackend {
                    store,
                    zoo,
                    broker,
                    active,
                    sessions: Mutex::new(Vec::new()),
                    corpus_scores,
                    morsel_calls: AtomicU64::new(0),
                }),
            },
        );
    }

    /// Items in the corpus.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// Record a panic caught by a request-level backstop.
    pub(crate) fn note_panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregated counters.
    pub fn stats(&self) -> ServiceStats {
        let mut broker = BrokerStats::default();
        let mut morsel_calls = 0;
        let mut store = tahoma_imagery::ReliabilityStats::default();
        // Kinds may share one store (the NN fixture does); sum each
        // distinct store's counters once.
        let mut seen_stores: Vec<*const RepresentationStore> = Vec::new();
        for st in self.kinds.values() {
            if let KindBackend::Nn(nn) = &st.backend {
                let b = nn.broker.stats();
                broker.submits += b.submits;
                broker.calls += b.calls;
                broker.merged_calls += b.merged_calls;
                broker.rows += b.rows;
                broker.failovers += b.failovers;
                broker.morsel_calls += b.morsel_calls;
                morsel_calls += nn.morsel_calls.load(Ordering::Relaxed);
                let ptr = Arc::as_ptr(&nn.store);
                if !seen_stores.contains(&ptr) {
                    seen_stores.push(ptr);
                    let rs = nn.store.reliability_stats();
                    store.retries += rs.retries;
                    store.degraded_fetches += rs.degraded_fetches;
                    store.quarantined += rs.quarantined;
                }
            }
        }
        ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            plan_hits: self.plan_cache.hits(),
            plan_misses: self.plan_cache.misses(),
            broker,
            morsel_calls,
            store,
            timeouts: self.timeouts.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
        }
    }

    /// Fail with [`ServeError::Timeout`] when the policy's deadline has
    /// expired. Checked at predicate boundaries: execution never abandons
    /// a cascade mid-flight (scratch and broker state stay consistent),
    /// so a `TIMEOUT` response is always a clean stop.
    fn check_deadline(&self, policy: &ExecPolicy) -> Result<(), ServeError> {
        if let Some(dl) = policy.deadline {
            if dl.expired() {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Timeout {
                    budget_ms: dl.budget_ms,
                });
            }
        }
        Ok(())
    }

    /// Plan the given predicate set: cascade selection per kind under the
    /// service's accuracy target, then, for two or more kinds, execution
    /// order by [`order_predicates`] — ascending expected cost per unit of
    /// rejection, both measured by `QueryService::corpus_stats` on the
    /// served corpus. A one-kind plan is not walked. Returns the plan and
    /// whether it came from the cache. Public so the judge
    /// (`benchmark/`) can time cold vs cached planning in isolation.
    pub fn plan_for(
        &self,
        kinds: &[ObjectKind],
        use_cache: bool,
    ) -> Result<(Arc<CachedPlan>, bool), ServeError> {
        let acc_milli = (self.accuracy_loss * 1000.0).round() as u32;
        if use_cache {
            if let Some(plan) = self.plan_cache.get(kinds, acc_milli) {
                return Ok((plan, true));
            }
        }
        let mut uniq: Vec<ObjectKind> = kinds.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let mut entries = Vec::with_capacity(uniq.len());
        for kind in uniq {
            let st = self
                .kinds
                .get(&kind)
                .ok_or(ServeError::UnservedKind(kind))?;
            let selected = st
                .system
                .select(
                    &self.profiler,
                    Constraints {
                        max_accuracy_loss: Some(self.accuracy_loss),
                        max_throughput_loss: None,
                    },
                )
                .map_err(|e| ServeError::Planning(e.to_string()))?;
            entries.push((kind, selected));
        }
        if entries.len() > 1 {
            let mut planned = Vec::with_capacity(entries.len());
            for (kind, selected) in &entries {
                let (outcome, selectivity) = self.corpus_stats(*kind, &selected.cascade)?;
                planned.push(PlannedPredicate::new(
                    *kind,
                    selected.cascade,
                    &outcome,
                    self.corpus.len(),
                    &self.kinds[kind].cost,
                    selectivity,
                ));
            }
            let order = order_predicates(planned);
            entries.sort_by_key(|(kind, _)| order.iter().position(|p| p.kind == *kind));
        }
        let plan = CachedPlan { entries };
        let plan = if use_cache {
            self.plan_cache.insert(kinds, acc_milli, plan)
        } else {
            Arc::new(plan)
        };
        Ok((plan, false))
    }

    /// `cascade`'s outcome and positive rate on the served corpus, under the
    /// thresholds [`QueryService::eval_kind_pack`] executes with (the
    /// terminal level at `score >= 0.5`): the statistics a conjunction is
    /// ordered by. The decision walk is `core`'s
    /// [`cascade_stats`], the one the eval-split statistics use. NN kinds
    /// read the corpus scores handed to [`QueryService::add_nn_kind`], so
    /// planning runs no inference; surrogate kinds score the corpus here.
    pub(crate) fn corpus_stats(
        &self,
        kind: ObjectKind,
        cascade: &Cascade,
    ) -> Result<(Outcome, f64), ServeError> {
        let st = self
            .kinds
            .get(&kind)
            .ok_or(ServeError::UnservedKind(kind))?;
        let thresholds = st.exec_thresholds.as_ref().unwrap_or(&st.system.thresholds);
        let items: Vec<&CorpusItem> = self.corpus.items.iter().collect();
        let labels: Vec<bool> = items.iter().map(|item| item.contains(kind)).collect();
        let models = cascade.levels().iter().map(|&(m, _)| m as usize);
        let surrogate_scores;
        let scores: &[Vec<f32>] = match &st.backend {
            KindBackend::Nn(nn) => &nn.corpus_scores,
            KindBackend::Surrogate(sc) => {
                let mut scorer = SurrogateBatchScorer::new(sc, &st.system.repo);
                let mut columns = vec![Vec::new(); st.system.repo.len()];
                for m in models.clone() {
                    if columns[m].is_empty() {
                        let pack = ScorePack::standalone(&items);
                        scorer.score_batch(ModelId(m as u32), pack, &mut columns[m])?;
                    }
                }
                surrogate_scores = columns;
                &surrogate_scores
            }
        };
        for m in models {
            if scores.get(m).map(Vec::len) != Some(items.len()) {
                return Err(ServeError::Planning(format!(
                    "{kind}: model {m} has no corpus scores"
                )));
            }
        }
        Ok(cascade_stats(cascade, thresholds, &labels, |m, i| {
            scores[m][i]
        }))
    }

    /// Execute a SQL query under the default [`ExecPolicy`].
    pub fn execute(&self, sql: &str) -> Result<ServeOutcome, ServeError> {
        self.execute_with(sql, ExecPolicy::default())
    }

    /// Execute a SQL query with explicit policy switches: plan, then run
    /// the corpus through the conjunction walk (module docs).
    pub fn execute_with(&self, sql: &str, policy: ExecPolicy) -> Result<ServeOutcome, ServeError> {
        let query = Query::parse(sql).map_err(|e| ServeError::Query(e.to_string()))?;
        for &kind in &query.content {
            if !self.kinds.contains_key(&kind) {
                return Err(ServeError::UnservedKind(kind));
            }
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut interest = self.register_interest(&query.content, policy.coalesce);

        // A metadata-only query plans nothing and scores nothing: no step
        // ever runs, so no deadline is consulted either.
        let (steps, plan_hit) = if query.content.is_empty() {
            (Vec::new(), false)
        } else {
            self.check_deadline(&policy)?;
            let (plan, hit) = self.plan_for(&query.content, policy.use_plan_cache)?;
            let steps: Vec<(ObjectKind, Cascade)> = plan
                .entries
                .iter()
                .map(|(kind, selected)| (*kind, selected.cascade))
                .collect();
            (steps, hit)
        };
        let items: Vec<&CorpusItem> = self.corpus.items.iter().collect();
        let mut degraded = 0u64;
        let walk = run_conjunction(&query.metadata, &steps, &items, |kind, cascade, pack| {
            // Predicate boundary: the cheapest place to stop a query whose
            // budget ran out (each step is one whole cascade execution).
            self.check_deadline(&policy)?;
            let (passes, degraded_slots) =
                self.eval_kind_pack(kind, cascade, pack, policy.coalesce)?;
            degraded += degraded_slots;
            interest.release(kind);
            Ok::<_, ServeError>(passes)
        })?;
        Ok(ServeOutcome {
            matched_ids: walk.matched_ids(&items),
            metadata_survivors: walk.metadata_survivors,
            plan_hit,
            degraded,
        })
    }

    /// Register interest with every NN kind in `kinds` (duplicates
    /// collapse), so the kinds' brokers know how many concurrent packs to
    /// expect. Standing-query ticks take the same guard ad-hoc queries do,
    /// which is what lets their packs coalesce with ad-hoc traffic.
    pub(crate) fn register_interest(&self, kinds: &[ObjectKind], coalesce: bool) -> InterestGuard {
        let mut interest = InterestGuard {
            counters: Vec::new(),
        };
        let mut uniq: Vec<ObjectKind> = kinds.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        for kind in uniq {
            if let Some(KindState {
                backend: KindBackend::Nn(nn),
                ..
            }) = self.kinds.get(&kind)
            {
                nn.active.fetch_add(1, Ordering::Relaxed);
                interest.counters.push((kind, Arc::clone(&nn.active)));
            }
        }
        if coalesce && !interest.counters.is_empty() {
            // Registration rendezvous: queries arriving together must all
            // be registered before any of them chooses between the broker's
            // idle fast path and batching. One yield lets same-instant
            // arrivals (burst clients, queued requests) reach their own
            // registration first; when nothing else is runnable it is a
            // few hundred nanoseconds.
            std::thread::yield_now();
        }
        interest
    }

    /// Score one pack through `kind`'s backend: one pass flag per pack
    /// item, plus the pack slots served through the quarantine degradation
    /// path. The evaluation seam of every conjunction walk the service runs
    /// — an ad-hoc query's steps, a standing query's tick and rescan — so
    /// they all share thresholds, scratch pool and coalescing broker, which
    /// is what makes a window's results comparable to a `QUERY` over the
    /// same items. A plan naming an unserved kind (a cache outliving
    /// reconfiguration) is a typed error.
    pub(crate) fn eval_kind_pack(
        &self,
        kind: ObjectKind,
        cascade: Cascade,
        pack: &[&CorpusItem],
        coalesce: bool,
    ) -> Result<(Vec<bool>, u64), ServeError> {
        let st = self
            .kinds
            .get(&kind)
            .ok_or(ServeError::UnservedKind(kind))?;
        let thresholds = st.exec_thresholds.as_ref().unwrap_or(&st.system.thresholds);
        let exec = VectorizedExecutor::new(&st.system.repo, thresholds, &st.cost);
        let (rel, degraded) = match &st.backend {
            KindBackend::Surrogate(sc) => {
                let mut scorer = SurrogateBatchScorer::new(sc, &st.system.repo);
                (
                    exec.run_cascade_batched(kind, cascade, pack, &mut scorer),
                    0,
                )
            }
            KindBackend::Nn(nn) => {
                let mut scratch = lock(&nn.sessions)
                    .pop()
                    .unwrap_or_else(NnSessionScratch::new);
                // Scratch pools are shared across queries: the delta around
                // this run is this pack's own degraded slot count.
                let before = scratch.stats();
                let rel = {
                    let mut scorer = SharedNnScorer::new(&nn.store, &nn.zoo, &mut scratch);
                    if coalesce {
                        scorer = scorer.with_dispatch(&nn.broker);
                    }
                    exec.run_cascade_batched(kind, cascade, pack, &mut scorer)
                };
                let after = scratch.stats();
                nn.morsel_calls
                    .fetch_add(after.morsel_calls - before.morsel_calls, Ordering::Relaxed);
                let degraded = after.degraded_fetches - before.degraded_fetches;
                lock(&nn.sessions).push(scratch);
                (rel, degraded)
            }
        };
        Ok((rel?.passes(), degraded))
    }

    /// The shared representation store behind `kind`'s NN backend, if any
    /// — the ingest target for stream frames whose standing query scores
    /// that kind with real networks (surrogate backends move no pixels).
    /// Hidden from the docs: it is reachable only so the tick-ingest
    /// integration tests can sync and inspect the store a service writes
    /// (their fault plans are process-wide, so they cannot share the
    /// library's unit-test binary).
    #[doc(hidden)]
    pub fn nn_store(&self, kind: ObjectKind) -> Option<Arc<RepresentationStore>> {
        match self.kinds.get(&kind).map(|st| &st.backend) {
            Some(KindBackend::Nn(nn)) => Some(Arc::clone(&nn.store)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{nn_service, surrogate_service, NnFixtureConfig};
    use std::collections::HashSet;
    use std::sync::OnceLock;
    use tahoma_core::exec::Conjunction;

    /// The two-kind (fence, wallet) NN fixture at the judged server seed,
    /// where wallet's one-level cascade passes every corpus row.
    fn nn_fixture() -> &'static QueryService {
        static SERVICE: OnceLock<QueryService> = OnceLock::new();
        SERVICE.get_or_init(|| {
            nn_service(&NnFixtureConfig {
                corpus_n: 128,
                seed: 1,
                ..Default::default()
            })
        })
    }

    fn single_ids(service: &QueryService, kind: ObjectKind) -> Vec<u64> {
        let sql = format!("SELECT * FROM frames WHERE contains_object({kind})");
        service
            .execute(&sql)
            .expect("single-predicate query")
            .matched_ids
    }

    /// Walk `steps` over the whole corpus through the service's own
    /// evaluation seam (broker on): the walk and the broker rows it scored.
    fn walk(service: &QueryService, steps: &[(ObjectKind, Cascade)]) -> (Conjunction, u64) {
        let items: Vec<&CorpusItem> = service.corpus.items.iter().collect();
        let kinds: Vec<ObjectKind> = steps.iter().map(|&(k, _)| k).collect();
        let _interest = service.register_interest(&kinds, true);
        let before = service.stats().broker.rows;
        let walk = run_conjunction(&[], steps, &items, |kind, cascade, pack| {
            service
                .eval_kind_pack(kind, cascade, pack, true)
                .map(|(passes, _)| passes)
        })
        .expect("walk");
        (walk, service.stats().broker.rows - before)
    }

    fn plan_steps(service: &QueryService, kinds: &[ObjectKind]) -> Vec<(ObjectKind, Cascade)> {
        let (plan, _) = service.plan_for(kinds, false).expect("planning");
        plan.entries
            .iter()
            .map(|(kind, selected)| (*kind, selected.cascade))
            .collect()
    }

    /// Exact work, counted rather than timed: the planned order scores no
    /// more rows than the reverse order, both orders pass the same items,
    /// and each kind's predicted corpus pass count is exactly what its
    /// single-predicate `QUERY` returns — the statistics walk uses the
    /// thresholds execution uses.
    #[test]
    fn planned_order_scores_fewest_rows_and_predicts_exact_pass_counts() {
        // The default fixture, where both conjuncts reject, and the judged
        // seed's, where wallet rejects nothing. Both are this test's own:
        // the broker row counters are service-wide, so a service shared
        // with concurrently running tests would count their rows too.
        for seed in [NnFixtureConfig::default().seed, 1] {
            assert_planned_work(&nn_service(&NnFixtureConfig {
                corpus_n: 96,
                seed,
                ..Default::default()
            }));
        }
    }

    fn assert_planned_work(service: &QueryService) {
        let n = service.corpus_len();
        let planned = plan_steps(service, &[ObjectKind::Wallet, ObjectKind::Fence]);
        assert_eq!(planned.len(), 2);
        let mut reversed = planned.clone();
        reversed.reverse();
        let (walk_planned, rows_planned) = walk(service, &planned);
        let (walk_reversed, rows_reversed) = walk(service, &reversed);
        assert_eq!(walk_planned.passes, walk_reversed.passes);
        assert!(
            walk_planned.scored <= walk_reversed.scored,
            "planned order scored {} packed rows, the reverse {}",
            walk_planned.scored,
            walk_reversed.scored
        );
        assert!(
            rows_planned <= rows_reversed,
            "planned order scored {rows_planned} broker rows, the reverse {rows_reversed}"
        );
        for &(kind, cascade) in &planned {
            let (outcome, rate) = service.corpus_stats(kind, &cascade).expect("stats");
            assert_eq!(outcome.stop_counts.iter().sum::<u32>() as usize, n);
            let predicted = (rate * n as f64).round() as usize;
            assert_eq!(predicted, single_ids(service, kind).len(), "{kind}");
        }
    }

    /// A conjunct that passes every corpus row rejects nothing: it ranks
    /// `+∞` and plans last, whichever order the query names it in.
    #[test]
    fn conjunct_passing_every_row_plans_last() {
        let service = nn_fixture();
        let n = service.corpus_len();
        assert_eq!(single_ids(service, ObjectKind::Wallet).len(), n);
        assert!(single_ids(service, ObjectKind::Fence).len() < n);
        for kinds in [
            [ObjectKind::Wallet, ObjectKind::Fence],
            [ObjectKind::Fence, ObjectKind::Wallet],
        ] {
            let steps = plan_steps(service, &kinds);
            assert_eq!(steps[1].0, ObjectKind::Wallet, "{kinds:?}");
            let (_, rate) = service
                .corpus_stats(ObjectKind::Wallet, &steps[1].1)
                .unwrap();
            assert_eq!(rate, 1.0);
        }
    }

    /// Every permutation of every subset of `kinds`, walked through the
    /// service's seam, matches the intersection of the single-predicate
    /// answers: order moves work, never answers.
    fn assert_order_invariant(service: &QueryService, kinds: &[ObjectKind]) {
        let items: Vec<&CorpusItem> = service.corpus.items.iter().collect();
        let singles: Vec<HashSet<u64>> = kinds
            .iter()
            .map(|&k| single_ids(service, k).into_iter().collect())
            .collect();
        let steps = plan_steps(service, kinds);
        let cascade_of = |k: ObjectKind| steps.iter().find(|s| s.0 == k).unwrap().1;
        for bits in 1u32..(1 << kinds.len()) {
            let subset: Vec<usize> = (0..kinds.len()).filter(|i| bits & (1 << i) != 0).collect();
            let expected: Vec<u64> = items
                .iter()
                .map(|item| item.id)
                .filter(|id| subset.iter().all(|&i| singles[i].contains(id)))
                .collect();
            let mut perm = subset;
            loop {
                let order: Vec<(ObjectKind, Cascade)> = perm
                    .iter()
                    .map(|&i| (kinds[i], cascade_of(kinds[i])))
                    .collect();
                let (conj, _) = walk(service, &order);
                assert_eq!(conj.matched_ids(&items), expected, "{order:?}");
                if !next_permutation(&mut perm) {
                    break;
                }
            }
        }
    }

    /// Lexicographic successor of `v`; false (and `v` untouched) at the
    /// last permutation.
    fn next_permutation(v: &mut [usize]) -> bool {
        let Some(i) = (1..v.len()).rev().find(|&i| v[i - 1] < v[i]) else {
            return false;
        };
        let j = (i..v.len()).rev().find(|&j| v[j] > v[i - 1]).unwrap();
        v.swap(i - 1, j);
        v[i..].reverse();
        true
    }

    #[test]
    fn every_step_order_answers_the_intersection() {
        let kinds = [ObjectKind::Fence, ObjectKind::Wallet, ObjectKind::Acorn];
        assert_order_invariant(&surrogate_service(&kinds, 128, 0x90), &kinds);
        assert_order_invariant(nn_fixture(), &[ObjectKind::Fence, ObjectKind::Wallet]);
    }
}
