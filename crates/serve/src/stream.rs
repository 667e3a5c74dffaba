//! Standing continuous queries over live video streams.
//!
//! The serve-side half of `tahoma_core::continuous`: a [`StreamRegistry`]
//! holds every registered standing query, each pairing a
//! [`ContinuousExecutor`] (window state, carried decisions) with a
//! [`StreamIngest`] camera feed. A `TICK` request drives the paper's §III
//! ONGOING scenario end to end for one window slide:
//!
//! 1. the feed renders this tick's `STEP` arriving frames, side by side on
//!    the process pool's lanes, and each lane materializes its frame for
//!    the shared [`RepresentationStore`] through the lattice-planned
//!    transcode path (§V ingest-time materialization);
//! 2. the tick thread commits the frames in id order — into the same
//!    store ad-hoc `QUERY` traffic reads, so a standing query's NN
//!    cascades score the stored representations, not the raw frames;
//! 3. the window slides one `STEP` and only the entrants are scored: the
//!    continuous executor runs them through the same conjunction walk an
//!    ad-hoc `QUERY` runs over the corpus, with the same evaluation seam
//!    (`QueryService::eval_kind_pack`: per-kind thresholds, scratch pool,
//!    coalescing broker), so entrant packs from a tick can merge with
//!    concurrent ad-hoc packs into one batched GEMM call (§IV's batch
//!    pricing, across query classes).
//!
//! `DELTAS` reports the standing query's cumulative state and runs a
//! from-scratch window rescan through the same path; `agree=yes` on the
//! wire is the incremental ≡ rescan equivalence surfaced per query, which
//! the CI stream-smoke job asserts after driving real ticks.
//!
//! Frame ids are `qid << 32 | frame_idx`, so any number of streams share
//! the store without collisions; each registered query gets its own
//! deterministic stream instance (seeded from the registry seed and the
//! qid), its own camera id (`qid % 8`, addressable from SQL metadata
//! predicates), and a window advancing independently of every other
//! standing query — the ISSUE's multi-stream scenario is just two
//! `REGISTER` lines.

use crate::protocol::fnv1a64;
use crate::service::{QueryService, ServeError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tahoma_core::continuous::{ContinuousExecutor, TickDeltas, WindowSpec};
use tahoma_core::query::{CorpusItem, Query};
use tahoma_imagery::{ImageryError, ObjectKind, PreparedFrame, RepresentationStore};
use tahoma_mathx::lock;
use tahoma_video::{IngestFrame, StreamConfig, StreamIngest};

/// Square raster side for rendered stream frames — matches the NN
/// fixture's corpus frames so stream and corpus ingest share the store's
/// cached transcode plan.
const SCENE_SIDE: usize = 64;

/// Synthetic capture-clock base and stride, mirroring `Corpus::synthetic`
/// so SQL timestamp predicates mean the same thing for stream items.
const STREAM_EPOCH: u64 = 1_700_000_000;
const FRAME_STRIDE_S: u64 = 30;

/// What `REGISTER` returns to the client.
#[derive(Debug, Clone)]
pub struct RegisterReport {
    /// Standing-query id, used by `TICK`/`DELTAS`.
    pub qid: u64,
    /// Stream the query was bound to.
    pub stream: String,
    /// Window width in arrivals.
    pub range: u64,
    /// Arrivals per tick.
    pub step: u64,
}

/// What one `TICK` returns: the slide's deltas plus the post-slide
/// matched-set summary (count and order-sensitive FNV over the ids, so a
/// client replaying the deltas can verify its reconstruction).
#[derive(Debug, Clone)]
pub struct TickReport {
    /// Standing-query id.
    pub qid: u64,
    /// Matched items in the window after this slide.
    pub matched: usize,
    /// `fnv1a64` over the matched ids, arrival order.
    pub sum: u64,
    /// The slide's result delta and work accounting.
    pub deltas: TickDeltas,
}

/// What `DELTAS` returns: cumulative standing-query state plus the
/// incremental-vs-rescan equivalence check run server-side.
#[derive(Debug, Clone)]
pub struct StreamStatus {
    /// Standing-query id.
    pub qid: u64,
    /// Ticks executed so far.
    pub ticks: u64,
    /// Current window coverage in arrival positions, `[start, end)`.
    pub window_start: u64,
    /// Exclusive window end.
    pub window_end: u64,
    /// Matched items currently in the window.
    pub matched: usize,
    /// Total cascade rows scored incrementally across all ticks.
    pub scored: u64,
    /// `fnv1a64` over the incrementally maintained matched ids.
    pub sum: u64,
    /// `fnv1a64` over a from-scratch rescan of the current window.
    pub rescan_sum: u64,
    /// Whether the incremental result set equals the rescan, id for id.
    pub agree: bool,
    /// Whether the standing query is quarantined: a tick evaluation
    /// failed twice in a row, the window froze at its last consistent
    /// state, and further `TICK`s are refused (re-`REGISTER` to recover).
    /// Encoded on the wire as ` state=degraded`; a degraded status skips
    /// the rescan (`rescan_sum=0`, `agree=no`).
    pub degraded: bool,
}

/// One arriving frame's records, prepared for each of a standing query's
/// stores on the frame's render lane.
type Prepared = Result<Vec<PreparedFrame>, ImageryError>;

/// One standing query's mutable state: the window executor, its camera
/// feed, and the NN stores its frames materialize into.
struct StandingState {
    cx: ContinuousExecutor,
    feed: StreamIngest,
    /// Distinct representation stores behind the query's NN-backed kinds;
    /// every arriving frame is ingested into each (surrogate-only queries
    /// move no pixels and leave this empty).
    stores: Vec<Arc<RepresentationStore>>,
    /// Deduplicated content kinds, for broker interest registration.
    kinds: Vec<ObjectKind>,
    camera: u64,
    /// Rendered frames not yet ingested, in id order, each with its
    /// records prepared for every store (one entry per store, in `stores`
    /// order): a store commit that failed mid-tick parks its frame and
    /// every frame after it, and the next tick retries their commits
    /// before rendering more, so a transient ingest fault never loses a
    /// frame (the retried window is identical to the fault-free one).
    parked: VecDeque<(IngestFrame, Prepared)>,
    /// Sticky quarantine reason: set when a tick evaluation failed twice
    /// in a row. A degraded query refuses further ticks and reports
    /// `state=degraded` via `DELTAS` (see RELIABILITY.md).
    degraded: Option<String>,
}

/// A registered standing query. Shared via `Arc` so the registry lock is
/// never held while a tick runs.
pub struct StandingQuery {
    stream_name: String,
    // One standing query's entire mutable state (window entries, stream
    // cursor, parked frames); held across a whole tick, strictly below
    // the registry map (25) and above everything the tick reaches through
    // the service: scratch pools (30), broker (40/50), and store
    // ingest/fetch (65/67/70/71). The render jobs a tick spawns on the
    // process pool while holding it take only the store's plan cache (65)
    // for a lookup; like an inference scope under this lock, the owner
    // thread may help run other scopes' jobs while it waits for its
    // renders.
    // LOCK-ORDER: 27
    window: Mutex<StandingState>,
}

/// The server's table of standing queries. `register` binds a parsed SQL
/// query to a named stream and a RANGE/STEP window; `tick` and `status`
/// address entries by qid. All methods take `&self` — concurrent ticks of
/// *different* standing queries proceed in parallel (and coalesce in the
/// broker); ticks of the same query serialize on its state lock.
pub struct StreamRegistry {
    seed: u64,
    next_qid: AtomicU64,
    // LOCK-ORDER: 25 — registry map of standing queries; held only to
    // insert or clone an Arc, never across ingest, planning, or a tick
    // (the per-query state lock ranks above at 27).
    standing: Mutex<HashMap<u64, Arc<StandingQuery>>>,
}

impl StreamRegistry {
    /// A registry whose streams derive their frame sequences from `seed`.
    pub fn new(seed: u64) -> StreamRegistry {
        StreamRegistry {
            seed,
            next_qid: AtomicU64::new(1),
            standing: Mutex::new(HashMap::new()),
        }
    }

    /// Standing queries currently registered.
    pub fn len(&self) -> usize {
        lock(&self.standing).len()
    }

    /// True when no standing query is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Register `sql` as a standing query over the named stream with a
    /// `RANGE`/`STEP` count window. Planning happens once, here, through
    /// the service's plan cache; the selected cascades are pinned for the
    /// query's lifetime (re-registering picks up a new plan).
    pub fn register(
        &self,
        service: &QueryService,
        stream: &str,
        range: u64,
        step: u64,
        sql: &str,
    ) -> Result<RegisterReport, ServeError> {
        let query = Query::parse(sql).map_err(|e| ServeError::Query(e.to_string()))?;
        let window = WindowSpec::new(range, step).map_err(|e| ServeError::Query(e.to_string()))?;
        let mut kinds = query.content.clone();
        kinds.sort_unstable();
        kinds.dedup();
        let mut cascades = BTreeMap::new();
        if !kinds.is_empty() {
            let (plan, _) = service.plan_for(&query.content, true)?;
            for (kind, selected) in &plan.entries {
                cascades.insert(*kind, selected.cascade);
            }
        }
        let qid = self.next_qid.fetch_add(1, Ordering::Relaxed);
        // Each registration gets its own deterministic stream instance:
        // same registry seed + same registration order = same frames.
        let stream_seed = self.seed ^ qid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let config = match stream {
            "coral" => StreamConfig::coral(stream_seed),
            "jackson" => StreamConfig::jackson(stream_seed),
            other => {
                return Err(ServeError::Query(format!(
                    "unknown stream '{other}' (expected coral or jackson)"
                )))
            }
        };
        // The renderer plants the query's first content kind on positive
        // frames (a metadata-only standing query still needs pixels to
        // ingest; any kind will do).
        let scene_kind = kinds.first().copied().unwrap_or(ObjectKind::Fence);
        let cx = ContinuousExecutor::register(query, cascades, window)
            .map_err(|e| ServeError::Query(e.to_string()))?;
        let mut stores: Vec<Arc<RepresentationStore>> = Vec::new();
        for &kind in &kinds {
            if let Some(store) = service.nn_store(kind) {
                if !stores.iter().any(|s| Arc::ptr_eq(s, &store)) {
                    stores.push(store);
                }
            }
        }
        let feed = StreamIngest::new(config, scene_kind, SCENE_SIDE, qid << 32);
        let sq = Arc::new(StandingQuery {
            stream_name: stream.to_string(),
            window: Mutex::new(StandingState {
                cx,
                feed,
                stores,
                kinds,
                camera: qid % 8,
                parked: VecDeque::new(),
                degraded: None,
            }),
        });
        lock(&self.standing).insert(qid, sq);
        Ok(RegisterReport {
            qid,
            stream: stream.to_string(),
            range,
            step,
        })
    }

    fn get(&self, qid: u64) -> Result<Arc<StandingQuery>, ServeError> {
        lock(&self.standing)
            .get(&qid)
            .cloned()
            .ok_or_else(|| ServeError::Query(format!("unknown standing query {qid}")))
    }

    /// Drive one window slide: ingest the tick's `STEP` arriving frames
    /// (render → store materialization → executor buffer), then tick the
    /// window, scoring only the entrants. The feed renders every frame
    /// still missing up to the tick's window end in one call, and each
    /// frame's lane also builds its thumbnail and prepares its records for
    /// every store; this thread then commits them one by one in id order,
    /// so segment files are byte-identical to a serial feed. A frame whose
    /// commit failed is parked with every frame after it, so a tick that
    /// errored mid-way is simply retried with nothing lost.
    ///
    /// A failed window evaluation is retried once on the spot — the
    /// executor's tick is failure-atomic, so the retry replays the
    /// identical slide. If the retry also fails, the standing query is
    /// quarantined: its window freezes at the last consistent state,
    /// further `TICK`s answer an explicit `DEGRADED` error, and `DELTAS`
    /// reports `state=degraded` (the degradation ladder, RELIABILITY.md).
    pub fn tick(&self, service: &QueryService, qid: u64) -> Result<TickReport, ServeError> {
        let sq = self.get(qid)?;
        let mut st = lock(&sq.window);
        let st = &mut *st;
        if let Some(reason) = &st.degraded {
            return Err(ServeError::Exec(format!(
                "standing query {qid} is DEGRADED ({reason}); window frozen, re-REGISTER to recover"
            )));
        }
        let _interest = service.register_interest(&st.kinds, true);
        let need = (st.cx.ticks() + 1) * st.cx.window().step();
        let missing = need.saturating_sub(st.cx.arrived() + st.parked.len() as u64);
        let stores = &st.stores;
        let rendered = st.feed.take_ingest_with(missing as usize, |f, engine| {
            stores
                .iter()
                .map(|store| store.prepare(f.id, &f.image, engine))
                .collect::<Result<Vec<_>, _>>()
        });
        st.parked.extend(rendered);
        while let Some((arriving, prepared)) = st.parked.pop_front() {
            let committed = prepared.as_ref().map_err(|e| e.to_string()).and_then(|p| {
                st.stores
                    .iter()
                    .zip(p)
                    .try_for_each(|(store, p)| store.commit(p))
                    .map_err(|e| e.to_string())
            });
            if let Err(e) = committed {
                // Park the frame back at the front: the next tick retries
                // these exact commits (re-appending already-written stores
                // is idempotent — last record wins).
                st.parked.push_front((arriving, prepared));
                return Err(ServeError::Exec(format!("stream ingest: {e}")));
            }
            let item = corpus_item(&arriving, st.feed.kind(), st.camera, &sq.stream_name);
            st.cx.ingest(item);
        }
        let mut retried = false;
        let deltas = loop {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                st.cx.tick(|kind, cascade, pack| {
                    // FAULT: one window evaluation dies (transient); the
                    // failure-atomic tick makes the in-place retry replay
                    // the identical slide.
                    if let Some(e) = tahoma_faults::transient_io(tahoma_faults::site::STREAM_TICK) {
                        return Err(ServeError::Exec(format!("injected tick fault: {e}")));
                    }
                    let (passes, _) = service.eval_kind_pack(kind, cascade, pack, true)?;
                    Ok(passes)
                })
            }));
            let failure = match attempt {
                Ok(Ok(d)) => break d,
                Ok(Err(e)) => e.to_string(),
                Err(_) => {
                    service.note_panic_caught();
                    "window evaluation panicked".to_string()
                }
            };
            if !retried {
                retried = true;
                continue;
            }
            st.degraded = Some(failure.clone());
            return Err(ServeError::Exec(format!(
                "standing query {qid} DEGRADED: {failure} (tick failed twice; window frozen, \
                 re-REGISTER to recover)"
            )));
        };
        let matched = st.cx.matched();
        Ok(TickReport {
            qid,
            matched: matched.len(),
            sum: fnv1a64(&matched),
            deltas,
        })
    }

    /// Report a standing query's cumulative state and verify, server-side,
    /// that the incrementally maintained result set equals a from-scratch
    /// rescan of the current window through the same backend path.
    pub fn status(&self, service: &QueryService, qid: u64) -> Result<StreamStatus, ServeError> {
        let sq = self.get(qid)?;
        let st = lock(&sq.window);
        let _interest = service.register_interest(&st.kinds, true);
        let matched = st.cx.matched();
        // A quarantined query skips the rescan (the backend that failed
        // its ticks would likely fail it too) and reports itself
        // explicitly instead: state=degraded, agree=no.
        let (rescan_sum, agree) = if st.degraded.is_some() {
            (0, false)
        } else {
            let rescan = st.cx.rescan(|kind, cascade, pack| {
                let (passes, _) = service.eval_kind_pack(kind, cascade, pack, true)?;
                Ok::<_, ServeError>(passes)
            })?;
            (fnv1a64(&rescan), matched == rescan)
        };
        let ticks = st.cx.ticks();
        let window_end = ticks * st.cx.window().step();
        let window_start = window_end.saturating_sub(st.cx.window().range());
        Ok(StreamStatus {
            qid,
            ticks,
            window_start,
            window_end,
            matched: matched.len(),
            scored: st.cx.scored_total(),
            sum: fnv1a64(&matched),
            rescan_sum,
            agree,
            degraded: st.degraded.is_some(),
        })
    }
}

/// An arriving frame as a corpus item: ground truth comes from the stream
/// (the renderer planted `kind` iff the frame is positive), metadata from
/// the standing query's camera identity and the synthetic capture clock.
fn corpus_item(f: &IngestFrame, kind: ObjectKind, camera: u64, location: &str) -> CorpusItem {
    CorpusItem {
        id: f.id,
        location: location.to_string(),
        camera,
        timestamp: STREAM_EPOCH + f.frame.idx * FRAME_STRIDE_S,
        objects: if f.frame.label {
            vec![kind]
        } else {
            Vec::new()
        },
        difficulty: f.frame.difficulty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::surrogate_service;

    #[test]
    fn register_tick_deltas_reconstruct_and_rescan_agrees() {
        let service = surrogate_service(&[ObjectKind::Fence], 64, 0x5EED);
        let registry = StreamRegistry::new(0xCAFE);
        let r = registry
            .register(
                &service,
                "coral",
                12,
                4,
                "SELECT * FROM frames WHERE contains_object(fence)",
            )
            .expect("registers");
        assert_eq!((r.range, r.step), (12, 4));
        let mut rebuilt: Vec<u64> = Vec::new();
        for tick in 1..=6u64 {
            let t = registry.tick(&service, r.qid).expect("ticks");
            assert_eq!(t.deltas.tick, tick);
            rebuilt.retain(|id| !t.deltas.removed.contains(id));
            rebuilt.extend(&t.deltas.added);
            assert_eq!(rebuilt.len(), t.matched, "tick {tick}");
            assert_eq!(fnv1a64(&rebuilt), t.sum, "tick {tick} delta replay");
        }
        let s = registry.status(&service, r.qid).expect("status");
        assert_eq!(s.ticks, 6);
        assert_eq!((s.window_start, s.window_end), (12, 24));
        assert!(s.agree, "incremental != rescan");
        assert_eq!(s.sum, fnv1a64(&rebuilt));
        assert_eq!(s.sum, s.rescan_sum);
        // Incremental work is bounded by arrivals, not ticks * RANGE.
        assert!(s.scored <= 24);
    }

    #[test]
    fn two_streams_same_predicate_have_independent_windows() {
        let service = surrogate_service(&[ObjectKind::Fence], 64, 0x5EED);
        let registry = StreamRegistry::new(0xD1CE);
        let sql = "SELECT * FROM frames WHERE contains_object(fence)";
        let a = registry.register(&service, "coral", 8, 4, sql).expect("a");
        let b = registry
            .register(&service, "jackson", 16, 2, sql)
            .expect("b");
        assert_ne!(a.qid, b.qid);
        registry.tick(&service, a.qid).expect("a tick");
        let tb = registry.tick(&service, b.qid).expect("b tick");
        assert_eq!(tb.deltas.window_end, 2, "b's window advances alone");
        // Disjoint id spaces: b's ids carry its qid in the high bits.
        for id in &tb.deltas.added {
            assert_eq!(id >> 32, b.qid);
        }
        let sa = registry.status(&service, a.qid).expect("a status");
        let sb = registry.status(&service, b.qid).expect("b status");
        assert!(sa.agree && sb.agree);
        assert_eq!(sa.ticks, 1);
        assert_eq!(sb.window_end, 2);
    }

    #[test]
    fn bad_registrations_and_unknown_qids_error() {
        let service = surrogate_service(&[ObjectKind::Fence], 32, 1);
        let registry = StreamRegistry::new(0);
        let sql = "SELECT * FROM frames WHERE contains_object(fence)";
        assert!(registry.register(&service, "nosuch", 4, 2, sql).is_err());
        assert!(registry.register(&service, "coral", 0, 2, sql).is_err());
        assert!(registry
            .register(&service, "coral", 4, 2, "not sql at all")
            .is_err());
        assert!(registry
            .register(
                &service,
                "coral",
                4,
                2,
                "SELECT * FROM frames WHERE contains_object(acorn)"
            )
            .is_err());
        assert!(registry.tick(&service, 99).is_err());
        assert!(registry.status(&service, 99).is_err());
    }
}
