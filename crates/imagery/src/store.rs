//! Representation store: the ONGOING scenario's ingest-time materialization
//! (paper §III: "video is continually ingested [...] transformed into
//! appropriate representations that are stored on SSD for later queries").
//!
//! On ingest, the store materializes a configured set of representations
//! per frame with the raw codec (one byte per sample, the layout the cost
//! model prices). At query time a model fetches exactly its
//! representation's bytes — no full-frame load, no transform. The store
//! tracks byte totals so storage-amplification tradeoffs (paper §V: how
//! many representations is it worth pre-computing?) are measurable. The
//! representation set is the caller's list, fixed when the store is
//! created.
//!
//! One storage layout: item-id-sharded append-only segment files with
//! positioned-read access, crash recovery, and CRC integrity (see
//! [`crate::segment`]). The corpus does not have to fit in RAM, and a
//! process restart [`RepresentationStore::open`]s a
//! [`RepresentationStore::persistent`] store's corpus back
//! byte-identically. A store nobody reopens (tests, examples, a server run
//! without a store directory) is [`RepresentationStore::temporary`]: the
//! same segment files, in a directory removed as soon as they are open.
//!
//! All reads go through one shared-borrow read loop
//! ([`RepresentationStore::fetch_with`]): the caller supplies the
//! [`TranscodeEngine`] whose scratch receives the read and a consumer of
//! the record's samples — [`RepresentationStore::fetch`] decodes them into
//! the engine's buffer pool, the query path standardizes them straight
//! into an inference row — so many query sessions fetch from one store
//! concurrently, each with its own engine. Since the continuous-query
//! layer, *writes* share the same borrow: [`RepresentationStore::ingest`]
//! is `&self` and internally synchronized, so live streams ingest through
//! the same `Arc`-shared handle the query sessions fetch from.
//!
//! A write is two steps. [`RepresentationStore::prepare`] materializes and
//! encodes a frame on the caller's engine and takes no lock while it
//! works, so frames prepare side by side on the process pool's lanes.
//! [`RepresentationStore::commit`] appends the prepared records, fanning
//! out across shard locks (ranks in `SAFETY.md`). Committing in id order
//! writes exactly the files a one-frame-at-a-time `ingest` loop writes,
//! however the preparing was spread.
//!
//! Materialization runs a [`TranscodeEngine`] through a
//! [`TranscodePlan`] built once per source shape (see [`crate::engine`]):
//! the shared luma plane is computed once per frame, single-channel targets
//! resize straight from the source's planes, and resize span tables are
//! reused across frames — this is the per-frame serving cost of the
//! ONGOING scenario, so it gets the engine's full hot-path treatment. The
//! quarantine fallback ([`RepresentationStore::rederive`]) derives its one
//! target through the same engine with a one-target plan: a planned output
//! equals the single-target one bit for bit, so the stand-in matches the
//! stored record without replaying the whole set.

use crate::codec::{RawCodec, RAW_HEADER_LEN};
use crate::engine::{TranscodeEngine, TranscodePlan, TranscodeStep};
use crate::error::ImageryError;
use crate::image::Image;
use crate::repr::Representation;
use crate::segment::{frame_record, RecoveryReport, SegmentStore, RECORD_HEADER_LEN};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
// Poison-tolerant: every plan/quarantine update is complete before the
// guard drops, so a panicking peer never leaves a half-written entry behind.
use tahoma_mathx::{hash64, rank, Ranked};

/// Store manifest file name (records shard count + representation set so
/// [`RepresentationStore::open`] needs only the directory).
const MANIFEST: &str = "manifest.tsm";
const MANIFEST_HEADER: &str = "tahoma-store v1";

/// Shard files of a [`RepresentationStore::temporary`] store (the serving
/// fixture's count).
const TEMPORARY_SHARDS: usize = 8;

/// One frame's ingest, built by [`RepresentationStore::prepare`] and
/// written by [`RepresentationStore::commit`]: every configured
/// representation encoded and framed as a segment record (header and
/// CRC), in the store's representation order, so a commit only appends
/// bytes.
#[derive(Debug)]
pub struct PreparedFrame {
    id: u64,
    /// The representations' framed records, back to back.
    bytes: Vec<u8>,
    /// End offset of each representation's record in `bytes`.
    ends: Vec<usize>,
    /// Encoded payload bytes, without record framing (the store's byte
    /// accounting).
    payload: usize,
}

impl PreparedFrame {
    /// Each representation's record, in the store's representation order.
    fn records(&self) -> impl Iterator<Item = &[u8]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| &self.bytes[a..b])
    }
}

/// Classified result of [`RepresentationStore::fetch_with`].
#[derive(Debug)]
pub enum Fetched<T> {
    /// The stored record, as the caller's consumer made it from the
    /// record's samples.
    Hit(T),
    /// The record was never ingested — the caller's ordinary fallback
    /// (transcode from a stored source representation) applies.
    Absent,
    /// The record exists but is quarantined — CRC-corrupt, undecodable,
    /// of another shape than its representation, or persistently
    /// unreadable after retries. The stored bytes are never served;
    /// callers must fall back to transcode-from-source and surface the
    /// result as degraded (see RELIABILITY.md).
    Quarantined,
}

/// Reliability counters accumulated by the fetch/ingest paths (surfaced
/// through the serve layer's `STATS`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Transient-error retries performed (fetch and ingest).
    pub retries: u64,
    /// Fetches answered `Quarantined` (the caller degraded to a source
    /// transcode instead of the materialized representation).
    pub degraded_fetches: u64,
    /// Records currently quarantined.
    pub quarantined: u64,
}

/// Transient-error retry budget: total attempts per operation (the first
/// try plus bounded retries with jittered backoff).
const MAX_ATTEMPTS: u32 = 4;

/// Deterministic backoff with per-(record, attempt) jitter: exponential
/// base so repeated transients spread out, splitmix-derived jitter so
/// concurrent retriers of different records decorrelate.
fn backoff(id: u64, attempt: u32) {
    let jitter_us = hash64(id ^ ((attempt as u64) << 32)) % 64;
    let base_us = 32u64 << attempt.min(8);
    std::thread::sleep(std::time::Duration::from_micros(base_us + jitter_us));
}

/// Frames one lane job builds and prepares in
/// [`RepresentationStore::ingest_on_lanes`]: small, so the wave's last job
/// leaves the other lanes little idle time.
const LANE_JOB_FRAMES: usize = 4;

/// Jobs per lane in one wave of [`RepresentationStore::ingest_on_lanes`]:
/// enough that the caller's commits of the previous wave and its share of
/// this wave's jobs balance against the other lanes.
const LANE_JOBS: usize = 4;

/// The representation store; see the module docs for the layout.
#[derive(Debug)]
pub struct RepresentationStore {
    reps: Vec<Representation>,
    segments: SegmentStore,
    total_bytes: AtomicUsize,
    ingested: AtomicU64,
    // Ingest-side plan cache: the lattice plan for each distinct source
    // shape, built once and shared by every preparing thread. Held only
    // to look up or insert a plan, never across a materialization, an
    // append or any other lock.
    ingest_plans: Ranked<HashMap<(usize, usize), Arc<TranscodePlan>>, { rank::INGEST_PLANS }>,
    // Quarantined (id, rep) keys: records whose stored bytes must never
    // be served again. Guarded by a length fast path so the fault-free
    // fetch path pays one relaxed load, no lock.
    // Taken during fetch/verify only, never while a shard lock is held.
    quarantine: Ranked<HashSet<(u64, Representation)>, { rank::QUARANTINE }>,
    quarantine_len: AtomicUsize,
    retries: AtomicU64,
    degraded_fetches: AtomicU64,
}

impl RepresentationStore {
    /// Create a store under `dir` with `shards` segment files (existing
    /// segment data is truncated). The manifest written alongside lets
    /// [`RepresentationStore::open`] reconstruct the configuration.
    pub fn persistent(
        reps: Vec<Representation>,
        dir: &Path,
        shards: usize,
    ) -> Result<RepresentationStore, ImageryError> {
        assert!(!reps.is_empty(), "store needs at least one representation");
        let segments = SegmentStore::create(dir, shards)?;
        write_manifest(dir, shards, &reps)?;
        Ok(RepresentationStore::over(reps, segments, 0, 0))
    }

    /// Create a store that is never reopened: segment files in a fresh
    /// directory under [`std::env::temp_dir`], which is removed as soon as
    /// the files are open. The open handles keep the files alive until the
    /// store drops, and nothing is left on disk after that. Where an open
    /// file cannot be unlinked (non-unix targets), the directory stays.
    pub fn temporary(reps: Vec<Representation>) -> Result<RepresentationStore, ImageryError> {
        assert!(!reps.is_empty(), "store needs at least one representation");
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = loop {
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("tahoma-temp-store-{}-{seq}", std::process::id()));
            match fs::create_dir(&dir) {
                Ok(()) => break dir,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e.into()),
            }
        };
        let segments = SegmentStore::create(&dir, TEMPORARY_SHARDS);
        let removed = fs::remove_dir_all(&dir);
        let segments = segments?;
        if cfg!(unix) {
            removed?;
        }
        Ok(RepresentationStore::over(reps, segments, 0, 0))
    }

    /// Reopen a persistent store from its directory, recovering each shard
    /// to its last complete record (see [`crate::segment`]). Frame and
    /// byte accounting are rebuilt from the recovered indexes.
    pub fn open(dir: &Path) -> Result<(RepresentationStore, RecoveryReport), ImageryError> {
        let (shards, reps) = read_manifest(dir)?;
        let (segments, report) = SegmentStore::open(dir, shards)?;
        let ingested = segments.distinct_ids();
        let total_bytes =
            (segments.committed_bytes() - segments.records() * RECORD_HEADER_LEN as u64) as usize;
        Ok((
            RepresentationStore::over(reps, segments, total_bytes, ingested),
            report,
        ))
    }

    /// A store over `segments`, holding `total_bytes` of payload across
    /// `ingested` frames.
    fn over(
        reps: Vec<Representation>,
        segments: SegmentStore,
        total_bytes: usize,
        ingested: u64,
    ) -> RepresentationStore {
        RepresentationStore {
            reps,
            segments,
            total_bytes: AtomicUsize::new(total_bytes),
            ingested: AtomicU64::new(ingested),
            ingest_plans: Ranked::default(),
            quarantine: Ranked::default(),
            quarantine_len: AtomicUsize::new(0),
            retries: AtomicU64::new(0),
            degraded_fetches: AtomicU64::new(0),
        }
    }

    /// The representations materialized per frame.
    pub fn representations(&self) -> &[Representation] {
        &self.reps
    }

    /// Ingest one full-resolution RGB frame: [`RepresentationStore::prepare`]
    /// on this thread's engine, then [`RepresentationStore::commit`] — the
    /// two steps every ingest runs, back to back.
    ///
    /// Takes `&self`: the ingest path is internally synchronized so live
    /// streams can feed a store that query sessions are concurrently
    /// fetching from (the serve layer shares one store behind an `Arc`).
    /// Appends touch only the shard owning this id. Do
    /// not call it from inside [`crate::engine::with_local_engine`].
    pub fn ingest(&self, id: u64, full: &Image) -> Result<(), ImageryError> {
        let prepared = crate::engine::with_local_engine(|e| self.prepare(id, full, e))?;
        self.commit(&prepared)
    }

    /// The write side's compute half: produce and encode every configured
    /// representation through the lattice plan (shared luma, borrowed
    /// planes, cached resize tables) on the caller's `engine`, and frame
    /// each record with its CRC. Touches no stored state
    /// and holds no lock while it works, so frames prepare on any number
    /// of threads at once; the bytes are a function of `(id, full)` and
    /// the store's configuration alone, whichever thread prepares them.
    pub fn prepare(
        &self,
        id: u64,
        full: &Image,
        engine: &mut TranscodeEngine,
    ) -> Result<PreparedFrame, ImageryError> {
        let plan = self.plan_for((full.width(), full.height()));
        // Quantize the frame once, straight into its `TAH1` encoding, and
        // derive every representation from what those bytes decode back
        // to: each stored record is then a function of exactly the stored
        // source, which is what makes `rederive` (the quarantine
        // degradation rung) bitwise exact (RELIABILITY.md).
        let mut source = Vec::new();
        RawCodec.encode_into(full, &mut source);
        let buf = engine.take_buffer(full.value_count());
        let decoded = RawCodec.decode_into(&source, buf)?;
        let materialized = engine.apply_planned(&decoded, &plan);
        engine.recycle([decoded]);
        let materialized = materialized?;
        let mut out = PreparedFrame {
            id,
            bytes: Vec::with_capacity(
                self.reps
                    .iter()
                    .map(|r| RECORD_HEADER_LEN + RAW_HEADER_LEN + r.value_count())
                    .sum(),
            ),
            ends: Vec::with_capacity(self.reps.len()),
            payload: 0,
        };
        let mut encoded = Vec::new();
        let mut derived = plan.reps().iter().zip(&materialized).peekable();
        for &rep in &self.reps {
            let bytes: &[u8] = match derived.next_if(|&(&r, _)| r == rep) {
                Some((_, image)) => {
                    RawCodec.encode_into(image, &mut encoded);
                    &encoded
                }
                // Left out of the plan: the full-size RGB target is the
                // source itself, whose bytes are already encoded (the u8
                // grid is a fixed point of the codec).
                None => &source,
            };
            out.payload += bytes.len();
            frame_record(&mut out.bytes, id, rep, bytes);
            out.ends.push(out.bytes.len());
        }
        // Only the encoded bytes are kept; the pixel buffers feed the next
        // frame's materialization instead of the allocator.
        engine.recycle(materialized);
        Ok(out)
    }

    /// The write side's ordered half: append a prepared frame's records,
    /// publish them to the index and count the frame. Commits run in the
    /// order that fixes the files — committing frames in id order writes
    /// the bytes a one-at-a-time [`RepresentationStore::ingest`] loop
    /// writes. A failed commit may be retried with the same frame:
    /// re-appending a key is idempotent at the index (last record wins).
    pub fn commit(&self, frame: &PreparedFrame) -> Result<(), ImageryError> {
        assert_eq!(
            frame.ends.len(),
            self.reps.len(),
            "frame {} was prepared for another store",
            frame.id
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "FAULT: transient ingest fault upstream of any state change, so the caller's retry re-runs the whole frame cleanly"
        )]
        let injected = tahoma_faults::transient_io(tahoma_faults::site::STORE_INGEST);
        if let Some(e) = injected {
            return Err(e.into());
        }
        // Bounded retry on transient append errors; re-appending a key is
        // idempotent at the index (last record wins), so a retried write
        // can never serve torn bytes.
        for record in frame.records() {
            let mut attempt = 0;
            while let Err(e) = self.segments.append_record(record) {
                let e: ImageryError = e.into();
                attempt += 1;
                if !e.is_transient() || attempt >= MAX_ATTEMPTS {
                    return Err(e);
                }
                self.retries.fetch_add(1, Ordering::Relaxed);
                backoff(frame.id, attempt);
            }
        }
        self.total_bytes.fetch_add(frame.payload, Ordering::Relaxed);
        self.ingested.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Ingest a batch of frames on the process pool's lanes: frame `id` is
    /// `make(id)`, built and prepared in jobs of 4 frames on the lanes' own
    /// engines, and committed in `ids` order on the caller. The batch runs
    /// in waves of 4 jobs per lane (the pool's workers and the caller); the
    /// caller commits one wave while the lanes prepare the next, so at most
    /// two waves of prepared frames exist at once, whatever the batch size.
    /// With zero pool workers every job runs inline on the caller.
    ///
    /// The files are byte-identical to `ingest` called on each id in
    /// order: preparing is a pure function of the frame, and the commits
    /// run in that order. The first failing commit stops the batch.
    pub fn ingest_on_lanes(
        &self,
        ids: &[u64],
        make: impl Fn(u64) -> Image + Sync,
    ) -> Result<(), ImageryError> {
        let make = &make;
        let lanes = tahoma_mathx::pool::workers() + 1;
        let mut ready: Vec<Result<PreparedFrame, ImageryError>> = Vec::new();
        for wave in ids.chunks(lanes * LANE_JOBS * LANE_JOB_FRAMES) {
            let mut next: Vec<Vec<Result<PreparedFrame, ImageryError>>> =
                wave.chunks(LANE_JOB_FRAMES).map(|_| Vec::new()).collect();
            let committed = tahoma_mathx::pool::scope(|s| {
                for (job, out) in wave.chunks(LANE_JOB_FRAMES).zip(next.iter_mut()) {
                    s.spawn(move || {
                        for &id in job {
                            let full = make(id);
                            let prepared =
                                crate::engine::with_local_engine(|e| self.prepare(id, &full, e));
                            out.push(prepared);
                        }
                    });
                }
                ready.drain(..).try_for_each(|p| self.commit(&p?))
            });
            committed?;
            ready = next.into_iter().flatten().collect();
        }
        ready.into_iter().try_for_each(|p| self.commit(&p?))
    }

    /// Re-derive one representation from a caller-supplied
    /// full-resolution frame with a one-target transcode. Every target of
    /// ingest's lattice plan is derived straight from the source (or its
    /// luma plane) with the operations the direct path runs, so for a
    /// configured representation — quantized onto the stored u8 grid —
    /// the recovered pixels are bitwise identical to the stored record
    /// they stand in for. This is the quarantine degradation rung's
    /// compute half: fetch the pinned source, re-derive the input
    /// (RELIABILITY.md). Runs on the caller's `engine`.
    ///
    /// A representation the store never materialized has no stored record
    /// to reproduce, so it is returned unquantized — the on-the-fly path
    /// executors use for reps outside the configured set.
    pub fn rederive(
        &self,
        full: &Image,
        rep: Representation,
        engine: &mut TranscodeEngine,
    ) -> Result<Image, ImageryError> {
        let mut out = engine.apply(full, rep)?;
        if self.reps.contains(&rep) {
            // A normal fetch serves *decoded* pixels (the stored u8 grid),
            // so the stand-in must land on that grid too, not on the
            // full-precision derivation.
            crate::codec::quantize_roundtrip(&mut out);
        }
        Ok(out)
    }

    /// The lattice plan for one source shape, planned on first use. It
    /// leaves out the `Identity` target (the full-size RGB frame), whose
    /// stored bytes are the encoded source, so ingest never copies it.
    fn plan_for(&self, shape: (usize, usize)) -> Arc<TranscodePlan> {
        let mut plans = self.ingest_plans.lock();
        let plan = plans.entry(shape).or_insert_with(|| {
            let all = TranscodePlan::new(shape.0, shape.1, &self.reps);
            let derived: Vec<Representation> = (self.reps.iter().zip(all.steps()))
                .filter(|&(_, &step)| step != TranscodeStep::Identity)
                .map(|(&rep, _)| rep)
                .collect();
            Arc::new(TranscodePlan::new(shape.0, shape.1, &derived))
        });
        Arc::clone(plan)
    }

    /// Fetch one stored representation, decoding it into a buffer from the
    /// caller's engine pool. The store is only borrowed shared, so any
    /// number of query sessions fetch concurrently, each with its own
    /// [`TranscodeEngine`] (and thus its own buffer pool); hand decoded
    /// images back to *that* engine's [`TranscodeEngine::recycle`] and
    /// steady-state fetching allocates nothing. `None` when the frame or
    /// representation was never ingested *or* the record is quarantined —
    /// [`RepresentationStore::fetch_with`] tells the two apart.
    pub fn fetch(
        &self,
        id: u64,
        rep: Representation,
        engine: &mut TranscodeEngine,
    ) -> Option<Result<Image, ImageryError>> {
        match self.fetch_with(id, rep, engine, |samples, e| e.decode_samples(samples, rep)) {
            Fetched::Hit(img) => Some(Ok(img)),
            Fetched::Absent | Fetched::Quarantined => None,
        }
    }

    /// The store's classified read: `consume` receives the record's
    /// samples — read into the engine's byte scratch, header checked to
    /// be exactly `rep`'s shape — and what it returns is the
    /// [`Fetched::Hit`]. Transient read errors are retried with bounded
    /// jittered backoff; a record that stays unreadable, or whose bytes are
    /// corrupt, undecodable or of another shape, is quarantined and
    /// reported [`Fetched::Quarantined`] so the caller degrades to
    /// transcode-from-source instead of failing (the degradation ladder,
    /// RELIABILITY.md). An error from `consume` is classified the same way.
    /// The query path's consumer standardizes the samples straight into
    /// an inference row ([`TranscodeEngine::standardize_stored`]).
    pub fn fetch_with<T>(
        &self,
        id: u64,
        rep: Representation,
        engine: &mut TranscodeEngine,
        mut consume: impl FnMut(&[u8], &mut TranscodeEngine) -> Result<T, ImageryError>,
    ) -> Fetched<T> {
        if self.is_quarantined(id, rep) {
            self.degraded_fetches.fetch_add(1, Ordering::Relaxed);
            return Fetched::Quarantined;
        }
        match self.read_retrying(id, rep, engine, MAX_ATTEMPTS, false, &mut consume) {
            None => Fetched::Absent,
            Some(Ok(hit)) => Fetched::Hit(hit),
            // Permanent (corrupt/undecodable) or retries exhausted: never
            // serve these bytes again.
            Some(Err(_)) => {
                self.quarantine_record(id, rep);
                self.degraded_fetches.fetch_add(1, Ordering::Relaxed);
                Fetched::Quarantined
            }
        }
    }

    /// Fetch a record that must not be reclassified on failure — the
    /// transcode *source* that quarantined model inputs degrade to.
    /// Quarantining here would convert a transient fault into permanent
    /// data loss (the source is the bottom rung of the degradation
    /// ladder), so this path retries twice as hard, retries *every* error
    /// class (under fault pressure even a CRC mismatch can be a one-off
    /// torn read), never quarantines, and surfaces the last error to the
    /// caller instead of hiding it behind [`Fetched::Quarantined`].
    pub fn fetch_pinned(
        &self,
        id: u64,
        rep: Representation,
        engine: &mut TranscodeEngine,
    ) -> Option<Result<Image, ImageryError>> {
        self.read_retrying(
            id,
            rep,
            engine,
            2 * MAX_ATTEMPTS,
            true,
            &mut |samples, e| e.decode_samples(samples, rep),
        )
    }

    /// The store's one read loop: up to `attempts` reads, each preceded by
    /// one draw of the `STORE_FETCH` fault hook, with jittered backoff
    /// between them. A failed read is retried while attempts remain and
    /// the error is transient (or `any_error`); the last error is returned
    /// for the caller's policy to classify.
    fn read_retrying<T>(
        &self,
        id: u64,
        rep: Representation,
        engine: &mut TranscodeEngine,
        attempts: u32,
        any_error: bool,
        consume: &mut impl FnMut(&[u8], &mut TranscodeEngine) -> Result<T, ImageryError>,
    ) -> Option<Result<T, ImageryError>> {
        let mut attempt = 0;
        loop {
            #[expect(
                clippy::disallowed_methods,
                reason = "FAULT: transient fetch fault above the segment read (the segment layer injects its own below)"
            )]
            let read = match tahoma_faults::transient_io(tahoma_faults::site::STORE_FETCH) {
                Some(e) => Err(e.into()),
                None => self.read_once(id, rep, engine, consume)?,
            };
            match read {
                Ok(hit) => return Some(Ok(hit)),
                Err(e) => {
                    attempt += 1;
                    if attempt >= attempts || !(any_error || e.is_transient()) {
                        return Some(Err(e));
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    backoff(id, attempt);
                }
            }
        }
    }

    /// One read attempt: the payload is pread into the engine's byte
    /// scratch, its header checked against `rep`, and its samples handed
    /// to `consume` (no retry, no quarantine).
    fn read_once<T>(
        &self,
        id: u64,
        rep: Representation,
        engine: &mut TranscodeEngine,
        consume: &mut impl FnMut(&[u8], &mut TranscodeEngine) -> Result<T, ImageryError>,
    ) -> Option<Result<T, ImageryError>> {
        let mut io_buf = engine.take_io_buf();
        let fetched = self.segments.with_payload(id, rep, &mut io_buf, |blob| {
            RawCodec
                .samples_for(blob, rep)
                .and_then(|samples| consume(samples, engine))
        });
        engine.put_io_buf(io_buf);
        match fetched {
            Ok(consumed) => consumed,
            Err(e) => Some(Err(e.into())),
        }
    }

    /// Quarantine one record: its stored bytes are never served again;
    /// fetches answer [`Fetched::Quarantined`] and callers fall back to
    /// transcode-from-source.
    pub fn quarantine_record(&self, id: u64, rep: Representation) {
        let mut q = self.quarantine.lock();
        if q.insert((id, rep)) {
            self.quarantine_len.store(q.len(), Ordering::Relaxed);
        }
    }

    /// Whether a record is quarantined. One relaxed load when the
    /// quarantine set is empty (the fault-free hot path).
    pub fn is_quarantined(&self, id: u64, rep: Representation) -> bool {
        self.quarantine_len.load(Ordering::Relaxed) > 0
            && self.quarantine.lock().contains(&(id, rep))
    }

    /// Reliability counters (retries, degraded fetches, quarantine size).
    pub fn reliability_stats(&self) -> ReliabilityStats {
        ReliabilityStats {
            retries: self.retries.load(Ordering::Relaxed),
            degraded_fetches: self.degraded_fetches.load(Ordering::Relaxed),
            quarantined: self.quarantine_len.load(Ordering::Relaxed) as u64,
        }
    }

    /// Run `f` over one stored representation's encoded bytes without
    /// decoding — the byte-identity surface the persistence tests and the
    /// smoke verifier compare through. `Ok(None)` when the record was
    /// never ingested.
    pub fn with_blob<R>(
        &self,
        id: u64,
        rep: Representation,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, ImageryError> {
        let mut scratch = Vec::new();
        Ok(self.segments.with_payload(id, rep, &mut scratch, f)?)
    }

    /// Raw stored bytes for one representation (what the ONGOING load cost
    /// is proportional to).
    pub fn stored_bytes(&self, id: u64, rep: Representation) -> Option<usize> {
        self.segments.payload_len(id, rep)
    }

    /// Total bytes across all frames and representations (encoded payload
    /// bytes; the per-record framing overhead is not counted).
    pub fn total_bytes(&self) -> usize {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Frames ingested.
    pub fn frames(&self) -> u64 {
        self.ingested.load(Ordering::Relaxed)
    }

    /// Storage amplification vs keeping only the compressed full frame of
    /// `full_frame_bytes` (e.g. the ARCHIVE layout's ~60 KB).
    pub fn amplification_vs(&self, full_frame_bytes: usize) -> f64 {
        let frames = self.frames();
        if frames == 0 || full_frame_bytes == 0 {
            return 0.0;
        }
        (self.total_bytes() as f64 / frames as f64) / full_frame_bytes as f64
    }

    /// The segment store behind this store (bench/diagnostic surface).
    pub fn segments(&self) -> &SegmentStore {
        &self.segments
    }

    /// Truncate preallocation and flush shard files (see
    /// [`SegmentStore::sync`]).
    pub fn sync(&self) -> Result<(), ImageryError> {
        Ok(self.segments.sync()?)
    }

    /// Deep integrity check: re-scan and CRC-verify every record against
    /// the live index ([`SegmentStore::verify_all`]). Returns the number
    /// of verified records.
    pub fn verify(&self) -> Result<u64, ImageryError> {
        Ok(self.segments.verify_all()?)
    }

    /// Startup integrity sweep (serve's `--verify-on-open`): CRC-verify
    /// every record and *quarantine* the unverifiable ones instead of
    /// failing — fetches of a quarantined record degrade to
    /// transcode-from-source. Returns `(verified, quarantined)` record
    /// counts.
    pub fn verify_and_quarantine(&self) -> Result<(u64, usize), ImageryError> {
        let bad = self.segments.unverifiable_records()?;
        for &(id, rep) in &bad {
            self.quarantine_record(id, rep);
        }
        Ok((self.segments.records() - bad.len() as u64, bad.len()))
    }
}

fn write_manifest(dir: &Path, shards: usize, reps: &[Representation]) -> Result<(), ImageryError> {
    let tags: Vec<String> = reps.iter().map(|r| r.tag()).collect();
    let body = format!(
        "{MANIFEST_HEADER}\nshards={shards}\nreps={}\n",
        tags.join(",")
    );
    fs::write(manifest_path(dir), body)?;
    Ok(())
}

fn read_manifest(dir: &Path) -> Result<(usize, Vec<Representation>), ImageryError> {
    let path = manifest_path(dir);
    let body = fs::read_to_string(&path)?;
    let mut shards = None;
    let mut reps = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if i == 0 {
            if line.trim() != MANIFEST_HEADER {
                return Err(ImageryError::Decode(format!(
                    "{}: not a store manifest",
                    path.display()
                )));
            }
            continue;
        }
        if let Some(v) = line.strip_prefix("shards=") {
            shards = v.trim().parse::<usize>().ok();
        } else if let Some(v) = line.strip_prefix("reps=") {
            for tag in v.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                let rep = Representation::from_tag(tag).ok_or_else(|| {
                    ImageryError::Decode(format!("manifest rep tag `{tag}` unparseable"))
                })?;
                reps.push(rep);
            }
        }
    }
    let shards = shards.filter(|&s| s >= 1).ok_or_else(|| {
        ImageryError::Decode(format!("{}: missing/invalid shards=", path.display()))
    })?;
    if reps.is_empty() {
        return Err(ImageryError::Decode(format!(
            "{}: missing/empty reps=",
            path.display()
        )));
    }
    Ok((shards, reps))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::ColorMode;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn frame(seed: u64) -> Image {
        Image::from_fn(224, 224, ColorMode::Rgb, |c, y, x| {
            (((c as u64 * 31 + y as u64 * 7 + x as u64 * 3 + seed) % 11) as f32) / 11.0
        })
        .expect("valid dims")
    }

    fn small_reps() -> Vec<Representation> {
        vec![
            Representation::new(30, ColorMode::Gray),
            Representation::new(60, ColorMode::Rgb),
        ]
    }

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tahoma-store-{tag}-{}-{seq}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// The bytes ingest must store for `rep` of `full`, computed without
    /// the store: the direct per-representation transform of the frame
    /// snapped to the storage quantizer's grid (the rederive exactness
    /// guarantee), then the raw encoding.
    fn direct_apply_bytes(full: &Image, rep: Representation) -> Vec<u8> {
        let mut full_q = full.clone();
        crate::codec::quantize_roundtrip(&mut full_q);
        let direct = crate::repr::apply_reference(&full_q, rep).unwrap();
        RawCodec.encode(&direct)
    }

    fn fetch_one(store: &RepresentationStore, id: u64, rep: Representation) -> Option<Image> {
        let mut engine = TranscodeEngine::new();
        store
            .fetch(id, rep, &mut engine)
            .map(|r| r.expect("decodes"))
    }

    #[test]
    fn rederive_from_stored_source_is_bitwise_identical() {
        // The degradation contract: a quarantined model input re-derived
        // from the stored source rep must reproduce the stored bytes
        // exactly. Source rep matches the ingested frame
        // shape (the serve fixture's layout), and the set holds every way
        // the plan produces a target: the same-size gray (it owns the
        // shared luma plane), a resized gray, a same-size plane copy, a
        // resized RGB, a resized single channel and the source itself.
        let src_rep = Representation::new(224, ColorMode::Rgb);
        let reps = vec![
            Representation::new(224, ColorMode::Gray),
            Representation::new(30, ColorMode::Gray),
            Representation::new(224, ColorMode::Red),
            Representation::new(60, ColorMode::Rgb),
            Representation::new(60, ColorMode::Green),
            src_rep,
        ];
        let plan = TranscodePlan::new(224, 224, &reps);
        assert_eq!(
            plan.steps(),
            [
                TranscodeStep::CopyPlane,
                TranscodeStep::Resize,
                TranscodeStep::CopyPlane,
                TranscodeStep::Resize,
                TranscodeStep::Resize,
                TranscodeStep::Identity,
            ]
        );
        let store = RepresentationStore::temporary(reps.clone()).unwrap();
        store.ingest(5, &frame(8)).unwrap();
        let src = fetch_one(&store, 5, src_rep).expect("stored source");
        let mut engine = TranscodeEngine::new();
        for &rep in &reps {
            // Pixels, not re-encoded bytes: encoding would quantize and
            // hide a stand-in that missed the stored grid.
            let derived = store.rederive(&src, rep, &mut engine).expect("rederives");
            let stored = fetch_one(&store, 5, rep).expect("stored");
            assert_eq!(derived.data(), stored.data(), "rederive({rep}) diverged");
        }
    }

    #[test]
    fn ingest_then_fetch_roundtrips() {
        let store = RepresentationStore::temporary(small_reps()).unwrap();
        store.ingest(7, &frame(1)).unwrap();
        let rep = Representation::new(30, ColorMode::Gray);
        let img = fetch_one(&store, 7, rep).expect("stored");
        assert_eq!(img.width(), 30);
        assert_eq!(img.mode(), ColorMode::Gray);
        // Stored bytes equal header + one byte per sample.
        assert_eq!(store.stored_bytes(7, rep), Some(13 + 900));
    }

    #[test]
    fn missing_entries_are_none() {
        let store = RepresentationStore::temporary(small_reps()).unwrap();
        store.ingest(1, &frame(2)).unwrap();
        assert!(fetch_one(&store, 2, small_reps()[0]).is_none());
        assert!(fetch_one(&store, 1, Representation::new(120, ColorMode::Red)).is_none());
    }

    #[test]
    fn byte_accounting_accumulates() {
        let store = RepresentationStore::temporary(small_reps()).unwrap();
        store.ingest(1, &frame(3)).unwrap();
        let per_frame = store.total_bytes();
        store.ingest(2, &frame(4)).unwrap();
        assert_eq!(store.total_bytes(), per_frame * 2);
        assert_eq!(store.frames(), 2);
        // 30x30 gray (913 B) + 60x60 rgb (10,813 B)
        assert_eq!(per_frame, (13 + 900) + (13 + 60 * 60 * 3));
    }

    #[test]
    fn small_rep_store_is_cheaper_than_archive_frames() {
        // The ONGOING bet: a handful of small representations costs less
        // storage than even one compressed full frame.
        let store = RepresentationStore::temporary(small_reps()).unwrap();
        store.ingest(1, &frame(5)).unwrap();
        let amp = store.amplification_vs(60_000);
        assert!(amp < 0.5, "amplification {amp}");
        // ...but materializing all 20 paper representations is not free.
        let all = RepresentationStore::temporary(Representation::paper_set()).unwrap();
        all.ingest(1, &frame(5)).unwrap();
        assert!(all.amplification_vs(60_000) > amp * 5.0);
    }

    #[test]
    fn ingest_stores_exactly_the_direct_apply_bytes() {
        // The lattice-planned materialization is bitwise identical to the
        // per-representation direct path, so the stored blobs are too.
        let store = RepresentationStore::temporary(Representation::paper_set()).unwrap();
        let f = frame(9);
        store.ingest(3, &f).unwrap();
        for rep in Representation::paper_set() {
            let want = direct_apply_bytes(&f, rep);
            let same = store
                .with_blob(3, rep, |got| got == want.as_slice())
                .unwrap()
                .expect("stored");
            assert!(same, "{rep}");
        }
    }

    #[test]
    fn per_frame_ingest_accounts_bytes_and_frames() {
        // Two stores fed the same frames one `ingest` call at a time —
        // one store walked forwards, the other backwards — account the
        // same bytes and frames: each frame is priced on its own.
        let frames: Vec<Image> = (0..3).map(frame).collect();
        let a = RepresentationStore::temporary(small_reps()).unwrap();
        for (i, f) in frames.iter().enumerate() {
            a.ingest(i as u64, f).unwrap();
        }
        let b = RepresentationStore::temporary(small_reps()).unwrap();
        for (i, f) in frames.iter().enumerate().rev() {
            b.ingest(i as u64, f).unwrap();
        }
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(a.frames(), b.frames());
        assert_eq!(a.frames(), 3);
    }

    #[test]
    fn pooled_fetch_matches_fresh_decode_and_reuses_buffers() {
        let store = RepresentationStore::temporary(small_reps()).unwrap();
        store.ingest(4, &frame(6)).unwrap();
        store.ingest(5, &frame(7)).unwrap();
        let rep = Representation::new(30, ColorMode::Gray);
        let mut engine = TranscodeEngine::new();
        // Pooled decode is value-identical to a fresh decode of the blob.
        let fresh = store
            .with_blob(4, rep, |b| RawCodec.decode(b).unwrap())
            .unwrap()
            .expect("stored");
        let pooled = store.fetch(4, rep, &mut engine).unwrap().unwrap();
        assert_eq!(pooled.data(), fresh.data());
        assert_eq!(pooled.mode(), fresh.mode());
        // Recycled buffer actually comes back: same allocation next fetch.
        let ptr = pooled.data().as_ptr();
        engine.recycle([pooled]);
        let again = store.fetch(5, rep, &mut engine).unwrap().unwrap();
        assert_eq!(again.data().as_ptr(), ptr, "pooled buffer not reused");
        let direct = store
            .with_blob(5, rep, |b| RawCodec.decode(b).unwrap())
            .unwrap()
            .expect("stored");
        assert_eq!(again.data(), direct.data());
    }

    #[test]
    fn persistent_store_serves_the_direct_apply_bytes() {
        // A store in a named directory (the one a restart reopens) holds
        // and decodes exactly the direct-apply bytes, frame after frame.
        let dir = tmp_dir("direct");
        let disk = RepresentationStore::persistent(small_reps(), &dir, 3).expect("persistent");
        let mut want_total = 0;
        for id in 0..12u64 {
            disk.ingest(id, &frame(id)).unwrap();
        }
        let mut engine = TranscodeEngine::new();
        for id in 0..12u64 {
            for &rep in disk.representations() {
                let want = direct_apply_bytes(&frame(id), rep);
                want_total += want.len();
                let got = disk.with_blob(id, rep, |b| b.to_vec()).unwrap().unwrap();
                assert_eq!(got, want, "blob mismatch id {id} rep {rep}");
                let img = disk.fetch(id, rep, &mut engine).unwrap().unwrap();
                let decoded = RawCodec.decode(&want).unwrap();
                assert_eq!(
                    img.data(),
                    decoded.data(),
                    "decode mismatch id {id} rep {rep}"
                );
                engine.recycle([img]);
            }
        }
        assert_eq!(disk.total_bytes(), want_total);
        drop(disk);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_store_reopens_byte_identically() {
        let dir = tmp_dir("reopen");
        let mut blobs = Vec::new();
        {
            let store = RepresentationStore::persistent(small_reps(), &dir, 2).expect("persistent");
            for id in 0..8u64 {
                store.ingest(id, &frame(id + 100)).unwrap();
            }
            store.sync().expect("sync");
            for id in 0..8u64 {
                for &rep in small_reps().iter() {
                    blobs.push(store.with_blob(id, rep, |b| b.to_vec()).unwrap().unwrap());
                }
            }
            // Process "drops" here.
        }
        let (store, report) = RepresentationStore::open(&dir).expect("open");
        assert_eq!(report.records, 16);
        assert_eq!(store.frames(), 8);
        assert_eq!(store.representations(), small_reps().as_slice());
        let mut it = blobs.iter();
        for id in 0..8u64 {
            for &rep in small_reps().iter() {
                let got = store.with_blob(id, rep, |b| b.to_vec()).unwrap().unwrap();
                assert_eq!(&got, it.next().unwrap(), "id {id} rep {rep}");
            }
        }
        assert_eq!(store.verify().expect("verify"), 16);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_garbage_manifest() {
        let dir = tmp_dir("badmanifest");
        fs::write(dir.join("manifest.tsm"), "not a manifest\n").unwrap();
        assert!(RepresentationStore::open(&dir).is_err());
        fs::write(
            dir.join("manifest.tsm"),
            "tahoma-store v1\nshards=0\nreps=30x30-gray\n",
        )
        .unwrap();
        assert!(RepresentationStore::open(&dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_ingest_while_fetching_matches_serial() {
        // The continuous-query contract: writers ingest through `&self`
        // while readers fetch, and the end state is byte-identical to a
        // serial ingest of the same frames.
        let store = std::sync::Arc::new(RepresentationStore::temporary(small_reps()).unwrap());
        let serial = RepresentationStore::temporary(small_reps()).unwrap();
        for id in 0..24u64 {
            serial.ingest(id, &frame(id)).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let store = std::sync::Arc::clone(&store);
                s.spawn(move || {
                    for id in (t * 8)..(t * 8 + 8) {
                        store.ingest(id, &frame(id)).unwrap();
                    }
                });
            }
            // A reader hammers fetch concurrently; every hit must decode.
            let reader = std::sync::Arc::clone(&store);
            s.spawn(move || {
                let mut engine = TranscodeEngine::new();
                let rep = small_reps()[0];
                for id in (0..24u64).cycle().take(2000) {
                    if let Some(r) = reader.fetch(id, rep, &mut engine) {
                        let img = r.expect("decodes");
                        engine.recycle([img]);
                    }
                }
            });
        });
        assert_eq!(store.frames(), 24);
        assert_eq!(store.total_bytes(), serial.total_bytes());
        for id in 0..24u64 {
            for &rep in serial.representations() {
                let a = serial.with_blob(id, rep, |b| b.to_vec()).unwrap().unwrap();
                let b = store.with_blob(id, rep, |b| b.to_vec()).unwrap().unwrap();
                assert_eq!(a, b, "blob mismatch id {id} rep {rep}");
            }
        }
    }

    #[test]
    fn malformed_records_quarantine_alike_through_either_consumer() {
        // Records whose CRC holds but whose payload is not the
        // representation's: another shape's header, a bad magic, a
        // truncated sample run. The query path's fused consumer
        // (`standardize_stored`) and the pooled decode behind `fetch`
        // classify each the same way: a permanent `Decode`, so one read,
        // no retry, a quarantine and a degraded fetch, and the fused
        // consumer never runs.
        let rep = Representation::new(30, ColorMode::Gray);
        let good = RawCodec.encode(
            &Image::from_fn(30, 30, ColorMode::Gray, |_, y, x| {
                ((y * 7 + x) % 11) as f32 / 11.0
            })
            .unwrap(),
        );
        // As many samples as the representation's, under another shape.
        let wrong_shape = RawCodec.encode(&Image::zeros(20, 45, ColorMode::Gray).unwrap());
        let mut bad_magic = good.clone();
        bad_magic[..4].copy_from_slice(b"TAH0");
        let truncated = good[..good.len() - 1].to_vec();
        for (what, payload) in [
            ("wrong shape", &wrong_shape),
            ("bad magic", &bad_magic),
            ("truncated", &truncated),
        ] {
            let fused = RepresentationStore::temporary(small_reps()).unwrap();
            let decoded = RepresentationStore::temporary(small_reps()).unwrap();
            for store in [&fused, &decoded] {
                let mut record = Vec::new();
                frame_record(&mut record, 9, rep, payload);
                store.segments.append_record(&record).unwrap();
            }
            let mut engine = TranscodeEngine::new();
            let mut row = vec![0.0f32; rep.value_count()];
            let mut ran = false;
            let got = fused.fetch_with(9, rep, &mut engine, |samples, e| {
                ran = true;
                e.standardize_stored(samples, &mut row);
                Ok(())
            });
            assert!(
                matches!(got, Fetched::Quarantined),
                "{what}: fused read served"
            );
            assert!(!ran, "{what}: the fused consumer ran on a malformed record");
            assert!(
                decoded.fetch(9, rep, &mut engine).is_none(),
                "{what}: decode served"
            );
            let stats = fused.reliability_stats();
            assert_eq!(stats, decoded.reliability_stats(), "{what}");
            assert_eq!(
                stats,
                ReliabilityStats {
                    retries: 0,
                    degraded_fetches: 1,
                    quarantined: 1
                },
                "{what}"
            );
            // Quarantined stays quarantined, on either path.
            assert!(matches!(
                fused.fetch_with(9, rep, &mut engine, |_, _| Ok(())),
                Fetched::Quarantined
            ));
        }
    }

    #[test]
    fn fused_fetch_standardizes_the_stored_record() {
        // A well-formed record read through the fused consumer gives the
        // decoded image's two-step standardize, bit for bit.
        let store = RepresentationStore::temporary(small_reps()).unwrap();
        store.ingest(3, &frame(4)).unwrap();
        let mut engine = TranscodeEngine::new();
        for &rep in store.representations() {
            let img = fetch_one(&store, 3, rep).expect("stored");
            let mut want = vec![0.0f32; rep.value_count()];
            engine.standardize_into(&img, &mut want);
            let mut got = vec![f32::NAN; rep.value_count()];
            let hit = store.fetch_with(3, rep, &mut engine, |samples, e| {
                e.standardize_stored(samples, &mut got);
                Ok(())
            });
            assert!(matches!(hit, Fetched::Hit(())), "{rep}");
            assert!(
                got.iter()
                    .map(|v| v.to_bits())
                    .eq(want.iter().map(|v| v.to_bits())),
                "{rep}"
            );
            assert!(matches!(
                store.fetch_with(4, rep, &mut engine, |_, _| Ok(())),
                Fetched::Absent
            ));
        }
        assert_eq!(store.reliability_stats(), ReliabilityStats::default());
    }

    #[test]
    #[should_panic]
    fn empty_rep_set_panics() {
        let _ = RepresentationStore::temporary(vec![]);
    }
}
