//! The `--trace 1` run: where does a workload's `latency_p50_ms` go?
//!
//! Layers are measured from outside, by timing calls into their public
//! functions (tracing inside the program is a later change):
//!
//! 1. a fifth of the workload is replayed over TCP against a real server
//!    process (reply-side counts, `STATS` deltas, the TCP p50), then the
//!    wire alone is timed with `PING`s;
//! 2. the same ops are replayed in-process on a fixture built exactly as
//!    the server builds its own (`fixture::nn_service`), every public call
//!    wrapped in a span, alternating spans on and off;
//! 3. each layer's public entry points are probed at the serving shapes;
//! 4. probes × the ops' measured pack sizes are summed into a budget whose
//!    remainders are printed, not hidden: `core.exec.unattributed_ms` (the
//!    in-process execution the probes do not explain) and `inproc_gap` (how
//!    far the in-process fixture and the server process disagree).

use crate::e2e::{self, Env, Phase, References};
use crate::ops::{QueryText, Workload, CORPUS, KINDS, SERVER_SEED, STANDING_REGISTER};
use crate::report::Report;
use crate::server::Server;
use crate::stats;
use crate::trace::{self, Recorder};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tahoma_core::query::{Corpus, Query};
use tahoma_core::Cascade;
use tahoma_imagery::{
    ColorMode, Image, ObjectKind, Representation, RepresentationStore, TranscodeEngine,
};
use tahoma_nn::{CnnSpec, InferScratch, Sequential, Shape};
use tahoma_serve::fixture::{self, nn_service, NnFixtureConfig};
use tahoma_serve::protocol::{self, Request};
use tahoma_serve::{QueryService, StreamRegistry};
use tahoma_video::{StreamConfig, StreamIngest};

/// Share of `--seconds` each replay pass runs for.
const REPLAY_SHARE: f64 = 0.2;
/// `PING` round trips `serve.server.wire_overhead_ms` is the median of.
const PINGS: usize = 512;
/// Standing ticks probed on the workloads that are not `standing`.
const PROBE_TICKS: usize = 64;
/// Frames a `standing` tick ingests (`STEP 16`).
const STEP: f64 = 16.0;
/// Batch sizes the inference probes run at: a standing tick's entrants, a
/// lookup's survivors, a scan's corpus.
const BATCHES: [usize; 3] = [16, 32, 2048];

/// `op` of spans that belong to no replayed op (the probes).
const NO_OP: u64 = 0;
/// First `op` id of the in-process standing ticks; query ops count from 1.
const FIRST_TICK_OP: u64 = 1_000_000;

/// The registered standing query, as the protocol parser splits it.
fn standing_register() -> Result<(String, u64, u64, String), String> {
    match protocol::parse_request(STANDING_REGISTER) {
        Ok(Request::Register {
            stream,
            range,
            step,
            sql,
        }) => Ok((stream, range, step, sql)),
        other => Err(format!("STANDING_REGISTER parsed as {other:?}")),
    }
}

fn standing_sql() -> Result<String, String> {
    standing_register().map(|(_, _, _, sql)| sql)
}

fn rep_24g() -> Representation {
    Representation::new(24, ColorMode::Gray)
}
fn rep_32c() -> Representation {
    Representation::new(32, ColorMode::Rgb)
}
fn rep_64c() -> Representation {
    Representation::new(64, ColorMode::Rgb)
}

/// The fixture's two networks (`crates/serve/src/fixture.rs`): model 0 is
/// `ArchSpec{1,8,256}` on 24×24 gray, model 1 `ArchSpec{2,8,320}` on 32×32
/// RGB. Index = `ModelId`.
fn fixture_nets() -> [(Representation, Sequential); 2] {
    let build = |rep: Representation, convs: usize, dense: usize, seed: u64| {
        CnnSpec {
            input: Shape::new(rep.mode.channels(), rep.size, rep.size),
            conv_channels: vec![8; convs],
            kernel: 3,
            dense_units: dense,
        }
        .build(seed)
        .expect("fixture architectures fit their inputs")
    };
    [
        (rep_24g(), build(rep_24g(), 1, 256, SERVER_SEED ^ 0xA11)),
        (
            rep_32c(),
            build(rep_32c(), 2, 320, (SERVER_SEED ^ 0xA11) + 1),
        ),
    ]
}

fn p50(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::median(samples)
    }
}

/// The wire alone: p50 of `PING` → `PONG` round trips on one connection —
/// the socket both ways, the server's read loop and dispatch, the reply
/// write — with no query inside. Measured on the server itself, so it
/// cannot go negative the way "TCP p50 − in-process p50" does when the two
/// fixtures disagree by more than the wire costs.
fn ping_p50_ms(server: &Server) -> Result<f64, String> {
    let mut conn = server.connect()?;
    let mut ms = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let sent = Instant::now();
        let reply = conn.request("PING")?;
        if reply != "PONG" {
            return Err(format!("PING answered {reply:?}"));
        }
        ms.push(sent.elapsed().as_secs_f64() * 1e3);
    }
    Ok(p50(&ms))
}

/// Time `f` `reps` times, each call in a span; the median in microseconds.
fn probe_us<R>(
    rec: &mut Recorder,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let us: Vec<f64> = (0..reps)
        .map(|_| rec.timed(name, NO_OP, || black_box(f())).1 * 1e6)
        .collect();
    p50(&us)
}

/// Workload-independent probes of the store, the transcode engine, the
/// networks and the camera feed.
struct Probes {
    ingest_us_per_frame: f64,
    sync_ms: f64,
    /// Mean per call while assembling 2048-row packs (24g, 32c) or sweeping
    /// the corpus (64c): every row comes cold out of the mapped segments,
    /// as it does under a query.
    fetch_us: [f64; 3],
    fetch_mb_s: f64,
    bytes_per_item: f64,
    open_ms: f64,
    verify_ms: f64,
    transcode_us: [f64; 2],
    /// Mean per call in the same pack loops as `fetch_us`.
    standardize_us: [f64; 2],
    /// `[model][batch]`, microseconds per row.
    infer_us_per_row: [[f64; 3]; 2],
    gflops_b2048: [f64; 2],
    render_us_per_frame: f64,
}

fn probe_layers(rec: &mut Recorder, dir: &Path) -> Result<Probes, String> {
    let err = |e: tahoma_imagery::ImageryError| format!("store probe: {e}");
    let reps = [rep_24g(), rep_32c(), rep_64c()];
    let frames: Vec<Image> = (0..CORPUS as u64)
        .map(|id| fixture::frame(id ^ SERVER_SEED, 64))
        .collect();

    // imagery.store / imagery.segment: the server's own layout (three
    // representations per frame, eight shards), the server's own frames.
    let store = RepresentationStore::persistent(reps.to_vec(), dir, 8).map_err(err)?;
    let mut ingest_us = Vec::with_capacity(frames.len());
    for (id, frame) in frames.iter().enumerate() {
        let (done, s) = rec.timed("imagery.store.ingest", NO_OP, || {
            store.ingest(id as u64, frame)
        });
        done.map_err(err)?;
        ingest_us.push(s * 1e6);
    }
    let (synced, sync_s) = rec.timed("imagery.store.sync", NO_OP, || store.sync());
    synced.map_err(err)?;

    // The scoring path as `core::exec` walks it, from public calls: per
    // pack row fetch → standardize → append to the input matrix, then one
    // `predict_proba_shared` on coalescing scratch (what the broker calls)
    // over the pack just assembled.
    let mut engine = TranscodeEngine::new();
    let mut fetch_us = [0.0; 3];
    let mut standardize_us = [0.0; 2];
    let mut infer_us_per_row = [[0.0; 3]; 2];
    let mut gflops_b2048 = [0.0; 2];
    let (mut fetched_bytes, mut fetch_s_total) = (0usize, 0.0);
    let mut input: Vec<f32> = Vec::new();
    let mut next_id = 0u64;
    for (m, (rep, net)) in fixture_nets().iter().enumerate() {
        let mut scratch = InferScratch::coalescing();
        for (b, &batch) in BATCHES.iter().enumerate() {
            let rounds = (4096 / batch).clamp(5, 64);
            let (mut fetch_s, mut standardize_s, mut rows) = (0.0, 0.0, 0usize);
            let mut infer_us = Vec::with_capacity(rounds);
            // Round 0 sizes every buffer and is not counted.
            for round in 0..=rounds {
                input.clear();
                for _ in 0..batch {
                    let (img, s, bytes) =
                        timed_fetch(rec, &store, &mut engine, next_id % CORPUS as u64, *rep)?;
                    next_id += 1;
                    let (standardized, std_s) =
                        rec.timed("imagery.engine.standardize", NO_OP, || {
                            engine.standardize(&img)
                        });
                    input.extend_from_slice(standardized.data());
                    engine.recycle([img, standardized]);
                    if round > 0 {
                        fetch_s += s;
                        standardize_s += std_s;
                        fetched_bytes += bytes;
                        rows += 1;
                    }
                }
                let (scores, s) = rec.timed("nn.model.predict_proba_shared", NO_OP, || {
                    net.predict_proba_shared(&input, batch, &mut scratch)
                });
                black_box(scores);
                if round > 0 {
                    infer_us.push(s * 1e6);
                }
            }
            infer_us_per_row[m][b] = p50(&infer_us) / batch as f64;
            fetch_s_total += fetch_s;
            if batch == BATCHES[2] {
                fetch_us[m] = fetch_s * 1e6 / rows as f64;
                standardize_us[m] = standardize_s * 1e6 / rows as f64;
            }
        }
        // Computed, not counted: the model's FLOP formula × rows ÷ time.
        gflops_b2048[m] = net.flops() as f64 / (infer_us_per_row[m][2] * 1e3);
    }
    // The 64×64 source is only read to re-derive a quarantined record.
    let mut source_s = 0.0;
    for pass in 0..2 {
        for id in 0..CORPUS as u64 {
            let (img, s, bytes) = timed_fetch(rec, &store, &mut engine, id, reps[2])?;
            engine.recycle([img]);
            if pass == 1 {
                source_s += s;
                fetched_bytes += bytes;
            }
        }
    }
    fetch_us[2] = source_s * 1e6 / CORPUS as f64;
    fetch_s_total += source_s;
    let bytes_per_item = store.total_bytes() as f64 / store.frames() as f64;
    drop(store);

    let mut open_ms = Vec::new();
    let mut verify_ms = Vec::new();
    for _ in 0..3 {
        let (opened, s) = rec.timed("imagery.segment.open", NO_OP, || {
            RepresentationStore::open(dir)
        });
        let (reopened, _) = opened.map_err(err)?;
        open_ms.push(s * 1e3);
        let (verified, s) = rec.timed("imagery.segment.verify", NO_OP, || reopened.verify());
        verified.map_err(err)?;
        verify_ms.push(s * 1e3);
    }

    // imagery.engine: the ingest-side transcodes.
    let mut transcode_us = [0.0; 2];
    for (r, &rep) in reps[..2].iter().enumerate() {
        let mut i = 0;
        transcode_us[r] = probe_us(rec, "imagery.engine.apply", 512, || {
            i += 1;
            let out = engine
                .apply(&frames[i % frames.len()], rep)
                .expect("a 64x64 RGB frame transcodes to every fixture representation");
            engine.recycle([out]);
        });
    }

    // video.ingest: rendering one arriving frame.
    let mut feed = StreamIngest::new(
        StreamConfig::coral(SERVER_SEED),
        ObjectKind::Fence,
        64,
        1 << 40,
    );
    let render_us_per_frame = probe_us(rec, "video.ingest.next_ingest", 256, || {
        feed.next_ingest(&mut engine)
    });

    Ok(Probes {
        ingest_us_per_frame: p50(&ingest_us),
        sync_ms: sync_s * 1e3,
        fetch_us,
        fetch_mb_s: fetched_bytes as f64 / 1e6 / fetch_s_total,
        bytes_per_item,
        open_ms: p50(&open_ms),
        verify_ms: p50(&verify_ms),
        transcode_us,
        standardize_us,
        infer_us_per_row,
        gflops_b2048,
        render_us_per_frame,
    })
}

/// One spanned `RepresentationStore::fetch`: the decoded image, the
/// call's seconds and the stored record's bytes.
fn timed_fetch(
    rec: &mut Recorder,
    store: &RepresentationStore,
    engine: &mut TranscodeEngine,
    id: u64,
    rep: Representation,
) -> Result<(Image, f64, usize), String> {
    let (img, s) = rec.timed("imagery.store.fetch", NO_OP, || {
        store.fetch(id, rep, engine)
    });
    let img = img
        .ok_or("store probe: an ingested frame is absent")?
        .map_err(|e| format!("store probe: {e}"))?;
    Ok((img, s, store.stored_bytes(id, rep).unwrap_or(0)))
}

/// Rows and inference calls per op, by model — the pack sizes the probes
/// are multiplied by. Read from the in-process broker's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Packs {
    rows: [f64; 2],
    calls: [f64; 2],
}

impl Packs {
    /// Account one cascade execution: `first` rows reached its first
    /// level, its levels scored `total` rows between them.
    fn add_cascade(&mut self, cascade: Cascade, first: u64, total: u64) {
        for (level, rows) in level_rows(cascade.depth(), first, total)
            .into_iter()
            .enumerate()
        {
            let model = cascade.model_at(level) as usize;
            self.rows[model] += rows as f64;
            self.calls[model] += f64::from(rows > 0);
        }
    }

    /// Turn sums over `ops` ops into per-op means.
    fn per_op(&mut self, ops: usize) {
        for v in self.rows.iter_mut().chain(self.calls.iter_mut()) {
            *v /= ops as f64;
        }
    }
}

/// Rows each level of a cascade scored, from the rows that reached its
/// first level and the rows all its levels scored together (the fixture's
/// cascades are at most two levels deep).
fn level_rows(depth: usize, first: u64, total: u64) -> Vec<u64> {
    match depth {
        0 => Vec::new(),
        1 => vec![total],
        _ => vec![first, total.saturating_sub(first)],
    }
}

fn broker_rows(service: &QueryService) -> u64 {
    service.stats().broker.rows
}

/// Pack sizes of one query: execute it one content predicate at a time in
/// plan order — predicate *i* scores the matches of predicates `..i` — and
/// read the broker's row counter around each prefix.
fn query_packs(service: &QueryService, text: &QueryText, packs: &mut Packs) -> Result<(), String> {
    let query = Query::parse(&text.sql()).map_err(|e| e.to_string())?;
    let (plan, _) = service
        .plan_for(&query.content, true)
        .map_err(|e| e.to_string())?;
    let mut prefix: Vec<&str> = Vec::new();
    let (mut rows_so_far, mut entering) = (0u64, None);
    for (kind, selected) in &plan.entries {
        prefix.push(kind.name());
        let before = broker_rows(service);
        let out = service
            .execute(&text.sql_for(&prefix))
            .map_err(|e| e.to_string())?;
        let total = broker_rows(service) - before;
        let first = entering.unwrap_or(out.metadata_survivors as u64);
        packs.add_cascade(selected.cascade, first, total - rows_so_far);
        rows_so_far = total;
        entering = Some(out.matched_ids.len() as u64);
    }
    Ok(())
}

/// What the in-process replay measured.
struct InProcess {
    /// p50 of the op's in-process execution (`execute` / `tick`), ms.
    execute_ms: f64,
    parse_us: f64,
    encode_us: f64,
    overhead_share: f64,
    packs: Packs,
    /// The in-process fixture answered an op differently from the server.
    mismatches: Vec<String>,
}

/// What the spans cost the ops they wrap. The two medians differ by less
/// than they repeat, so a difference below zero is reported as zero.
fn overhead_share(on_ms: &[f64], off_ms: &[f64]) -> f64 {
    ratio(p50(on_ms) - p50(off_ms), p50(off_ms)).max(0.0)
}

/// Medians over the spans a replay recorded (those from `first_span` on).
fn replay_result(
    rec: &Recorder,
    first_span: usize,
    names: [&str; 3],
    on_ms: &[f64],
    off_ms: &[f64],
    packs: Packs,
    mismatches: Vec<String>,
) -> InProcess {
    let [execute, parse, encode] = names.map(|name| p50(&rec.durations_ms(first_span, name)));
    InProcess {
        execute_ms: execute,
        parse_us: parse * 1e3,
        encode_us: encode * 1e3,
        overhead_share: overhead_share(on_ms, off_ms),
        packs,
        mismatches,
    }
}

/// Replay the TCP pass's query ops in-process, each op twice (spans on and
/// off, order alternating), then once more untimed for the pack sizes.
fn replay_queries(
    rec: &mut Recorder,
    service: &QueryService,
    texts: &[QueryText],
    refs: &References,
    ops: &[usize],
) -> Result<InProcess, String> {
    if ops.is_empty() {
        return Err("the TCP pass completed no op to replay".to_string());
    }
    let mut distinct: Vec<usize> = ops.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    for &idx in &distinct {
        service
            .execute(&texts[idx].sql())
            .map_err(|e| e.to_string())?;
    }
    let first_span = rec.spans().len();
    let mut mismatches = Vec::new();
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    for j in 0..2 * ops.len() {
        let idx = ops[j % ops.len()];
        let op = j as u64 + 1;
        rec.enabled = (j / ops.len() + j % ops.len()) % 2 == 1;
        let line = refs.lines[idx].as_str();
        let start = Instant::now();
        let outcome = rec.span("op", op, |rec| {
            let request = rec.span("serve.protocol.parse_request", op, |_| {
                protocol::parse_request(line)
            });
            let Ok(Request::Query(sql)) = request else {
                return Err(format!("{line}: not a QUERY"));
            };
            let outcome = rec
                .span("serve.service.execute", op, |_| service.execute(&sql))
                .map_err(|e| format!("{line}: {e}"))?;
            let encoded = rec.span("serve.protocol.encode_outcome", op, |_| {
                protocol::encode_outcome(&outcome)
            });
            black_box(encoded);
            Ok(outcome)
        })?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if rec.enabled { &mut on_ms } else { &mut off_ms }.push(ms);
        // The fixture built here must be the system the server process is.
        let want = refs.expected[idx];
        let got = (
            outcome.matched_ids.len() as u64,
            stats::fnv1a64(&outcome.matched_ids),
        );
        if got != (want.n, want.sum) && mismatches.len() < 5 {
            mismatches.push(format!(
                "in-process {line}: n={} sum={:016x}, the server said n={} sum={:016x}",
                got.0, got.1, want.n, want.sum
            ));
        }
    }
    rec.enabled = true;
    let mut packs = Packs::default();
    for &idx in ops {
        query_packs(service, &texts[idx], &mut packs)?;
    }
    packs.per_op(ops.len());
    let names = [
        "serve.service.execute",
        "serve.protocol.parse_request",
        "serve.protocol.encode_outcome",
    ];
    Ok(replay_result(
        rec, first_span, names, &on_ms, &off_ms, packs, mismatches,
    ))
}

/// What the in-process standing query measured.
struct Standing {
    register_ms: f64,
    tick: InProcess,
}

/// Register the standing query in-process, fill its window, then tick it
/// `2 * ticks` times with spans on every other tick.
fn replay_ticks(
    rec: &mut Recorder,
    service: &QueryService,
    ticks: usize,
) -> Result<Standing, String> {
    let (stream, range, step, sql) = standing_register()?;
    let registry = StreamRegistry::new(SERVER_SEED);
    let first_span = rec.spans().len();
    let start = Instant::now();
    let qid = rec
        .span("serve.stream.register", NO_OP, |_| {
            registry.register(service, &stream, range, step, &sql)
        })
        .map_err(|e| e.to_string())?
        .qid;
    let register_ms = start.elapsed().as_secs_f64() * 1e3;
    let tick_line = format!("TICK {qid}");
    let query = Query::parse(&sql).map_err(|e| e.to_string())?;
    let (plan, _) = service
        .plan_for(&query.content, true)
        .map_err(|e| e.to_string())?;
    let cascade = plan.entries[0].1.cascade;

    let mut window = Vec::new();
    let mut mismatches = Vec::new();
    let mut replay = |report: &tahoma_serve::TickReport| {
        stats::apply_deltas(&mut window, &report.deltas.added, &report.deltas.removed);
        if stats::fnv1a64(&window) != report.sum && mismatches.is_empty() {
            mismatches.push(format!(
                "in-process tick {}: the replayed window does not hash to its sum",
                report.deltas.tick
            ));
        }
    };
    for _ in 0..range / step {
        replay(&registry.tick(service, qid).map_err(|e| e.to_string())?);
    }
    let mut packs = Packs::default();
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    for j in 0..2 * ticks {
        let op = FIRST_TICK_OP + j as u64;
        rec.enabled = j % 2 == 1;
        let before = broker_rows(service);
        let start = Instant::now();
        let report = rec.span("op", op, |rec| {
            let request = rec.span("serve.protocol.parse_request", op, |_| {
                protocol::parse_request(&tick_line)
            });
            let Ok(Request::Tick(qid)) = request else {
                return Err(format!("{tick_line}: not a TICK"));
            };
            let report = rec
                .span("serve.stream.tick", op, |_| registry.tick(service, qid))
                .map_err(|e| e.to_string())?;
            let encoded = rec.span("serve.protocol.encode_tick", op, |_| {
                protocol::encode_tick(&report)
            });
            black_box(encoded);
            Ok(report)
        })?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if rec.enabled { &mut on_ms } else { &mut off_ms }.push(ms);
        let total = broker_rows(service) - before;
        packs.add_cascade(cascade, report.deltas.entered as u64, total);
        replay(&report);
    }
    rec.enabled = true;
    packs.per_op(2 * ticks);
    let names = [
        "serve.stream.tick",
        "serve.protocol.parse_request",
        "serve.protocol.encode_tick",
    ];
    Ok(Standing {
        register_ms,
        tick: replay_result(rec, first_span, names, &on_ms, &off_ms, packs, mismatches),
    })
}

/// Probes of the query front end on the workload's own texts.
struct FrontEnd {
    query_parse_us: f64,
    meta_filter_us: f64,
    plan_hit_us: f64,
    plan_cold_us: f64,
}

fn probe_front_end(
    rec: &mut Recorder,
    service: &QueryService,
    sqls: &[String],
) -> Result<FrontEnd, String> {
    let corpus = Corpus::synthetic(CORPUS, NnFixtureConfig::default().prevalence, SERVER_SEED);
    let queries: Vec<Query> = sqls
        .iter()
        .map(|sql| Query::parse(sql).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut i = 0;
    let query_parse_us = probe_us(rec, "core.query.parse", 2048, || {
        i += 1;
        Query::parse(&sqls[i % sqls.len()])
    });
    let meta_filter_us = probe_us(rec, "core.query.meta_filter", 1024, || {
        i += 1;
        let meta = &queries[i % queries.len()].metadata;
        corpus
            .items
            .iter()
            .filter(|item| meta.iter().all(|p| p.holds(item)))
            .count()
    });
    let kinds = &queries[0].content;
    service.plan_for(kinds, true).map_err(|e| e.to_string())?;
    Ok(FrontEnd {
        query_parse_us,
        meta_filter_us,
        plan_hit_us: probe_us(rec, "serve.plan_cache.hit", 2048, || {
            service.plan_for(kinds, true)
        }),
        plan_cold_us: probe_us(rec, "core.planner.plan_cold", 32, || {
            service.plan_for(kinds, false)
        }),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Index into [`BATCHES`] of the probe nearest (in ratio) to `rows`.
fn nearest_batch(rows: f64) -> usize {
    let distance = |b: usize| (rows.max(1.0) / BATCHES[b] as f64).ln().abs();
    (0..BATCHES.len())
        .min_by(|&a, &b| distance(a).total_cmp(&distance(b)))
        .expect("BATCHES is not empty")
}

/// The `--trace 1` run: every per-layer metric of one workload, the budget
/// line, and `trace.json`.
pub fn run(
    env: &Env,
    w: Workload,
    seed: u64,
    seconds: u64,
    out_dir: &Path,
) -> Result<Report, String> {
    let replay_s = seconds as f64 * REPLAY_SHARE;

    // 1. A fifth of the workload over TCP: one connection, then (on
    //    `dashboards`) all of them, so their difference is what overlap costs.
    let (server, _store_dir) = e2e::boot_fresh(env, "store")?;
    let refs = e2e::take_references(&server, w)?;
    let solo = e2e::run_phase(&server, w, 1, seed, replay_s, &refs, None)?;
    let crowd = if w.connections() > 1 {
        Some(e2e::run_phase(
            &server,
            w,
            w.connections(),
            seed,
            replay_s,
            &refs,
            None,
        )?)
    } else {
        None
    };
    let wire_overhead_ms = ping_p50_ms(&server)?;
    server.shutdown()?;
    let phase: &Phase = crowd.as_ref().unwrap_or(&solo);
    let tcp_p50 = |p: &Phase| p50(&p.tally.latencies_ms);

    // 2. The same ops in-process, on a fixture of our own.
    let kinds: Vec<ObjectKind> = KINDS
        .iter()
        .map(|k| ObjectKind::from_name(k).expect("KINDS are object kinds"))
        .collect();
    let service = nn_service(&NnFixtureConfig {
        kinds,
        corpus_n: CORPUS,
        seed: SERVER_SEED,
        store_dir: Some(env.tmp.subdir("inprocess-store")?),
        ..NnFixtureConfig::default()
    });
    let mut rec = Recorder::new();
    let texts = w.texts();
    let queries = match w {
        Workload::Standing => None,
        _ => {
            let ops = &solo.tally.ops[..solo.tally.latencies_ms.len().min(solo.tally.ops.len())];
            Some(replay_queries(&mut rec, &service, &texts, &refs, ops)?)
        }
    };
    let ticks = match w {
        Workload::Standing => (solo.succeeded() as usize / 2).max(PROBE_TICKS),
        _ => PROBE_TICKS,
    };
    let standing = replay_ticks(&mut rec, &service, ticks)?;
    let inproc: &InProcess = queries.as_ref().unwrap_or(&standing.tick);

    // 3. Layer probes.
    let sqls: Vec<String> = match w {
        Workload::Standing => vec![standing_sql()?],
        _ => texts.iter().map(QueryText::sql).collect(),
    };
    let front = probe_front_end(&mut rec, &service, &sqls)?;
    let probes = probe_layers(&mut rec, &env.tmp.subdir("probe-store")?)?;

    // 4. Metrics and the budget.
    let ops_in_stats = (phase.tally.attempted + phase.warmup_ops) as f64;
    let d = |key: &str| phase.after.delta(&phase.before, key).map(|v| v as f64);
    let (calls, rows, merged) = (d("broker_calls")?, d("broker_rows")?, d("broker_merged")?);
    let (hits, misses) = (d("plan_hits")?, d("plan_misses")?);
    let ok = phase.succeeded() as f64;

    // Model m reads representation m (0: 24×24 gray, 1: 32×32 RGB).
    let packs = inproc.packs;
    let mut fetch_ms = 0.0;
    let mut standardize_ms = 0.0;
    let mut infer_ms = 0.0;
    for m in 0..2 {
        fetch_ms += packs.rows[m] * probes.fetch_us[m] / 1e3;
        standardize_ms += packs.rows[m] * probes.standardize_us[m] / 1e3;
        let per_call = ratio(packs.rows[m], packs.calls[m]);
        infer_ms += packs.rows[m] * probes.infer_us_per_row[m][nearest_batch(per_call)] / 1e3;
    }
    let query_parse_ms = front.query_parse_us / 1e3;
    let plan_ms = front.plan_hit_us / 1e3;
    let meta_ms = front.meta_filter_us / 1e3;
    let render_ms = STEP * probes.render_us_per_frame / 1e3;
    let ingest_ms = STEP * probes.ingest_us_per_frame / 1e3;
    // What the op's in-process execution is made of, by workload family: a
    // query parses, plans and filters; a tick renders and ingests.
    let inside: Vec<(&str, f64)> = match w {
        Workload::Standing => vec![("render", render_ms), ("ingest", ingest_ms)],
        _ => vec![
            ("query_parse", query_parse_ms),
            ("plan", plan_ms),
            ("meta_filter", meta_ms),
        ],
    }
    .into_iter()
    .chain([
        ("fetch", fetch_ms),
        ("standardize", standardize_ms),
        ("infer", infer_ms),
    ])
    .collect();
    let attributed: f64 = inside.iter().map(|(_, ms)| ms).sum();
    let unattributed_ms = inproc.execute_ms - attributed;
    let protocol_ms = (inproc.parse_us + inproc.encode_us) / 1e3;
    // Signed: the server process and the fixture built here are the same
    // code and need not run at the same speed (README, Quirks).
    let inproc_gap_ms = tcp_p50(&solo) - wire_overhead_ms - protocol_ms - inproc.execute_ms;
    let concurrency_ms = crowd.as_ref().map_or(0.0, |c| tcp_p50(c) - tcp_p50(&solo));

    // On `dashboards` both passes' ops were checked; count both.
    let passes = || {
        std::iter::once(&solo)
            .filter(|_| crowd.is_some())
            .chain([phase])
    };
    let mut report = Report::new(
        w.name(),
        passes().map(|p| p.tally.attempted).sum(),
        passes().map(|p| p.tally.failed).sum(),
    );
    let per_tick = |sum: u64| match w {
        Workload::Standing => ratio(sum as f64, ok),
        _ => 0.0,
    };
    let rows_per_op = ratio(rows, ops_in_stats);
    let merged_share = ratio(merged, calls);
    let infer_share = ratio(infer_ms, inproc.execute_ms);
    let [m0, m1] = probes.infer_us_per_row;
    #[rustfmt::skip]
    let table: [(&str, f64, &'static str); 48] = [
        ("serve.server.wire_overhead_ms", wire_overhead_ms, "ms"),
        ("serve.server.shed_count", d("shed")?, "count"),
        ("serve.protocol.parse_us", inproc.parse_us, "us"),
        ("serve.protocol.encode_us", inproc.encode_us, "us"),
        ("core.query.parse_us", front.query_parse_us, "us"),
        ("core.query.meta_filter_us", front.meta_filter_us, "us"),
        ("core.query.meta_selectivity", ratio(phase.tally.survivors as f64, ok * CORPUS as f64), "ratio"),
        ("serve.plan_cache.hit_us", front.plan_hit_us, "us"),
        ("core.planner.plan_cold_us", front.plan_cold_us, "us"),
        ("serve.plan_cache.hit_share", ratio(hits, hits + misses), "ratio"),
        ("core.exec.execute_ms", inproc.execute_ms, "ms"),
        ("core.exec.rows_scored_per_op", rows_per_op, "count"),
        ("core.exec.rows_scored_per_match", ratio(rows_per_op, ratio(phase.tally.matches as f64, ok)), "count"),
        ("core.exec.unattributed_ms", unattributed_ms, "ms"),
        ("imagery.store.fetch_us.24g", probes.fetch_us[0], "us"),
        ("imagery.store.fetch_us.32c", probes.fetch_us[1], "us"),
        ("imagery.store.fetch_us.64c", probes.fetch_us[2], "us"),
        ("imagery.store.fetch_mb_s", probes.fetch_mb_s, "MB/s"),
        ("imagery.store.ingest_us_per_frame", probes.ingest_us_per_frame, "us"),
        ("imagery.store.sync_ms", probes.sync_ms, "ms"),
        ("imagery.segment.open_ms", probes.open_ms, "ms"),
        ("imagery.segment.verify_ms", probes.verify_ms, "ms"),
        ("imagery.store.bytes_per_item", probes.bytes_per_item, "B"),
        ("imagery.store.retries", d("retries")?, "count"),
        ("imagery.store.degraded_fetches", d("degraded_fetches")?, "count"),
        ("imagery.engine.transcode_us.64c-24g", probes.transcode_us[0], "us"),
        ("imagery.engine.transcode_us.64c-32c", probes.transcode_us[1], "us"),
        ("imagery.engine.standardize_us.24g", probes.standardize_us[0], "us"),
        ("imagery.engine.standardize_us.32c", probes.standardize_us[1], "us"),
        ("nn.model.infer_us_per_row.m0.b16", m0[0], "us"),
        ("nn.model.infer_us_per_row.m0.b32", m0[1], "us"),
        ("nn.model.infer_us_per_row.m0.b2048", m0[2], "us"),
        ("nn.model.infer_us_per_row.m1.b16", m1[0], "us"),
        ("nn.model.infer_us_per_row.m1.b32", m1[1], "us"),
        ("nn.model.infer_us_per_row.m1.b2048", m1[2], "us"),
        ("nn.model.gflops.m0.b2048", probes.gflops_b2048[0], "GFLOP/s"),
        ("nn.model.gflops.m1.b2048", probes.gflops_b2048[1], "GFLOP/s"),
        ("nn.model.infer_share", infer_share, "ratio"),
        ("serve.broker.calls_per_op", ratio(calls, ops_in_stats), "count"),
        ("serve.broker.rows_per_call", ratio(rows, calls), "count"),
        ("serve.broker.merged_share", merged_share, "ratio"),
        ("serve.broker.concurrency_cost_ms", concurrency_ms, "ms"),
        ("serve.stream.register_ms", standing.register_ms, "ms"),
        ("serve.stream.tick_ms", standing.tick.execute_ms, "ms"),
        ("video.ingest.render_us_per_frame", probes.render_us_per_frame, "us"),
        ("core.continuous.entered_per_tick", per_tick(phase.tally.entered), "count"),
        ("core.continuous.scored_per_tick", per_tick(phase.tally.scored), "count"),
        ("trace.overhead_share", inproc.overhead_share, "ratio"),
    ];
    for (name, value, unit) in table {
        report.metric(name, value, unit);
    }

    // The budget: the parts sum to the TCP p50 by construction; what is
    // worth reading is how little of it the two remainders hold.
    let latency = tcp_p50(phase);
    let mut parts: Vec<(&str, f64)> = vec![
        ("wire", wire_overhead_ms),
        ("protocol_parse", inproc.parse_us / 1e3),
    ];
    parts.extend(inside);
    parts.push(("encode", inproc.encode_us / 1e3));
    if crowd.is_some() {
        parts.push(("concurrency", concurrency_ms));
    }
    let named_ms: f64 = parts.iter().map(|(_, ms)| ms).sum();
    parts.push(("unattributed", unattributed_ms));
    parts.push(("inproc_gap", inproc_gap_ms));
    let line: Vec<String> = parts
        .iter()
        .map(|(name, ms)| format!("{name} {ms:.4}"))
        .collect();
    report.note(
        "budget_ms",
        format!("{} = latency_p50_ms {latency:.4}", line.join(" + ")),
    );
    report.note(
        "budget_named_share",
        format!("{:.4}", ratio(named_ms, latency)),
    );
    // What the issue predicted of the seed code, checked where one run can.
    let holds = |ok: bool| if ok { "holds" } else { "DOES NOT HOLD" };
    if w == Workload::Scan {
        let text = format!("{infer_share:.3}: {}", holds(infer_share >= 0.8));
        report.note("prediction infer_share >= 0.8", text);
    }
    if crowd.is_some() {
        let text = format!("{merged_share:.3}: {}", holds(merged_share > 0.0));
        report.note("prediction merged_share > 0", text);
    } else {
        let text = format!("{merged_share:.3}: {}", holds(merged_share == 0.0));
        report.note("prediction merged_share == 0", text);
    }
    report.note(
        "replayed_ops",
        format!(
            "{} over TCP, {} in-process",
            phase.tally.attempted,
            rec.durations_ms(0, "op").len()
        ),
    );
    report.note(
        "rows_per_op_by_model",
        format!(
            "m0 {:.1} in {:.2} calls, m1 {:.1} in {:.2} calls",
            packs.rows[0], packs.calls[0], packs.rows[1], packs.calls[1]
        ),
    );

    let trace_path = out_dir.join("trace.json");
    rec.write_json(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    report.note(
        "trace",
        format!("{} ({} spans)", trace_path.display(), rec.spans().len()),
    );
    eprintln!("  layer self time (from the spans; a span's time minus its children's):");
    for (name, (count, total_ns, self_ns)) in trace::self_times(rec.spans()) {
        eprintln!(
            "    {name:<36} {count:>7} spans  total {:>10.3} ms  self {:>10.3} ms",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }

    for pass in passes() {
        report.problems.extend(pass.tally.errors.iter().cloned());
        report
            .problems
            .extend(e2e::moved_counters(&pass.before, &pass.after)?);
    }
    report.problems.extend(inproc.mismatches.iter().cloned());
    if queries.is_some() {
        report
            .problems
            .extend(standing.tick.mismatches.iter().cloned());
    }
    Ok(report)
}
