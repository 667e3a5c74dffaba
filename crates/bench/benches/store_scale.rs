//! Criterion bench: the persistent segment store at corpus scale.
//!
//! The measurements for the sharded pread-backed tier, in four parts:
//!
//! * `store_scale/fetch/{ram,pread}` — warm single-fetch latency over
//!   the full corpus (10^5 items, 10^4 in `--quick`), prime-stride walk so
//!   every shard and file region is touched.
//! * `store_scale/query_depth2/{ram,pread}` — a real depth-2 NN sweep
//!   (fetch → pooled decode → standardize → `infer_rows`, per row on the
//!   scoring lane, both levels) over a pack spread across the corpus, plus
//!   the pread/RAM ratio of their interleaved medians.
//! * Cold numbers (printed): reopen the store directory (recovery scan +
//!   CRC accounting) and time the first depth-2 sweep against the second,
//!   and one full-corpus depth-2 sweep per tier at scale.
//! * Ingest throughput (printed): raw segment appends from 1 and 4
//!   threads across 8 shards, items/s and MB/s per shard.
//!
//! Report-only: the judge's `scan` and `lookup` workloads carry the pread
//! path's end-to-end bar, and byte identity between the tiers is tested in
//! `tahoma-imagery`'s store tests and `tests/proptests.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;
use tahoma_core::exec::{BatchScorer, NnSessionScratch, ScorePack, SharedModelZoo, SharedNnScorer};
use tahoma_core::query::{Corpus, CorpusItem};
use tahoma_imagery::codec::RawCodec;
use tahoma_imagery::{
    ColorMode, Image, Representation, RepresentationStore, SegmentStore, TranscodeEngine,
};
use tahoma_nn::Sequential;
use tahoma_zoo::{ArchSpec, ModelId};

/// Depth-2 cascade layout: level-0 consumes REP0, level-1 REP1, both
/// materialized in the store (the ONGOING layout).
const REP0: Representation = Representation::new(24, ColorMode::Gray);
const REP1: Representation = Representation::new(32, ColorMode::Rgb);
/// Source frames are 64px RGB (bench-scale stand-in for the full frame).
const SOURCE_PX: usize = 64;
const SHARDS: usize = 8;
/// Distinct frames cycled across ids: enough to defeat value shortcuts,
/// cheap enough to keep frame synthesis out of every measurement.
const FRAME_POOL: usize = 256;

fn quick() -> bool {
    // The vendored criterion keeps its parsed CLI private; quick mode is
    // detected the same way `repro.rs` does.
    std::env::args().any(|a| a == "--quick")
}

fn corpus_n() -> usize {
    if quick() {
        10_000
    } else {
        100_000
    }
}

fn frame_pool() -> Vec<Image> {
    (0..FRAME_POOL as u64)
        .map(|seed| {
            Image::from_fn(SOURCE_PX, SOURCE_PX, ColorMode::Rgb, move |c, y, x| {
                let h = (x as u64 * 31 + y as u64 * 7 + c as u64 * 97 + seed * 13) % 17;
                h as f32 / 16.0
            })
            .expect("valid dims")
        })
        .collect()
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tahoma-store-scale-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_model(arch: ArchSpec, rep: Representation, seed: u64) -> Sequential {
    arch.cnn_spec(rep).build(seed).expect("valid spec")
}

fn depth2_zoo() -> SharedModelZoo {
    let arch0 = ArchSpec {
        conv_layers: 1,
        conv_nodes: 16,
        dense_nodes: 16,
    };
    let arch1 = ArchSpec {
        conv_layers: 2,
        conv_nodes: 16,
        dense_nodes: 32,
    };
    let mut zoo = SharedModelZoo::new();
    zoo.register(ModelId(0), REP0, build_model(arch0, REP0, 11));
    zoo.register(ModelId(1), REP1, build_model(arch1, REP1, 12));
    zoo
}

/// Worst-case depth-2 sweep: every item scored at both levels (no early
/// decisions), i.e. the storage-heaviest query the cascade can issue.
/// Corpora larger than one pack are scored in pack-sized chunks, the way
/// the executor batches at scale (one giant `infer_batch_shared` would thrash
/// the activation working set and measure the allocator, not the store).
fn depth2_sweep(scorer: &mut SharedNnScorer<'_>, items: &[&CorpusItem], out: &mut Vec<f32>) -> f32 {
    let mut acc = 0.0;
    for chunk in items.chunks(1_024) {
        out.clear();
        for model in [ModelId(0), ModelId(1)] {
            scorer
                .score_batch(model, ScorePack::standalone(chunk), out)
                .expect("both representations are stored");
        }
        acc += out.iter().sum::<f32>();
    }
    acc
}

/// Fetch latency, depth-2 query latency and cold-open timings over one
/// corpus ingested into both tiers.
fn bench_store_scale(c: &mut Criterion) {
    let n = corpus_n();
    let frames = frame_pool();
    let pread_dir = bench_dir("pread");

    let mut ram = RepresentationStore::new(vec![REP0, REP1]);
    let mut pread =
        RepresentationStore::persistent(vec![REP0, REP1], &pread_dir, SHARDS).expect("pread store");
    for (tag, store) in [("ram", &mut ram), ("pread", &mut pread)] {
        let t0 = Instant::now();
        for id in 0..n as u64 {
            store
                .ingest(id, &frames[id as usize % FRAME_POOL])
                .expect("ingest");
        }
        store.sync().expect("sync");
        let dt = t0.elapsed().as_secs_f64();
        eprintln!(
            "store_scale ingest[{tag}]: {n} items ({:.1} MB payload) in {:.2} s = {:.0} items/s",
            store.total_bytes() as f64 / 1e6,
            dt,
            n as f64 / dt,
        );
    }

    // Warm single-fetch latency, prime-stride walk over the whole corpus.
    let mut group = c.benchmark_group("store_scale/fetch");
    for (tag, store) in [("ram", &ram), ("pread", &pread)] {
        let mut engine = TranscodeEngine::new();
        let mut id = 0u64;
        group.bench_function(tag, |b| {
            b.iter(|| {
                id = (id + 40_009) % n as u64;
                let img = store.fetch(id, REP0, &mut engine).unwrap().unwrap();
                let v = black_box(img.data()[0]);
                engine.recycle([img]);
                v
            })
        });
    }
    group.finish();

    // Depth-2 query over a pack whose ids are spread across the corpus,
    // so the fetch side touches every shard and file region.
    let pack_n = if quick() { 1_024 } else { 2_048 };
    let mut pack = Corpus::synthetic(pack_n, 0.3, 0xD15C);
    let spread = (n / pack_n).max(1) as u64;
    for item in pack.items.iter_mut() {
        item.id *= spread;
    }
    let items: Vec<&CorpusItem> = pack.items.iter().collect();
    let mut out = Vec::new();
    let mut group = c.benchmark_group("store_scale/query_depth2");
    let zoo = depth2_zoo();
    let (mut scratch_ram, mut scratch_pread) = (NnSessionScratch::new(), NnSessionScratch::new());
    let mut scorer_ram = SharedNnScorer::new(&ram, &zoo, &mut scratch_ram);
    group.bench_function("ram", |b| {
        b.iter(|| black_box(depth2_sweep(&mut scorer_ram, &items, &mut out)))
    });
    let mut scorer_pread = SharedNnScorer::new(&pread, &zoo, &mut scratch_pread);
    group.bench_function("pread", |b| {
        b.iter(|| black_box(depth2_sweep(&mut scorer_pread, &items, &mut out)))
    });
    group.finish();

    // The pread/RAM ratio, measured round-robin (interleaved medians) so
    // both tiers see the same machine state.
    let rounds = 9;
    let mut ram_s = Vec::with_capacity(rounds);
    let mut pread_s = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        black_box(depth2_sweep(&mut scorer_ram, &items, &mut out));
        ram_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(depth2_sweep(&mut scorer_pread, &items, &mut out));
        pread_s.push(t.elapsed().as_secs_f64());
    }
    ram_s.sort_by(f64::total_cmp);
    pread_s.sort_by(f64::total_cmp);
    let (rm, pm) = (ram_s[rounds / 2], pread_s[rounds / 2]);
    eprintln!(
        "store_scale query_depth2 warm ({n}-item corpus, {pack_n}-item pack, interleaved \
         medians): ram {:.2} ms / pread {:.2} ms = {:.3}x",
        rm * 1e3,
        pm * 1e3,
        pm / rm,
    );

    // One full-corpus depth-2 sweep per tier: the at-scale query latency.
    let full = Corpus::synthetic(n, 0.3, 0xF0F0);
    let full_items: Vec<&CorpusItem> = full.items.iter().collect();
    for (tag, scorer) in [("ram", &mut scorer_ram), ("pread", &mut scorer_pread)] {
        let t = Instant::now();
        black_box(depth2_sweep(scorer, &full_items, &mut out));
        eprintln!(
            "store_scale query_depth2 full corpus [{tag}]: {n} items in {:.2} s",
            t.elapsed().as_secs_f64()
        );
    }

    // Cold: a fresh process-equivalent reopen (recovery scan + CRC
    // accounting rebuild), then first-vs-second depth-2 sweep through
    // brand-new shard handles.
    drop(pread);
    let t = Instant::now();
    let (cold, report) = RepresentationStore::open(&pread_dir).expect("reopen");
    let open_s = t.elapsed().as_secs_f64();
    assert_eq!(cold.frames(), n as u64, "reopen lost frames");
    let mut scratch_cold = NnSessionScratch::new();
    let mut scorer_cold = SharedNnScorer::new(&cold, &zoo, &mut scratch_cold);
    let t = Instant::now();
    black_box(depth2_sweep(&mut scorer_cold, &items, &mut out));
    let first_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(depth2_sweep(&mut scorer_cold, &items, &mut out));
    let second_s = t.elapsed().as_secs_f64();
    eprintln!(
        "store_scale cold open: {} records recovered in {:.1} ms; depth-2 over {pack_n}: \
         first {:.2} ms, second {:.2} ms",
        report.records,
        open_s * 1e3,
        first_s * 1e3,
        second_s * 1e3,
    );
    drop(cold);
    let _ = std::fs::remove_dir_all(&pread_dir);
}

/// Raw per-shard append throughput: pre-encoded payloads, 1 vs 4 writer
/// threads over the same 8-shard store (appends fan out per shard, so
/// threads contend only within a shard).
fn bench_ingest_throughput(_c: &mut Criterion) {
    let n = if quick() { 8_000u64 } else { 24_000 };
    let frames = frame_pool();
    let mut engine = TranscodeEngine::new();
    let blobs: Vec<(Representation, Vec<u8>)> = (0..8u64)
        .flat_map(|i| [REP0, REP1].into_iter().map(move |rep| (i, rep)))
        .map(|(i, rep)| {
            let img = engine.apply(&frames[i as usize], rep).expect("transcode");
            let blob = RawCodec.encode(&img).as_ref().to_vec();
            engine.recycle([img]);
            (rep, blob)
        })
        .collect();
    for threads in [1usize, 4] {
        let dir = bench_dir(&format!("ingest-{threads}"));
        let seg = SegmentStore::create(&dir, SHARDS).expect("create");
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for w in 0..threads {
                let seg = &seg;
                let blobs = &blobs;
                s.spawn(move || {
                    for id in (w as u64..n).step_by(threads) {
                        for (rep, blob) in &blobs[(id as usize % 8) * 2..(id as usize % 8) * 2 + 2]
                        {
                            seg.append(id, *rep, blob).expect("append");
                        }
                    }
                });
            }
        });
        seg.sync().expect("sync");
        let dt = t0.elapsed().as_secs_f64();
        let mb = seg.committed_bytes() as f64 / 1e6;
        eprintln!(
            "store_scale ingest_throughput: {threads} thread(s) x {SHARDS} shards, {n} items: \
             {:.0} items/s, {:.0} MB/s ({:.0} MB/s per shard)",
            n as f64 / dt,
            mb / dt,
            mb / dt / SHARDS as f64,
        );
        drop(seg);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

criterion_group!(benches, bench_store_scale, bench_ingest_throughput);
criterion_main!(benches);
