//! Exact work counts of fixed scripts at a small corpus: the tier-1 check
//! that catches an O(n) blowup in the served path, in the unit the §IV
//! cost model prices (rows that climb each cascade level, records fetched
//! and stored), not in wall time.
//!
//! Every count here is one the code already keeps, and none depends on the
//! schedule: not on the lane count (CI runs this file under
//! `taskset -c 0` too), the kernel tier or the build profile. A change that
//! moves one restates its pin here and lists the before and after values
//! in CHANGES.md, the way `store_bytes.rs` pins stored bytes.

use tahoma_core::exec::{
    run_level_major, BatchScorer, NnSessionScratch, NnStageStats, ScorePack, SharedModelZoo,
    SharedNnScorer,
};
use tahoma_core::query::{Corpus, CorpusItem};
use tahoma_core::thresholds::{DecisionThresholds, ThresholdTable};
use tahoma_core::Cascade;
use tahoma_imagery::{ColorMode, ObjectKind, Representation, RepresentationStore};
use tahoma_serve::fixture::{frame, nn_service, NnFixtureConfig};
use tahoma_serve::{QueryService, StreamRegistry};
use tahoma_zoo::{ArchSpec, ModelId};

/// The judge's server seed (`--seed 1`): it picks the corpus, the network
/// weights and the planned cascades, so the scripts run the judged plans.
const SEED: u64 = 1;
/// The judge serves 2048 frames; the counts scale with the corpus, so a
/// small one keeps this file quick in a debug build.
const CORPUS: usize = 256;

/// A judged `scan` text: both served predicates behind a timestamp range.
const SCAN: &str = "SELECT * FROM frames WHERE contains_object(fence) \
                    AND contains_object(wallet) AND timestamp >= 1700000150";
/// A judged `lookup` text: one predicate behind a selective metadata
/// filter.
const LOOKUP: &str = "SELECT * FROM frames WHERE contains_object(fence) \
                      AND camera = 3 AND location = 'Detroit'";
/// The judged `standing` workload's `REGISTER coral RANGE 256 STEP 16 …`.
const STANDING: &str = "SELECT * FROM frames WHERE contains_object(fence)";
const RANGE: u64 = 256;
const STEP: u64 = 16;
/// Ticks that fill the window once.
const TICKS: u64 = 16;

/// Fails listing every count of `script` that moved from its pin, with
/// both values.
fn assert_pinned<N: std::fmt::Display>(script: &str, counts: &[(N, u64, u64)]) {
    let moved: Vec<String> = counts
        .iter()
        .filter(|(_, got, pin)| got != pin)
        .map(|(name, got, pin)| format!("{name}: pinned {pin}, got {got}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{script}: work moved\n  {}",
        moved.join("\n  ")
    );
}

fn judged_service() -> QueryService {
    nn_service(&NnFixtureConfig {
        kinds: vec![ObjectKind::Fence, ObjectKind::Wallet],
        corpus_n: CORPUS,
        seed: SEED,
        ..Default::default()
    })
}

/// `sql` twice, cold and then from the plan cache: the answer's sizes
/// (equal on both runs), then the plan-cache and broker counters the two
/// runs added.
fn run_twice(service: &QueryService, sql: &str) -> [(&'static str, u64); 7] {
    let before = service.stats();
    let cold = service.execute(sql).expect("cold run");
    let cached = service.execute(sql).expect("cached run");
    assert_eq!(cold.matched_ids, cached.matched_ids, "{sql}: answer");
    assert_eq!(cold.metadata_survivors, cached.metadata_survivors);
    let after = service.stats();
    [
        ("metadata_survivors", cold.metadata_survivors as u64),
        ("matched", cold.matched_ids.len() as u64),
        ("plan_hits", after.plan_hits - before.plan_hits),
        ("plan_misses", after.plan_misses - before.plan_misses),
        (
            "broker submits",
            after.broker.submits - before.broker.submits,
        ),
        ("broker calls", after.broker.calls - before.broker.calls),
        ("broker rows", after.broker.rows - before.broker.rows),
    ]
}

#[test]
fn scan_and_lookup_work_is_pinned() {
    let service = judged_service();
    for (script, sql, pins) in [
        ("scan", SCAN, [251, 96, 1, 1, 6, 6, 812]),
        ("lookup", LOOKUP, [7, 3, 1, 1, 4, 4, 18]),
    ] {
        let counts: Vec<_> = run_twice(&service, sql)
            .into_iter()
            .zip(pins)
            .map(|((name, got), pin)| (name, got, pin))
            .collect();
        assert_pinned(script, &counts);
    }
}

#[test]
fn standing_ticks_work_is_pinned() {
    let service = judged_service();
    let registry = StreamRegistry::new(SEED);
    let qid = registry
        .register(&service, "coral", RANGE, STEP, STANDING)
        .expect("registers")
        .qid;
    // One content predicate and no metadata filter: each entrant is
    // scored once.
    const SCORED_PER_TICK: u64 = 16;
    let mut counts = Vec::new();
    for t in 1..=TICKS {
        let deltas = registry.tick(&service, qid).expect("ticks").deltas;
        counts.push((format!("tick {t} entered"), deltas.entered as u64, STEP));
        counts.push((
            format!("tick {t} scored"),
            deltas.scored as u64,
            SCORED_PER_TICK,
        ));
    }
    let store = service.nn_store(ObjectKind::Fence).expect("nn store");
    counts.push(("store frames".into(), store.frames(), 512));
    counts.push(("store bytes".into(), store.total_bytes() as u64, 8_179_200));
    assert_pinned("standing", &counts);
}

/// A depth-2 cascade through [`SharedNnScorer`] over a temporary store. Both
/// levels read 24 px gray, so every level-1 row comes from the cascade's
/// shared-representation cache, and three records are quarantined, so
/// their rows are re-derived from the stored 64 px source.
#[test]
fn depth2_cascade_work_is_pinned() {
    const REP: Representation = Representation::new(24, ColorMode::Gray);
    const SOURCE: Representation = Representation::new(64, ColorMode::Rgb);
    let corpus = Corpus::synthetic(64, 0.3, SEED);
    let items: Vec<&CorpusItem> = corpus.items.iter().collect();
    let store = RepresentationStore::temporary(vec![REP, SOURCE]).unwrap();
    for item in &items {
        store.ingest(item.id, &frame(item.id, 64)).expect("ingest");
    }
    for id in [3, 17, 40] {
        store.quarantine_record(id, REP);
    }
    let arch = ArchSpec {
        conv_layers: 1,
        conv_nodes: 4,
        dense_nodes: 16,
    };
    let mut zoo = SharedModelZoo::new().with_source(SOURCE);
    for (id, seed) in [(0, 11), (1, 12)] {
        let model = arch.cnn_spec(REP).build(seed).expect("valid spec");
        zoo.register(ModelId(id), REP, model);
    }

    // Level 0 decides the outer quarters of its own score distribution.
    let mut level0 = Vec::new();
    let mut calibration = NnSessionScratch::new();
    SharedNnScorer::new(&store, &zoo, &mut calibration)
        .score_batch(ModelId(0), ScorePack::standalone(&items), &mut level0)
        .expect("scores");
    level0.sort_by(f32::total_cmp);
    let cut = |q: f64| level0[((level0.len() - 1) as f64 * q) as usize];
    let thresholds = ThresholdTable {
        settings: vec![0.95],
        per_model: vec![
            vec![DecisionThresholds {
                p_low: cut(0.25),
                p_high: cut(0.75),
            }],
            vec![DecisionThresholds::never_decide()],
        ],
    };

    let cascade = Cascade::new(&[(0, 0), (1, 0)]);
    let mut scratch = NnSessionScratch::new();
    let mut scorer = SharedNnScorer::new(&store, &zoo, &mut scratch);
    scorer.begin_cascade(&cascade, &items);
    run_level_major(&cascade, &thresholds, items.len(), |_, model, pack, out| {
        let pack: Vec<&CorpusItem> = pack.iter().map(|&i| items[i]).collect();
        scorer.score_batch(model, ScorePack::standalone(&pack), out)
    })
    .expect("cascade runs");
    let NnStageStats {
        batches,
        items_scored,
        fetches,
        cache_hits,
        degraded_fetches,
        ..
    } = scratch.stats();
    assert_pinned(
        "depth-2 cascade",
        &[
            ("batches", batches, 2),
            ("items_scored", items_scored, 89),
            ("fetches", fetches, 64),
            ("cache_hits", cache_hits, 25),
            ("degraded_fetches", degraded_fetches, 3),
        ],
    );
    assert_eq!(
        items_scored,
        fetches + cache_hits,
        "items_scored != fetches + cache_hits"
    );
}
