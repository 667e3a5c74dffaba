//! Row failures and degraded rows on the inference lanes.
//!
//! A scoring call's lanes fetch, decode and standardize their own rows, so
//! which lane meets a bad row — and when — depends on the schedule. The
//! answer must not: an unscorable pack is the same typed
//! [`CoreError::Scoring`], naming the lowest failing row's item, at every
//! lane width, scored locally or through the broker, and no thread
//! panics on the way. A quarantined record degrades to the
//! transcode-from-source path on whichever lane reads it and scores
//! bitwise what the healthy record scores.
//!
//! The panic hook below counts every panic in this test process, so each
//! test runs its whole schedule matrix and then asserts the count is
//! still zero.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use tahoma_core::exec::{BatchScorer, InferDispatch, ScorePack};
use tahoma_core::exec::{NnSessionScratch, SharedModelZoo, SharedNnScorer};
use tahoma_core::query::{Corpus, CorpusItem};
use tahoma_core::CoreError;
use tahoma_imagery::{ColorMode, Image, Representation, RepresentationStore};
use tahoma_nn::MORSEL_ROWS;
use tahoma_serve::Broker;
use tahoma_zoo::{ArchSpec, ModelId};

/// Rows per pack: ten morsels, the last one ragged.
const ROWS: usize = 9 * MORSEL_ROWS + 21;
const WIDTHS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(3)];

static PANICS_CAUGHT: AtomicU64 = AtomicU64::new(0);

/// Count every panic in the process from here on (the default hook still
/// prints it).
fn count_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS_CAUGHT.fetch_add(1, Ordering::SeqCst);
            default(info);
        }));
    });
}

fn model_rep() -> Representation {
    Representation::new(12, ColorMode::Gray)
}

fn source_rep() -> Representation {
    Representation::new(24, ColorMode::Rgb)
}

fn frame(id: u64) -> Image {
    Image::from_fn(24, 24, ColorMode::Rgb, |c, y, x| {
        ((id as usize * 7 + c * 31 + y * 13 + x * 5) % 47) as f32 / 47.0
    })
    .expect("valid dims")
}

fn zoo(source: Option<Representation>) -> SharedModelZoo {
    let rep = model_rep();
    let net = ArchSpec {
        conv_layers: 1,
        conv_nodes: 4,
        dense_nodes: 8,
    }
    .cnn_spec(rep)
    .build(61)
    .expect("valid spec");
    let mut zoo = match source {
        Some(src) => SharedModelZoo::new().with_source(src),
        None => SharedModelZoo::new(),
    };
    zoo.register(ModelId(0), rep, net);
    zoo
}

/// How a pack reaches the zoo.
#[derive(Debug, Clone, Copy)]
enum Route {
    Local,
    /// Through a broker with this many interested queries: 1 takes the
    /// idle fast path (the lanes produce the rows), 2 the merged path (the
    /// participant fills its slot first).
    Brokered(usize),
}

const ROUTES: [Route; 3] = [Route::Local, Route::Brokered(1), Route::Brokered(2)];

/// Score `items` against model 0 by `route` on a session of `threads`
/// lanes; the session's degraded-fetch count rides along.
fn score(
    store: &RepresentationStore,
    zoo: &Arc<SharedModelZoo>,
    items: &[&CorpusItem],
    threads: Option<usize>,
    route: Route,
) -> (Result<Vec<f32>, CoreError>, u64) {
    let mut scratch = NnSessionScratch::with_threads(threads);
    let broker;
    let mut scorer = SharedNnScorer::new(store, zoo, &mut scratch);
    if let Route::Brokered(active) = route {
        broker = Broker::new(Arc::clone(zoo), Arc::new(AtomicUsize::new(active)));
        scorer = scorer.with_dispatch(&broker as &dyn InferDispatch);
    }
    let mut out = Vec::new();
    let scored = scorer.score_batch(ModelId(0), ScorePack::standalone(items), &mut out);
    (scored.map(|()| out), scratch.stats().degraded_fetches)
}

#[test]
fn unscorable_rows_fail_typed_naming_the_lowest_item_on_every_schedule() {
    count_panics();
    // No source configured, and two items in different morsels were never
    // ingested: their input representation is absent and underivable.
    let corpus = Corpus::synthetic(ROWS, 0.5, 7);
    let items: Vec<&CorpusItem> = corpus.items.iter().collect();
    let (low, high) = (2 * MORSEL_ROWS + 5, 7 * MORSEL_ROWS + 40);
    let store = RepresentationStore::temporary(vec![model_rep()]).unwrap();
    for (row, item) in items.iter().enumerate() {
        if row != low && row != high {
            store.ingest(item.id, &frame(item.id)).expect("ingests");
        }
    }
    let zoo = Arc::new(zoo(None));
    let want = CoreError::Scoring(format!(
        "item {}: no stored {} and no source representation is configured",
        items[low].id,
        model_rep()
    ));
    for threads in WIDTHS {
        for route in ROUTES {
            let (got, _) = score(&store, &zoo, &items, threads, route);
            assert_eq!(got, Err(want.clone()), "threads {threads:?} {route:?}");
        }
    }
    assert_eq!(PANICS_CAUGHT.load(Ordering::SeqCst), 0, "panics_caught");
}

#[test]
fn quarantined_rows_degrade_on_the_lanes_to_the_healthy_bits() {
    count_panics();
    let corpus = Corpus::synthetic(ROWS, 0.5, 8);
    let items: Vec<&CorpusItem> = corpus.items.iter().collect();
    let store = RepresentationStore::temporary(vec![model_rep(), source_rep()]).unwrap();
    for item in &items {
        store.ingest(item.id, &frame(item.id)).expect("ingests");
    }
    let zoo = Arc::new(zoo(Some(source_rep())));
    let (healthy, degraded) = score(&store, &zoo, &items, Some(1), Route::Local);
    let healthy = healthy.expect("every row is stored");
    assert_eq!(degraded, 0);
    // One quarantined record in the first morsel, one mid-pack, one in the
    // ragged last morsel.
    let quarantined = [3, 5 * MORSEL_ROWS + 1, ROWS - 1];
    for &row in &quarantined {
        store.quarantine_record(items[row].id, model_rep());
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for threads in WIDTHS {
        for route in ROUTES {
            let (got, degraded) = score(&store, &zoo, &items, threads, route);
            let got = got.expect("quarantined rows degrade, they do not fail");
            assert_eq!(bits(&got), bits(&healthy), "threads {threads:?} {route:?}");
            assert_eq!(
                degraded,
                quarantined.len() as u64,
                "threads {threads:?} {route:?}"
            );
        }
    }
    assert_eq!(PANICS_CAUGHT.load(Ordering::SeqCst), 0, "panics_caught");
}
