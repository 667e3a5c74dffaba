//! Property tests for continuous sliding-window execution: at EVERY
//! slide, the incrementally maintained window result (only entrants
//! scored, survivor decisions carried over) is identical to a full
//! from-scratch re-evaluation of the window and to brute force over it
//! (the item-at-a-time reference walk per predicate over every window
//! item, `HashSet` intersection) — under arbitrary RANGE/STEP shapes (including STEP > RANGE
//! gaps), arbitrary frame arrival orders, cascade depths 1–3, arbitrary
//! threshold tables, NaN scores, and metadata + multi-predicate standing
//! queries. The per-tick `added`/`removed` deltas must also replay the
//! previous matched set into the current one exactly.

mod common;

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use tahoma::core::continuous::{ContinuousExecutor, WindowSpec};
use tahoma::core::evaluator::CostContext;
use tahoma::core::exec::ItemScorerBatchAdapter;
use tahoma::core::query::{CorpusItem, ItemScorer, MetaPredicate};
use tahoma::core::thresholds::{DecisionThresholds, ThresholdTable};
use tahoma::core::{Cascade, VectorizedExecutor};
use tahoma::mathx::DetRng;
use tahoma::prelude::*;
use tahoma::zoo::ModelId;

struct Fixture {
    repo: tahoma::zoo::ModelRepository,
    corpus: Corpus,
    cost: CostContext,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let pred = PredicateSpec::for_kind(ObjectKind::Fence);
        let cfg = SurrogateBuildConfig {
            n_config: 150,
            n_eval: 200,
            seed: 0x57E4,
            variants: Some(paper_variants().into_iter().step_by(23).collect()),
            ..Default::default()
        };
        let repo = build_surrogate_repository(pred, &cfg, &DeviceProfile::k80());
        let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
        let cost = CostContext::build(&repo, &profiler);
        Fixture {
            repo,
            corpus: Corpus::synthetic(320, 0.35, 23),
            cost,
        }
    })
}

/// Deterministic hash scorer with NaN injection; the incremental and
/// rescan sides see bit-identical scores, so any divergence is the
/// window executor's fault.
struct HashScorer {
    seed: u64,
    nan_pct: u8,
}

impl ItemScorer for HashScorer {
    fn score(&self, model: ModelId, item: &CorpusItem) -> f32 {
        let mut rng = DetRng::from_coords(self.seed ^ ((model.0 as u64) << 32), item.id);
        if rng.index(100) < self.nan_pct as usize {
            f32::NAN
        } else {
            rng.uniform() as f32
        }
    }
}

fn random_thresholds(seed: u64, n_models: usize, n_settings: usize) -> ThresholdTable {
    let mut rng = DetRng::new(seed ^ 0x7AB1E);
    let per_model = (0..n_models)
        .map(|_| {
            (0..n_settings)
                .map(|_| {
                    if rng.bernoulli(0.15) {
                        DecisionThresholds::never_decide()
                    } else {
                        DecisionThresholds {
                            p_low: rng.uniform_in(-0.2, 1.0) as f32,
                            p_high: rng.uniform_in(-0.2, 1.3) as f32,
                        }
                    }
                })
                .collect()
        })
        .collect();
    ThresholdTable {
        settings: vec![0.9; n_settings],
        per_model,
    }
}

fn random_cascade(rng: &mut DetRng, depth: usize, n_models: usize, n_settings: usize) -> Cascade {
    let levels: Vec<(u16, u8)> = (0..depth)
        .map(|_| (rng.index(n_models) as u16, rng.index(n_settings) as u8))
        .collect();
    Cascade::new(&levels)
}

/// The corpus in a seeded arbitrary arrival order (Fisher-Yates).
fn arrival_order(corpus: &Corpus, seed: u64) -> Vec<CorpusItem> {
    let mut rng = DetRng::new(seed ^ 0xA441);
    let mut items = corpus.items.clone();
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
    items
}

/// Drive `n_ticks` slides and, at every one, check the three-way
/// equivalence (incremental == rescan == brute force over the window)
/// plus exact delta replay.
fn check_all_slides(
    query: Query,
    cascades: BTreeMap<ObjectKind, Cascade>,
    window: WindowSpec,
    thresholds: &ThresholdTable,
    scorer: &HashScorer,
    arrivals: &[CorpusItem],
    n_ticks: u64,
) -> Result<(), TestCaseError> {
    let fx = fixture();
    let mut cx =
        ContinuousExecutor::register(query.clone(), cascades.clone(), window).expect("registers");
    let exec = VectorizedExecutor::new(&fx.repo, thresholds, &fx.cost);
    let steps: Vec<(ObjectKind, Cascade)> = query
        .content
        .iter()
        .map(|kind| (*kind, cascades[kind]))
        .collect();
    let mut feed = arrivals.iter();
    let mut prev: Vec<u64> = Vec::new();
    for tick in 1..=n_ticks {
        for _ in 0..window.step() {
            cx.ingest(feed.next().expect("enough arrivals").clone());
        }
        let mut adapter = ItemScorerBatchAdapter(scorer);
        let d = cx.tick_batched(&exec, &mut adapter).expect("ticks");
        let matched = cx.matched();
        prop_assert_eq!(d.matched, matched.len());

        // Delta replay: previous matched set + this slide's deltas ==
        // current matched set, order included.
        prop_assert!(d.added.iter().all(|id| !prev.contains(id)));
        prop_assert!(d.removed.iter().all(|id| prev.contains(id)));
        let mut rebuilt: Vec<u64> = prev
            .iter()
            .filter(|id| !d.removed.contains(id))
            .copied()
            .collect();
        rebuilt.extend(&d.added);
        prop_assert_eq!(&rebuilt, &matched, "tick {} delta replay", tick);

        // From-scratch rescan through the batched path.
        let mut fresh = ItemScorerBatchAdapter(scorer);
        let rescan = cx.rescan_batched(&exec, &mut fresh).expect("rescan");
        prop_assert_eq!(&rescan, &matched, "tick {} rescan", tick);

        // Brute force over the window, rebuilt from the arrival positions
        // alone.
        let end = tick * window.step();
        let start = end.saturating_sub(window.range());
        let window_items: Vec<&CorpusItem> =
            arrivals[start as usize..end as usize].iter().collect();
        prop_assert_eq!(window_items.len(), cx.window_len());
        let reference = common::brute_force(&exec, &query.metadata, &steps, &window_items, scorer);
        prop_assert_eq!(&reference.matched, &matched, "tick {} reference", tick);
        prev = matched;
    }
    // Incremental work never exceeds arrivals consumed (times predicates).
    let consumed = n_ticks * window.step().min(window.range());
    prop_assert!(cx.scored_total() <= consumed * query.content.len() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-predicate standing query: incremental == rescan == reference
    /// at every slide, any RANGE/STEP (gaps included), depths 1-3, any
    /// arrival order, NaN scores.
    #[test]
    fn incremental_equals_full_reevaluation_every_slide(
        range in 1u64..40,
        step in 1u64..16,
        depth in 1usize..4,
        cascade_seed in 0u64..1_000_000,
        thr_seed in 0u64..1_000_000,
        arrival_seed in 0u64..1_000_000,
        n_ticks in 1u64..13,
        nan_pct in 0u8..25,
    ) {
        let fx = fixture();
        let thresholds = random_thresholds(thr_seed, fx.repo.len(), 5);
        let mut rng = DetRng::new(cascade_seed);
        let mut cascades = BTreeMap::new();
        cascades.insert(
            ObjectKind::Fence,
            random_cascade(&mut rng, depth, fx.repo.len(), 5),
        );
        let query = Query {
            table: "frames".into(),
            metadata: Vec::new(),
            content: vec![ObjectKind::Fence],
        };
        let window = WindowSpec::new(range, step).expect("valid window");
        let scorer = HashScorer { seed: cascade_seed ^ thr_seed, nan_pct };
        let arrivals = arrival_order(&fx.corpus, arrival_seed);
        check_all_slides(query, cascades, window, &thresholds, &scorer, &arrivals, n_ticks)?;
    }

    /// Metadata + multi-predicate standing query: the short-circuit
    /// conjunction over entrant packs must still match brute force over
    /// the whole window.
    #[test]
    fn multi_predicate_windows_match_reference(
        range in 2u64..32,
        step in 1u64..12,
        n_preds in 1usize..4,
        camera_cut in 1u64..9,
        cascade_seed in 0u64..1_000_000,
        thr_seed in 0u64..1_000_000,
        arrival_seed in 0u64..1_000_000,
        n_ticks in 1u64..9,
        nan_pct in 0u8..20,
    ) {
        let fx = fixture();
        let thresholds = random_thresholds(thr_seed, fx.repo.len(), 5);
        let mut rng = DetRng::new(cascade_seed ^ 0x3B);
        let kinds = [ObjectKind::Fence, ObjectKind::Wallet, ObjectKind::Acorn];
        let mut cascades = BTreeMap::new();
        for &kind in &kinds[..n_preds] {
            let depth = 1 + rng.index(3);
            cascades.insert(kind, random_cascade(&mut rng, depth, fx.repo.len(), 5));
        }
        let query = Query {
            table: "frames".into(),
            metadata: vec![MetaPredicate::Camera(
                tahoma::core::query::CmpOp::Lt,
                camera_cut,
            )],
            content: kinds[..n_preds].to_vec(),
        };
        let window = WindowSpec::new(range, step).expect("valid window");
        let scorer = HashScorer { seed: thr_seed ^ !cascade_seed, nan_pct };
        let arrivals = arrival_order(&fx.corpus, arrival_seed);
        check_all_slides(query, cascades, window, &thresholds, &scorer, &arrivals, n_ticks)?;
    }
}
