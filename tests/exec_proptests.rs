//! Property tests: the vectorized level-major executor is
//! decision-for-decision (and simulated-cost-for-cost) identical to the
//! item-at-a-time reference cascade walk, under arbitrary cascades
//! (depth 1–4, shared and distinct representations), arbitrary threshold
//! tables, NaN scores (which must follow the PR 2 `nan_last` discipline:
//! never decide at a thresholded level, lose the `>= 0.5` comparison at
//! the terminal), and arbitrary metadata-survivor subsets — plus the
//! planner-ordered query executor and the shared conjunction walk, both
//! pinned against brute force (every predicate over every item through the
//! reference walk, `HashSet` intersection).

mod common;

use common::{assert_execute_matches_brute_force, assert_relations_identical, brute_force};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::OnceLock;
use tahoma::core::evaluator::CostContext;
use tahoma::core::exec::{run_conjunction, ItemScorerBatchAdapter, SurrogateBatchScorer};
use tahoma::core::query::{CmpOp, CorpusItem, ItemScorer, MetaPredicate, SurrogateItemScorer};
use tahoma::core::thresholds::{DecisionThresholds, ThresholdTable};
use tahoma::core::{Cascade, CoreError, VectorizedExecutor};
use tahoma::mathx::DetRng;
use tahoma::prelude::*;
use tahoma::zoo::ModelId;

struct Fixture {
    repo: tahoma::zoo::ModelRepository,
    scorer: SurrogateScorer,
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
            seed: 0xE8EC,
            variants: Some(paper_variants().into_iter().step_by(23).collect()),
            ..Default::default()
        };
        let scorer = SurrogateScorer {
            pred,
            params: cfg.params,
            seed: cfg.seed,
        };
        let repo = build_surrogate_repository(pred, &cfg, &DeviceProfile::k80());
        let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
        let cost = CostContext::build(&repo, &profiler);
        Fixture {
            repo,
            scorer,
            corpus: Corpus::synthetic(400, 0.3, 17),
            cost,
        }
    })
}

/// A deterministic hash scorer that injects NaN at a controllable rate —
/// the reference and batched sides see bit-identical scores, so any
/// divergence is the executor's fault.
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

/// An arbitrary threshold table for the fixture repository: any float cut
/// pair is legal (including never-deciding and everything-deciding ones);
/// the property is that both executors interpret it identically.
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

/// Subset of the corpus playing the metadata survivors.
fn random_subset(corpus: &Corpus, seed: u64, keep_pct: usize) -> Vec<&CorpusItem> {
    let mut rng = DetRng::new(seed ^ 0x5B5E7);
    corpus
        .items
        .iter()
        .filter(|_| rng.index(100) < keep_pct)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched vs reference cascade run under a NaN-injecting scorer,
    /// arbitrary cascades and threshold tables, and arbitrary survivor
    /// subsets.
    #[test]
    fn batched_cascade_is_decision_identical_to_reference(
        depth in 1usize..5,
        cascade_seed in 0u64..1_000_000,
        thr_seed in 0u64..1_000_000,
        subset_seed in 0u64..1_000_000,
        keep_pct in 0usize..101,
        nan_pct in 0u8..30,
    ) {
        let fx = fixture();
        let thresholds = random_thresholds(thr_seed, fx.repo.len(), 5);
        let mut rng = DetRng::new(cascade_seed);
        let cascade = random_cascade(&mut rng, depth, fx.repo.len(), 5);
        let items = random_subset(&fx.corpus, subset_seed, keep_pct);
        let scorer = HashScorer { seed: cascade_seed ^ thr_seed, nan_pct };

        let executor = VectorizedExecutor::new(&fx.repo, &thresholds, &fx.cost);
        let reference = executor
            .run_cascade_reference(ObjectKind::Fence, cascade, &items, &scorer)
            .expect("reference runs");

        let mut adapter = ItemScorerBatchAdapter(&scorer);
        let batched = executor
            .run_cascade_batched(ObjectKind::Fence, cascade, &items, &mut adapter)
            .expect("batched runs");

        assert_relations_identical(&reference, &batched);
    }

    /// The hoisted surrogate batch backend is bit-identical to the
    /// per-item surrogate scorer through the executor.
    #[test]
    fn surrogate_batch_backend_matches_item_scorer(
        depth in 1usize..5,
        cascade_seed in 0u64..1_000_000,
        subset_seed in 0u64..1_000_000,
    ) {
        let fx = fixture();
        let thresholds =
            tahoma::core::thresholds::calibrate_all(&fx.repo, &PAPER_PRECISION_SETTINGS);
        let mut rng = DetRng::new(cascade_seed ^ 0xCA5);
        let cascade = random_cascade(&mut rng, depth, fx.repo.len(), 5);
        let items = random_subset(&fx.corpus, subset_seed, 70);

        let executor = VectorizedExecutor::new(&fx.repo, &thresholds, &fx.cost);
        let item_scorer = SurrogateItemScorer { scorer: &fx.scorer, repo: &fx.repo };
        let reference = executor
            .run_cascade_reference(ObjectKind::Fence, cascade, &items, &item_scorer)
            .expect("reference runs");

        let mut batch_scorer = SurrogateBatchScorer::new(&fx.scorer, &fx.repo);
        let batched = executor
            .run_cascade_batched(ObjectKind::Fence, cascade, &items, &mut batch_scorer)
            .expect("batched runs");

        assert_relations_identical(&reference, &batched);
    }

    /// Full-query identity: the planner-ordered executor under a metadata
    /// filter and 1–3 content predicates reproduces the legacy algorithm —
    /// reference cascade per predicate over all survivors, hash-set
    /// conjunction — and each relation is the reference walk over exactly
    /// the rows it covers.
    #[test]
    fn execute_matches_legacy_algorithm(
        thr_seed in 0u64..1_000_000,
        cascade_seed in 0u64..1_000_000,
        camera_cut in 1u64..9,
        n_preds in 1usize..4,
        nan_pct in 0u8..20,
    ) {
        let fx = fixture();
        let thresholds = random_thresholds(thr_seed, fx.repo.len(), 5);
        let mut rng = DetRng::new(cascade_seed ^ 0xEEC);
        let kinds = [ObjectKind::Fence, ObjectKind::Wallet, ObjectKind::Acorn];
        let query = Query {
            table: "t".into(),
            metadata: vec![MetaPredicate::Camera(CmpOp::Lt, camera_cut)],
            content: kinds[..n_preds].to_vec(),
        };
        let mut cascades = BTreeMap::new();
        for &kind in &query.content {
            let depth = 1 + rng.index(4);
            cascades.insert(kind, random_cascade(&mut rng, depth, fx.repo.len(), 5));
        }
        let scorer = HashScorer { seed: thr_seed ^ cascade_seed, nan_pct };
        let executor = VectorizedExecutor::new(&fx.repo, &thresholds, &fx.cost);

        let got = executor
            .execute(&query, &fx.corpus, &cascades, &mut ItemScorerBatchAdapter(&scorer))
            .expect("executes");
        assert_execute_matches_brute_force(&executor, &query, &fx.corpus, &cascades, &scorer, &got);
    }

    /// Planner-ordered short-circuit execution of a 2–3 predicate
    /// conjunction never changes `matched_ids` from brute force's, and never
    /// scores an item outside the metadata survivors or more rows than
    /// every predicate over every survivor.
    #[test]
    fn short_circuit_preserves_matched_ids(
        thr_seed in 0u64..1_000_000,
        cascade_seed in 0u64..1_000_000,
        n_preds in 2usize..4,
        nan_pct in 0u8..20,
    ) {
        let fx = fixture();
        let thresholds = random_thresholds(thr_seed, fx.repo.len(), 5);
        let mut rng = DetRng::new(cascade_seed ^ 0x5C);
        let kinds = [ObjectKind::Fence, ObjectKind::Wallet, ObjectKind::Acorn];
        let query = Query {
            table: "t".into(),
            metadata: Vec::new(),
            content: kinds[..n_preds].to_vec(),
        };
        let mut cascades = BTreeMap::new();
        for &kind in &query.content {
            let depth = 1 + rng.index(4);
            cascades.insert(kind, random_cascade(&mut rng, depth, fx.repo.len(), 5));
        }
        let scorer = HashScorer { seed: thr_seed ^ !cascade_seed, nan_pct };
        let executor = VectorizedExecutor::new(&fx.repo, &thresholds, &fx.cost);

        let shortcut = executor
            .execute(&query, &fx.corpus, &cascades, &mut ItemScorerBatchAdapter(&scorer))
            .expect("short-circuit executes");
        assert_execute_matches_brute_force(
            &executor, &query, &fx.corpus, &cascades, &scorer, &shortcut,
        );
    }

    /// The one conjunction walk against brute force: random metadata
    /// predicates and 0–3 content predicates in random order. Brute force
    /// evaluates every predicate over *every* item with the item-at-a-time
    /// reference walk and intersects `HashSet`s; the walk must flag exactly
    /// those items, hand each step only the survivors of everything before
    /// it, and with no content predicate flag exactly the metadata
    /// survivors.
    #[test]
    fn conjunction_walk_matches_brute_force(
        thr_seed in 0u64..1_000_000,
        cascade_seed in 0u64..1_000_000,
        order_seed in 0u64..1_000_000,
        camera_cut in 0u64..9,
        n_meta in 0usize..3,
        n_preds in 0usize..4,
        nan_pct in 0u8..20,
    ) {
        let fx = fixture();
        let thresholds = random_thresholds(thr_seed, fx.repo.len(), 5);
        let mut rng = DetRng::new(cascade_seed ^ order_seed.rotate_left(17));
        let metadata: Vec<MetaPredicate> = [
            MetaPredicate::Camera(CmpOp::Lt, camera_cut),
            MetaPredicate::Location(CmpOp::Ne, "Flint".into()),
        ][..n_meta]
            .to_vec();
        // Random order: a shuffled prefix of the kinds, one cascade each.
        let mut kinds = [ObjectKind::Fence, ObjectKind::Wallet, ObjectKind::Acorn];
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.index(i + 1));
        }
        let steps: Vec<(ObjectKind, Cascade)> = kinds[..n_preds]
            .iter()
            .map(|&kind| {
                let depth = 1 + rng.index(4);
                (kind, random_cascade(&mut rng, depth, fx.repo.len(), 5))
            })
            .collect();
        let scorer = HashScorer { seed: thr_seed ^ order_seed, nan_pct };
        let items: Vec<&CorpusItem> = fx.corpus.items.iter().collect();

        let executor = VectorizedExecutor::new(&fx.repo, &thresholds, &fx.cost);
        let bf = brute_force(&executor, &metadata, &steps, &items, &scorer);
        let expected: HashSet<u64> = bf.matched.iter().copied().collect();
        let metadata_survivors = bf.survivors.len();

        let mut adapter = ItemScorerBatchAdapter(&scorer);
        let mut pack_sizes = Vec::new();
        let walk = run_conjunction(&metadata, &steps, &items, |kind, cascade, pack| {
            pack_sizes.push(pack.len());
            Ok::<_, CoreError>(
                executor
                    .run_cascade_batched(kind, cascade, pack, &mut adapter)?
                    .passes(),
            )
        })
        .expect("walk runs");

        let flagged: HashSet<u64> = items
            .iter()
            .zip(&walk.passes)
            .filter(|(_, &pass)| pass)
            .map(|(item, _)| item.id)
            .collect();
        assert_eq!(walk.passes.len(), items.len());
        assert_eq!(flagged, expected);
        assert_eq!(walk.matched_ids(&items), bf.matched);
        assert_eq!(walk.metadata_survivors, metadata_survivors);
        // Every step ran once, over a pack no larger than the one before.
        assert_eq!(pack_sizes.len(), steps.len());
        assert_eq!(walk.scored, pack_sizes.iter().sum::<usize>());
        if let Some(&first) = pack_sizes.first() {
            assert_eq!(first, metadata_survivors);
        }
        assert!(pack_sizes.windows(2).all(|w| w[1] <= w[0]), "{pack_sizes:?}");
        if steps.is_empty() {
            assert_eq!(flagged.len(), metadata_survivors);
        }
    }
}

/// The walk's only own failure: an evaluation seam that does not return one
/// flag per pack item is a typed error, not a silent misalignment.
#[test]
fn conjunction_rejects_an_eval_that_miscounts() {
    let fx = fixture();
    let items: Vec<&CorpusItem> = fx.corpus.items.iter().take(4).collect();
    let steps = [(ObjectKind::Fence, Cascade::single(0))];
    let walk = run_conjunction(&[], &steps, &items, |_, _, pack| {
        Ok::<_, CoreError>(vec![true; pack.len() - 1])
    });
    assert!(matches!(walk, Err(CoreError::Scoring(_))), "{walk:?}");
}
