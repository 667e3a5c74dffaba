//! Integration of the *real* training path with the optimizer: models
//! trained by `tahoma-nn` on rendered pixels drive the same cascade
//! machinery the surrogate experiments use.

use tahoma::prelude::*;
use tahoma::zoo::trainer::{build_real_repository, RealTrainConfig};
use tahoma::zoo::variant::cross_variants;

fn mini_space() -> Vec<ModelVariant> {
    cross_variants(
        &[
            ArchSpec {
                conv_layers: 1,
                conv_nodes: 4,
                dense_nodes: 8,
            },
            ArchSpec {
                conv_layers: 2,
                conv_nodes: 8,
                dense_nodes: 16,
            },
        ],
        &[
            Representation::new(12, ColorMode::Gray),
            Representation::new(24, ColorMode::Rgb),
        ],
    )
}

fn train_system() -> &'static tahoma::core::pipeline::TahomaSystem {
    // Training real CNNs is the dominant cost here; share one system
    // across the tests in this file.
    use std::sync::OnceLock;
    static SYSTEM: OnceLock<tahoma::core::pipeline::TahomaSystem> = OnceLock::new();
    SYSTEM.get_or_init(build_train_system)
}

fn build_train_system() -> tahoma::core::pipeline::TahomaSystem {
    let spec = DatasetSpec {
        n_train: 160,
        n_config: 80,
        n_eval: 80,
        ..DatasetSpec::tiny(ObjectKind::Komondor, 24, 5)
    };
    let bundle = spec.generate();
    let cfg = RealTrainConfig {
        epochs: 20,
        batch_size: 16,
        lr: 0.01,
        early_stop_loss: 0.08,
        seed: 2,
    };
    let (repo, _) =
        build_real_repository(&bundle, &mini_space(), &cfg, &DeviceProfile::k80()).unwrap();
    let builder = BuilderConfig {
        pool: repo.specialized_ids(),
        reference: None,
        n_settings: 3,
        max_pool_depth: 2,
        with_reference_terminal: false,
    };
    tahoma::core::pipeline::TahomaSystem::initialize(repo, &[0.93, 0.95, 0.99], &builder)
}

#[test]
fn real_models_learn_above_chance_and_form_a_frontier() {
    let system = train_system();
    // At least one real model beats chance clearly on the eval split.
    let best = system
        .repo
        .specialized_ids()
        .into_iter()
        .map(|id| system.repo.eval_accuracy(id))
        .fold(0.0, f64::max);
    assert!(best > 0.75, "best real model accuracy {best}");

    let profiler = AnalyticProfiler::paper_testbed(Scenario::InferOnly);
    let frontier = system.frontier(&profiler);
    assert!(!frontier.points.is_empty());
    // Frontier throughput spans the model cost spread.
    let fastest = frontier.points.first().unwrap().throughput;
    let slowest = frontier.points.last().unwrap().throughput;
    assert!(fastest >= slowest);
}

#[test]
fn richer_inputs_help_real_models_too() {
    // The surrogate family assumes bigger inputs carry more signal; verify
    // the real path agrees in aggregate: the best 24px RGB model is at
    // least as accurate as the best 12px gray model.
    let system = train_system();
    let mut best_small = 0.0f64;
    let mut best_large = 0.0f64;
    for id in system.repo.specialized_ids() {
        let entry = system.repo.entry(id);
        let acc = system.repo.eval_accuracy(id);
        if entry.variant.input.size == 12 {
            best_small = best_small.max(acc);
        } else {
            best_large = best_large.max(acc);
        }
    }
    assert!(
        best_large >= best_small - 0.05,
        "24px rgb best {best_large} unexpectedly far below 12px gray best {best_small}"
    );
}

#[test]
fn thresholds_calibrated_on_real_scores_meet_precision_on_config_split() {
    let system = train_system();
    for (mi, entry) in system.repo.entries.iter().enumerate() {
        for (si, &target) in system.thresholds.settings.iter().enumerate() {
            let thr = system.thresholds.get(mi, si);
            if let Some(p) = tahoma::core::thresholds::positive_precision(
                thr,
                &entry.config_scores,
                &system.repo.config.labels,
            ) {
                assert!(
                    p >= target - 1e-9,
                    "model {mi} setting {si}: precision {p} < {target}"
                );
            }
        }
    }
}

#[test]
fn vectorized_executor_serves_real_models_end_to_end() {
    // The whole product path with no surrogate anywhere: train real CNNs,
    // ingest real raster frames into a representation store, and serve a
    // content query through the vectorized executor's NN backend — store
    // fetch → pooled decode → (transcode when the exact representation is
    // not stored) → standardize → `infer_batch_shared` → thresholds.
    use std::collections::BTreeMap;
    use tahoma::core::evaluator::CostContext;
    use tahoma::core::exec::{BatchScorer, NnSessionScratch, SharedModelZoo, SharedNnScorer};
    use tahoma::core::thresholds::{DecisionThresholds, ThresholdTable};
    use tahoma::core::VectorizedExecutor;
    use tahoma::imagery::RepresentationStore;
    use tahoma::zoo::trainer::build_real_repository_keeping_models;

    let kind = ObjectKind::Komondor;
    let spec = DatasetSpec {
        n_train: 120,
        n_config: 60,
        n_eval: 80,
        ..DatasetSpec::tiny(kind, 24, 9)
    };
    let bundle = spec.generate();
    let rep_gray = Representation::new(12, ColorMode::Gray);
    let rep_rgb = Representation::new(12, ColorMode::Rgb);
    let variants = cross_variants(
        &[ArchSpec {
            conv_layers: 1,
            conv_nodes: 6,
            dense_nodes: 12,
        }],
        &[rep_gray, rep_rgb],
    );
    let cfg = RealTrainConfig {
        epochs: 18,
        batch_size: 16,
        lr: 0.01,
        early_stop_loss: 0.08,
        seed: 5,
    };
    let (repo, _outcomes, models) =
        build_real_repository_keeping_models(&bundle, &variants, &cfg, &DeviceProfile::k80())
            .unwrap();
    let thresholds = tahoma::core::thresholds::calibrate_all(&repo, &[0.93]);
    let profiler = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
    let cost = CostContext::build(&repo, &profiler);

    // The corpus mirrors the eval split; the store holds the gray model's
    // exact representation plus the RGB source frame — so one cascade
    // level serves via direct fetch and the other via the transcode
    // fallback.
    let source_rep = Representation::new(24, ColorMode::Rgb);
    let store = RepresentationStore::temporary(vec![rep_gray, source_rep]).unwrap();
    let corpus = Corpus {
        items: bundle
            .eval
            .items
            .iter()
            .map(|it| tahoma::core::query::CorpusItem {
                id: it.id,
                location: "Detroit".into(),
                camera: 0,
                timestamp: 0,
                objects: if it.label { vec![kind] } else { Vec::new() },
                difficulty: it.difficulty,
            })
            .collect(),
    };
    for it in &bundle.eval.items {
        store.ingest(it.id, &it.image).unwrap();
    }
    let gray_model = repo
        .entries
        .iter()
        .position(|e| e.variant.input == rep_gray)
        .unwrap() as u16;
    let rgb_model = repo
        .entries
        .iter()
        .position(|e| e.variant.input == rep_rgb)
        .unwrap() as u16;

    // Construction identity: a batch through the scorer equals manual
    // fetch → standardize → `predict_proba_shared` packing, exactly.
    let mut input = Vec::new();
    let mut engine = tahoma::imagery::TranscodeEngine::new();
    for it in &corpus.items {
        let img = store.fetch(it.id, rep_gray, &mut engine).unwrap().unwrap();
        input.extend_from_slice(tahoma::imagery::transform::standardize(&img).data());
    }
    let expected = models[gray_model as usize].predict_proba_shared(
        &input,
        corpus.items.len(),
        &mut tahoma::nn::InferScratch::default(),
    );

    let mut zoo = SharedModelZoo::new().with_source(source_rep);
    zoo.register_repository(&repo, models);
    let mut scratch = NnSessionScratch::new();
    let items: Vec<&tahoma::core::query::CorpusItem> = corpus.items.iter().collect();
    let mut got = Vec::new();
    SharedNnScorer::new(&store, &zoo, &mut scratch)
        .score_batch(
            ModelId(gray_model as u32),
            tahoma::core::exec::ScorePack::standalone(&items),
            &mut got,
        )
        .unwrap();
    assert_eq!(got, expected, "batched NN scores mismatch manual packing");

    // End-to-end query: gray level via direct fetch, RGB terminal via the
    // transcode fallback. (Executor-vs-reference decision identity is
    // property-tested with batch-size-invariant scorers in
    // exec_proptests.rs; NN scores can differ in final-ulp rounding across
    // GEMM batch shapes, so here we assert the end-to-end semantics.)
    scratch.reset_stats();
    let cascade = Cascade::new(&[(gray_model, 0), (rgb_model, 0)]);
    let mut cascades = BTreeMap::new();
    cascades.insert(kind, cascade);
    let query = Query::parse("SELECT * FROM t WHERE contains_object(komondor)").unwrap();
    let result = VectorizedExecutor::new(&repo, &thresholds, &cost)
        .execute(
            &query,
            &corpus,
            &cascades,
            &mut SharedNnScorer::new(&store, &zoo, &mut scratch),
        )
        .unwrap();
    let rel = &result.relations[0];
    assert_eq!(rel.rows.len(), corpus.items.len());
    assert_eq!(
        rel.level_histogram.iter().sum::<u64>() as usize,
        corpus.items.len()
    );
    assert!(
        rel.accuracy > 0.55,
        "real-NN relation accuracy {} at chance",
        rel.accuracy
    );
    let stats = scratch.stats();
    assert!(stats.fetch_decode_s > 0.0 && stats.infer_s > 0.0 && stats.standardize_s > 0.0);
    assert!(
        stats.items_scored >= corpus.items.len() as u64,
        "every survivor scored at least once"
    );
    if rel.level_histogram[1] > 0 {
        assert!(
            stats.transcode_s > 0.0,
            "terminal level must have exercised the transcode fallback"
        );
    }

    // Shared-representation discount: a cascade reusing one representation
    // across levels materializes it once per item — the second level is
    // all cache hits when nothing decides early.
    let never = ThresholdTable {
        settings: vec![0.0],
        per_model: vec![vec![DecisionThresholds::never_decide()]; repo.len()],
    };
    let executor = VectorizedExecutor::new(&repo, &never, &cost);
    scratch.reset_stats();
    let shared = Cascade::new(&[(gray_model, 0), (gray_model, 0)]);
    let rel2 = executor
        .run_cascade_batched(
            kind,
            shared,
            &items,
            &mut SharedNnScorer::new(&store, &zoo, &mut scratch),
        )
        .unwrap();
    assert_eq!(rel2.rows.len(), items.len());
    let stats2 = scratch.stats();
    assert_eq!(
        stats2.cache_hits,
        items.len() as u64,
        "every level-1 input should come from the shared-representation cache"
    );
}

#[test]
fn trained_weights_roundtrip_through_serialization() {
    use tahoma::nn::train::Example;
    use tahoma::nn::{serialize, Adam, CnnSpec, Shape, Trainer};
    // Train one tiny model on rendered data, save, reload, verify identical
    // predictions.
    let bundle = DatasetSpec::tiny(ObjectKind::Acorn, 16, 3).generate();
    let rep = Representation::new(16, ColorMode::Gray);
    let mut model = CnnSpec {
        input: Shape::new(1, 16, 16),
        conv_channels: vec![4],
        kernel: 3,
        dense_units: 8,
    }
    .build(1)
    .unwrap();
    let examples: Vec<Example> = bundle
        .train
        .items
        .iter()
        .take(60)
        .map(|it| Example {
            input: tahoma::imagery::transform::standardize(&rep.apply(&it.image).unwrap())
                .into_data(),
            label: it.label,
        })
        .collect();
    Trainer {
        epochs: 8,
        batch_size: 8,
        early_stop_loss: 0.05,
        seed: 4,
    }
    .train(&mut model, &examples, &mut Adam::new(0.01));
    let bytes = serialize::save(&model).unwrap();
    let mut reloaded = serialize::load(&bytes).unwrap();
    for ex in examples.iter().take(10) {
        assert_eq!(model.forward(&ex.input), reloaded.forward(&ex.input));
    }
}

#[test]
fn nn_scorer_reports_unscorable_packs_as_typed_errors() {
    // Scoring failures are values from the scorer up: an item whose input
    // representation is neither stored nor derivable, and a cascade level
    // the zoo never registered, are `CoreError`s — never panics.
    use tahoma::core::exec::{
        run_level_major, BatchScorer, NnSessionScratch, ScorePack, SharedModelZoo, SharedNnScorer,
    };
    use tahoma::core::thresholds::{DecisionThresholds, ThresholdTable};
    use tahoma::core::CoreError;
    use tahoma::imagery::{Image, RepresentationStore};
    use tahoma::nn::{CnnSpec, Shape};

    let model_rep = Representation::new(8, ColorMode::Gray);
    // The store holds a representation the model does not consume, and the
    // zoo names no source to re-derive the model's input from.
    let store =
        RepresentationStore::temporary(vec![Representation::new(12, ColorMode::Rgb)]).unwrap();
    let frame = Image::from_fn(16, 16, ColorMode::Rgb, |c, y, x| (c + y + x) as f32 / 48.0)
        .expect("valid dims");
    store.ingest(7, &frame).expect("ingests");
    let mut zoo = SharedModelZoo::new();
    let net = CnnSpec {
        input: Shape::new(1, 8, 8),
        conv_channels: vec![2],
        kernel: 3,
        dense_units: 4,
    }
    .build(1)
    .expect("valid spec");
    zoo.register(ModelId(0), model_rep, net);
    let corpus = Corpus::synthetic(8, 0.5, 3);
    let items = [&corpus.items[7]];
    let mut scratch = NnSessionScratch::new();
    let mut scorer = SharedNnScorer::new(&store, &zoo, &mut scratch);
    let mut out = Vec::new();

    let err = scorer
        .score_batch(ModelId(0), ScorePack::standalone(&items), &mut out)
        .expect_err("no stored input and no source");
    assert!(
        matches!(&err, CoreError::Scoring(m) if m.contains("item 7") && m.contains("no source")),
        "{err}"
    );
    assert_eq!(
        scorer.score_batch(ModelId(9), ScorePack::standalone(&items), &mut out),
        Err(CoreError::UnknownModel(9))
    );
    // The same failure is a value all the way up the cascade driver.
    let thresholds = ThresholdTable {
        settings: vec![0.95],
        per_model: vec![vec![DecisionThresholds::never_decide()]],
    };
    let walk = run_level_major(&Cascade::single(0), &thresholds, 1, |_, model, _, out| {
        scorer.score_batch(model, ScorePack::standalone(&items), out)
    });
    assert!(matches!(walk, Err(CoreError::Scoring(_))));
}
