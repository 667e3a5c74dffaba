//! The real training path: build a repository by actually training
//! `tahoma-nn` CNNs on rendered synthetic datasets.
//!
//! This is the paper's model-trainer component (Fig. 2) without any
//! substitution: images are transformed into each variant's representation,
//! networks are trained with minibatch Adam on the train split, and the
//! trained networks are scored on the config and eval splits. It runs at
//! reduced scale (smaller source images, fewer variants) — the examples and
//! integration tests use it to validate that the surrogate path's
//! qualitative structure (bigger nets and richer inputs score higher; hard
//! images fail everywhere) emerges from real gradient descent.

use crate::population::Population;
use crate::repository::{ModelEntry, ModelRepository};
use crate::variant::{ModelKind, ModelVariant};
use std::collections::HashMap;
use tahoma_costmodel::DeviceProfile;
use tahoma_imagery::engine::{TranscodeCosts, TranscodeEngine, TranscodePlan};
use tahoma_imagery::{Dataset, DatasetBundle, Representation};
use tahoma_nn::train::{predict_scores, Example};
use tahoma_nn::{Adam, InferScratch, Trainer};

/// Training configuration for the real path.
#[derive(Debug, Clone)]
pub struct RealTrainConfig {
    /// Epochs per model.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Stop a model's training early below this mean epoch loss.
    pub early_stop_loss: f32,
    /// Seed for weight init and shuffling.
    pub seed: u64,
}

impl Default for RealTrainConfig {
    fn default() -> Self {
        RealTrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 0.005,
            early_stop_loss: 0.05,
            seed: 0xF17,
        }
    }
}

/// Transform every image of a split into each representation's flat
/// inputs: one lattice-planned transcode per image materializes the whole
/// representation set at once (shared luma plane, borrowed channel planes,
/// cached resize tables — see `tahoma_imagery::engine`), instead of
/// re-running the full pipeline per (image, representation) pair.
///
/// Inputs are standardized per image (zero mean / unit variance) — without
/// this, tiny CNNs on all-positive pixel inputs collapse to the constant
/// predictor (loss pinned at ln 2), the standard failure mode Keras'
/// preprocessing also guards against.
fn transformed_input_sets(
    ds: &Dataset,
    reps: &[Representation],
) -> HashMap<Representation, Vec<Vec<f32>>> {
    let mut out: HashMap<Representation, Vec<Vec<f32>>> = reps
        .iter()
        .map(|&r| (r, Vec::with_capacity(ds.items.len())))
        .collect();
    let mut engine = TranscodeEngine::new();
    // One plan per distinct image shape: a homogeneous dataset plans once,
    // and mixed-size datasets (every shape pattern, including alternating)
    // still plan each shape exactly once.
    let mut plans: HashMap<(usize, usize), TranscodePlan> = HashMap::new();
    for item in &ds.items {
        let shape = (item.image.width(), item.image.height());
        let plan = plans.entry(shape).or_insert_with(|| {
            TranscodePlan::new(shape.0, shape.1, reps, &TranscodeCosts::default())
        });
        let mats = engine
            .apply_planned(&item.image, plan)
            .expect("dataset images are full RGB");
        for (&rep, img) in reps.iter().zip(&mats) {
            out.get_mut(&rep)
                .expect("map seeded with every rep")
                .push(engine.standardize(img).into_data());
        }
        // Only the standardized copies are kept; the materialized pixel
        // buffers go back to the engine for the next image.
        engine.recycle(mats);
    }
    out
}

/// Per-model training outcome (kept for reporting in examples).
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The trained variant.
    pub variant: ModelVariant,
    /// Training-split accuracy after the final epoch.
    pub train_accuracy: f64,
    /// Epochs actually run.
    pub epochs_run: usize,
}

/// Train `variants` on the bundle and assemble a repository.
///
/// All variants must be `ModelKind::Cnn`; reference models have no real
/// implementation here (the surrogate path covers them) and are rejected.
/// Returns the repository plus per-model training outcomes. The trained
/// networks themselves are dropped; query paths that serve real inference
/// (the vectorized executor's NN backend) use
/// [`build_real_repository_keeping_models`] instead.
pub fn build_real_repository(
    bundle: &DatasetBundle,
    variants: &[ModelVariant],
    cfg: &RealTrainConfig,
    device: &DeviceProfile,
) -> Result<(ModelRepository, Vec<TrainOutcome>), String> {
    let (repo, outcomes, _models) =
        build_real_repository_keeping_models(bundle, variants, cfg, device)?;
    Ok((repo, outcomes))
}

/// [`build_real_repository`], but also returning the trained networks,
/// aligned with `repo.entries` — what a query-time real-inference backend
/// registers so the same weights that produced the repository's split
/// scores serve the cascade.
pub fn build_real_repository_keeping_models(
    bundle: &DatasetBundle,
    variants: &[ModelVariant],
    cfg: &RealTrainConfig,
    device: &DeviceProfile,
) -> Result<
    (
        ModelRepository,
        Vec<TrainOutcome>,
        Vec<tahoma_nn::Sequential>,
    ),
    String,
> {
    if variants.is_empty() {
        return Err("no variants to train".into());
    }
    for v in variants {
        if !matches!(v.kind, ModelKind::Cnn(_)) {
            return Err(format!("variant {} is not a trainable CNN", v.tag()));
        }
    }

    // Materialize each distinct representation once per split, all of them
    // in one engine pass per image (the same share-the-transform economics
    // the deployment scenarios price).
    let reps: Vec<Representation> = variants
        .iter()
        .map(|v| v.input)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let train_cache = transformed_input_sets(&bundle.train, &reps);
    let config_cache = transformed_input_sets(&bundle.config, &reps);
    let eval_cache = transformed_input_sets(&bundle.eval, &reps);
    let train_labels = bundle.train.labels();

    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let chunk = variants.len().div_ceil(threads);
    type Slot = Option<(ModelEntry, TrainOutcome, tahoma_nn::Sequential)>;
    let mut slots: Vec<Slot> = Vec::new();
    slots.resize_with(variants.len(), || None);

    // One result per chunk; a panicking chunk re-raises on this thread once
    // every chunk has finished.
    let mut results: Vec<Result<(), String>> = vec![Ok(()); variants.len().div_ceil(chunk)];
    tahoma_mathx::pool::scope(|scope| {
        let mut remaining: &mut [Slot] = &mut slots;
        let chunks = variants.chunks(chunk).zip(results.iter_mut());
        for (chunk_idx, (vs, result)) in chunks.enumerate() {
            let (head, tail) = remaining.split_at_mut(vs.len());
            remaining = tail;
            let (train_cache, config_cache, eval_cache, train_labels, cfg, device) = (
                &train_cache,
                &config_cache,
                &eval_cache,
                &train_labels,
                cfg,
                device,
            );
            let mut train = move || -> Result<(), String> {
                for (slot, v) in head.iter_mut().zip(vs) {
                    let arch = match v.kind {
                        ModelKind::Cnn(a) => a,
                        _ => unreachable!("validated above"),
                    };
                    let spec = arch.cnn_spec(v.input);
                    let mut model = spec
                        .build(cfg.seed ^ ((chunk_idx as u64) << 32) ^ v.id.0 as u64)
                        .map_err(|e| format!("{}: {e}", v.tag()))?;
                    let inputs = &train_cache[&v.input];
                    let examples: Vec<Example> = inputs
                        .iter()
                        .zip(train_labels.iter())
                        .map(|(input, &label)| Example {
                            input: input.clone(),
                            label,
                        })
                        .collect();
                    let trainer = Trainer {
                        epochs: cfg.epochs,
                        batch_size: cfg.batch_size,
                        early_stop_loss: cfg.early_stop_loss,
                        seed: cfg.seed ^ v.id.0 as u64,
                    };
                    let report = trainer.train(&mut model, &examples, &mut Adam::new(cfg.lr));
                    // Score whole splits through the batched inference
                    // path. One model per worker already saturates the
                    // cores, so its GEMMs stay on one thread.
                    let mut scratch = InferScratch::single_threaded();
                    let mut score_split = |cache: &HashMap<Representation, Vec<Vec<f32>>>| {
                        predict_scores(&model, &cache[&v.input], &mut scratch)
                    };
                    let config_scores = score_split(config_cache);
                    let eval_scores = score_split(eval_cache);
                    *slot = Some((
                        ModelEntry {
                            variant: *v,
                            flops: v.flops(),
                            infer_s: v.infer_s(device),
                            config_scores,
                            eval_scores,
                        },
                        TrainOutcome {
                            variant: *v,
                            train_accuracy: report.final_accuracy,
                            epochs_run: report.epochs_run,
                        },
                        model,
                    ));
                }
                Ok(())
            };
            scope.spawn(move || *result = train());
        }
    });
    results.into_iter().collect::<Result<(), String>>()?;

    let mut entries = Vec::with_capacity(variants.len());
    let mut outcomes = Vec::with_capacity(variants.len());
    let mut models = Vec::with_capacity(variants.len());
    for slot in slots {
        let (entry, outcome, model) = slot.expect("every slot filled");
        entries.push(entry);
        outcomes.push(outcome);
        models.push(model);
    }
    let repo = ModelRepository {
        kind: bundle.kind,
        entries,
        config: Population::from_dataset(&bundle.config),
        eval: Population::from_dataset(&bundle.eval),
        resnet: None,
        yolo: None,
    };
    repo.validate()?;
    Ok((repo, outcomes, models))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchSpec;
    use crate::variant::cross_variants;
    use tahoma_imagery::{ColorMode, DatasetSpec, ObjectKind};

    fn tiny_variants() -> Vec<ModelVariant> {
        cross_variants(
            &[ArchSpec {
                conv_layers: 1,
                conv_nodes: 4,
                dense_nodes: 8,
            }],
            &[
                Representation::new(12, ColorMode::Gray),
                Representation::new(12, ColorMode::Rgb),
            ],
        )
    }

    fn quick_cfg() -> RealTrainConfig {
        RealTrainConfig {
            epochs: 25,
            batch_size: 8,
            lr: 0.01,
            early_stop_loss: 0.10,
            seed: 3,
        }
    }

    #[test]
    fn trains_and_scores_real_models() {
        let bundle = DatasetSpec::tiny(ObjectKind::Pinwheel, 24, 13).generate();
        let (repo, outcomes) = build_real_repository(
            &bundle,
            &tiny_variants(),
            &quick_cfg(),
            &DeviceProfile::k80(),
        )
        .unwrap();
        assert_eq!(repo.len(), 2);
        assert!(repo.validate().is_ok());
        assert_eq!(outcomes.len(), 2);
        // Training should beat chance on the training split.
        for o in &outcomes {
            assert!(
                o.train_accuracy > 0.6,
                "{}: train accuracy {}",
                o.variant.tag(),
                o.train_accuracy
            );
        }
        // Scores are probabilities.
        for e in &repo.entries {
            for &s in &e.eval_scores {
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn transformed_inputs_handle_mixed_image_shapes() {
        // The per-shape plan must rebuild when the dataset mixes sizes —
        // the old per-image apply path accepted this, so the planned path
        // must too.
        use tahoma_imagery::{ColorMode, Image, LabeledImage};
        let img = |s: usize| {
            Image::from_fn(s, s, ColorMode::Rgb, |c, y, x| {
                ((c + y + x) % 5) as f32 / 5.0
            })
            .unwrap()
        };
        let ds = tahoma_imagery::Dataset {
            name: "mixed".into(),
            items: vec![
                LabeledImage {
                    id: 0,
                    label: true,
                    difficulty: 0.1,
                    image: img(24),
                },
                LabeledImage {
                    id: 1,
                    label: false,
                    difficulty: 0.2,
                    image: img(16),
                },
                LabeledImage {
                    id: 2,
                    label: true,
                    difficulty: 0.3,
                    image: img(24),
                },
            ],
        };
        let reps = vec![
            Representation::new(8, ColorMode::Gray),
            Representation::new(12, ColorMode::Rgb),
        ];
        let sets = transformed_input_sets(&ds, &reps);
        for &rep in &reps {
            let inputs = &sets[&rep];
            assert_eq!(inputs.len(), 3);
            for input in inputs {
                assert_eq!(input.len(), rep.value_count());
            }
        }
        // Matches the per-image path.
        for (i, item) in ds.items.iter().enumerate() {
            for &rep in &reps {
                let want = tahoma_imagery::transform::standardize(&rep.apply(&item.image).unwrap());
                assert_eq!(sets[&rep][i], want.into_data(), "item {i} rep {rep}");
            }
        }
    }

    #[test]
    fn rejects_reference_variants() {
        let bundle = DatasetSpec::tiny(ObjectKind::Fence, 24, 1).generate();
        let bad = vec![crate::reference::resnet50(crate::variant::ModelId(0))];
        assert!(build_real_repository(&bundle, &bad, &quick_cfg(), &DeviceProfile::k80()).is_err());
    }

    #[test]
    fn rejects_empty_variant_list() {
        let bundle = DatasetSpec::tiny(ObjectKind::Fence, 24, 1).generate();
        assert!(build_real_repository(&bundle, &[], &quick_cfg(), &DeviceProfile::k80()).is_err());
    }
}
