//! Labeled datasets and the paper's split protocol.
//!
//! §V-A: per binary predicate TAHOMA uses 3,000-4,000 labeled images with
//! equal positive/negative counts, split three ways — a *training* set for
//! the model trainer, a *configuration* set for decision-threshold
//! calibration, and an *evaluation* set for cascade accuracy/throughput
//! measurement. §VII-A: training sets are doubled by left-right flips.

use crate::image::Image;
use crate::synth::{ObjectKind, SceneParams, SceneRenderer};
use crate::transform::flip_horizontal;
use std::fmt;
use tahoma_mathx::DetRng;

/// One labeled example.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledImage {
    /// Stable id, unique within its bundle.
    pub id: u64,
    /// Ground-truth: does the image contain the target object?
    pub label: bool,
    /// Intrinsic difficulty in [0, 1] reported by the renderer.
    pub difficulty: f32,
    /// Full-resolution RGB pixels.
    pub image: Image,
}

/// A named collection of labeled examples.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Split name ("train" / "config" / "eval").
    pub name: String,
    /// The examples.
    pub items: Vec<LabeledImage>,
}

impl Dataset {
    /// Create an empty dataset.
    pub fn new(name: impl Into<String>) -> Dataset {
        Dataset {
            name: name.into(),
            items: Vec::new(),
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Count of positive examples.
    pub fn positives(&self) -> usize {
        self.items.iter().filter(|i| i.label).count()
    }

    /// Ground-truth labels in item order.
    pub fn labels(&self) -> Vec<bool> {
        self.items.iter().map(|i| i.label).collect()
    }

    /// Per-item difficulties in item order.
    pub fn difficulties(&self) -> Vec<f32> {
        self.items.iter().map(|i| i.difficulty).collect()
    }

    /// Append horizontally flipped copies of every item (the paper's data
    /// augmentation). New ids continue after the current maximum. When the
    /// dataset belongs to a bundle, use [`Dataset::augment_with_flips_from`]
    /// with a bundle-global id counter to keep ids unique across splits.
    pub fn augment_with_flips(&mut self) {
        let next_id = self.items.iter().map(|i| i.id).max().map_or(0, |m| m + 1);
        self.augment_with_flips_from(next_id);
    }

    /// Append flipped copies, assigning ids starting at `next_id`.
    pub fn augment_with_flips_from(&mut self, mut next_id: u64) {
        let flipped: Vec<LabeledImage> = self
            .items
            .iter()
            .map(|item| {
                let li = LabeledImage {
                    id: next_id,
                    label: item.label,
                    difficulty: item.difficulty,
                    image: flip_horizontal(&item.image),
                };
                next_id += 1;
                li
            })
            .collect();
        self.items.extend(flipped);
    }

    /// Deterministically shuffle item order.
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = DetRng::new(seed);
        rng.shuffle(&mut self.items);
    }
}

/// Specification for generating one predicate's dataset bundle.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Target category.
    pub kind: ObjectKind,
    /// Scene rendering parameters.
    pub params: SceneParams,
    /// Examples in the training split (before flip augmentation).
    pub n_train: usize,
    /// Examples in the configuration (threshold-calibration) split.
    pub n_config: usize,
    /// Examples in the evaluation split.
    pub n_eval: usize,
    /// Root seed; all randomness derives from it.
    pub seed: u64,
    /// Whether to double the training split with flips.
    pub augment: bool,
}

impl DatasetSpec {
    /// Small bundle for unit tests and the real-CNN training path. Uses the
    /// easier scene parameters so tiny models can learn from tiny splits.
    pub fn tiny(kind: ObjectKind, size: usize, seed: u64) -> DatasetSpec {
        DatasetSpec {
            kind,
            params: SceneParams::easy(size),
            n_train: 120,
            n_config: 60,
            n_eval: 60,
            seed,
            augment: false,
        }
    }

    /// Render the three splits. Ids are unique across the whole bundle and
    /// labels are balanced within each split (odd counts get the extra
    /// negative).
    pub fn generate(&self) -> DatasetBundle {
        let renderer = SceneRenderer::new(self.kind, self.params, self.seed);
        let mut next_id = 0u64;
        let mut make_split = |name: &str, n: usize| -> Dataset {
            let mut ds = Dataset::new(name);
            ds.items.reserve(n);
            for i in 0..n {
                let label = i % 2 == 0 && i < n - (n % 2); // balanced; odd tail negative
                let (image, difficulty) = renderer.render(next_id, label);
                ds.items.push(LabeledImage {
                    id: next_id,
                    label,
                    difficulty,
                    image,
                });
                next_id += 1;
            }
            ds.shuffle(self.seed ^ 0x5151 ^ n as u64);
            ds
        };
        let mut train = make_split("train", self.n_train);
        let config = make_split("config", self.n_config);
        let eval = make_split("eval", self.n_eval);
        if self.augment {
            // Use the bundle-global counter so flip ids never collide with
            // config/eval ids.
            train.augment_with_flips_from(next_id);
        }
        DatasetBundle {
            kind: self.kind,
            train,
            config,
            eval,
        }
    }
}

/// The three splits for one predicate.
#[derive(Debug, Clone)]
pub struct DatasetBundle {
    /// Target category.
    pub kind: ObjectKind,
    /// Model-training split (possibly flip-augmented).
    pub train: Dataset,
    /// Decision-threshold calibration split.
    pub config: Dataset,
    /// Cascade evaluation split.
    pub eval: Dataset,
}

impl DatasetBundle {
    /// Total example count across splits.
    pub fn total(&self) -> usize {
        self.train.len() + self.config.len() + self.eval.len()
    }

    /// Verify no id appears in two splits (the paper's overfitting guard:
    /// thresholds and accuracy must come from data the models never saw).
    pub fn splits_are_disjoint(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        for ds in [&self.train, &self.config, &self.eval] {
            for item in &ds.items {
                if !seen.insert(item.id) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for DatasetBundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: train={} config={} eval={}",
            self.kind,
            self.train.len(),
            self.config.len(),
            self.eval.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bundle() -> DatasetBundle {
        DatasetSpec::tiny(ObjectKind::Fence, 24, 42).generate()
    }

    #[test]
    fn split_sizes_match_spec() {
        let b = tiny_bundle();
        assert_eq!(b.train.len(), 120);
        assert_eq!(b.config.len(), 60);
        assert_eq!(b.eval.len(), 60);
        assert_eq!(b.total(), 240);
    }

    #[test]
    fn splits_are_balanced() {
        let b = tiny_bundle();
        for ds in [&b.train, &b.config, &b.eval] {
            let pos = ds.positives();
            assert_eq!(pos, ds.len() / 2, "{} not balanced", ds.name);
        }
    }

    #[test]
    fn ids_unique_across_bundle() {
        let b = tiny_bundle();
        assert!(b.splits_are_disjoint());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetSpec::tiny(ObjectKind::Acorn, 24, 7).generate();
        let b = DatasetSpec::tiny(ObjectKind::Acorn, 24, 7).generate();
        assert_eq!(a.eval.items[0].id, b.eval.items[0].id);
        assert_eq!(a.eval.items[0].image, b.eval.items[0].image);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetSpec::tiny(ObjectKind::Acorn, 24, 7).generate();
        let b = DatasetSpec::tiny(ObjectKind::Acorn, 24, 8).generate();
        let same = a
            .eval
            .items
            .iter()
            .zip(&b.eval.items)
            .filter(|(x, y)| x.image == y.image)
            .count();
        assert!(same < a.eval.len() / 2);
    }

    #[test]
    fn augmentation_doubles_training_split() {
        let mut spec = DatasetSpec::tiny(ObjectKind::Cloak, 24, 3);
        spec.augment = true;
        let b = spec.generate();
        assert_eq!(b.train.len(), 240);
        assert_eq!(b.train.positives(), 120);
        assert!(b.splits_are_disjoint());
    }

    #[test]
    fn flip_augmentation_preserves_labels_and_difficulty() {
        let mut ds = Dataset::new("t");
        let (img, d) =
            SceneRenderer::new(ObjectKind::Coho, SceneParams::small(16), 1).render(0, true);
        ds.items.push(LabeledImage {
            id: 0,
            label: true,
            difficulty: d,
            image: img.clone(),
        });
        ds.augment_with_flips();
        assert_eq!(ds.len(), 2);
        assert!(ds.items[1].label);
        assert_eq!(ds.items[1].difficulty, d);
        assert_eq!(ds.items[1].image, flip_horizontal(&img));
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let mut a = tiny_bundle().eval;
        let mut b = a.clone();
        a.shuffle(99);
        b.shuffle(99);
        assert_eq!(
            a.items.iter().map(|i| i.id).collect::<Vec<_>>(),
            b.items.iter().map(|i| i.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn labels_and_difficulties_align() {
        let b = tiny_bundle();
        let labels = b.eval.labels();
        let diffs = b.eval.difficulties();
        assert_eq!(labels.len(), b.eval.len());
        assert_eq!(diffs.len(), b.eval.len());
        for (i, item) in b.eval.items.iter().enumerate() {
            assert_eq!(labels[i], item.label);
            assert_eq!(diffs[i], item.difficulty);
        }
    }
}
