//! The model repository: everything the optimizer needs to know about every
//! model (paper Fig. 2, "Models" feeding the cost profiler and cascade
//! builder).
//!
//! For each model the repository stores its inference cost and its scores on
//! the config and eval splits. This is the paper's key engineering move
//! (§V-D): models are scored on the splits *once*; the millions of cascades
//! are then simulated from these precomputed outputs without ever running a
//! classifier again.

use crate::population::Population;
use crate::predicates::PredicateSpec;
use crate::reference;
use crate::surrogate::{Split, SurrogateParams, SurrogateScorer};
use crate::variant::{paper_variants, ModelId, ModelVariant};
use tahoma_costmodel::DeviceProfile;
use tahoma_imagery::ObjectKind;

/// One model's repository record.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// The model.
    pub variant: ModelVariant,
    /// Inference FLOPs.
    pub flops: u64,
    /// Device-level inference seconds (scenario-independent).
    pub infer_s: f64,
    /// Scores on the config split (threshold calibration).
    pub config_scores: Vec<f32>,
    /// Scores on the eval split (cascade evaluation).
    pub eval_scores: Vec<f32>,
}

/// All models for one binary predicate plus the split populations.
#[derive(Debug, Clone)]
pub struct ModelRepository {
    /// The predicate's category.
    pub kind: ObjectKind,
    /// Entries indexed by `ModelId::index()`.
    pub entries: Vec<ModelEntry>,
    /// Config split population.
    pub config: Population,
    /// Eval split population.
    pub eval: Population,
    /// Id of the ResNet50 reference, when present.
    pub resnet: Option<ModelId>,
    /// Id of the YOLOv2 reference, when present.
    pub yolo: Option<ModelId>,
}

impl ModelRepository {
    /// Entry lookup.
    pub fn entry(&self, id: ModelId) -> &ModelEntry {
        &self.entries[id.index()]
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no models are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ids of the specialized (non-reference) models.
    pub fn specialized_ids(&self) -> Vec<ModelId> {
        self.entries
            .iter()
            .filter(|e| !e.variant.is_reference())
            .map(|e| e.variant.id)
            .collect()
    }

    /// Eval-split accuracy of one model at threshold 0.5.
    pub fn eval_accuracy(&self, id: ModelId) -> f64 {
        crate::surrogate::accuracy_at_half(&self.entry(id).eval_scores, &self.eval.labels)
    }

    /// Internal consistency check: ids dense, score lengths match splits.
    pub fn validate(&self) -> Result<(), String> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.variant.id.index() != i {
                return Err(format!("entry {i} has id {}", e.variant.id.0));
            }
            if e.config_scores.len() != self.config.len() {
                return Err(format!("entry {i}: config score length mismatch"));
            }
            if e.eval_scores.len() != self.eval.len() {
                return Err(format!("entry {i}: eval score length mismatch"));
            }
            if !e.infer_s.is_finite() || e.infer_s <= 0.0 {
                return Err(format!("entry {i}: non-positive inference time"));
            }
        }
        Ok(())
    }
}

/// Configuration for building a surrogate repository.
#[derive(Debug, Clone)]
pub struct SurrogateBuildConfig {
    /// Config-split size (paper: a few hundred).
    pub n_config: usize,
    /// Eval-split size (paper: ~1000).
    pub n_eval: usize,
    /// Root seed.
    pub seed: u64,
    /// Include the YOLOv2 reference (needed by the NoScope study).
    pub include_yolo: bool,
    /// Surrogate family parameters.
    pub params: SurrogateParams,
    /// Specialized variants; `None` means the paper's 360-model space.
    pub variants: Option<Vec<ModelVariant>>,
}

impl Default for SurrogateBuildConfig {
    fn default() -> Self {
        SurrogateBuildConfig {
            n_config: 400,
            n_eval: 1000,
            seed: 0x7A40,
            include_yolo: false,
            params: SurrogateParams::default(),
            variants: None,
        }
    }
}

/// Build a surrogate-backed repository for one predicate, scoring models in
/// parallel across available cores. Each worker scores its share of the
/// family batch-major ([`SurrogateScorer::score_population`]): variants
/// outer, items inner, with the per-variant separation and noise stream
/// derived once per (variant, split) instead of once per item.
pub fn build_surrogate_repository(
    pred: PredicateSpec,
    cfg: &SurrogateBuildConfig,
    device: &DeviceProfile,
) -> ModelRepository {
    let mut variants = cfg.variants.clone().unwrap_or_else(paper_variants);
    // Re-number to dense ids in case a custom subset was provided.
    for (i, v) in variants.iter_mut().enumerate() {
        v.id = ModelId(i as u32);
    }
    let resnet_id = ModelId(variants.len() as u32);
    variants.push(reference::resnet50(resnet_id));
    let yolo_id = if cfg.include_yolo {
        let id = ModelId(variants.len() as u32);
        variants.push(reference::yolov2(id));
        Some(id)
    } else {
        None
    };

    let config = Population::synthetic(pred.kind, cfg.n_config, cfg.seed ^ 0x0C0F);
    let eval = Population::synthetic(pred.kind, cfg.n_eval, cfg.seed ^ 0x0E7A);
    let scorer = SurrogateScorer {
        pred,
        params: cfg.params,
        seed: cfg.seed,
    };

    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let chunk = variants.len().div_ceil(threads);
    let mut entries: Vec<Option<ModelEntry>> = Vec::new();
    entries.resize_with(variants.len(), || None);

    tahoma_mathx::pool::scope(|scope| {
        let mut remaining: &mut [Option<ModelEntry>] = &mut entries;
        for vs in variants.chunks(chunk) {
            let (head, tail) = remaining.split_at_mut(vs.len());
            remaining = tail;
            let (scorer, config, eval, device) = (&scorer, &config, &eval, device);
            scope.spawn(move || {
                for (slot, v) in head.iter_mut().zip(vs) {
                    *slot = Some(ModelEntry {
                        variant: *v,
                        flops: v.flops(),
                        infer_s: v.infer_s(device),
                        config_scores: scorer.scores(v, Split::Config, config),
                        eval_scores: scorer.scores(v, Split::Eval, eval),
                    });
                }
            });
        }
    });

    let entries: Vec<ModelEntry> = entries
        .into_iter()
        .map(|e| e.expect("every slot filled"))
        .collect();
    let repo = ModelRepository {
        kind: pred.kind,
        entries,
        config,
        eval,
        resnet: Some(resnet_id),
        yolo: yolo_id,
    };
    debug_assert!(repo.validate().is_ok());
    repo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SurrogateBuildConfig {
        SurrogateBuildConfig {
            n_config: 120,
            n_eval: 200,
            seed: 5,
            ..SurrogateBuildConfig::default()
        }
    }

    #[test]
    fn builds_paper_scale_repository() {
        let pred = PredicateSpec::for_kind(ObjectKind::Fence);
        let repo = build_surrogate_repository(pred, &small_cfg(), &DeviceProfile::k80());
        assert_eq!(repo.len(), 361); // 360 + resnet
        assert!(repo.validate().is_ok());
        assert_eq!(repo.specialized_ids().len(), 360);
        assert_eq!(repo.resnet, Some(ModelId(360)));
        assert!(repo.yolo.is_none());
    }

    #[test]
    fn yolo_inclusion() {
        let pred = PredicateSpec::for_kind(ObjectKind::Coho);
        let cfg = SurrogateBuildConfig {
            include_yolo: true,
            ..small_cfg()
        };
        let repo = build_surrogate_repository(pred, &cfg, &DeviceProfile::k80());
        assert_eq!(repo.len(), 362);
        assert_eq!(repo.yolo, Some(ModelId(361)));
        assert!(matches!(
            repo.entry(ModelId(361)).variant.kind,
            crate::variant::ModelKind::YoloV2
        ));
    }

    #[test]
    fn build_is_deterministic_despite_parallelism() {
        let pred = PredicateSpec::for_kind(ObjectKind::Wallet);
        let a = build_surrogate_repository(pred, &small_cfg(), &DeviceProfile::k80());
        let b = build_surrogate_repository(pred, &small_cfg(), &DeviceProfile::k80());
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.eval_scores, eb.eval_scores);
            assert_eq!(ea.config_scores, eb.config_scores);
        }
    }

    #[test]
    fn custom_variant_subsets_are_renumbered() {
        let pred = PredicateSpec::for_kind(ObjectKind::Acorn);
        let mut subset = paper_variants();
        subset.truncate(10);
        // Scramble ids to prove renumbering.
        subset[3].id = ModelId(999);
        let cfg = SurrogateBuildConfig {
            variants: Some(subset),
            ..small_cfg()
        };
        let repo = build_surrogate_repository(pred, &cfg, &DeviceProfile::k80());
        assert_eq!(repo.len(), 11);
        assert!(repo.validate().is_ok());
    }

    #[test]
    fn resnet_is_among_most_accurate() {
        let pred = PredicateSpec::for_kind(ObjectKind::Ferret);
        let repo = build_surrogate_repository(pred, &small_cfg(), &DeviceProfile::k80());
        let resnet_acc = repo.eval_accuracy(repo.resnet.unwrap());
        let better = repo
            .specialized_ids()
            .iter()
            .filter(|&&id| repo.eval_accuracy(id) > resnet_acc)
            .count();
        assert!(
            better < 36,
            "{better} of 360 specialized models beat ResNet50 (expected < 10%)"
        );
    }

    #[test]
    fn inference_costs_span_orders_of_magnitude() {
        let pred = PredicateSpec::for_kind(ObjectKind::Pinwheel);
        let repo = build_surrogate_repository(pred, &small_cfg(), &DeviceProfile::k80());
        let times: Vec<f64> = repo
            .specialized_ids()
            .iter()
            .map(|&id| repo.entry(id).infer_s)
            .collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 20.0, "cost spread only {:.1}x", max / min);
    }
}
