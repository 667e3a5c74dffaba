//! The NoScope-style baseline system (paper §VII-C).
//!
//! One fixed specialized CNN (full-color input, NoScope's design point —
//! no physical-representation optimization) with decision thresholds at a
//! target precision, falling back to a YOLOv2-class reference when
//! uncertain. Both the specialized model and the reference are scored by the
//! same surrogate family the TAHOMA side uses, so the comparison isolates
//! the system design, not the classifier substrate.

use crate::datasets::VideoDataset;
use crate::runner::FrameClassifier;
use tahoma_core::thresholds::{calibrate, DecisionThresholds};
use tahoma_costmodel::DeviceProfile;
use tahoma_imagery::{ColorMode, Representation};
use tahoma_video::{Frame, VideoStream};
use tahoma_zoo::surrogate::Split;
use tahoma_zoo::{ArchSpec, ModelId, ModelKind, ModelVariant, SurrogateScorer};

/// NoScope configuration.
#[derive(Debug, Clone)]
pub struct NoScopeConfig {
    /// Threshold-calibration precision target (paper uses 0.95).
    pub target_precision: f64,
    /// Config frames used for calibration (sampled from a separate stream
    /// prefix).
    pub n_config_frames: usize,
    /// Seed for the calibration stream.
    pub seed: u64,
}

impl Default for NoScopeConfig {
    fn default() -> Self {
        NoScopeConfig {
            target_precision: 0.95,
            n_config_frames: 600,
            seed: 0x0505,
        }
    }
}

/// The assembled NoScope pipeline stage (specialized model + reference).
pub struct NoScopeSystem {
    scorer: SurrogateScorer,
    specialized: ModelVariant,
    reference: ModelVariant,
    thresholds: DecisionThresholds,
    spec_infer_s: f64,
    ref_infer_s: f64,
}

impl NoScopeSystem {
    /// NoScope's specialized-model design point: a small CNN on full-color
    /// 60x60 inputs (closest paper representation to NoScope's 50x50 RGB).
    pub fn specialized_variant() -> ModelVariant {
        ModelVariant {
            id: ModelId(0),
            kind: ModelKind::Cnn(ArchSpec {
                conv_layers: 2,
                conv_nodes: 16,
                dense_nodes: 32,
            }),
            input: Representation::new(60, ColorMode::Rgb),
        }
    }

    /// Build the system: score the specialized model on a calibration
    /// stream and fit its thresholds at the target precision.
    pub fn build(dataset: &VideoDataset, cfg: &NoScopeConfig) -> NoScopeSystem {
        let device = DeviceProfile::k80();
        let scorer = SurrogateScorer::new(dataset.pred, cfg.seed ^ 0x5C0);
        let specialized = Self::specialized_variant();
        let reference = ModelVariant {
            id: ModelId(1),
            kind: ModelKind::YoloV2,
            input: Representation::full(),
        };
        // Calibration stream: same dynamics, different seed, so thresholds
        // are not fit on the measurement stream.
        let mut cal_cfg = dataset.stream.clone();
        cal_cfg.seed ^= 0xCA11B;
        let mut stream = VideoStream::new(cal_cfg);
        let frames = stream.take_frames(cfg.n_config_frames);
        let scores: Vec<f32> = frames
            .iter()
            .map(|f| scorer.score(&specialized, Split::Config, f.idx, f.label, f.difficulty))
            .collect();
        let labels: Vec<bool> = frames.iter().map(|f| f.label).collect();
        let thresholds = calibrate(&scores, &labels, cfg.target_precision);
        NoScopeSystem {
            spec_infer_s: specialized.infer_s(&device),
            ref_infer_s: reference.infer_s(&device),
            scorer,
            specialized,
            reference,
            thresholds,
        }
    }

    /// The calibrated thresholds (exposed for reporting).
    pub fn thresholds(&self) -> DecisionThresholds {
        self.thresholds
    }

    /// Fraction of a frame set that would fall through to the reference.
    pub fn fallthrough_rate(&self, frames: &[Frame]) -> f64 {
        if frames.is_empty() {
            return 0.0;
        }
        let uncertain = frames
            .iter()
            .filter(|f| {
                let s =
                    self.scorer
                        .score(&self.specialized, Split::Eval, f.idx, f.label, f.difficulty);
                self.thresholds.decide(s).is_none()
            })
            .count();
        uncertain as f64 / frames.len() as f64
    }
}

impl FrameClassifier for NoScopeSystem {
    fn classify(&self, frame: &Frame) -> (bool, f64) {
        let mut cost = self.spec_infer_s;
        let score = self.scorer.score(
            &self.specialized,
            Split::Eval,
            frame.idx,
            frame.label,
            frame.difficulty,
        );
        if let Some(label) = self.thresholds.decide(score) {
            return (label, cost);
        }
        cost += self.ref_infer_s;
        let ref_score = self.scorer.score(
            &self.reference,
            Split::Eval,
            frame.idx,
            frame.label,
            frame.difficulty,
        );
        (ref_score >= 0.5, cost)
    }

    fn name(&self) -> &str {
        "noscope"
    }
}

/// Scores an arbitrary model variant on frames — adapter shared with the
/// TAHOMA+DD side.
pub struct FrameScorer {
    /// Underlying surrogate family.
    pub scorer: SurrogateScorer,
}

impl FrameScorer {
    /// Score one variant on one frame.
    pub fn score(&self, variant: &ModelVariant, frame: &Frame) -> f32 {
        self.scorer.score(
            variant,
            Split::Eval,
            frame.idx,
            frame.label,
            frame.difficulty,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_with_dd, DD_COST_S};
    use tahoma_video::{DifferenceDetector, FrameSkipper};

    #[test]
    fn builds_and_classifies() {
        let ds = VideoDataset::coral(1, 3000);
        let sys = NoScopeSystem::build(&ds, &NoScopeConfig::default());
        let mut stream = VideoStream::new(ds.stream.clone());
        let frames = stream.take_frames(3000);
        let mut dd = DifferenceDetector::new(ds.dd_threshold);
        let report = run_with_dd(&frames, FrameSkipper::paper_default(), &mut dd, &sys);
        assert!(report.accuracy > 0.7, "accuracy {}", report.accuracy);
        assert!(report.throughput_fps > 1.0 / (sys.ref_infer_s + DD_COST_S));
    }

    #[test]
    fn jackson_falls_through_more_than_coral() {
        let coral = VideoDataset::coral(2, 1500);
        let jackson = VideoDataset::jackson(2, 1500);
        let cfg = NoScopeConfig::default();
        let sys_c = NoScopeSystem::build(&coral, &cfg);
        let sys_j = NoScopeSystem::build(&jackson, &cfg);
        let frames_c = VideoStream::new(coral.stream.clone()).take_frames(1500);
        let frames_j = VideoStream::new(jackson.stream.clone()).take_frames(1500);
        let fc = sys_c.fallthrough_rate(&frames_c);
        let fj = sys_j.fallthrough_rate(&frames_j);
        assert!(
            fj > fc,
            "jackson fallthrough {fj:.3} should exceed coral {fc:.3}"
        );
    }
}
