//! TAHOMA+DD: TAHOMA's cascade optimizer behind NoScope's difference
//! detector (paper §VII-C).
//!
//! "To create TAHOMA+DD, we recorded frame similarity using NoScope's
//! difference detector and reused TAHOMA's results for frames meeting
//! NoScope's threshold instead of classifying them." The cascade is the
//! Pareto-optimal one with accuracy closest above NoScope's measured
//! accuracy, selected under INFER-ONLY pricing (matching the paper's
//! throughput accounting).

use crate::datasets::VideoDataset;
use crate::runner::FrameClassifier;
use tahoma_core::evaluator::CostContext;
use tahoma_core::pipeline::TahomaSystem;
use tahoma_core::selector::select_matching_accuracy;
use tahoma_core::Cascade;
use tahoma_costmodel::{AnalyticProfiler, Scenario};
use tahoma_video::Frame;
use tahoma_zoo::repository::SurrogateBuildConfig;
use tahoma_zoo::surrogate::Split;
use tahoma_zoo::SurrogateScorer;

/// TAHOMA with a difference detector front end.
pub struct TahomaDdSystem {
    system: TahomaSystem,
    scorer: SurrogateScorer,
    cascade: Cascade,
    cost: CostContext,
    expected_accuracy: f64,
    description: String,
}

impl TahomaDdSystem {
    /// Initialize TAHOMA for the dataset's predicate and select the
    /// Pareto-optimal cascade with accuracy closest above
    /// `target_accuracy` (NoScope's measured accuracy) under INFER-ONLY
    /// pricing. `build_cfg` controls repository scale (the Fig. 8 harness
    /// uses the full 360-model space; tests use a subset).
    pub fn build(
        dataset: &VideoDataset,
        mut build_cfg: SurrogateBuildConfig,
        target_accuracy: f64,
    ) -> TahomaDdSystem {
        build_cfg.include_yolo = true;
        let repo = tahoma_zoo::repository::build_surrogate_repository(
            dataset.pred,
            &build_cfg,
            &tahoma_costmodel::DeviceProfile::k80(),
        );
        let scorer = SurrogateScorer {
            pred: dataset.pred,
            params: build_cfg.params,
            seed: build_cfg.seed,
        };
        let system = TahomaSystem::initialize_paper_main(repo);
        let profiler = AnalyticProfiler::paper_testbed(Scenario::InferOnly);
        let frontier = system.frontier(&profiler);
        let point = select_matching_accuracy(&frontier.points, target_accuracy)
            .expect("frontier is nonempty");
        let cascade = system.outcomes.cascades[point.idx];
        let cost = CostContext::build(&system.repo, &profiler);
        let description = system.describe(&cascade);
        TahomaDdSystem {
            scorer,
            cascade,
            cost,
            expected_accuracy: point.accuracy,
            description,
            system,
        }
    }

    /// The selected cascade's expected (eval-split) accuracy.
    pub fn expected_accuracy(&self) -> f64 {
        self.expected_accuracy
    }

    /// Human-readable cascade plan.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The underlying initialized system (for inspection in reports).
    pub fn system(&self) -> &TahomaSystem {
        &self.system
    }
}

impl FrameClassifier for TahomaDdSystem {
    fn classify(&self, frame: &Frame) -> (bool, f64) {
        let depth = self.cascade.depth();
        let mut cost = 0.0f64;
        for l in 0..depth {
            let m = self.cascade.model_at(l) as usize;
            cost += self.cost.infer_s[m];
            let variant = &self.system.repo.entries[m].variant;
            let score = self.scorer.score(
                variant,
                Split::Eval,
                frame.idx,
                frame.label,
                frame.difficulty,
            );
            if l + 1 == depth {
                return (score >= 0.5, cost);
            }
            let thr = self
                .system
                .thresholds
                .get(m, self.cascade.setting_at(l) as usize);
            if let Some(label) = thr.decide(score) {
                return (label, cost);
            }
        }
        unreachable!("terminal level always decides")
    }

    /// Batch-major cascade walk through the shared level-major executor
    /// ([`tahoma_core::exec::run_level_major`]): levels outer, frames
    /// inner, survivors compacted per level. The per-(variant, split)
    /// scoring context is derived once per *level* instead of once per
    /// (level, frame) — the same hoisting `score_population` does for
    /// repository building. Costs price a frame's deciding level through
    /// an inference-cost prefix table whose accumulation order matches
    /// [`TahomaDdSystem::classify`], so labels and costs are bit-identical
    /// to the per-frame walk.
    fn classify_batch(&self, frames: &[&Frame]) -> Vec<(bool, f64)> {
        let depth = self.cascade.depth();
        let streams: Vec<_> = (0..depth)
            .map(|l| {
                let m = self.cascade.model_at(l) as usize;
                self.scorer
                    .variant_stream(&self.system.repo.entries[m].variant, Split::Eval)
            })
            .collect();
        // Surrogate streams cannot fail to score.
        let Ok(decisions) = tahoma_core::exec::run_level_major(
            &self.cascade,
            &self.system.thresholds,
            frames.len(),
            |l, _, pack, out| {
                streams[l].score_into(
                    pack.iter().map(|&fi| {
                        let f = frames[fi];
                        (f.idx, f.label, f.difficulty)
                    }),
                    out,
                );
                Ok::<(), std::convert::Infallible>(())
            },
        );
        let mut prefix = [0.0f64; tahoma_core::MAX_LEVELS];
        let mut acc = 0.0f64;
        for (l, slot) in prefix.iter_mut().take(depth).enumerate() {
            acc += self.cost.infer_s[self.cascade.model_at(l) as usize];
            *slot = acc;
        }
        decisions
            .iter()
            .map(|d| (d.value, prefix[d.level as usize]))
            .collect()
    }

    fn name(&self) -> &str {
        "tahoma+dd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_with_dd;
    use crate::system::{NoScopeConfig, NoScopeSystem};
    use tahoma_video::{DifferenceDetector, FrameSkipper, VideoStream};

    fn small_build_cfg() -> SurrogateBuildConfig {
        SurrogateBuildConfig {
            n_config: 200,
            n_eval: 250,
            seed: 0xF168,
            variants: Some(
                tahoma_zoo::variant::paper_variants()
                    .into_iter()
                    .step_by(10)
                    .collect(),
            ),
            ..Default::default()
        }
    }

    #[test]
    fn tahoma_dd_beats_noscope_on_jackson() {
        let ds = VideoDataset::jackson(4, 9000);
        let frames = VideoStream::new(ds.stream.clone()).take_frames(ds.n_frames);
        let skipper = FrameSkipper::paper_default();

        let noscope = NoScopeSystem::build(&ds, &NoScopeConfig::default());
        let mut dd = DifferenceDetector::new(ds.dd_threshold);
        let ns_report = run_with_dd(&frames, skipper, &mut dd, &noscope);

        let tahoma = TahomaDdSystem::build(&ds, small_build_cfg(), ns_report.accuracy);
        let mut dd = DifferenceDetector::new(ds.dd_threshold);
        let t_report = run_with_dd(&frames, skipper, &mut dd, &tahoma);

        assert!(
            t_report.throughput_fps > ns_report.throughput_fps * 2.0,
            "TAHOMA+DD {:.0} fps vs NoScope {:.0} fps",
            t_report.throughput_fps,
            ns_report.throughput_fps
        );
        // The stream's difficulty distribution is harder-tailed than the
        // eval split the cascade was selected on, so measured accuracy can
        // sit somewhat below the selection target.
        assert!(
            t_report.accuracy >= ns_report.accuracy - 0.10,
            "TAHOMA+DD accuracy {:.3} collapsed vs NoScope {:.3}",
            t_report.accuracy,
            ns_report.accuracy
        );
    }

    #[test]
    fn batch_classification_matches_per_frame_bitwise() {
        let ds = VideoDataset::coral(6, 500);
        let sys = TahomaDdSystem::build(&ds, small_build_cfg(), 0.85);
        let frames = VideoStream::new(ds.stream.clone()).take_frames(500);
        let refs: Vec<&Frame> = frames.iter().collect();
        let batched = sys.classify_batch(&refs);
        assert_eq!(batched.len(), frames.len());
        for (frame, &got) in frames.iter().zip(&batched) {
            assert_eq!(sys.classify(frame), got, "frame {}", frame.idx);
        }
    }

    #[test]
    fn selected_cascade_has_expected_accuracy_at_least_target() {
        let ds = VideoDataset::coral(5, 1000);
        let sys = TahomaDdSystem::build(&ds, small_build_cfg(), 0.85);
        assert!(sys.expected_accuracy() >= 0.85 - 1e-9 || sys.expected_accuracy() > 0.8);
        assert!(!sys.description().is_empty());
    }
}
