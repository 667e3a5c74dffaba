//! Shared experiment context: initialized TAHOMA systems for all ten
//! predicates, built once and reused across figures.

use std::time::Instant;
use tahoma_core::pipeline::TahomaSystem;
use tahoma_core::Cascade;
use tahoma_costmodel::{AnalyticProfiler, DeviceProfile, Scenario};
use tahoma_imagery::{ColorMode, ObjectKind};
use tahoma_zoo::repository::{build_surrogate_repository, SurrogateBuildConfig};
use tahoma_zoo::{ModelKind, PredicateSpec};

/// Root seed for all experiments (one seed, fully reproducible runs).
pub const EXPERIMENT_SEED: u64 = 0x7A08_2019;

/// Experiment scale: paper-faithful or quick (CI-sized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full 360-model space, 1000-image eval split, ~1.3 M cascades.
    Paper,
    /// Every 6th model, smaller splits — same shapes, seconds to run.
    Quick,
}

impl Scale {
    /// Repository build configuration at this scale.
    pub fn build_config(self, seed: u64) -> SurrogateBuildConfig {
        match self {
            Scale::Paper => SurrogateBuildConfig {
                n_config: 400,
                n_eval: 1000,
                seed,
                ..Default::default()
            },
            Scale::Quick => SurrogateBuildConfig {
                n_config: 250,
                n_eval: 400,
                seed,
                // Stride 7 is coprime with the 20 representations per
                // architecture block, so every representation class (incl.
                // the Baseline's 224x224 RGB) stays covered.
                variants: Some(
                    tahoma_zoo::variant::paper_variants()
                        .into_iter()
                        .step_by(7)
                        .collect(),
                ),
                ..Default::default()
            },
        }
    }

    /// Frames per video stream in the NoScope comparison.
    pub fn stream_frames(self) -> usize {
        match self {
            Scale::Paper => 90_000,
            Scale::Quick => 9_000,
        }
    }
}

/// One predicate's initialized system plus bookkeeping.
pub struct PredicateRun {
    /// The predicate.
    pub pred: PredicateSpec,
    /// Initialized system (thresholds calibrated, cascades simulated).
    pub system: TahomaSystem,
    /// Wall-clock seconds spent simulating the cascade set.
    pub init_seconds: f64,
}

/// Context shared by the experiments.
pub struct ExperimentContext {
    /// Scale used.
    pub scale: Scale,
    /// One run per Table II predicate, in Table II order.
    pub runs: Vec<PredicateRun>,
}

impl ExperimentContext {
    /// Build systems for all ten predicates.
    pub fn build(scale: Scale) -> ExperimentContext {
        let device = DeviceProfile::k80();
        let mut runs = Vec::with_capacity(10);
        for (i, pred) in PredicateSpec::all_paper().into_iter().enumerate() {
            let cfg = scale.build_config(EXPERIMENT_SEED ^ ((i as u64) << 8));
            let repo = build_surrogate_repository(pred, &cfg, &device);
            let t0 = Instant::now();
            let system = TahomaSystem::initialize_paper_main(repo);
            runs.push(PredicateRun {
                pred,
                system,
                init_seconds: t0.elapsed().as_secs_f64(),
            });
        }
        ExperimentContext { scale, runs }
    }

    /// Run lookup by kind.
    pub fn run(&self, kind: ObjectKind) -> &PredicateRun {
        self.runs
            .iter()
            .find(|r| r.pred.kind == kind)
            .expect("all ten predicates built")
    }

    /// The analytic profiler for a scenario on the paper's testbed.
    pub fn profiler(&self, scenario: Scenario) -> AnalyticProfiler {
        AnalyticProfiler::paper_testbed(scenario)
    }

    /// Same, without needing an instance (scenario pricing is global).
    pub fn profiler_static(scenario: Scenario) -> AnalyticProfiler {
        AnalyticProfiler::paper_testbed(scenario)
    }
}

/// The Baseline cascade set of §VII-B: two-level cascades that use
/// full-color 224x224 inputs and terminate in ResNet50 (the design of prior
/// CNN-cascade work), plus ResNet50 alone.
pub fn baseline_cascades(run: &PredicateRun) -> Vec<Cascade> {
    let repo = &run.system.repo;
    let resnet = repo
        .resnet
        .expect("surrogate repositories include resnet")
        .0 as u16;
    let full_color = tahoma_imagery::Representation::new(224, ColorMode::Rgb);
    let mut out = Vec::new();
    out.push(Cascade::single(resnet));
    let n_settings = run.system.thresholds.n_settings() as u8;
    for e in &repo.entries {
        if matches!(e.variant.kind, ModelKind::Cnn(_)) && e.variant.input == full_color {
            for s in 0..n_settings {
                out.push(Cascade::new(&[(e.variant.id.0 as u16, s), (resnet, 0)]));
            }
        }
    }
    out
}

/// Simulate an ad-hoc cascade list on a run's decision tables and price it
/// under a scenario, returning (accuracy, throughput) points.
pub fn priced_points_for(
    run: &PredicateRun,
    cascades: Vec<Cascade>,
    scenario: Scenario,
) -> Vec<(f64, f64)> {
    let outcomes = tahoma_core::evaluator::simulate_all(&run.system.tables, cascades);
    let profiler = AnalyticProfiler::paper_testbed(scenario);
    let ctx = tahoma_core::evaluator::CostContext::build(&run.system.repo, &profiler);
    outcomes
        .cascades
        .iter()
        .zip(&outcomes.outcomes)
        .map(|(c, o)| {
            (
                o.accuracy as f64,
                ctx.throughput_fps(c, o, outcomes.n_images),
            )
        })
        .collect()
}

/// ResNet50's standalone (accuracy, throughput) under a scenario.
pub fn resnet_point(run: &PredicateRun, scenario: Scenario) -> (f64, f64) {
    let repo = &run.system.repo;
    let resnet = repo.resnet.expect("resnet present");
    let acc = repo.eval_accuracy(resnet);
    let profiler = AnalyticProfiler::paper_testbed(scenario);
    let entry = repo.entry(resnet);
    let cost = profiler.standalone_cost_s(entry.variant.input, entry.infer_s);
    (acc, 1.0 / cost)
}

/// Helper extension: total per-image cost of a standalone model under a
/// profiler (fixed + its representation + inference).
trait StandaloneCost {
    fn standalone_cost_s(&self, rep: tahoma_imagery::Representation, infer_s: f64) -> f64;
}

impl StandaloneCost for AnalyticProfiler {
    fn standalone_cost_s(&self, rep: tahoma_imagery::Representation, infer_s: f64) -> f64 {
        use tahoma_costmodel::CostProfiler;
        self.per_image_fixed_s() + self.rep_marginal_s(rep) + infer_s
    }
}

/// Quick-scale context shared by this crate's tests (building ten systems
/// is the dominant test cost; do it once per process).
pub fn shared_quick_context() -> &'static ExperimentContext {
    use std::sync::OnceLock;
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::build(Scale::Quick))
}

/// Accuracy range `[min, max]` of a full point set (the paper integrates
/// ALC over full-set ranges, not frontier ranges).
pub fn accuracy_range(points: &[(f64, f64)]) -> (f64, f64) {
    let lo = points.iter().map(|(a, _)| *a).fold(f64::INFINITY, f64::min);
    let hi = points
        .iter()
        .map(|(a, _)| *a)
        .fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

/// Intersection of two accuracy ranges, widened to the narrower set's span
/// when the strict intersection is degenerate (single-point baselines).
pub fn intersect_ranges(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    if lo < hi {
        (lo, hi)
    } else {
        // Degenerate: fall back to the union's span so ALC stays defined.
        (a.0.min(b.0), a.1.max(b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_builds_all_predicates() {
        let ctx = shared_quick_context();
        assert_eq!(ctx.runs.len(), 10);
        for run in &ctx.runs {
            assert!(run.system.n_cascades() > 1000);
        }
        // Lookup works for every Table II kind.
        for kind in ObjectKind::ALL {
            assert_eq!(ctx.run(kind).pred.kind, kind);
        }
    }

    #[test]
    fn baseline_is_a_small_full_color_set() {
        let ctx = shared_quick_context();
        let run = &ctx.runs[0];
        let baseline = baseline_cascades(run);
        // Quick scale: 360/6 = 60 models, of which those with 224rgb input;
        // at minimum resnet-alone is present.
        assert!(!baseline.is_empty());
        assert!(baseline.len() < 100);
        // All multi-level baselines end in resnet.
        let resnet = run.system.repo.resnet.unwrap().0 as u16;
        for c in &baseline {
            if c.depth() == 2 {
                assert_eq!(c.model_at(1), resnet);
            }
        }
    }

    #[test]
    fn resnet_point_matches_anchor_in_infer_only() {
        let ctx = shared_quick_context();
        let (acc, fps) = resnet_point(&ctx.runs[0], Scenario::InferOnly);
        assert!((70.0..80.0).contains(&fps), "{fps}");
        assert!(acc > 0.8);
    }
}
