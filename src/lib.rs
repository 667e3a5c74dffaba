//! # TAHOMA — physical-representation-based predicate optimization
//!
//! A from-scratch Rust reproduction of *"Physical Representation-based
//! Predicate Optimization for a Visual Analytics Database"* (Anderson,
//! Cafarella, Ros, Wenisch — ICDE 2019).
//!
//! This facade crate re-exports the whole workspace so applications depend
//! on one crate:
//!
//! * [`imagery`] — images, physical representations, transforms, codecs,
//!   synthetic corpora;
//! * [`nn`] — the CNN substrate (training + inference + FLOPs);
//! * [`costmodel`] — deployment scenarios and cost profilers;
//! * [`zoo`] — the 360-model design space, surrogate and real trainers;
//! * [`core`] — thresholds, cascades, Pareto frontiers, ALC, selection,
//!   query processing (the paper's contribution);
//! * [`video`] — temporally coherent streams and difference detection;
//! * [`noscope`] — the NoScope-style baseline and TAHOMA+DD;
//! * [`serve`] — the concurrent query service (shared executor, plan
//!   cache, cross-query batch coalescing).
//!
//! ## Quickstart
//!
//! ```
//! use tahoma::prelude::*;
//!
//! // 1. Build the model repository for one predicate (surrogate-backed).
//! let pred = PredicateSpec::for_kind(ObjectKind::Fence);
//! let cfg = SurrogateBuildConfig {
//!     n_config: 150,
//!     n_eval: 200,
//!     seed: 7,
//!     variants: Some(paper_variants().into_iter().step_by(24).collect()),
//!     ..Default::default()
//! };
//! let repo = build_surrogate_repository(pred, &cfg, &DeviceProfile::k80());
//!
//! // 2. System initialization: thresholds, cascades, simulation.
//! let system = TahomaSystem::initialize_paper_main(repo);
//!
//! // 3. Query time: pick a cascade for the deployment scenario.
//! let profiler = AnalyticProfiler::paper_testbed(Scenario::Camera);
//! let chosen = system
//!     .select(&profiler, Constraints { max_accuracy_loss: Some(0.05), max_throughput_loss: None })
//!     .expect("a cascade satisfies the constraints");
//! assert!(chosen.throughput > 0.0);
//! ```

pub use tahoma_core as core;
pub use tahoma_costmodel as costmodel;
pub use tahoma_imagery as imagery;
pub use tahoma_mathx as mathx;
pub use tahoma_nn as nn;
pub use tahoma_noscope as noscope;
pub use tahoma_serve as serve;
pub use tahoma_video as video;
pub use tahoma_zoo as zoo;

/// The names an application typically needs.
pub mod prelude {
    pub use tahoma_core::pipeline::{Frontier, SelectedCascade, TahomaSystem};
    pub use tahoma_core::query::{Corpus, CorpusItem, ItemScorer, Query};
    pub use tahoma_core::selector::Constraints;
    pub use tahoma_core::{
        alc, build_cascades, pareto_frontier, BuilderConfig, Cascade, DecisionThresholds,
        ThresholdTable, PAPER_PRECISION_SETTINGS,
    };
    pub use tahoma_costmodel::{
        AnalyticProfiler, CostProfiler, DeviceProfile, Scenario, ScenarioCosts, StorageProfile,
    };
    pub use tahoma_imagery::{
        ColorMode, Dataset, DatasetBundle, DatasetSpec, Image, ObjectKind, Representation,
    };
    pub use tahoma_zoo::repository::{build_surrogate_repository, SurrogateBuildConfig};
    pub use tahoma_zoo::variant::paper_variants;
    pub use tahoma_zoo::{
        ArchSpec, ModelId, ModelKind, ModelRepository, ModelVariant, PredicateSpec, SurrogateScorer,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let pred = PredicateSpec::for_kind(ObjectKind::Acorn);
        assert_eq!(pred.kind.name(), "acorn");
        let rep = Representation::new(30, ColorMode::Gray);
        assert_eq!(rep.value_count(), 900);
        let dev = DeviceProfile::k80();
        assert!(dev.infer_fps(1_000_000, 900) > 1000.0);
    }
}
