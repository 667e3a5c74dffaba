//! The cost profiler from the paper's architecture diagram (Fig. 2).
//!
//! [`AnalyticProfiler`] prices models under a scenario using the calibrated
//! device/storage/transform models, so that throughput *shapes* match the
//! authors' GPU testbed. The served planner, the paper-figure experiments
//! and the examples all price with it.

use crate::device::DeviceProfile;
use crate::scenario::{Scenario, ScenarioCosts};
use tahoma_imagery::Representation;

/// Prices the pieces of cascade execution under one deployment scenario.
pub trait CostProfiler {
    /// Cost paid once per image (e.g. ARCHIVE's full-frame load + decode).
    fn per_image_fixed_s(&self) -> f64;
    /// Cost paid once per (image, representation) materialized.
    fn rep_marginal_s(&self, rep: Representation) -> f64;
    /// Inference seconds for a model with the given FLOPs and input size.
    fn infer_s(&self, flops: u64, input_values: usize) -> f64;
}

/// Calibrated analytic profiler (device + scenario cost models).
#[derive(Debug, Clone)]
pub struct AnalyticProfiler {
    /// Compute device.
    pub device: DeviceProfile,
    /// Scenario data-handling pricing.
    pub costs: ScenarioCosts,
}

impl AnalyticProfiler {
    /// K80 + SSD pricing of the given scenario (the paper's testbed).
    pub fn paper_testbed(scenario: Scenario) -> AnalyticProfiler {
        AnalyticProfiler {
            device: DeviceProfile::k80(),
            costs: ScenarioCosts::new(scenario),
        }
    }
}

impl CostProfiler for AnalyticProfiler {
    fn per_image_fixed_s(&self) -> f64 {
        self.costs.per_image_fixed_s()
    }

    fn rep_marginal_s(&self, rep: Representation) -> f64 {
        self.costs.per_rep_marginal_s(rep)
    }

    fn infer_s(&self, flops: u64, input_values: usize) -> f64 {
        self.device.infer_time(flops, input_values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_imagery::ColorMode;

    #[test]
    fn scenario_throughput_ordering_for_a_small_model() {
        // For a small fast model: INFER-ONLY > ONGOING > CAMERA > ARCHIVE.
        let rep = Representation::new(30, ColorMode::Gray);
        let flops = 400_000u64;
        let fps = |s: Scenario| {
            let p = AnalyticProfiler::paper_testbed(s);
            1.0 / (p.per_image_fixed_s()
                + p.rep_marginal_s(rep)
                + p.infer_s(flops, rep.value_count()))
        };
        let (io, on, cam, ar) = (
            fps(Scenario::InferOnly),
            fps(Scenario::Ongoing),
            fps(Scenario::Camera),
            fps(Scenario::Archive),
        );
        assert!(io > on, "{io} !> {on}");
        assert!(on > cam, "{on} !> {cam}");
        assert!(cam > ar, "{cam} !> {ar}");
    }
}
