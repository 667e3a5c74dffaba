//! The cost profiler from the paper's architecture diagram (Fig. 2).
//!
//! [`AnalyticProfiler`] prices models under a scenario using the calibrated
//! device/storage/transform models, so that throughput *shapes* match the
//! authors' GPU testbed. The served planner, the paper-figure experiments
//! and the examples all price with it.

use crate::device::DeviceProfile;
use crate::scenario::{Scenario, ScenarioCosts};
use tahoma_imagery::Representation;

/// The three cost terms of `t_classify = t_load + t_transform + t_infer`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Load + decode seconds.
    pub load_s: f64,
    /// Transform seconds.
    pub transform_s: f64,
    /// Inference seconds.
    pub infer_s: f64,
}

impl CostBreakdown {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.load_s + self.transform_s + self.infer_s
    }

    /// Throughput if this were the cost of every image.
    pub fn fps(&self) -> f64 {
        1.0 / self.total_s()
    }
}

/// Prices the pieces of cascade execution under one deployment scenario.
pub trait CostProfiler {
    /// The scenario being priced.
    fn scenario(&self) -> Scenario;
    /// Cost paid once per image (e.g. ARCHIVE's full-frame load + decode).
    fn per_image_fixed_s(&self) -> f64;
    /// Cost paid once per (image, representation) materialized.
    fn rep_marginal_s(&self, rep: Representation) -> f64;
    /// Inference seconds for a model with the given FLOPs and input size.
    fn infer_s(&self, flops: u64, input_values: usize) -> f64;

    /// Standalone cost of running one model on one image (a single-level
    /// cascade), split into the paper's three terms.
    fn model_cost(&self, rep: Representation, flops: u64) -> CostBreakdown {
        let fixed = self.per_image_fixed_s();
        let marginal = self.rep_marginal_s(rep);
        let (load_s, transform_s) = match self.scenario() {
            Scenario::InferOnly => (0.0, 0.0),
            // ARCHIVE: fixed term is load+decode; marginal is transform.
            Scenario::Archive => (fixed, marginal),
            // ONGOING: marginal is a load of the stored representation.
            Scenario::Ongoing => (marginal, 0.0),
            // CAMERA: marginal is pure transform.
            Scenario::Camera => (0.0, marginal),
        };
        CostBreakdown {
            load_s,
            transform_s,
            infer_s: self.infer_s(flops, rep.value_count()),
        }
    }
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
    fn scenario(&self) -> Scenario {
        self.costs.scenario
    }

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
    fn cost_breakdown_totals_and_fps() {
        let c = CostBreakdown {
            load_s: 1e-3,
            transform_s: 2e-3,
            infer_s: 7e-3,
        };
        assert!((c.total_s() - 1e-2).abs() < 1e-15);
        assert!((c.fps() - 100.0).abs() < 1e-9);
        let zero = CostBreakdown::default();
        assert_eq!(zero.total_s(), 0.0);
    }

    #[test]
    fn analytic_model_cost_terms_route_by_scenario() {
        let rep = Representation::new(30, ColorMode::Gray);
        let flops = 1_000_000u64;

        let infer_only = AnalyticProfiler::paper_testbed(Scenario::InferOnly);
        let c = infer_only.model_cost(rep, flops);
        assert_eq!(c.load_s, 0.0);
        assert_eq!(c.transform_s, 0.0);
        assert!(c.infer_s > 0.0);

        let archive = AnalyticProfiler::paper_testbed(Scenario::Archive);
        let c = archive.model_cost(rep, flops);
        assert!(c.load_s > 0.0 && c.transform_s > 0.0);

        let ongoing = AnalyticProfiler::paper_testbed(Scenario::Ongoing);
        let c = ongoing.model_cost(rep, flops);
        assert!(c.load_s > 0.0);
        assert_eq!(c.transform_s, 0.0);

        let camera = AnalyticProfiler::paper_testbed(Scenario::Camera);
        let c = camera.model_cost(rep, flops);
        assert_eq!(c.load_s, 0.0);
        assert!(c.transform_s > 0.0);
    }

    #[test]
    fn scenario_throughput_ordering_for_a_small_model() {
        // For a small fast model: INFER-ONLY > ONGOING > CAMERA > ARCHIVE.
        let rep = Representation::new(30, ColorMode::Gray);
        let flops = 400_000u64;
        let fps = |s: Scenario| {
            AnalyticProfiler::paper_testbed(s)
                .model_cost(rep, flops)
                .fps()
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
