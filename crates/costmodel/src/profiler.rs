//! The cost profiler from the paper's architecture diagram (Fig. 2).
//!
//! [`AnalyticProfiler`] prices models under a scenario using the calibrated
//! device/storage/transform models — this is what the paper-scale
//! experiments use, so that throughput *shapes* match the authors' GPU
//! testbed. [`MeasuredProfiler`] instead times the real substrate on this
//! machine (codec decode, `Representation::apply`, `tahoma-nn` forward
//! passes); it demonstrates that the profiling machinery is real and is used
//! by the scaled-down experiments and tests.

use crate::device::DeviceProfile;
use crate::scenario::{Scenario, ScenarioCosts};
use std::time::Instant;
use tahoma_imagery::{BlockCodec, Codec, Image, Representation};
use tahoma_nn::{InferScratch, Sequential};

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

/// Wall-clock profiler: times the real substrate on this machine.
#[derive(Debug, Clone)]
pub struct MeasuredProfiler {
    /// Scenario whose pipeline is measured.
    pub scenario: Scenario,
    /// Timing repetitions; the median is reported.
    pub repetitions: usize,
}

impl MeasuredProfiler {
    /// Create a measured profiler with a sensible repetition count.
    pub fn new(scenario: Scenario) -> MeasuredProfiler {
        MeasuredProfiler {
            scenario,
            repetitions: 5,
        }
    }

    /// Median wall-clock seconds of `f` over `repetitions` runs.
    pub fn time_median(&self, mut f: impl FnMut()) -> f64 {
        let reps = self.repetitions.max(1);
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        samples[reps / 2]
    }

    /// Measure producing `rep` from a real full-resolution frame, including
    /// scenario-appropriate load/decode work.
    pub fn measure_rep_marginal(&self, full: &Image, rep: Representation) -> f64 {
        match self.scenario {
            Scenario::InferOnly => 0.0,
            Scenario::Camera => self.time_median(|| {
                let _ = rep.apply(full).expect("representation applies");
            }),
            Scenario::Archive => {
                // Transform stage only; the full-frame decode is the fixed
                // per-image cost measured separately.
                self.time_median(|| {
                    let _ = rep.apply(full).expect("representation applies");
                })
            }
            Scenario::Ongoing => {
                // Stored representation decode (raw codec roundtrip's read
                // half): encode once outside the timer, time decode.
                let stored = rep.apply(full).expect("representation applies");
                let bytes = tahoma_imagery::RawCodec.encode(&stored);
                self.time_median(|| {
                    let _ = tahoma_imagery::RawCodec.decode(&bytes).expect("decodes");
                })
            }
        }
    }

    /// Measure the ARCHIVE fixed cost: decoding a compressed full frame.
    pub fn measure_full_decode(&self, full: &Image) -> f64 {
        let codec = BlockCodec::default();
        let bytes = codec.encode(full);
        self.time_median(|| {
            let _ = codec.decode(&bytes).expect("decodes");
        })
    }

    /// Measure one real inference of a `tahoma-nn` model on one image:
    /// [`Sequential::predict_proba_shared`], the inference entry point
    /// serving calls, on one [`InferScratch::default`] reused across the
    /// repetitions. A batch of 1 runs `Dense` as a 1-row GEMM, the same
    /// path (and bits) the row takes inside any larger serving batch.
    pub fn measure_infer(&self, model: &Sequential, input: &[f32]) -> f64 {
        let mut scratch = InferScratch::default();
        self.time_median(|| {
            let _ = model.predict_proba_shared(input, 1, &mut scratch);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoma_imagery::ColorMode;
    use tahoma_nn::{CnnSpec, Shape};

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

    #[test]
    fn measured_profiler_returns_positive_times() {
        let full = Image::from_fn(224, 224, ColorMode::Rgb, |c, y, x| {
            ((c + y + x) % 13) as f32 / 13.0
        })
        .unwrap();
        let prof = MeasuredProfiler::new(Scenario::Camera);
        let rep = Representation::new(30, ColorMode::Gray);
        assert!(prof.measure_rep_marginal(&full, rep) > 0.0);
        assert!(prof.measure_full_decode(&full) > 0.0);
    }

    #[test]
    fn measured_infer_scales_with_model_size() {
        let prof = MeasuredProfiler::new(Scenario::InferOnly);
        let small = CnnSpec {
            input: Shape::new(1, 16, 16),
            conv_channels: vec![4],
            kernel: 3,
            dense_units: 8,
        }
        .build(1)
        .unwrap();
        let large = CnnSpec {
            input: Shape::new(3, 64, 64),
            conv_channels: vec![16, 16],
            kernel: 3,
            dense_units: 32,
        }
        .build(1)
        .unwrap();
        let t_small = prof.measure_infer(&small, &vec![0.5; 256]);
        let t_large = prof.measure_infer(&large, &vec![0.5; 3 * 64 * 64]);
        assert!(
            t_large > t_small,
            "large model not slower: {t_large} vs {t_small}"
        );
    }

    #[test]
    fn measured_ongoing_decode_positive() {
        let full = Image::from_fn(224, 224, ColorMode::Rgb, |_, y, x| {
            ((y * 31 + x) % 7) as f32 / 7.0
        })
        .unwrap();
        let prof = MeasuredProfiler::new(Scenario::Ongoing);
        let rep = Representation::new(60, ColorMode::Rgb);
        assert!(prof.measure_rep_marginal(&full, rep) > 0.0);
    }
}
