//! Cost of materializing a physical representation from the full frame.
//!
//! Prices the direct pipeline of `tahoma_imagery::repr::Representation::
//! apply`: color reduction runs over the full-resolution frame, then the
//! (cheaper) resize touches only the surviving channels. The asymmetry is
//! deliberate and observable in the experiments: a 30x30 *red* input is
//! cheaper to produce than a 30x30 *gray* input because channel extraction
//! is a plane copy while grayscale is a weighted sum of three planes.
//!
//! This is the one place transform seconds live: the transcode engine
//! (`tahoma_imagery::engine`) plans and runs transforms but prices none,
//! and [`TranscodeCosts`] is read by [`TransformCostModel::transform_time`]
//! alone (plus the CAMERA-anchor test in [`crate::calibration`]).

use tahoma_imagery::{ColorMode, Representation};

/// Per-unit transform costs. A calibration test pins the defaults to the
/// paper's CAMERA anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranscodeCosts {
    /// Fixed overhead per materialized target, seconds.
    pub op_overhead_s: f64,
    /// Per-pixel cost of a plane copy (same-size extraction), seconds.
    pub extract_s_per_pixel: f64,
    /// Per-source-pixel cost of the luma sweep, seconds.
    pub gray_s_per_pixel: f64,
    /// Per-input-sample cost of the resize read path, seconds.
    pub resize_s_per_in_sample: f64,
    /// Per-output-sample cost of the resize write path, seconds.
    pub resize_s_per_out_sample: f64,
}

impl Default for TranscodeCosts {
    fn default() -> Self {
        // Pinned to the paper's CAMERA anchor by the calibration tests.
        TranscodeCosts {
            op_overhead_s: 15e-6,
            extract_s_per_pixel: 2.5e-9,
            gray_s_per_pixel: 8e-9,
            resize_s_per_in_sample: 8e-9,
            resize_s_per_out_sample: 4e-9,
        }
    }
}

/// Analytic cost model for the transform stage.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformCostModel {
    /// Per-unit transform costs.
    pub costs: TranscodeCosts,
    /// Side length of the full-resolution source frame.
    pub source_size: usize,
}

impl Default for TransformCostModel {
    fn default() -> Self {
        TransformCostModel {
            costs: TranscodeCosts::default(),
            source_size: tahoma_imagery::repr::FULL_SIZE,
        }
    }
}

impl TransformCostModel {
    /// Seconds to produce `rep` from the in-memory full-resolution frame.
    /// The identity representation costs nothing (the frame is already in
    /// the right form).
    pub fn transform_time(&self, rep: Representation) -> f64 {
        if rep.is_identity() && rep.size == self.source_size {
            return 0.0;
        }
        let c = &self.costs;
        let src_px = (self.source_size * self.source_size) as f64;
        let mut t = c.op_overhead_s;
        // Stage 1: color reduction over the full-resolution frame.
        match rep.mode {
            ColorMode::Rgb => {}
            ColorMode::Gray => t += c.gray_s_per_pixel * src_px,
            ColorMode::Red | ColorMode::Green | ColorMode::Blue => {
                t += c.extract_s_per_pixel * src_px
            }
        }
        // Stage 2: resize over surviving channels.
        if rep.size != self.source_size {
            let ch = rep.mode.channels() as f64;
            let out = (rep.size * rep.size) as f64;
            t += c.resize_s_per_in_sample * src_px * ch + c.resize_s_per_out_sample * out * ch;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> TransformCostModel {
        TransformCostModel::default()
    }

    #[test]
    fn identity_is_free() {
        assert_eq!(m().transform_time(Representation::full()), 0.0);
    }

    #[test]
    fn extraction_cheaper_than_gray() {
        let red = m().transform_time(Representation::new(30, ColorMode::Red));
        let gray = m().transform_time(Representation::new(30, ColorMode::Gray));
        assert!(red < gray, "red {red} !< gray {gray}");
    }

    #[test]
    fn rgb_resize_touches_three_planes() {
        let rgb = m().transform_time(Representation::new(30, ColorMode::Rgb));
        let red = m().transform_time(Representation::new(30, ColorMode::Red));
        // RGB resize reads 3x the samples but skips the extraction pass.
        assert!(rgb > red, "rgb {rgb} !> red {red}");
    }

    #[test]
    fn smaller_targets_slightly_cheaper() {
        let s30 = m().transform_time(Representation::new(30, ColorMode::Gray));
        let s120 = m().transform_time(Representation::new(120, ColorMode::Gray));
        assert!(s30 < s120);
    }

    #[test]
    fn full_size_color_change_skips_resize() {
        let t224_gray = m().transform_time(Representation::new(224, ColorMode::Gray));
        let c = m().costs;
        let expected = c.op_overhead_s + c.gray_s_per_pixel * (224.0 * 224.0);
        assert!((t224_gray - expected).abs() < 1e-12);
    }

    #[test]
    fn all_paper_representations_have_finite_positive_or_zero_cost() {
        for rep in Representation::paper_set() {
            let t = m().transform_time(rep);
            assert!(t.is_finite() && t >= 0.0, "{rep}: {t}");
        }
    }
}
