//! Deployment-scenario cost model (paper §VI).
//!
//! The paper's core observation is that end-to-end classification time is
//!
//! ```text
//! t_classify = t_load + t_transform + t_infer
//! ```
//!
//! and that which term dominates depends on the *deployment scenario*. This
//! crate prices all three terms:
//!
//! * [`device::DeviceProfile`] — inference time from FLOPs, input-ingest
//!   bandwidth, and per-image overhead, calibrated to the paper's measured
//!   anchors (ResNet50 ≈ 75 fps, smallest specialized CNN ≈ 21k fps on a
//!   Tesla K80);
//! * [`storage::StorageProfile`] — load time from byte counts (SSD seek +
//!   streaming rate) plus decode work;
//! * [`transform::TransformCostModel`] — the cost of materializing a
//!   [`Representation`] from the full-resolution frame, mirroring the actual
//!   pipeline in `tahoma_imagery::repr` (color reduction, then resize);
//! * [`scenario::Scenario`] — the paper's four scenarios (INFER-ONLY,
//!   ARCHIVE, ONGOING, CAMERA) expressed as a per-image fixed cost plus a
//!   per-representation marginal cost charged once per image per
//!   representation (§VII-A);
//! * [`profiler`] — the cost profiler from Fig. 2: [`AnalyticProfiler`],
//!   calibrated to the paper's GPU testbed, which the served planner, the
//!   paper-figure experiments and the examples all price with.
//!
//! [`Representation`]: tahoma_imagery::Representation

pub mod calibration;
pub mod device;
pub mod profiler;
pub mod scenario;
pub mod storage;
pub mod transform;

pub use device::DeviceProfile;
pub use profiler::{AnalyticProfiler, CostProfiler};
pub use scenario::{Scenario, ScenarioCosts};
pub use storage::StorageProfile;
pub use transform::TransformCostModel;
