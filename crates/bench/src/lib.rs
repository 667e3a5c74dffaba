//! Experiment harness: regenerates every table and figure in the paper's
//! evaluation (§VII) from this reproduction's substrate.
//!
//! Run via the `repro` binary:
//!
//! ```text
//! cargo run --release -p tahoma-bench --bin repro -- all
//! cargo run --release -p tahoma-bench --bin repro -- fig6 table3 ...
//! cargo run --release -p tahoma-bench --bin repro -- --quick fig6
//! ```
//!
//! Each experiment module returns a typed result (so integration tests can
//! assert on the *shape* of the reproduction — who wins, by roughly what
//! factor) and renders the same rows/series the paper reports. Absolute
//! numbers come from the calibrated analytic cost model (DESIGN.md §2.3),
//! not the authors' testbed, so shapes are the contract, not digits.
//!
//! [`kernel_table`] holds the (op, tier) kernel workloads that the
//! `kernel_table` bin times for DESIGN.md §6's tier survival rule.

pub mod context;
pub mod experiments;
pub mod format;
pub mod kernel_table;

pub use context::{ExperimentContext, Scale};
pub use format::Table;
