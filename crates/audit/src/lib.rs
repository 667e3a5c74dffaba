//! `tahoma-audit`: the workspace invariant linter.
//!
//! The hot path rests on `unsafe` SIMD sites, NaN-total orderings, and a
//! Mutex/Condvar coalescing broker. rustc and clippy hold the invariants
//! they can express (a SAFETY comment on every `unsafe` block, an
//! `unsafe` block around every unsafe operation in an `unsafe fn`, no
//! panics in serve or `core::exec`; see the root `Cargo.toml`). This
//! crate machine-checks the rest — lints A3 and A5–A7, catalogued in
//! [`lints`] (`SAFETY.md` at the workspace root has the policy they
//! encode).
//!
//! Run it locally with `scripts/audit.sh`, or directly:
//!
//! ```text
//! cargo run -p tahoma-audit --           # table, exit 1 on findings
//! ```
//!
//! The audit has no exception list: a finding is fixed, not excused.

pub mod lexer;
pub mod lints;
pub mod report;
pub mod workspace;

pub use lints::Violation;
pub use report::Report;

use std::collections::BTreeMap;
use std::path::Path;

/// Audit every `.rs` file under `root`.
pub fn run_audit(root: &Path) -> std::io::Result<Report> {
    let sources = workspace::read_sources(root)?;
    Ok(audit_in_memory(&sources))
}

/// Audit pre-read sources (fixture tests feed violations through this
/// without touching the filesystem).
pub fn audit_in_memory(sources: &BTreeMap<String, String>) -> Report {
    Report {
        violations: lints::audit_sources(sources),
        files: sources.len(),
    }
}
