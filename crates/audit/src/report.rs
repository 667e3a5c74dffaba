//! Audit report: the human-readable table.

use crate::lints::Violation;
use std::fmt::Write as _;

/// The outcome of one audit run.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    /// True when the workspace passed.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable table.
    pub fn human(&self) -> String {
        let mut s = String::new();
        if self.clean() {
            let _ = writeln!(s, "audit OK: {} files scanned, 0 violations", self.files);
            return s;
        }
        let _ = writeln!(
            s,
            "LINT  LOCATION                                      FINDING"
        );
        for v in &self.violations {
            let loc = format!("{}:{}", v.file, v.line);
            let _ = writeln!(s, "{:<5} {:<45} {}", v.lint, loc, v.message);
            if !v.excerpt.is_empty() {
                let _ = writeln!(s, "      | {}", v.excerpt);
            }
        }
        let _ = writeln!(
            s,
            "audit FAILED: {} violations across {} files",
            self.violations.len(),
            self.files
        );
        s
    }
}
