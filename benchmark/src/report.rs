//! What a run prints: every metric by name with its unit — a table on
//! stderr for people, one JSON object as the last stdout line for the
//! driver.

use std::fmt::Display;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed, never gated.
    pub notes: Vec<(String, String)>,
    /// Anything that makes the run incorrect besides failed ops.
    pub problems: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, attempted: u64, failed: u64) -> Report {
        Report {
            workload,
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
            problems: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, name: &str, value: impl Display) {
        self.notes.push((name.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The driver's result object. With `tag_workload` (all-workloads
    /// mode, where several lines follow each other) a leading `workload`
    /// key says which one a line belongs to.
    pub fn json_line(&self, tag_workload: bool) -> Result<String, String> {
        let mut out = String::from("{");
        if tag_workload {
            out.push_str(&format!("\"workload\": \"{}\", ", self.workload));
        }
        out.push_str(&format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is {}", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            // `{}` on f64 prints every digit and never an exponent.
            out.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        out.push_str("}}");
        Ok(out)
    }

    pub fn print_human(&self) {
        eprintln!(
            "== {}: attempted {} succeeded {} failed {} ==",
            self.workload,
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
        for m in &self.metrics {
            eprintln!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for (name, value) in &self.notes {
            eprintln!("  {name:<44} {value}");
        }
        for problem in &self.problems {
            eprintln!("  PROBLEM: {problem}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("lookup", 1000, 0);
        r.metric("latency_p50_ms", 1.2034, "ms");
        r.metric("setup_s", 0.8127, "s");
        r.note("nproc", 2);
        assert_eq!(
            r.json_line(false).unwrap(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(r
            .json_line(true)
            .unwrap()
            .starts_with("{\"workload\": \"lookup\", \"correct\": true"));
        r.failed = 1;
        assert!(r
            .json_line(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
        r.failed = 0;
        r.problems.push("STATS shed moved".into());
        assert!(!r.correct());
        r.metric("broken", f64::NAN, "ms");
        assert!(r.json_line(false).is_err());
    }

    #[test]
    fn small_and_large_values_print_without_exponent() {
        let mut r = Report::new("scan", 1, 0);
        r.metric("tiny", 0.000_000_73, "ms");
        r.metric("big", 12_345_678_901.5, "count");
        let line = r.json_line(false).unwrap();
        assert!(line.contains("\"value\": 0.00000073,"), "{line}");
        assert!(line.contains("\"value\": 12345678901.5,"), "{line}");
    }
}
