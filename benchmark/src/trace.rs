//! Spans around the benchmark's own calls into each layer (tracing inside
//! the program is a later change). Spans stay in memory and are written to
//! `trace.json` when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One wrapped call. Times are nanoseconds since the recorder was made;
/// `parent` is the index of the enclosing span; spans of one op share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder. While `enabled` is false, [`Recorder::span`]
/// only calls through — that difference is `trace.overhead_share`.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub enabled: bool,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` belonging to op `op`. Nested
    /// calls on the recorder passed to `f` become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// [`Recorder::span`] that also returns the call's duration in seconds —
    /// read off the span itself, so a timed call costs one pair of clock
    /// reads whether or not spans are recorded.
    pub fn timed<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        if self.enabled {
            let result = self.span(name, op, |_| f());
            let span = self.spans.last().expect("span just recorded");
            (result, span.duration_ns() as f64 / 1e9)
        } else {
            let start = Instant::now();
            let result = f();
            (result, start.elapsed().as_secs_f64())
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans named `name` among those recorded from
    /// index `from` on.
    pub fn durations_ms(&self, from: usize, name: &str) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// `{"spans": [{"id", "name", "start_ns", "end_ns", "parent", "op"}]}`
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Per span name: how many spans, their total time, and their total SELF
/// time — a span's duration minus what its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let entry = by_name.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.duration_ns();
        entry.2 += s.duration_ns().saturating_sub(children);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.span("op", 7, |rec| {
            rec.span("parse", 7, |_| std::hint::black_box(1 + 1));
            rec.span("execute", 7, |rec| {
                rec.span("fetch", 7, |_| ());
            });
        });
        rec.span("op", 8, |_| ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, None);
        assert!(spans.iter().take(4).all(|s| s.op == 7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let fixed = [
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 1,
            },
            Span {
                name: "parse",
                start_ns: 5,
                end_ns: 15,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "execute",
                start_ns: 20,
                end_ns: 90,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "fetch",
                start_ns: 30,
                end_ns: 50,
                parent: Some(2),
                op: 1,
            },
        ];
        let t = self_times(&fixed);
        assert_eq!(t["op"], (1, 100, 20));
        assert_eq!(t["execute"], (1, 70, 50));
        assert_eq!(t["fetch"], (1, 20, 20));
        let selfs: u64 = t.values().map(|v| v.2).sum();
        assert_eq!(selfs, 100, "self times of a tree sum to its root");
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_calls() {
        let mut rec = Recorder::new();
        rec.enabled = false;
        assert_eq!(rec.span("op", 1, |rec| rec.span("inner", 1, |_| 42)), 42);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn json_has_one_object_per_span() {
        let mut rec = Recorder::new();
        rec.span("op", 3, |rec| rec.span("inner", 3, |_| ()));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("test-trace-{}.json", std::process::id()));
        rec.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.starts_with("{\"spans\": ["));
        assert_eq!(text.matches("\"name\"").count(), 2);
        assert!(text.contains("\"parent\": null"));
        assert!(text.contains("\"parent\": 0, \"op\": 3}"));
    }
}
