//! Span recording for the traced (`--trace 1`) runs.
//!
//! The program itself is never instrumented for the benchmark: the
//! traced run calls each layer's public function from this crate and
//! wraps the call in a span. Spans live in memory until the run ends,
//! then go to a JSONL file; per-layer figures are self times (a span's
//! duration minus its children's).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer span name, e.g. `serve.protocol.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or work item) the span belongs to.
    pub req: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer whose spans only run their closure: lets timed code
    /// share one path with the traced run at the cost of a branch.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` (through
    /// the tracer it is handed) become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, nanoseconds, grouped by `key(span)` in
    /// recording order.
    pub fn self_times_ns_by<K: Ord>(&self, key: impl Fn(&Span) -> K) -> BTreeMap<K, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<K, Vec<f64>> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            out.entry(key(span))
                .or_default()
                .push(total.saturating_sub(child) as f64);
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new();
        t.span("request", 7, |t| {
            t.span("parse", 7, |_| spin(200_000));
            t.span("run", 7, |t| t.span("inner", 7, |_| spin(300_000)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));

        let selfs = t.self_times_ns_by(|s| s.name);
        let total = (spans[0].end_ns - spans[0].start_ns) as f64;
        let sum: f64 = selfs.values().flatten().sum();
        assert!(
            (sum - total).abs() < 1.0,
            "self times must partition the root"
        );
        assert!(selfs["inner"][0] >= 300_000.0);
        assert!(selfs["run"][0] < selfs["inner"][0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let v = t.span("outer", 1, |t| t.span("inner", 1, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn span_returns_the_closure_value() {
        let mut t = Tracer::new();
        assert_eq!(t.span("x", 0, |_| 41 + 1), 42);
        assert_eq!(t.self_times_ns_by(|s| s.name)["x"].len(), 1);
    }
}
