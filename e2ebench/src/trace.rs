//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code around its calls into
//! each layer's public functions: a name, start and end (nanoseconds since
//! the tracer was created), the enclosing span, and the operation id all
//! spans of one operation share. Nothing is written until [`Tracer::write`]
//! at the end of the run.

use qagview_common::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start a new operation: later spans carry its id.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name`, nested under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record an already-measured interval (a span timed on another
    /// thread) as a root span of operation `op`.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, op: u64) {
        let to_ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: to_ns(start),
            end_ns: to_ns(end),
            parent: None,
            op,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one span never overlap: they run on
    /// the same thread, one after another).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .zip(child_ms)
            .map(|(s, c)| (s.ms() - c).max(0.0))
            .collect()
    }

    /// Per span name: (spans, total self ms).
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, self_ms) in self.spans.iter().zip(self.self_ms()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_ms;
        }
        out
    }

    /// Per operation: the summed duration of its spans called any of
    /// `names`, for operations that have at least one such span.
    pub fn per_op_sum(&self, names: &[&str]) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *out.entry(s.op).or_insert(0.0) += s.ms();
        }
        out
    }

    /// Write every span as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("op", Json::from(s.op)),
                ])
            })
            .collect();
        std::fs::write(path, Json::Arr(spans).to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin_op();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let by_name = t.self_time_by_name();
        let outer = by_name["outer"].1;
        let inner = by_name["inner"].1;
        assert!(inner >= 20.0, "inner self time {inner}");
        assert!(
            outer < inner,
            "outer self time {outer} must exclude its child"
        );
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].op, t.spans()[1].op);
    }
}
