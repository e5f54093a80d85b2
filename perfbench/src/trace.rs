//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions.
//!
//! A span has a name, a start and an end (ns since the tracer's origin),
//! the span that was open when it began, and the id of the chart or
//! query it belongs to, so every span of one request shares an id.
//! Spans stay in memory while the benchmark runs and are written out as
//! JSON lines when it ends. A disabled tracer records nothing and costs
//! one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Chart or query id the span belongs to.
    pub id: u64,
    /// Layer-qualified name, e.g. `core.supervise`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

/// Handle to an open span (inert when tracing is off).
#[must_use = "a span must be closed with Tracer::end"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records when `on`; spans of tracers sharing
    /// `origin` are on one time axis.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span for request `id`.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(SpanRec {
            id,
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        let i = self.spans.len() - 1;
        self.open.push(i);
        Open(Some(i))
    }

    /// Close a span opened by [`Tracer::begin`]; spans close innermost
    /// first.
    pub fn end(&mut self, span: Open) {
        if let Some(i) = span.0 {
            let end_ns = self.now_ns();
            self.spans[i].end_ns = end_ns;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, id);
        let out = f();
        self.end(span);
        out
    }

    /// Move another tracer's spans into this one (parent links are
    /// re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations (in `unit_ns` units) of every span named `name`.
    pub fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / unit_ns)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].ns() >= spans[1].ns());
        assert!(t.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("x", 1);
        t.end(s);
        assert_eq!(t.time("y", 1, || 3), 3);
        assert!(t.spans().is_empty());
    }
}
