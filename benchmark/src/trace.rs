//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public entry points. Nothing is added inside the program
//! under test: a span covers exactly one call the benchmark makes.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and entry point, e.g. `"protocol.encode"`.
    pub name: &'static str,
    /// Detail such as the frame type (`""` when none).
    pub detail: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The request the call served (one id per request, shared by all
    /// its spans).
    pub request: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span recorder; disabled tracers record nothing and cost one branch.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer { origin, enabled, spans: Vec::new() }
    }

    /// Time `f` as span `name` and return its result and the span's
    /// index (for children).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, detail, parent, request, start, end))
    }

    /// Record a span measured by the caller (nothing when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        detail: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            detail,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Move every span of `other` into this tracer (parents re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of the spans named `name` with detail `detail`
    /// (`None` matches any detail).
    pub fn micros_of(&self, name: &str, detail: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
            .map(Span::micros)
            .collect()
    }

    /// Write the spans as one JSON array to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"detail\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{}",
                s.name,
                s.detail,
                s.start_ns,
                s.end_ns,
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracers_record_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let (v, id) = t.span("x", "", None, 1, || 7);
        assert_eq!((v, id), (7, None));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_absorb() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, true);
        let (_, outer) = a.span("outer", "", None, 1, || ());
        a.span("inner", "q", outer, 1, || ());
        let mut b = Tracer::new(origin, true);
        b.absorb(a);
        let (_, c) = b.span("other", "", None, 2, || ());
        assert_eq!(c, Some(2));
        assert_eq!(b.spans()[1].parent, Some(0));
        assert_eq!(b.micros_of("inner", Some("q")).len(), 1);
        assert!(b.micros_of("inner", Some("w")).is_empty());
        assert!(b.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
