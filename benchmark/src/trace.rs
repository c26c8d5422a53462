//! In-memory span recorder for the traced run. Spans are recorded
//! after the fact from the `Instant`s the benchmark already takes, so
//! recording adds nothing inside a timed interval; they are written as
//! JSON lines when the run ends.

use crate::json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span, usable as a parent.
pub type SpanId = usize;

struct Span {
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record span `name` of operation `op` over `[start, end]`.
    pub fn span(
        &mut self,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {id}, \"op\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                s.op,
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )?;
        }
        w.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Run `f`, returning its result and the `Instant`s around it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    (out, t0, t1)
}

/// Milliseconds between two instants.
pub fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}
