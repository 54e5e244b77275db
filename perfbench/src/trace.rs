//! In-memory spans recorded from the benchmark's own code, around its
//! calls into each layer's public functions. Nothing inside the program
//! is instrumented: a span times one call from the outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one app, one source or one job.
    pub id: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans; children nest by the open-span stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn end(&mut self) -> u64 {
        let idx = self.open.pop().expect("end() matches a begin()");
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Adds a top-level span timed elsewhere (for example on another
    /// thread).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span {
            name,
            id,
            parent: None,
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    /// An empty tracer on the same time origin, whose spans
    /// [`Tracer::absorb`] can later merge into this one.
    pub fn sibling(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends the spans of a [`Tracer::sibling`], keeping their start,
    /// end and parent.
    pub fn absorb(&mut self, other: Tracer) {
        assert_eq!(self.origin, other.origin, "absorb() takes a sibling");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name, in ns.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut t = BTreeMap::new();
        for s in &self.spans {
            *t.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        t
    }

    /// Self time per span name, in ns: each span's duration minus the
    /// time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut t = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *t.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child[i]);
        }
        t
    }

    /// The spans as JSON lines: `{"i","name","id","parent","start_ns","end_ns"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"i":{i},"name":"{}","id":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let total = t.totals();
        let own = t.self_times();
        assert_eq!(own["inner"], total["inner"]);
        assert_eq!(own["outer"] + total["inner"], total["outer"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn absorb_keeps_times_and_parents() {
        let mut t = Tracer::new();
        t.span("first", 1, || ());
        let mut s = t.sibling();
        s.begin("outer", 2);
        s.span("inner", 2, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        s.end();
        let inner = (s.spans()[1].start_ns, s.spans()[1].end_ns);
        t.absorb(s);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!((t.spans()[2].start_ns, t.spans()[2].end_ns), inner);
        assert!(inner.1 > inner.0);
    }
}
