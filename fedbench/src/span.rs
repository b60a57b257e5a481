//! In-memory spans recorded by the benchmark around its calls into the
//! engine's layers, written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: `[start, end)` in ns since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `planner.plan`.
    pub name: &'static str,
    /// Shared by every span of one query or serve run.
    pub qid: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin (equal to `start` while open).
    pub end: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans when enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (`usize::MAX` when disabled).
    pub fn begin(&mut self, name: &'static str, qid: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            qid,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts or stops recording; spans recorded so far are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        qid: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, qid, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name, in ns.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.duration();
        }
        out
    }

    /// Writes one JSON object per span, with its self time, to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"qid\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name, s.qid, s.start, s.end, selfs[i]
            )?;
        }
        w.flush()
    }
}

/// Each span's self time: its duration minus the length of the union of
/// its children's intervals (clipped to the span), so overlapping
/// children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            qid: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("query", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a: union 10..60
            span("c", Some(0), 55, 58),  // inside b
            span("d", Some(0), 90, 120), // clipped to 90..100
            span("e", Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 3, 30, 5]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0, None);
        t.end(id);
        assert_eq!(t.time("y", 0, None, || 7), 7);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let outer = t.begin("x", 3, None);
        t.time("y", 3, Some(outer), || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].duration() >= t.spans()[1].duration());
    }
}
