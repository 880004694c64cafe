//! In-memory spans for the traced replay.
//!
//! A span is one call into a layer: name, start, end, the span that
//! caused it and the request it belongs to. Spans stay in a `Vec` while
//! the replay runs and are written out once it ends. A layer's self time
//! is its span's duration minus the part of that interval its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `cache.probe`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub req: u32,
}

/// Records spans when on; every call is a no-op when off, so the same
/// replay code runs in both passes.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` while tracing is off).
pub type Open = Option<usize>;

impl Tracer {
    /// A tracer that records iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u32) -> Open {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Tracer::enter`] (innermost first).
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open {
            let now = self.now();
            self.spans[idx].end_ns = now;
            self.open.retain(|&o| o != idx);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, req);
        let out = f();
        self.exit(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// `(calls, total self ns)` per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps its sibling
            span(90, 120, Some(0)), // runs past its parent
            span(12, 18, Some(1)),  // grandchild: charged to span 1 only
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    #[test]
    fn nested_spans_record_parents_and_aggregate_by_name() {
        let mut t = Tracer::new(true);
        let root = t.enter("request", 7);
        let inner = t.span("cache.probe", 7, || 5);
        assert_eq!(inner, 5);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].req), (Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let agg = by_name(s);
        assert_eq!(agg["request"].0, 1);
        assert_eq!(agg["cache.probe"].0, 1);

        let mut off = Tracer::new(false);
        let o = off.enter("request", 0);
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
