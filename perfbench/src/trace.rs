//! In-memory spans recorded around calls into the program's layers, their
//! self times, and the reconciliation checks between layers.
//!
//! A span has a name, a start, an end, and the span that caused it; the
//! spans of one request share its request id. A layer's self time is its
//! span's duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records spans in memory; [`Tracer::write_jsonl`] writes them out.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `call` inside a span and return its result.
    pub fn span<R>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        call: impl FnOnce(&mut Tracer, usize) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let result = call(self, index);
        self.spans[index].end_ns = self.now_ns();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {index}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time of every span: its duration minus its children's coverage.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            let duration = span.end_ns - span.start_ns;
            duration - covered(kids, span.start_ns, span.end_ns)
        })
        .collect()
}

/// Per span name: total self time (ns) and number of spans.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut totals: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += self_ns;
        entry.1 += 1;
    }
    totals
}

/// Relative gap between a whole and the sum of its measured parts:
/// `(whole - parts) / whole`. Positive when the parts miss some work.
pub fn gap_share(parts: f64, whole: f64) -> f64 {
    if whole <= 0.0 {
        return if parts <= 0.0 { 0.0 } else { -1.0 };
    }
    (whole - parts) / whole
}

/// Whether the parts reconcile with the whole within `tolerance`.
pub fn reconciles(parts: f64, whole: f64, tolerance: f64) -> bool {
    gap_share(parts, whole).abs() <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            request: 1,
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("read", 10, 30, Some(0)),
            span("parse", 40, 90, Some(0)),
            span("decode", 50, 70, Some(2)),
            // Overlaps its sibling: the overlap must not count twice.
            span("typecheck", 60, 80, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 20, 20, 20]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["parse"], (20, 1));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 10]);
    }

    #[test]
    fn reconciliation_arithmetic() {
        assert!((gap_share(90.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((gap_share(110.0, 100.0) + 0.1).abs() < 1e-12);
        assert!(reconciles(90.0, 100.0, 0.1));
        assert!(!reconciles(89.0, 100.0, 0.1));
        assert!(!reconciles(112.0, 100.0, 0.1));
        assert_eq!(gap_share(0.0, 0.0), 0.0);
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut tracer = Tracer::new();
        let value = tracer.span(7, "outer", None, |tracer, outer| {
            tracer.span(7, "inner", Some(outer), |_, _| 41) + 1
        });
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }
}
