//! Spans recorded around the benchmark's calls into each layer's public
//! API, kept in memory and written out when the workload ends.
//!
//! A span holds its name, start, end, parent span and, where one
//! exists, the request id (`Admit::id`, which the completion carries
//! back as `Completion::id`). A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover —
//! children may nest, overlap each other or run on another thread.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span within its [`Tracer`].
pub type SpanId = u32;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub req: Option<u64>,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Calls made (counted even when the span itself was not sampled).
    pub calls: u64,
    /// Spans recorded.
    pub recorded: u64,
    /// Summed span durations (ns).
    pub total_ns: u64,
    /// Summed self time (ns).
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean self time of one recorded span, in microseconds (0 when
    /// nothing was recorded — a layer this workload never called).
    pub fn self_us_per_call(&self) -> f64 {
        if self.recorded == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.recorded as f64 / 1e3
    }

    /// Mean duration of one recorded span, in nanoseconds.
    pub fn total_ns_per_call(&self) -> f64 {
        if self.recorded == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.recorded as f64
    }
}

/// An in-memory span recorder, one per thread; merge them at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    calls: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            calls: BTreeMap::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Count `n` calls of `name` made without recording a span (the
    /// calls were not sampled).
    pub fn add_calls(&mut self, name: &'static str, n: u64) {
        *self.calls.entry(name).or_default() += n;
    }

    /// Record a finished span (and count the call).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        req: Option<u64>,
    ) -> SpanId {
        self.add_calls(name, 1);
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start: self.ns(start),
            end: self.ns(end).max(self.ns(start)),
            parent,
            req,
        });
        id
    }

    /// Fold another thread's tracer into this one. Its root spans are
    /// re-parented under `parent` and its ids shifted past this
    /// tracer's; both tracers must share an epoch.
    pub fn absorb(&mut self, other: Tracer, parent: Option<SpanId>) {
        let base = self.spans.len() as SpanId;
        for mut span in other.spans {
            span.parent = match span.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(span);
        }
        for (name, n) in other.calls {
            *self.calls.entry(name).or_default() += n;
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, recorded spans, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(span.name).or_default();
            t.recorded += 1;
            t.total_ns += span.end - span.start;
            t.self_ns += own;
        }
        for (name, &calls) in &self.calls {
            out.entry(name).or_default().calls = calls;
        }
        out
    }

    /// Write every span as one tab-separated line (`id parent name
    /// start_ns end_ns req`) after a `#`-prefixed header.
    pub fn write_tsv(&self, w: &mut impl Write, header: &str) -> std::io::Result<()> {
        writeln!(w, "# {header}")?;
        writeln!(w, "# id\tparent\tname\tstart_ns\tend_ns\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let req = s.req.map_or("-".to_string(), |r| r.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{req}",
                s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let covered = covered_len(kids, s.start, s.end);
            (s.end - s.start) - covered
        })
        .collect()
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let a = a.clamp(reach, hi);
        let b = b.clamp(lo, hi);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,60).
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children on other threads overlap each other over
        // [30,50): the parent loses their union, 60, not 80.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
        // A child contained in a sibling adds nothing.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 90, Some(0)),
            span("y", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        // A request span may outlive the burst that admitted it: only
        // the overlap is taken from the parent.
        let spans = [
            span("root", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 180, 400, Some(0)),
            span("outside", 300, 400, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn totals_count_unsampled_calls_and_absorb_reparents() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch);
        let start = Instant::now();
        main.add_calls("call", 1);
        let mut other = Tracer::new(epoch);
        let t = Instant::now();
        other.record("call", None, t, Instant::now(), None);
        let root = main.record("root", None, start, Instant::now(), None);
        main.absorb(other, Some(root));
        let t = main.totals();
        assert_eq!(t["call"].calls, 2);
        assert_eq!(t["call"].recorded, 1);
        assert_eq!(main.spans()[1].parent, Some(root));
        let (r, c) = (main.spans()[0], main.spans()[1]);
        assert!(r.start <= c.start && c.end <= r.end);
        assert_eq!(t["root"].calls, 1);
    }
}
