//! The benchmark's own span recorder. Spans are taken in the benchmark's
//! code around each call into a layer; they stay in memory and are
//! written out once, when the run ends. With tracing off every call is a
//! no-op, so the untraced run pays nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use leapfrog::json::{self, Value};

use crate::stats;

/// Name of the root span around one verdict (request to checked answer).
pub const VERDICT: &str = "bench.verdict";

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `core.run`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Request id shared by every span of one verdict.
    pub request: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span, closed by [`Tracer::end`]. Holds nothing when tracing
/// is off.
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder for one thread of the benchmark.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder timing against `epoch`; records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch, for [`Tracer::record`].
    pub fn stamp(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let i = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.stamp(),
            end: 0,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(i);
        Open(Some(i))
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            let end = self.stamp();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans closed out of order");
            self.spans[i].end = end;
        }
    }

    /// Records an already-measured child span `[start, end)` (nanoseconds
    /// since the epoch) under the innermost open span. Used for calls too
    /// fine-grained to wrap one by one.
    pub fn record(&mut self, name: &'static str, request: u64, start: u64, end: u64) {
        if self.on {
            let parent = self.stack.last().copied();
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
                request,
            });
        }
    }

    /// Moves every span of `other` into this recorder (same epoch),
    /// keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// What a set of spans says about where verdict time went.
#[derive(Debug, Default)]
pub struct Profile {
    /// Self time per layer, in nanoseconds, over every recorded span.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total verdict time.
    pub verdict_ns: u64,
    /// Part of verdict time covered by the verdicts' child spans.
    pub covered_ns: u64,
}

impl Profile {
    /// Share of verdict time the child spans cover.
    pub fn coverage(&self) -> f64 {
        if self.verdict_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.verdict_ns as f64
        }
    }
}

/// Computes per-layer self time and verdict coverage.
pub fn profile(spans: &[Span]) -> Profile {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = Profile::default();
    for (s, kids) in spans.iter().zip(&children) {
        *out.self_ns.entry(s.layer()).or_default() += stats::self_time(s.start, s.end, kids);
        if s.name == VERDICT {
            out.verdict_ns += s.end - s.start;
            out.covered_ns += stats::covered(kids, s.start, s.end);
        }
    }
    out
}

/// Span `id` as a JSON object (id, name, start_ns, end_ns, parent,
/// request), for the span file a traced run leaves behind.
pub fn span_value(id: usize, s: &Span) -> Value {
    let ns = |t: u64| Value::Num(t as f64);
    json::obj(vec![
        ("id", json::num(id)),
        ("name", Value::Str(s.name.to_string())),
        ("start_ns", ns(s.start)),
        ("end_ns", ns(s.end)),
        ("parent", s.parent.map_or(Value::Null, json::num)),
        ("request", ns(s.request)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn profile_splits_self_time_by_layer_and_measures_coverage() {
        let spans = vec![
            span(VERDICT, 0, 100, None),
            span("core.prepare", 0, 20, Some(0)),
            span("core.run", 20, 80, Some(0)),
            span("smt.query", 30, 50, Some(2)),
            // Overlaps its sibling: counts once in the parent's coverage.
            span("smt.query", 40, 60, Some(2)),
            // A probe outside any verdict is profiled but not covered.
            span("logic.wp_sweep", 100, 130, None),
        ];
        let p = profile(&spans);
        assert_eq!(p.verdict_ns, 100);
        assert_eq!(p.covered_ns, 80);
        assert!((p.coverage() - 0.8).abs() < 1e-12);
        assert_eq!(p.self_ns["bench"], 20);
        // core.prepare 20 + core.run (60 − 30 covered by smt).
        assert_eq!(p.self_ns["core"], 50);
        assert_eq!(p.self_ns["smt"], 40);
        assert_eq!(p.self_ns["logic"], 30);
    }

    #[test]
    fn tracer_off_records_nothing_and_absorb_relinks_parents() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        let o = off.begin(VERDICT, 1);
        off.end(o);
        off.record("core.run", 1, 0, 5);
        assert!(off.spans().is_empty());

        let mut a = Tracer::new(true, epoch);
        let root = a.begin(VERDICT, 1);
        let child = a.begin("core.run", 1);
        a.end(child);
        a.end(root);
        let mut b = Tracer::new(true, epoch);
        let root = b.begin(VERDICT, 2);
        b.record("serve.check", 2, b.stamp(), b.stamp());
        b.end(root);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].request, 2);
    }
}
