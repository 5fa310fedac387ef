//! In-memory span recorder for traced runs.
//!
//! The benchmark may not instrument the program, so spans are opened and
//! closed by the harness around calls into each layer's public functions.
//! They stay in memory while measuring and are written out at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`"snn.conv"`, `"core.run"`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request identifier shared by all spans of one request.
    pub request: u64,
}

/// Records nested spans; at most `capacity` are kept so a long traced run
/// cannot grow without bound (further spans are counted, not stored).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    capacity: usize,
    dropped: u64,
}

/// Sentinel id for spans dropped past capacity.
const DROPPED: SpanId = usize::MAX;

impl Tracer {
    /// A tracer that stores up to `capacity` spans (preallocated, so
    /// recording never reallocates mid-measurement).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            capacity,
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> SpanId {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return DROPPED;
        }
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        id
    }

    /// Closes a span; returns its duration in nanoseconds (0 when dropped).
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of nesting order — a harness bug.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        if id == DROPPED {
            return 0;
        }
        let end = self.now();
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost-first");
        self.spans[id].end = end;
        end - self.spans[id].start
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not stored because the tracer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Position in the span list; pass to [`Tracer::self_times_since`] to
    /// reduce only the spans of one measurement phase.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total self time per span name over the spans opened since `mark`
    /// (taken while no span was open, so no parent precedes the mark).
    pub fn self_times_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans, mark)
    }

    /// Serialises the spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        out.push_str("{\"dropped\": ");
        let _ = write!(out, "{}", self.dropped);
        out.push_str(", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start, s.end, s.request
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// Times `f` on the host clock — inside a span named `name` when a tracer is
/// given — and returns its result with the elapsed milliseconds. Untraced
/// and traced sweeps share this, so the only difference between them is the
/// span itself.
pub fn timed<R>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let span = tracer.map(|t| {
        let id = t.enter(name, request);
        (t, id)
    });
    let t0 = Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some((t, id)) = span {
        t.exit(id);
    }
    (out, ms)
}

/// Self time of each span name over `spans[from..]`: a span's duration
/// minus the part of it its direct children cover, summed over all spans of
/// that name.
pub fn self_times(spans: &[Span], from: usize) -> BTreeMap<&'static str, u64> {
    let mut child_time = vec![0u64; spans.len()];
    for s in &spans[from..] {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, &covered) in spans[from..].iter().zip(&child_time[from..]) {
        *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("forward", 10, 70, Some(0)),
            span("conv", 10, 40, Some(1)),
            span("lif", 40, 60, Some(1)),
            span("policy", 70, 90, Some(0)),
            span("request", 100, 130, None),
        ];
        let st = self_times(&spans, 0);
        // request: (100 − 60 − 20) + 30; grandchildren are not subtracted twice
        assert_eq!(st["request"], 50);
        assert_eq!(st["forward"], 10);
        assert_eq!(st["conv"], 30);
        assert_eq!(st["lif"], 20);
        assert_eq!(st["policy"], 20);
        // self times partition the root spans' wall time exactly
        assert_eq!(st.values().sum::<u64>(), 130);
        // a phase that starts at the second request sees only that request
        let tail = self_times(&spans, 5);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail["request"], 30);
    }

    #[test]
    fn tracer_nests_by_open_order_and_caps_storage() {
        let mut t = Tracer::new(3);
        let a = t.enter("a", 7);
        let b = t.enter("b", 7);
        t.exit(b);
        let c = t.enter("c", 7);
        let d = t.enter("d", 7); // over capacity: counted, not stored
        t.exit(d);
        t.exit(c);
        t.exit(a);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(a));
        assert_eq!(t.spans()[2].parent, Some(a));
        assert!(t.spans().iter().all(|s| s.end >= s.start && s.request == 7));
        let json = t.to_json();
        assert!(json.contains("\"dropped\": 1"));
        assert_eq!(json.matches("\"name\"").count(), 3);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new(4);
        let a = t.enter("a", 0);
        let _b = t.enter("b", 0);
        t.exit(a);
    }
}
