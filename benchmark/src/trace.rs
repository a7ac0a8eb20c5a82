//! In-memory span recorder for traced runs. The benchmark opens a span
//! around each call it makes into a layer's public API; nothing inside
//! the program is instrumented. Spans are kept in memory and written out
//! once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the run's common origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Step, batch or request id the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder (each DDP rank or client thread owns one).
pub struct Tracer {
    origin: Instant,
    pub thread: String,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: impl Into<String>) -> Self {
        Self {
            origin,
            thread: thread.into(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `idx`, which must be the innermost open one.
    pub fn end(&mut self, idx: usize) {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Drop span `idx` (innermost open, no children), e.g. a step span
    /// opened when the batch stream turned out to be exhausted.
    pub fn discard(&mut self, idx: usize) {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        assert_eq!(idx + 1, self.spans.len(), "discarded span has children");
        self.spans.pop();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, id);
        let r = f();
        self.end(s);
        r
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
}

/// Per-name totals over the spans `keep` selects (self times are taken
/// over all spans, so a kept span's unkept children still count as
/// children).
pub fn totals(
    tracers: &[Tracer],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for t in tracers {
        for (s, self_ns) in t.spans.iter().zip(t.self_ns()) {
            if !keep(s) {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += self_ns;
        }
    }
    out
}

/// Share of the `root`-named spans' wall time covered by the self time
/// of their descendants, i.e. how much of each step or batch the layer
/// spans account for (1.0 = everything).
pub fn coverage(tracers: &[Tracer], root: &str, keep: impl Fn(&Span) -> bool) -> f64 {
    let (mut wall, mut unaccounted) = (0u64, 0u64);
    for t in tracers {
        for (s, self_ns) in t.spans.iter().zip(t.self_ns()) {
            if s.name == root && keep(s) {
                wall += s.dur_ns();
                unaccounted += self_ns;
            }
        }
    }
    if wall == 0 {
        return 0.0;
    }
    1.0 - unaccounted as f64 / wall as f64
}

/// All spans as one JSON document.
pub fn to_json(tracers: &[Tracer]) -> String {
    let mut out = String::from("{\"threads\":[");
    for (ti, t) in tracers.iter().enumerate() {
        if ti > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"thread\":\"{}\",\"spans\":[", t.thread);
        for (i, s) in t.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), "t");
        let root = t.begin("root", 0);
        let a = t.begin("a", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.end(root);
        let selfs = t.self_ns();
        assert_eq!(selfs[0], t.spans[0].dur_ns() - t.spans[1].dur_ns());
        assert_eq!(selfs[1], t.spans[1].dur_ns());
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(coverage(std::slice::from_ref(&t), "root", |_| true) > 0.5);
        let tot = totals(std::slice::from_ref(&t), |_| true);
        assert_eq!(tot["a"].calls, 1);
    }

    #[test]
    fn discard_removes_an_empty_span() {
        let mut t = Tracer::new(Instant::now(), "t");
        let s = t.begin("step", 3);
        t.discard(s);
        assert!(t.spans.is_empty());
    }
}
