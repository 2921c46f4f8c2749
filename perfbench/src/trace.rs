//! Spans recorded from outside the program: the benchmark wraps each call
//! into a layer's public function in a span. Spans stay in memory and are
//! written out when the run ends. With tracing off a span is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span open on the same thread when this one began.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `engine.run_unit`.
    pub name: &'static str,
    /// The op this span belongs to (0 outside ops).
    pub op: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards calls.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, child of the span currently open
    /// on this thread.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        OPEN.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a thread panicked while recording a span"),
        )
    }
}

/// Each span's self time in seconds: its duration minus the part of its
/// interval that its child spans cover (overlapping children count once).
pub fn self_seconds(spans: &[Span]) -> Vec<(u64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e9)
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, (_, secs)) in spans.iter().zip(self_seconds(spans)) {
        *out.entry(s.name).or_insert(0.0) += secs;
    }
    out
}

/// Durations in ms of the spans named `name` whose parent is named `parent`.
pub fn durations_ms_under(spans: &[Span], name: &str, parent: &str) -> Vec<f64> {
    let names: BTreeMap<u64, &str> = spans.iter().map(|s| (s.id, s.name)).collect();
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.and_then(|p| names.get(&p)) == Some(&parent))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, parent, s.name, s.op, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        let spans = vec![
            span(1, None, "op", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 20, 40), // overlaps a: [10, 40] counts once
            span(4, Some(1), "c", 90, 120), // clipped to the parent: [90, 100]
            span(5, Some(2), "d", 12, 18),
        ];
        let selfs: BTreeMap<u64, f64> = self_seconds(&spans).into_iter().collect();
        assert_eq!(selfs[&1], 60e-9);
        assert_eq!(selfs[&2], 14e-9);
        assert_eq!(selfs[&3], 20e-9);
        assert_eq!(selfs[&5], 6e-9);
        let by_name = self_seconds_by_name(&spans);
        assert_eq!(by_name["op"], 60e-9);
    }

    #[test]
    fn tracer_nests_spans_on_one_thread_and_is_inert_when_off() {
        let t = Tracer::new(true);
        let v = t.span("outer", 7, || t.span("inner", 7, || 41) + 1);
        assert_eq!(v, 42);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(durations_ms_under(&spans, "inner", "outer").len(), 1);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, || 3), 3);
        assert!(off.take().is_empty());
    }
}
