//! In-memory span recorder used by the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer of the program; nothing inside the program is instrumented. A
//! span holds a name, start and end (nanoseconds since the recorder's
//! epoch), the index of its parent span and a request id. Spans stay in
//! memory and are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.conv3x3`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder epoch (`start` while open).
    pub end: u64,
    /// The span this call was made under.
    pub parent: Option<SpanId>,
    /// Request the call belongs to.
    pub request: u64,
}

/// Thread-safe span store. A disabled recorder records nothing and costs
/// one branch per call.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns `None` when recording is off.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let t = self.now();
        let mut g = self.spans.lock().expect("span store poisoned");
        g.push(Span {
            name,
            start: t,
            end: t,
            parent,
            request,
        });
        Some(g.len() - 1)
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let t = self.now();
            self.spans.lock().expect("span store poisoned")[id].end = t;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let r = f(id);
        self.close(id);
        r
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        f.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children that
/// overlap each other are not counted twice, and a child's time outside
/// its parent's interval is ignored).
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
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a set of spans: `(calls, total ns, self ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, st) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += st;
    }
    out
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let s = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&s), vec![70, 20, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children running in parallel over [10, 40) and [20, 60):
        // together they cover [10, 60) = 50 ns, not 30 + 40 = 70.
        let s = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 60, Some(0)),
            span("c", 25, 35, Some(0)),
        ];
        assert_eq!(self_times(&s)[0], 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let s = vec![span("root", 10, 50, None), span("a", 0, 20, Some(0))];
        assert_eq!(self_times(&s)[0], 30);
        // A child covering the whole parent leaves no self time.
        let s = vec![span("root", 10, 50, None), span("a", 0, 90, Some(0))];
        assert_eq!(self_times(&s)[0], 0);
    }

    #[test]
    fn grandchildren_count_against_their_own_parent_only() {
        let s = vec![
            span("root", 0, 100, None),
            span("mid", 0, 80, Some(0)),
            span("leaf", 0, 60, Some(1)),
        ];
        assert_eq!(self_times(&s), vec![20, 20, 60]);
        let t = totals_by_name(&s);
        assert_eq!(t["mid"], (1, 80, 20));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new(false);
        let id = r.open("x", None, 1);
        r.close(id);
        assert!(id.is_none());
        assert!(r.spans().is_empty());
        let on = Recorder::new(true);
        let v = on.span("x", None, 7, |id| id.expect("recording"));
        assert_eq!(on.spans()[v].request, 7);
    }
}
