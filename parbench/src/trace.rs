//! The benchmark's own span recorder.
//!
//! Spans are recorded by benchmark code around each call into a layer's
//! public function (or a storage call the engine makes through the
//! benchmark's [`crate::tracefs::TracingFs`]). They stay in memory and are
//! written out once, when the run ends. A span's *self time* is its
//! duration minus the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, `<module>.<fn>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Program or request id the span belongs to.
    pub id: u64,
    /// IR instructions the call executed (0 where not applicable).
    pub insts: u64,
    /// Whether the call returned an error.
    pub failed: bool,
}

/// Totals of one layer over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of self times, in seconds.
    pub self_s: f64,
    /// Spans marked failed.
    pub failed: u64,
    /// Instructions attributed to successful spans.
    pub insts: u64,
    /// Duration of the successful spans that carry instructions, in seconds.
    pub insts_s: f64,
}

/// In-memory span recorder, safe to share across threads. It also times
/// its own bookkeeping: the time a traced run spends in the recorder is
/// what tracing adds to the untraced calls.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    own_ns: AtomicU64,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()), own_ns: AtomicU64::new(0) }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn charge(&self, since: Instant) {
        self.own_ns.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Run `f` inside a span; `f` receives the span's index to pass as
    /// the parent of nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let enter = Instant::now();
        let start = self.at(enter);
        let idx = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span { name, start, end: start, parent, id, insts: 0, failed: false });
            spans.len() - 1
        };
        self.charge(enter);
        let out = f(Some(idx));
        let leave = Instant::now();
        self.spans.lock().expect("span recorder poisoned")[idx].end = self.at(leave);
        self.charge(leave);
        out
    }

    /// Attach an instruction count and outcome to a finished span.
    pub fn mark(&self, idx: Option<usize>, insts: u64, failed: bool) {
        let enter = Instant::now();
        if let Some(i) = idx {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans[i].insts = insts;
            spans[i].failed = failed;
        }
        self.charge(enter);
    }

    /// Time spent in the recorder's own bookkeeping so far, in seconds.
    pub fn own_s(&self) -> f64 {
        self.own_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Record an already-measured interval (used where the callee cannot
    /// be wrapped in a closure, e.g. inside a storage backend).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent: None,
            id: 0,
            insts: 0,
            failed: false,
        };
        self.spans.lock().expect("span recorder poisoned").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the union
/// of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals, keyed by span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        let dur = (s.end - s.start) as f64 * 1e-9;
        t.calls += 1;
        t.self_s += own as f64 * 1e-9;
        if s.failed {
            t.failed += 1;
        } else if s.insts > 0 {
            t.insts += s.insts;
            t.insts_s += dur;
        }
    }
    out
}

/// Spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}, \"insts\": {}, \"failed\": {}}}",
            s.name, s.start, s.end, s.id, s.insts, s.failed
        )
        .expect("write to String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, id: 0, insts: 0, failed: false }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > mid [10,60) > leaf [20,30)
        let spans = vec![
            span("root", 0, 100, None),
            span("mid", 10, 60, Some(0)),
            span("leaf", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlap_once_and_disjoint_children_separately() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 20, Some(0)),
            span("b", 40, 70, Some(0)),
            // Overlaps `b` (two worker threads): the union is covered once.
            span("c", 60, 80, Some(0)),
            // Sticks out past the parent's end: clipped.
            span("d", 95, 120, Some(0)),
        ];
        // covered: [10,20) + [40,80) + [95,100) = 10 + 40 + 5
        assert_eq!(self_times(&spans)[0], 45);
        let totals = layer_totals(&spans);
        assert_eq!(totals["root"].calls, 1);
        assert!((totals["root"].self_s - 45e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_marks() {
        let t = Tracer::new();
        let v = t.span("outer", None, 7, |p| {
            t.span("inner", p, 7, |q| {
                t.mark(q, 42, false);
                5
            })
        });
        assert_eq!(v, 5);
        assert!(t.own_s() > 0.0, "the recorder times its own bookkeeping");
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].insts, 42);
        let totals = layer_totals(&spans);
        assert_eq!(totals["inner"].insts, 42);
    }
}
