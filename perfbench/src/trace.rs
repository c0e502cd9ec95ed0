//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into the library: a name, a start, an end, the enclosing span and a
//! trace id (one per workload run, one per submitted batch). They stay
//! in memory and are written out when the run ends. An untraced run
//! uses a disabled recorder, which records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: (index into `spans`).
    stack: Vec<usize>,
    trace: u64,
    next_trace: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            trace: 0,
            next_trace: 1,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new trace id (a workload run or one submitted batch);
    /// spans opened from now on carry it.
    pub fn new_trace(&mut self) {
        self.trace = self.next_trace;
        self.next_trace += 1;
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.stack.push(self.spans.len());
        self.spans.push(Span { id, parent, trace: self.trace, name, start_ns, end_ns: start_ns });
    }

    /// Close the innermost open span, returning its duration in seconds.
    pub fn end(&mut self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let end_ns = self.now_ns();
        let i = self.stack.pop().expect("end() without a matching begin()");
        self.spans[i].end_ns = end_ns;
        (end_ns - self.spans[i].start_ns) as f64 * 1e-9
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Count, total and self time per span name, ordered by name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Aggregate> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += total;
            a.self_ns += total.saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// Raw spans, one JSON object per line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Per-name aggregates as tab-separated lines sorted by name: the
    /// form meant for diffing two runs.
    pub fn summary_tsv(&self) -> String {
        let mut out = String::from("span\tcount\ttotal_us\tself_us\n");
        for (name, a) in self.aggregate() {
            let _ = writeln!(
                out,
                "{name}\t{}\t{:.1}\t{:.1}",
                a.count,
                a.total_ns as f64 / 1e3,
                a.self_ns as f64 / 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new(true);
        t.new_trace();
        t.begin("outer");
        t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end();
        t.end();
        let agg = t.aggregate();
        let outer = agg["outer"];
        let inner = agg["inner"];
        assert_eq!(outer.total_ns - outer.self_ns, inner.total_ns);
        assert!(inner.self_ns == inner.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("x");
        assert_eq!(t.end(), 0.0);
        assert!(t.aggregate().is_empty());
    }
}
