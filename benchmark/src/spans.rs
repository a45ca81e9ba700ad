//! The benchmark's own spans: one per façade call, recorded from the
//! benchmark's files (spans inside the program are a later issue).
//!
//! Spans form the tree workload → round → op → call. They are kept in
//! memory and written as JSON lines when the run ends. A span's self time
//! is its duration minus the part of that interval its children cover;
//! children may overlap (two load-generator connections under one round).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.function`, or the workload / `round` / `op` framing spans.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one op (0 outside any op).
    pub op: u64,
}

/// Records spans while `on`; a disabled tracer runs the closures and
/// records nothing, so untraced rounds pay one branch per call.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer that records nothing until [`set_on`](Self::set_on).
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            next_op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds since the epoch, for spans recorded on other threads.
    pub fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Like [`call`](Self::call) for the span that frames one op: every
    /// span opened inside shares a fresh op identifier.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        self.next_op += 1;
        self.op = self.next_op;
        let out = self.call("op", f);
        self.op = 0;
        out
    }

    /// Adds a finished op measured on another thread (a load-generator
    /// connection) as an `op` span with one `name` child, both under the
    /// innermost open span.
    pub fn add_remote_op(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        self.next_op += 1;
        let parent = self.stack.last().copied();
        let op_id = self.spans.len();
        for (name, parent) in [("op", parent), (name, Some(op_id))] {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op: self.next_op,
            });
        }
    }

    /// Self time per span, in nanoseconds.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Per span name: (count, total ns, self ns), in name order.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self.self_times();
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

/// Self time of each span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span itself).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("round", 0, 100, None),
            span("op", 10, 60, Some(0)),
            span("call", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two connections under one round overlap on [30, 40].
        let spans = [
            span("round", 0, 100, None),
            span("conn0", 10, 40, Some(0)),
            span("conn1", 30, 70, Some(0)),
            span("late", 90, 130, Some(0)), // clipped to the parent
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_links_parents_and_ops_and_is_free_when_off() {
        let mut t = Tracer::new();
        assert_eq!(t.call("ignored", |_| 7), 7);
        assert!(t.spans().is_empty());
        t.set_on(true);
        t.call("round", |t| {
            t.op(|t| t.call("core.engine.query", |_| ()));
            t.op(|t| t.call("core.engine.query", |_| ()));
            let now = t.now_ns();
            t.add_remote_op("minihttp.client.get", now, now + 5);
        });
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            [
                "round",
                "op",
                "core.engine.query",
                "op",
                "core.engine.query",
                "op",
                "minihttp.client.get"
            ]
        );
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[1].op, s[2].op, s[3].op, s[4].op), (1, 1, 2, 2));
        assert_eq!((s[5].parent, s[6].parent, s[6].op), (Some(0), Some(5), 3));
        assert_eq!(s[0].op, 0);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.summary()["core.engine.query"].0, 2);
    }
}
