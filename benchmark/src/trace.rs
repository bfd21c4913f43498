//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around its
//! calls into each layer's public functions; nothing inside the library
//! is instrumented. A disabled tracer records nothing, which is how the
//! traced run measures its own overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. `count` is the number of work units (calls, items)
/// the span covers, so per-unit costs are taken at the same boundary as
/// the time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (index into the tracer's table).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    /// Switch recording on or off; only legal between spans.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Spans opened from now on belong to operation `op_id`.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
            count: 1,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        self.end_counted(open, 1);
    }

    /// Close a span that covered `count` work units.
    pub fn end_counted(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
        self.spans[id].count = count;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}, \"count\": {}}}",
                s.name, s.layer, s.start_ns, s.end_ns, parent, s.op_id, s.count
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once,
/// children clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
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
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Totals of all spans sharing a `(layer, name)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub spans: u64,
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

impl Total {
    /// Mean duration per work unit, in nanoseconds.
    pub fn ns_per_count(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.count as f64
        }
    }

    /// Mean duration per span, in nanoseconds.
    pub fn ns_per_span(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.spans as f64
        }
    }
}

/// Spans aggregated by `(layer, name)`.
pub struct Totals(BTreeMap<(&'static str, &'static str), Total>);

impl Totals {
    /// The total of one `(layer, name)`; all zero if no such span ran.
    pub fn get(&self, layer: &'static str, name: &'static str) -> Total {
        self.0.get(&(layer, name)).copied().unwrap_or_default()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&(&'static str, &'static str), &Total)> {
        self.0.iter()
    }
}

/// Aggregate spans by `(layer, name)`.
pub fn totals(spans: &[Span]) -> Totals {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<(&'static str, &'static str), Total> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry((s.layer, s.name)).or_default();
        t.spans += 1;
        t.count += s.count;
        t.dur_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    Totals(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer: "l",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..40 with grandchild 20..30; child 50..60.
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children 10..50 and 30..70 overlap (two client threads); a third
        // runs past the parent's end and is clipped to it.
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_counts_and_disables() {
        let mut t = Tracer::new();
        t.set_op(7);
        let a = t.begin("core", "outer");
        let b = t.begin("can", "inner");
        t.end_counted(b, 5);
        t.end(a);
        t.set_enabled(false);
        let c = t.begin("core", "ignored");
        t.end(c);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].count, 5);
        assert_eq!(t.spans()[0].op_id, 7);
        let tot = totals(t.spans());
        assert_eq!(tot.get("can", "inner").count, 5);
        assert_eq!(tot.get("core", "outer").spans, 1);
    }
}
