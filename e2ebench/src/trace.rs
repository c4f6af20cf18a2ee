//! In-memory span recorder for traced runs.
//!
//! Spans are taken in the benchmark's own code, around its calls into
//! each layer's public functions, so the library stays untouched. A span
//! has a name, a start and an end (nanoseconds since the trace began), a
//! parent, and the id of the op it belongs to. A layer visited once per
//! 64-pattern batch would cost more to record one span at a time than
//! the work it measures, so such visits are folded into one *busy* span
//! per parent: its interval is first start to last end, and `busy` is
//! the summed duration of the visits, which never overlap each other.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// For a folded span: total time of its visits, and their count.
    pub busy: Option<(u64, u64)>,
}

/// Sums the visits of one layer inside one parent span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Busy {
    first: Option<u64>,
    last: u64,
    total: u64,
    calls: u64,
}

impl Busy {
    /// Adds one visit `[start, end)`.
    pub fn add(&mut self, start: u64, end: u64) {
        self.first.get_or_insert(start);
        self.last = end;
        self.total += end - start;
        self.calls += 1;
    }
}

/// The span store of one traced run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            parent,
            op,
            name,
            start,
            end,
            busy: None,
        });
        self.spans.len() - 1
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn open(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        let now = self.now();
        self.record(op, parent, name, now, now)
    }

    /// Ends a span opened with [`Trace::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Records the folded visits of one layer (nothing if there were
    /// none).
    pub fn record_busy(&mut self, op: u64, parent: usize, name: &'static str, busy: &Busy) {
        if let Some(first) = busy.first {
            self.spans.push(Span {
                parent: Some(parent),
                op,
                name,
                start: first,
                end: busy.last,
                busy: Some((busy.total, busy.calls)),
            });
        }
    }

    /// Total self time per span name, in nanoseconds: a span's duration
    /// minus what its children cover, a folded span's visit total.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut folded: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                match s.busy {
                    Some((total, _)) => folded[p] += total,
                    None => intervals[p].push((s.start, s.end)),
                }
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = match s.busy {
                Some((total, _)) => total,
                None => self_time(s.start, s.end, &intervals[i]).saturating_sub(folded[i]),
            };
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Summed duration per span name (folded spans count their visits),
    /// in nanoseconds.
    pub fn durations(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let d = s.busy.map_or(s.end - s.start, |(total, _)| total);
            *out.entry(s.name).or_insert(0) += d;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let (busy, calls) = s.busy.unwrap_or((s.end - s.start, 1));
            writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"op":{},"name":"{}","start_ns":{},"end_ns":{},"busy_ns":{busy},"calls":{calls}}}"#,
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_folded_visits() {
        let mut t = Trace::new();
        let op = t.record(0, None, "op", 0, 100);
        t.record(0, Some(op), "a", 10, 40);
        // Overlaps the first child: 10..60 is covered once.
        t.record(0, Some(op), "a", 30, 60);
        let mut busy = Busy::default();
        busy.add(70, 75);
        busy.add(80, 90);
        t.record_busy(0, op, "b", &busy);
        let own = t.self_times();
        assert_eq!(own["op"], 100 - 50 - 15);
        assert_eq!(own["a"], 30 + 30);
        assert_eq!(own["b"], 15);
        assert_eq!(t.durations()["b"], 15);
    }
}
