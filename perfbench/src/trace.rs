//! In-memory spans, written out when the benchmark ends.
//!
//! A span is a timed call into a layer, recorded by the benchmark around
//! that call: its name, the op it served, the span that caused it (0
//! for an op's root span), and start/end in nanoseconds since the run's
//! epoch. All spans of one op share the op's id.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. Ids are unique across recorders that
/// were given distinct `lane`s.
pub struct Tracer {
    epoch: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u64) -> Tracer {
        Tracer { epoch, next: (lane << 40) + 1, spans: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next;
        self.next += 1;
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns });
        id
    }
}

/// Per span name: how many, total duration and self time (duration
/// minus the part covered by its children), in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name. Children of one parent are assumed not to
/// overlap each other (every recorder here is single-threaded).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes spans as tab-separated lines: `id parent op name start_ns
/// end_ns`, one per span, with a header.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(w, "{}\t{}\t{}\t{}\t{}\t{}", s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "edge.BatchAdd", 10, 40),
            span(3, 1, "cloud.Certify", 50, 70),
            span(4, 2, "wire.decode", 10, 15),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"], Totals { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(t["edge.BatchAdd"], Totals { count: 1, total_ns: 30, self_ns: 25 });
        assert_eq!(t["wire.decode"].self_ns, 5);
    }

    #[test]
    fn ids_are_unique_per_lane() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 1);
        let mut b = Tracer::new(epoch, 2);
        let ia = a.record("x", 1, 0, epoch, epoch);
        let ib = b.record("x", 1, 0, epoch, epoch);
        assert_ne!(ia, ib);
    }
}
