//! In-memory spans recorded around the calls into each layer.
//!
//! A span carries a name, start, end, and parent; the spans of one batch
//! share its id (stream id + session ticket, the pair a `JournalEntry`
//! also carries). Spans stay in memory while the workload runs and are
//! written out as JSON lines when it ends. A disabled tracer reads no
//! clock and stores nothing, so untraced runs pay only a branch.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (> 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `core.ingest_all`.
    pub name: &'static str,
    /// Stream id of the batch the span belongs to.
    pub stream: u64,
    /// Session ticket of the batch (0 when not per-batch).
    pub ticket: u64,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Work units the call covered (tuples, records, bytes — per name).
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where a span sits: its parent and the batch it belongs to.
#[derive(Debug, Clone, Copy, Default)]
pub struct At {
    /// Enclosing span id (0 = root).
    pub parent: u64,
    /// Stream id.
    pub stream: u64,
    /// Session ticket.
    pub ticket: u64,
}

impl At {
    /// A root span of one stream's batch.
    pub fn batch(stream: u64, ticket: u64) -> At {
        At { parent: 0, stream, ticket }
    }

    /// A child of span `parent`.
    pub fn child(parent: u64) -> At {
        At { parent, ..At::default() }
    }
}

/// Span recorder shared by the generator thread and the shard workers.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        at: At,
        start: Instant,
        end: Instant,
        work: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, at, start, end, work);
        id
    }

    fn push(&self, id: u64, name: &'static str, at: At, start: Instant, end: Instant, work: u64) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent: at.parent,
            name,
            stream: at.stream,
            ticket: at.ticket,
            start_ns: ns(start),
            end_ns: ns(end),
            work,
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Times `f` as span `name` (just calls it when disabled).
    pub fn time<T>(&self, name: &'static str, at: At, work: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, at, start, Instant::now(), work);
        out
    }

    /// Reserves a span id up front, for a parent whose children are
    /// recorded before it closes (see [`Tracer::close`]).
    pub fn open(&self) -> (u64, Instant) {
        let id = if self.enabled { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        (id, Instant::now())
    }

    /// Records the span reserved by [`Tracer::open`].
    pub fn close(&self, opened: (u64, Instant), name: &'static str, at: At, work: u64) {
        if !self.enabled {
            return;
        }
        let (id, start) = opened;
        self.push(id, name, at, start, Instant::now(), work);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Spans named `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .copied()
            .collect()
    }

    /// Writes every span as one JSON object per line, each with its
    /// self time (duration minus the part its children cover).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut children: HashMap<u64, Vec<Span>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push(*s);
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"stream\":{},\"ticket\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"work\":{}}}",
                s.id,
                s.parent,
                s.name,
                s.stream,
                s.ticket,
                s.start_ns,
                s.end_ns,
                self_ns(s, children.get(&s.id).map_or(&[][..], Vec::as_slice)),
                s.work
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the union of its
/// `children`'s intervals (clipped to the span).
pub fn self_ns(span: &Span, children: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for (a, b) in kids {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    span.ns().saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "x",
            stream: 0,
            ticket: 0,
            start_ns,
            end_ns,
            work: 0,
        };
        let kids = [span(2, 1, 10, 40), span(3, 1, 30, 60), span(4, 1, 90, 120)];
        // Children cover [10, 60) and [90, 100): 60 ns of 100.
        assert_eq!(self_ns(&span(1, 0, 0, 100), &kids), 40);
        assert_eq!(self_ns(&kids[0], &[]), 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.time("a", At::default(), 1, || 7), 7);
        let now = Instant::now();
        assert_eq!(t.record("b", At::default(), now, now + Duration::from_millis(1), 1), 0);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        on.time("a", At::batch(3, 9), 16, || ());
        let spans = on.named("a");
        assert_eq!((spans.len(), spans[0].stream, spans[0].ticket, spans[0].work), (1, 3, 9, 16));
    }
}
