//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Every thread records into its own [`SpanLog`] (no shared lock on the
//! request path). A disabled log records nothing, so the untraced run pays
//! one branch per call. Logs are merged when the run ends, self times are
//! derived from the parent links, and the spans are written out as TSV.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Request (or job) the call served.
    pub request: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` inside a disabled log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// "No parent": the handle to pass for a top-level span.
    pub fn root() -> SpanId {
        SpanId(None)
    }
}

/// A per-thread span recorder sharing the run's epoch.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log timing against `epoch`; records only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> SpanLog {
        SpanLog {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether this log records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty log with the same clock and switch, for another thread.
    pub fn fork(&self) -> SpanLog {
        SpanLog::new(self.enabled, self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.0,
            request,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close a span opened by [`SpanLog::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Add a span measured elsewhere (e.g. by a child process), in this
    /// log's clock.
    pub fn push(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Append another log's spans, re-indexing their parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans, with their self times, as TSV.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "index\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns"
        )?;
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{self_ns}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut current: Option<(u64, u64)> = None;
            for &(start, end) in kids.iter() {
                current = match current {
                    Some((cs, ce)) if start <= ce => Some((cs, ce.max(end))),
                    Some((cs, ce)) => {
                        covered += ce - cs;
                        Some((start, end))
                    }
                    None => Some((start, end)),
                };
            }
            if let Some((cs, ce)) = current {
                covered += ce - cs;
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children cover [10, 50).
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            // A disjoint child covers [60, 70).
            span("c", 60, 70, Some(0)),
            // A grandchild counts against its parent only.
            span("c1", 62, 68, Some(3)),
            // A child running past its parent is clipped to the parent.
            span("late", 95, 120, Some(0)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 40 - 10 - 5);
        assert_eq!(own[1], 30);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 10 - 6);
        assert_eq!(own[4], 6);
        assert_eq!(own[5], 25);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now());
        let id = log.begin("x", SpanId(None), 1);
        log.end(id);
        assert_eq!(log.time("y", id, 2, || 7), 7);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn absorbed_logs_keep_their_parent_links() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(true, epoch);
        let root = a.begin("root", SpanId(None), 0);
        a.end(root);
        let mut b = SpanLog::new(true, epoch);
        let outer = b.begin("outer", SpanId(None), 1);
        b.time("inner", outer, 1, || ());
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].name, "inner");
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans().iter().filter(|s| s.name == "inner").count(), 1);
    }
}
