//! In-memory spans recorded by the benchmark around its calls into each
//! layer (traced runs only). Spans are kept per thread, merged at the end,
//! reduced to per-layer self times and written out as JSON lines. Each
//! thread keeps the first [`KEEP_PER_NAME`] spans of every name, which
//! bounds memory and the trace file whatever the operation rate.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is an index into the same tracer's spans.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call this span covers.
    pub name: &'static str,
    /// Start, nanoseconds after the tracer epoch.
    pub start: u64,
    /// End, nanoseconds after the tracer epoch.
    pub end: u64,
    /// The span that caused this one, if any.
    pub parent: Option<usize>,
    /// Request (or timing block) the span belongs to.
    pub request: u64,
}

/// Spans of one name a tracer keeps; later ones are not recorded.
pub const KEEP_PER_NAME: usize = 5_000;

/// A span recorder. Disabled tracers record nothing and cost one branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    kept: Vec<(&'static str, usize)>,
}

impl Tracer {
    /// A tracer whose times count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// A tracer of the same kind and epoch for another thread.
    pub fn fork(&self) -> Self {
        Self::new(self.epoch, self.enabled)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a finished root span; returns its index (for children), or
    /// `None` when tracing is off or the name's quota is used up.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        self.push(name, None, request, start, end)
    }

    /// Record a finished child of `parent` (nothing when the parent was not
    /// recorded).
    pub fn child(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if parent.is_some() {
            self.push(name, parent, request, start, end);
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let slot = match self.kept.iter().position(|(n, _)| *n == name) {
            Some(slot) => slot,
            None => {
                self.kept.push((name, 0));
                self.kept.len() - 1
            }
        };
        if self.kept[slot].1 == KEEP_PER_NAME {
            return None;
        }
        self.kept[slot].1 += 1;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: ns(start),
            end: ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Per span name: count, total duration and total self time (duration
    /// minus the part covered by its children), all in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end - span.start;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(children);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                span.name, span.start, span.end, span.request
            )?;
        }
        out.flush()
    }
}
