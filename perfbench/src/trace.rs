//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself is not instrumented).  Each span has a name, start,
//! end, parent and the id of the cell or request it belongs to.  Spans stay
//! in memory and are written once, at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: u64,
}

/// A span id returned by [`Tracer::enter`] and consumed by [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the time covered by direct children).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str, cell: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            cell,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let top = self.stack.pop().expect("exit without a matching enter");
        assert_eq!(top, id.0, "spans must close in reverse order of opening");
        self.spans[top].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, cell: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, cell);
        let value = f();
        self.exit(id);
        value
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Totals per span name over every closed span.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_s += duration as f64 * 1e-9;
            entry.self_s += duration.saturating_sub(children) as f64 * 1e-9;
        }
        totals
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns parent cell` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        assert!(self.stack.is_empty(), "every span must be closed");
        let mut text = String::from("id\tname\tstart_ns\tend_ns\tparent\tcell\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                span.name, span.start_ns, span.end_ns, span.cell
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut tracer = Tracer::new();
        tracer.span("outer", 0, || {});
        let outer = tracer.enter("outer", 1);
        tracer.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.exit(outer);
        let totals = tracer.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.count, 2);
        assert!(inner.self_s >= 0.002);
        assert!(outer.self_s < outer.total_s);
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-9);
    }
}
