//! In-memory spans around calls into the auditor's layers, and the
//! self-time ledger derived from them.
//!
//! A span is one timed call (or one chunk of calls) into a layer's public
//! function: its name, start, end, the span that was open when it began,
//! and how many operations it handled. Spans are recorded on one thread
//! only — the thread that drives the layers — so nesting is exact: a
//! verifier call made inside `OnlineVerifier::push` is a child of that
//! push span. Nothing is written until the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer function, e.g. `core.stream.pipeline.push`; roots are phases.
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began; equal to `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a phase root.
    pub parent: Option<usize>,
    /// Operations the call handled (0 when it is not per-operation work).
    pub ops: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one traced run.
pub struct Trace {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'t> {
    trace: &'t Trace,
    index: usize,
    ops: Cell<u64>,
}

impl Guard<'_> {
    /// Sets the operation count of a span whose size is known only at
    /// its end (a decode chunk that hit end of input).
    pub fn set_ops(&self, ops: u64) {
        self.ops.set(ops);
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.trace.now();
        let mut spans = self.trace.spans.borrow_mut();
        spans[self.index].end_ns = end;
        spans[self.index].ops = self.ops.get();
        let closed = self.trace.open.borrow_mut().pop();
        debug_assert_eq!(closed, Some(self.index), "spans close innermost first");
    }
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(1 << 16)),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in whichever span is open now.
    pub fn span(&self, name: &'static str, ops: u64) -> Guard<'_> {
        let parent = self.open.borrow().last().copied();
        let start = self.now();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            ops,
        });
        self.open.borrow_mut().push(index);
        Guard {
            trace: self,
            index,
            ops: Cell::new(ops),
        }
    }

    /// The recorded spans; every span must be closed.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "a span was left open");
        self.spans.into_inner()
    }
}

/// Aggregate of the spans sharing a phase and a name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    pub ops: u64,
}

impl Tally {
    pub fn self_ns_per_op(&self) -> f64 {
        self.self_ns as f64 / self.ops.max(1) as f64
    }

    pub fn mean_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6 / self.calls.max(1) as f64
    }
}

/// Self time per (phase, span name), plus the phase totals.
#[derive(Debug, Default)]
pub struct Ledger {
    tallies: BTreeMap<(&'static str, &'static str), Tally>,
    /// Summed duration of the phase roots: the traced wall time.
    pub phases_ns: u64,
    /// The part of it no layer span covers.
    pub unattributed_ns: u64,
}

impl Ledger {
    pub fn from_spans(spans: &[Span]) -> Ledger {
        let mut child_ns = vec![0u64; spans.len()];
        let mut phase = Vec::with_capacity(spans.len());
        for (i, span) in spans.iter().enumerate() {
            // Parents are recorded before their children.
            match span.parent {
                Some(p) => {
                    child_ns[p] += span.duration_ns();
                    let root = phase[p];
                    phase.push(root);
                }
                None => phase.push(i),
            }
        }
        let mut ledger = Ledger::default();
        for (i, span) in spans.iter().enumerate() {
            let self_ns = span.duration_ns().saturating_sub(child_ns[i]);
            if span.parent.is_none() {
                ledger.phases_ns += span.duration_ns();
                ledger.unattributed_ns += self_ns;
                continue;
            }
            let tally = ledger
                .tallies
                .entry((spans[phase[i]].name, span.name))
                .or_default();
            tally.calls += 1;
            tally.total_ns += span.duration_ns();
            tally.self_ns += self_ns;
            tally.ops += span.ops;
        }
        ledger
    }

    /// The tally of `name` from the first of `phases` that recorded it.
    pub fn first(&self, phases: &[&'static str], name: &'static str) -> Tally {
        phases
            .iter()
            .find_map(|phase| self.tallies.get(&(*phase, name)).copied())
            .unwrap_or_default()
    }

    pub fn unattributed_frac(&self) -> f64 {
        self.unattributed_ns as f64 / self.phases_ns.max(1) as f64
    }
}

/// Writes spans as JSON lines: name, start, end, parent, ops.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"ops\":{}}}",
            span.name, span.start_ns, span.end_ns, parent, span.ops
        )?;
    }
    out.flush()
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
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("phase.a", 0, 100, None),
            span("outer", 10, 60, Some(0)),
            span("inner", 20, 40, Some(1)),
            span("outer", 70, 90, Some(0)),
        ];
        let ledger = Ledger::from_spans(&spans);
        let outer = ledger.first(&["phase.a"], "outer");
        assert_eq!((outer.calls, outer.total_ns, outer.self_ns), (2, 70, 50));
        assert_eq!(ledger.first(&["phase.a"], "inner").self_ns, 20);
        assert_eq!((ledger.phases_ns, ledger.unattributed_ns), (100, 30));
    }

    #[test]
    fn first_prefers_earlier_phases() {
        let spans = vec![
            span("phase.a", 0, 10, None),
            span("x", 0, 4, Some(0)),
            span("phase.b", 10, 20, None),
            span("x", 10, 19, Some(2)),
        ];
        let ledger = Ledger::from_spans(&spans);
        assert_eq!(ledger.first(&["phase.b", "phase.a"], "x").total_ns, 9);
        assert_eq!(ledger.first(&["phase.c"], "x").calls, 0);
    }

    #[test]
    fn guards_nest() {
        let trace = Trace::new();
        {
            let _phase = trace.span("phase.a", 0);
            let chunk = trace.span("decode", 0);
            chunk.set_ops(7);
        }
        let spans = trace.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].ops, 7);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
