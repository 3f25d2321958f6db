//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (never inside the program). Each span has a name, a start, an end, the
//! span that caused it, and the request it belongs to. Per-name totals
//! (calls, inclusive time, time covered by child spans) are kept for every
//! span; the span records themselves are kept up to [`SPAN_CAP`] and written
//! out when the run ends. A layer's self time is its inclusive time minus
//! its children's.
//!
//! With tracing off, [`Tracer::enter`]/[`Tracer::exit`] are a branch and
//! nothing else, so the untraced run pays nothing measurable.

use crate::util::json_str;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Span records kept for the trace file; totals keep counting past it.
pub const SPAN_CAP: usize = 200_000;

/// One recorded span. Times are ns since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span brackets.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index + 1 of the causing span in the record list (0: top level or
    /// dropped past the cap).
    pub parent: u32,
    /// Request (or fs operation) the span belongs to.
    pub req: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Inclusive time, ns.
    pub total_ns: u64,
    /// Time covered by direct children, ns.
    pub child_ns: u64,
}

impl Totals {
    /// Inclusive minus children, ns.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    record: u32,
}

/// The recorder. Shared (`Rc<RefCell<_>>`) between the workload loop and
/// the block-device shims inside the filesystem stack.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: Vec<(&'static str, Totals)>,
    req: u64,
}

/// Shared handle.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            totals: Vec::new(),
            req: 0,
        }
    }

    /// A shared recorder.
    pub fn shared(enabled: bool) -> SharedTracer {
        Rc::new(RefCell::new(Tracer::new(enabled)))
    }

    /// Starts attributing spans to a new request id.
    pub fn next_request(&mut self) {
        self.req += 1;
    }

    /// Opens a span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = Instant::now();
        let record = if self.spans.len() < SPAN_CAP {
            let parent = self.stack.last().map_or(0, |o| o.record);
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent,
                req: self.req,
            });
            self.spans.len() as u32
        } else {
            0
        };
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            record,
        });
    }

    /// Closes the innermost span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without enter");
        let ns = end.duration_since(open.start).as_nanos() as u64;
        if open.record > 0 {
            self.spans[open.record as usize - 1].end_ns =
                end.duration_since(self.epoch).as_nanos() as u64;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
        let totals = match self.totals.iter_mut().find(|(n, _)| *n == open.name) {
            Some((_, t)) => t,
            None => {
                self.totals.push((open.name, Totals::default()));
                &mut self.totals.last_mut().expect("just pushed").1
            }
        };
        totals.calls += 1;
        totals.total_ns += ns;
        totals.child_ns += open.child_ns;
    }

    /// Totals for `name` (zeroes when never recorded).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Recorded span count (capped at [`SPAN_CAP`]).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The span records as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 72 + 64);
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                i + 1,
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            ));
        }
        out.push_str("]}");
        out
    }
}
