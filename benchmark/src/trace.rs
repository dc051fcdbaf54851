//! In-memory spans recorded by the benchmark's own code around its
//! calls into each layer, and the per-layer ledger computed from them.
//!
//! One span per layer call at window or chunk granularity: per-flow and
//! per-event calls are timed a chunk at a time and carry the number of
//! calls as `count`, so a layer's cost per unit is self time ÷ count
//! without a clock read per flow. Spans stay in memory and are written
//! out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call (or chunk of calls) into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and call, e.g. `fabric.next_batch`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The window the span belongs to (spans of one window share it).
    pub window: u32,
    /// Units of work the span covers (flows, events, frames; 1 for a
    /// whole-window call).
    pub count: u32,
}

/// Records spans in open/close order; nesting gives the parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    window: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
            window: 0,
        }
    }

    /// Sets the window id stamped on spans opened from now on.
    pub fn set_window(&mut self, window: u32) {
        self.window = window;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            window: self.window,
            count: 0,
        });
        // Read the clock last so the bookkeeping above is charged to
        // the parent, not to this span.
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32, count: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.count = count as u32;
    }

    /// Forgets every span recorded so far (none may be open).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "cannot clear under an open span");
        self.spans.clear();
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (sessions of one run trace
    /// separately), shifting their parent links and window ids.
    pub fn absorb(&mut self, other: Tracer, window_offset: u32) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s.window += window_offset;
            s
        }));
    }

    /// Writes the spans as tab-separated text, one per line.
    pub fn write_tsv<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\twindow\tcount")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.window, s.count
            )?;
        }
        out.flush()
    }
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, Default)]
pub struct LayerTotal {
    /// Spans of this name.
    pub spans: u64,
    /// Units of work they covered.
    pub count: u64,
    /// Self time: duration minus the part child spans cover (ns).
    pub self_ns: u64,
    /// Each span's full duration (ns), in record order.
    pub durations: Vec<u64>,
}

impl LayerTotal {
    /// Self time per unit of work (ns); 0 when the layer did no work.
    pub fn ns_per_unit(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Name of the root span of one window; layer spans nest under it.
pub const WINDOW: &str = "window";

/// Per-name totals of a span list.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    totals: BTreeMap<&'static str, LayerTotal>,
    covered_ns: u64,
}

impl Ledger {
    /// Computes self times and sums them by span name.
    pub fn from_spans(spans: &[Span]) -> Ledger {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        // Parents are recorded before their children, so one forward
        // pass knows whether a span sits under a window root.
        let mut in_window = vec![false; spans.len()];
        let mut covered_ns = 0u64;
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(child_ns[i]);
            let t = totals.entry(s.name).or_default();
            t.spans += 1;
            t.count += u64::from(s.count);
            t.self_ns += self_ns;
            t.durations.push(dur);
            if s.name == WINDOW {
                in_window[i] = true;
            } else if s.parent != NO_PARENT && in_window[s.parent as usize] {
                in_window[i] = true;
                covered_ns += self_ns;
            }
        }
        Ledger { totals, covered_ns }
    }

    /// The totals of `name` (all zero when no such span was recorded).
    pub fn get(&self, name: &str) -> &LayerTotal {
        static NONE: LayerTotal = LayerTotal {
            spans: 0,
            count: 0,
            self_ns: 0,
            durations: Vec::new(),
        };
        self.totals.get(name).unwrap_or(&NONE)
    }

    /// Self time of every layer span nested under a [`WINDOW`] root
    /// (ns): the part of the windows that the layer spans account for.
    pub fn covered_ns(&self) -> u64 {
        self.covered_ns
    }
}
