//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions, written out when the run ends.
//!
//! A span has a name, a start and end (ns since the tracer started), the
//! span that caused it, and the id of the request it belongs to. Names
//! are `layer.operation[.detail]`; the layer is the text before the
//! first dot (`query`, `batch`, `engine`, `citegraph`, `graphstore`, and
//! `bench` for the client's own request spans). A layer's self time is
//! its spans' durations minus the parts their child spans cover.
//!
//! A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` is the parent's [`SpanId`] (0 = root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.operation[.detail]`.
    pub name: &'static str,
    /// Start, ns since the tracer started.
    pub start_ns: u64,
    /// End, ns since the tracer started (0 while open).
    pub end_ns: u64,
    /// The causing span, or 0 for a root.
    pub parent: SpanId,
    /// The request the span belongs to.
    pub request: u64,
}

/// Handle of an open span (1-based index; 0 means "none").
pub type SpanId = usize;

/// The span recorder shared by the client threads.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `on`, and is a no-op otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(if on { 1 << 16 } else { 0 })),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns 0 (and reads no clock) when disabled.
    pub fn open(&self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        spans.len()
    }

    /// Closes a span opened by [`Self::open`]; returns its duration in
    /// ns (0 when disabled).
    pub fn close(&self, id: SpanId) -> u64 {
        if id == 0 {
            return 0;
        }
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer lock");
        let span = &mut spans[id - 1];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )?;
        }
        out.flush()
    }
}

/// The layer of a span name: the text before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer in ns: each closed span's duration minus the
/// union of its closed children's intervals (children of one span do
/// not overlap here: each client thread records its own spans).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.end_ns > 0 && s.parent > 0) {
        child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        if s.end_ns == 0 {
            continue;
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(*child);
        *out.entry(layer_of(s.name).to_string()).or_default() += own;
    }
    out
}

/// Durations (ns) of the closed spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.end_ns > 0 && s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}
