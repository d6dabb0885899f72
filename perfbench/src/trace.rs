//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer of the library: layer name, start, end, parent span and
//! operation id. Spans stay in memory until the run ends and are then
//! written out as CSV. Per-layer self time is a span's duration minus
//! the part of it its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// Every layer the benchmark attributes time to, `<crate>.<module>`.
pub const LAYERS: [&str; 12] =
    [PMU, BUCK, SYNTH, INTERFERENCE, AWGN, FRONTEND, PUSH, FINISH, FRAME, ALIGN, SESSION, DETECT];
pub const PMU: &str = "pmu.sim";
pub const BUCK: &str = "vrm.buck";
pub const SYNTH: &str = "emfield.synth";
pub const INTERFERENCE: &str = "emfield.interference";
pub const AWGN: &str = "emfield.awgn";
pub const FRONTEND: &str = "sdr.frontend";
pub const PUSH: &str = "covert.rx.push";
pub const FINISH: &str = "covert.rx.finish";
pub const FRAME: &str = "covert.frame";
pub const ALIGN: &str = "covert.metrics.align";
pub const SESSION: &str = "core.session";
pub const DETECT: &str = "keylog.detect";

/// The root span of one operation; its self time is unattributed.
const OP: &str = "op";
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u32,
}

/// Work counts of one pass over a workload's deck, keyed
/// `<layer>.<count>`; a bare layer name keys that layer's calls. Passes
/// run the same inputs, so every count must repeat exactly.
pub type Counts = BTreeMap<&'static str, u64>;

/// Records spans and per-pass counts. Allocation counts around
/// [`Tracer::push_chunk`] are kept apart from [`Counts`]: the first
/// pass warms thread-local caches, so they are not expected to repeat.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    parent: u32,
    op: u32,
    counts: Counts,
    push_allocs: u64,
    push_chunks: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            parent: NO_PARENT,
            op: 0,
            counts: Counts::new(),
            push_allocs: 0,
            push_chunks: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `op`; layer spans recorded until
    /// [`Tracer::end_op`] become its children.
    pub fn begin_op(&mut self, op: u32) {
        let start_ns = self.now_ns();
        self.op = op;
        self.parent = self.spans.len() as u32;
        self.spans.push(Span { layer: OP, start_ns, end_ns: start_ns, parent: NO_PARENT, op });
    }

    pub fn end_op(&mut self) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(self.parent as usize) {
            span.end_ns = end_ns;
        }
        self.parent = NO_PARENT;
    }

    /// Runs `f` inside a span of `layer` and counts the call.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { layer, start_ns, end_ns, parent: self.parent, op: self.op });
        self.count(layer, 1);
        out
    }

    /// Adds `n` to the per-pass count `key`.
    pub fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_default() += n;
    }

    /// Runs one `StreamingReceiver::push`-style call inside a
    /// `covert.rx.push` span, counting the heap allocations it makes.
    pub fn push_chunk<R>(&mut self, samples: usize, f: impl FnOnce() -> R) -> R {
        let before = alloc::allocations();
        let out = self.time(PUSH, f);
        self.push_allocs += alloc::allocations() - before;
        self.push_chunks += 1;
        self.count("covert.rx.push.samples", samples as u64);
        out
    }

    /// Counts heap allocations of a push made outside any span (the
    /// receive path a registry drives internally, replayed directly).
    pub fn count_push_allocs<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = alloc::allocations();
        let out = f();
        self.push_allocs += alloc::allocations() - before;
        self.push_chunks += 1;
        out
    }

    /// Ends a pass: returns its counts and starts the next from zero.
    pub fn take_pass_counts(&mut self) -> Counts {
        std::mem::take(&mut self.counts)
    }

    pub fn allocs_per_chunk(&self) -> f64 {
        if self.push_chunks == 0 {
            0.0
        } else {
            self.push_allocs as f64 / self.push_chunks as f64
        }
    }

    /// Self time per layer, seconds, over every recorded span.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.layer).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as CSV: `op,span,parent,layer,start_ns,end_ns`
    /// (`parent` is empty for an operation's root span).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "op,span,parent,layer,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { String::new() } else { s.parent.to_string() };
            writeln!(out, "{},{},{},{},{},{}", s.op, i, parent, s.layer, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Runs `f` in a span when a tracer is given, bare otherwise — so the
/// traced and untraced runs share one code path.
pub fn span<R>(tr: &mut Option<&mut Tracer>, layer: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.time(layer, f),
        None => f(),
    }
}

/// Adds to a per-pass count when tracing.
pub fn count(tr: &mut Option<&mut Tracer>, key: &'static str, n: u64) {
    if let Some(t) = tr {
        t.count(key, n);
    }
}
