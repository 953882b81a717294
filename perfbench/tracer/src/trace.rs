//! Spans around the replay's calls into each layer.
//!
//! Every span records its layer, the `(session, chunk)` it served, its
//! parent span and its start and duration on one monotonic clock. Spans
//! are kept in memory and written out once the replay ends. A layer's
//! self time is the duration of its spans minus the part covered by child
//! spans; allocation counts are attributed the same way, so summing any
//! per-layer figure over all layers never counts a nested call twice.

use crate::alloc;
use std::io::{self, Write};
use std::time::Instant;

/// The layers the benchmark attributes cost to. The names are the
/// per-layer metric prefixes in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    WorkloadGenerate,
    CdnWarm,
    CoreRuntimeBuild,
    SimQueue,
    CdnServe,
    NetTransfer,
    ClientAbr,
    ClientStack,
    ClientPlayer,
    ClientRender,
    TelemetryAppend,
    TelemetrySeal,
    TelemetryJoin,
    Analysis,
    TelemetryExport,
    CorePlot,
    SupervisorAtomicWrite,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 17] = [
        Layer::WorkloadGenerate,
        Layer::CdnWarm,
        Layer::CoreRuntimeBuild,
        Layer::SimQueue,
        Layer::CdnServe,
        Layer::NetTransfer,
        Layer::ClientAbr,
        Layer::ClientStack,
        Layer::ClientPlayer,
        Layer::ClientRender,
        Layer::TelemetryAppend,
        Layer::TelemetrySeal,
        Layer::TelemetryJoin,
        Layer::Analysis,
        Layer::TelemetryExport,
        Layer::CorePlot,
        Layer::SupervisorAtomicWrite,
    ];

    /// The metric prefix, e.g. `cdn.serve`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::WorkloadGenerate => "workload.generate",
            Layer::CdnWarm => "cdn.warm",
            Layer::CoreRuntimeBuild => "core.runtime_build",
            Layer::SimQueue => "sim.queue",
            Layer::CdnServe => "cdn.serve",
            Layer::NetTransfer => "net.transfer",
            Layer::ClientAbr => "client.abr",
            Layer::ClientStack => "client.stack",
            Layer::ClientPlayer => "client.player",
            Layer::ClientRender => "client.render",
            Layer::TelemetryAppend => "telemetry.append",
            Layer::TelemetrySeal => "telemetry.seal",
            Layer::TelemetryJoin => "telemetry.join",
            Layer::Analysis => "analysis",
            Layer::TelemetryExport => "telemetry.export",
            Layer::CorePlot => "core.plot",
            Layer::SupervisorAtomicWrite => "supervisor.atomic_write",
        }
    }
}

/// Id for a span that serves no particular session or chunk.
pub const NO_ID: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// 1-based index of the enclosing span; 0 for a root span.
    pub parent: u32,
    pub session: u32,
    pub chunk: u32,
    pub layer: Layer,
}

/// Per-layer sums over closed spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub self_ns: u64,
    pub calls: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

struct Open {
    index: usize,
    start_ns: u64,
    allocs: u64,
    bytes: u64,
    child_ns: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    totals: [LayerTotals; Layer::ALL.len()],
    root_ns: u64,
}

impl Tracer {
    /// A recorder with room for `spans` spans before its storage grows.
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            stack: Vec::with_capacity(16),
            totals: [LayerTotals::default(); Layer::ALL.len()],
            root_ns: 0,
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it nests inside the innermost open span.
    pub fn open(&mut self, layer: Layer, session: u32, chunk: u32) {
        if self.spans.len() == self.spans.capacity() {
            let more = self.spans.len().max(1 << 16);
            alloc::uncounted(|| self.spans.reserve(more));
        }
        let parent = self.stack.last().map_or(0, |o| o.index as u32 + 1);
        let index = self.spans.len();
        self.spans.push(Span {
            start_ns: 0,
            dur_ns: 0,
            parent,
            session,
            chunk,
            layer,
        });
        let (allocs, bytes) = alloc::snapshot();
        let start_ns = self.now_ns();
        self.spans[index].start_ns = start_ns;
        self.stack.push(Open {
            index,
            start_ns,
            allocs,
            bytes,
            child_ns: 0,
            child_allocs: 0,
            child_bytes: 0,
        });
    }

    /// Set the `(session, chunk)` id of the innermost open span, for a
    /// call that learns whom it served only as it returns.
    pub fn set_id(&mut self, session: u32, chunk: u32) {
        let index = self.stack.last().expect("an open span").index;
        self.spans[index].session = session;
        self.spans[index].chunk = chunk;
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        self.close_inner(None);
    }

    /// Close the innermost open span, charging it to `layer` instead of
    /// the layer it was opened with (a sink append that sealed a segment
    /// is a seal).
    pub fn close_as(&mut self, layer: Layer) {
        self.close_inner(Some(layer));
    }

    fn close_inner(&mut self, relabel: Option<Layer>) {
        let end_ns = self.now_ns();
        let (allocs, bytes) = alloc::snapshot();
        let open = self.stack.pop().expect("close() matches an open()");
        let dur = end_ns - open.start_ns;
        let inclusive_allocs = allocs - open.allocs;
        let inclusive_bytes = bytes - open.bytes;
        let span = &mut self.spans[open.index];
        span.dur_ns = dur;
        if let Some(layer) = relabel {
            span.layer = layer;
        }
        let t = &mut self.totals[span.layer as usize];
        t.self_ns += dur - open.child_ns;
        t.calls += 1;
        t.allocs += inclusive_allocs - open.child_allocs;
        t.alloc_bytes += inclusive_bytes - open.child_bytes;
        match self.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += dur;
                parent.child_allocs += inclusive_allocs;
                parent.child_bytes += inclusive_bytes;
            }
            None => self.root_ns += dur,
        }
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, layer: Layer, session: u32, chunk: u32, f: impl FnOnce() -> R) -> R {
        self.open(layer, session, chunk);
        let r = f();
        self.close();
        r
    }

    /// Sums for `layer`.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }

    /// Total duration of root spans: the time some layer was running.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Every span recorded, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// True when every opened span has been closed.
    pub fn is_balanced(&self) -> bool {
        self.stack.is_empty()
    }

    /// Write the spans as tab-separated text: a header line, then one line
    /// per span with its 1-based id.
    pub fn write_spans(&self, mut w: impl Write) -> io::Result<()> {
        fn id(w: &mut impl Write, v: u32) -> io::Result<()> {
            if v == NO_ID {
                w.write_all(b"-\t")
            } else {
                write!(w, "{v}\t")
            }
        }
        writeln!(w, "id\tparent\tlayer\tsession\tchunk\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            write!(w, "{}\t{}\t{}\t", i + 1, s.parent, s.layer.name())?;
            id(&mut w, s.session)?;
            id(&mut w, s.chunk)?;
            writeln!(w, "{}\t{}", s.start_ns, s.dur_ns)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_root_time() {
        let mut t = Tracer::with_capacity(4);
        t.open(Layer::SupervisorAtomicWrite, NO_ID, NO_ID);
        t.span(Layer::TelemetryExport, 1, 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        t.span(Layer::CdnServe, 3, 0, || ());
        assert!(t.is_balanced());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[2].parent, 0);
        let export = t.totals(Layer::TelemetryExport);
        let write = t.totals(Layer::SupervisorAtomicWrite);
        assert_eq!(export.self_ns, spans[1].dur_ns);
        assert_eq!(write.self_ns, spans[0].dur_ns - spans[1].dur_ns);
        let sum: u64 = Layer::ALL.iter().map(|&l| t.totals(l).self_ns).sum();
        assert_eq!(sum, t.root_ns());
        assert_eq!(t.root_ns(), spans[0].dur_ns + spans[2].dur_ns);
    }

    #[test]
    fn close_as_relabels_the_span() {
        let mut t = Tracer::with_capacity(1);
        t.open(Layer::TelemetryAppend, 0, 0);
        t.close_as(Layer::TelemetrySeal);
        assert_eq!(t.totals(Layer::TelemetrySeal).calls, 1);
        assert_eq!(t.totals(Layer::TelemetryAppend).calls, 0);
        assert_eq!(t.spans()[0].layer, Layer::TelemetrySeal);
    }

    #[test]
    fn storage_grows_past_its_capacity() {
        let mut t = Tracer::with_capacity(1);
        for i in 0..10 {
            t.span(Layer::SimQueue, i, NO_ID, || ());
        }
        assert_eq!(t.totals(Layer::SimQueue).calls, 10);
        let mut out = Vec::new();
        t.write_spans(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 11);
    }
}
