//! The built-in subscriber: folds events into [`SimMetrics`], optionally
//! buffers a structured JSONL trace and sim-time [`SimSpan`]s, and runs
//! the per-session problem-localization pass online.

use crate::diagnose::{classify_abort, ChunkBreakdown, ProblemClass, SessionLens};
use crate::event::{
    AbrEmergency, CacheLookup, CacheTier, ChunkRendered, ChunkServed, CwndReset, FailReason,
    Failover, Meta, RequestFailed, ResetReason, Retransmit, RetryTimerFired, RtoTimeout,
    ServerRestarted, SessionAborted, SessionEnd, SessionStart, ShardMerge, ShardStalled, Stall,
    Subscriber,
};
use crate::metrics::SimMetrics;
use crate::span::{SimSpan, SpanKind};
use serde::{Map, Serialize, Value};
use std::collections::HashMap;

/// A per-shard metrics collector.
///
/// Each shard's event loop owns one recorder; after the run the
/// orchestrator merges them **in canonical shard order**. Counter and
/// histogram merges are commutative, so [`SimMetrics`] is byte-identical
/// at any thread count. Trace lines are concatenated in the same
/// canonical order — each shard's stream in its own time order — and the
/// shards are the same at every thread count, so the JSONL event trace is
/// byte-identical at any thread count too (see DESIGN.md §10).
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    metrics: SimMetrics,
    trace: Option<Vec<String>>,
    spans: Option<Vec<SimSpan>>,
    /// Localization state for in-flight sessions; drained as sessions
    /// end. Only per-key operations (never iteration), so hash order
    /// cannot leak into the deterministic counters.
    lens: HashMap<u64, SessionLens>,
}

impl MetricsRecorder {
    /// A recorder; with `trace` set, every event is also buffered as one
    /// JSONL line. Span collection is off ([`MetricsRecorder::with_options`]).
    pub fn new(trace: bool) -> Self {
        Self::with_options(trace, false)
    }

    /// A recorder with both optional buffers chosen: `trace` buffers the
    /// flat JSONL event log, `spans` buffers raw sim-time [`SimSpan`]s
    /// for `--trace-out`. Metrics and localization always run.
    pub fn with_options(trace: bool, spans: bool) -> Self {
        MetricsRecorder {
            metrics: SimMetrics::default(),
            trace: if trace { Some(Vec::new()) } else { None },
            spans: if spans { Some(Vec::new()) } else { None },
            lens: HashMap::new(),
        }
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Buffered trace lines (empty when tracing is off).
    pub fn trace_lines(&self) -> &[String] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Raw (not yet canonicalized) sim-time spans collected so far.
    pub fn sim_spans(&self) -> &[SimSpan] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Drain the buffered spans (raw shard order; run
    /// [`crate::span::canonicalize`] before export).
    pub fn take_spans(&mut self) -> Vec<SimSpan> {
        self.spans.take().unwrap_or_default()
    }

    /// Fold another recorder in: metrics merge additively, trace lines
    /// and spans append. Call in canonical shard order.
    pub fn absorb(&mut self, other: MetricsRecorder) {
        self.metrics.merge(&other.metrics);
        match (&mut self.trace, other.trace) {
            (Some(mine), Some(theirs)) => mine.extend(theirs),
            (None, Some(theirs)) => self.trace = Some(theirs),
            _ => {}
        }
        match (&mut self.spans, other.spans) {
            (Some(mine), Some(theirs)) => mine.extend(theirs),
            (None, Some(theirs)) => self.spans = Some(theirs),
            _ => {}
        }
        // A cancelled shard can leave in-flight sessions behind; carry
        // their lenses so nothing is silently dropped (completed shards
        // contribute an empty map).
        self.lens.extend(other.lens);
    }

    /// Decompose into metrics and trace lines.
    pub fn into_parts(self) -> (SimMetrics, Vec<String>) {
        (self.metrics, self.trace.unwrap_or_default())
    }

    /// Record engine-level throughput that arrives as plain numbers
    /// rather than events (queue pops).
    pub fn add_events_processed(&mut self, n: u64) {
        self.metrics.events_processed.add(n);
    }

    fn emit<E: Serialize>(&mut self, meta: &Meta, name: &str, event: &E) {
        if let Some(buf) = &mut self.trace {
            let mut line = Map::new();
            line.insert("at_ns".into(), meta.at.as_nanos().to_value());
            line.insert(
                "session".into(),
                match meta.session {
                    Some(s) => s.to_value(),
                    None => Value::Null,
                },
            );
            let mut body = Map::new();
            body.insert(name.into(), event.to_value());
            line.insert("event".into(), Value::Object(body));
            buf.push(Value::Object(line).to_json_string());
        }
    }
}

impl Subscriber for MetricsRecorder {
    fn on_session_start(&mut self, meta: &Meta, event: &SessionStart) {
        self.metrics.sessions_started.inc();
        if let Some(sid) = meta.session {
            let lens = self.lens.entry(sid).or_default();
            lens.start_ns = meta.at.as_nanos();
        }
        self.emit(meta, "SessionStart", event);
    }

    fn on_session_end(&mut self, meta: &Meta, event: &SessionEnd) {
        self.metrics.sessions_ended.inc();
        if let Some(sid) = meta.session {
            let lens = self.lens.remove(&sid).unwrap_or_default();
            match lens.diagnose() {
                ProblemClass::Server => self.metrics.loc_sessions_server.inc(),
                ProblemClass::Network => self.metrics.loc_sessions_network.inc(),
                ProblemClass::ClientStack => self.metrics.loc_sessions_stack.inc(),
                ProblemClass::Rendering => self.metrics.loc_sessions_rendering.inc(),
                ProblemClass::Healthy => self.metrics.loc_sessions_healthy.inc(),
            }
            if let Some(buf) = &mut self.spans {
                buf.push(SimSpan {
                    id: 0,
                    parent: None,
                    session: sid,
                    chunk: None,
                    kind: SpanKind::Session,
                    start_ns: lens.start_ns,
                    end_ns: meta.at.as_nanos().max(lens.start_ns),
                });
            }
        }
        self.emit(meta, "SessionEnd", event);
    }

    fn on_cache_lookup(&mut self, meta: &Meta, event: &CacheLookup) {
        if event.manifest {
            self.metrics.manifest_requests.inc();
            match event.tier {
                CacheTier::Ram => self.metrics.manifest_ram_hits.inc(),
                CacheTier::Disk => self.metrics.manifest_disk_hits.inc(),
                CacheTier::Miss => self.metrics.manifest_misses.inc(),
            }
        } else {
            match event.tier {
                CacheTier::Ram => self.metrics.chunk_ram_hits.inc(),
                CacheTier::Disk => self.metrics.chunk_disk_hits.inc(),
                CacheTier::Miss => self.metrics.chunk_misses.inc(),
            }
        }
        self.metrics.bytes_served.add(event.bytes);
        match event.tier {
            CacheTier::Ram => self.metrics.bytes_ram.add(event.bytes),
            CacheTier::Disk => self.metrics.bytes_disk.add(event.bytes),
            CacheTier::Miss => self.metrics.bytes_miss.add(event.bytes),
        }
        self.emit(meta, "CacheLookup", event);
    }

    fn on_retry_timer_fired(&mut self, meta: &Meta, event: &RetryTimerFired) {
        self.metrics.retry_timer_fires.inc();
        self.emit(meta, "RetryTimerFired", event);
    }

    fn on_retransmit(&mut self, meta: &Meta, event: &Retransmit) {
        self.metrics.retx_segments.add(u64::from(event.segments));
        self.emit(meta, "Retransmit", event);
    }

    fn on_rto_timeout(&mut self, meta: &Meta, event: &RtoTimeout) {
        self.metrics.rto_timeouts.inc();
        self.emit(meta, "RtoTimeout", event);
    }

    fn on_cwnd_reset(&mut self, meta: &Meta, event: &CwndReset) {
        match event.reason {
            ResetReason::Loss => self.metrics.cwnd_resets_loss.inc(),
            ResetReason::Idle => self.metrics.cwnd_resets_idle.inc(),
        }
        self.emit(meta, "CwndReset", event);
    }

    fn on_stall(&mut self, meta: &Meta, event: &Stall) {
        self.metrics.stall_events.add(u64::from(event.count));
        self.metrics.stall_sim_ns.add(event.duration.as_nanos());
        // Localize the stall to whichever component dominated the chunk
        // it was attributed to (the ChunkServed that just preceded it).
        if let Some(sid) = meta.session {
            let lens = self.lens.entry(sid).or_default();
            let class = lens.last.dominant();
            let count = u64::from(event.count);
            lens.rebuffers.add(class, count);
            match class {
                ProblemClass::Network => self.metrics.loc_rebuffers_network.add(count),
                ProblemClass::ClientStack => self.metrics.loc_rebuffers_stack.add(count),
                _ => self.metrics.loc_rebuffers_server.add(count),
            }
        }
        self.emit(meta, "Stall", event);
    }

    fn on_chunk_rendered(&mut self, meta: &Meta, event: &ChunkRendered) {
        self.metrics.frames_rendered.add(u64::from(event.frames));
        self.metrics.frames_dropped.add(u64::from(event.dropped));
        if let Some(sid) = meta.session {
            let lens = self.lens.entry(sid).or_default();
            lens.frames += u64::from(event.frames);
            lens.dropped += u64::from(event.dropped);
        }
        self.emit(meta, "ChunkRendered", event);
    }

    fn on_chunk_served(&mut self, meta: &Meta, event: &ChunkServed) {
        self.metrics.chunks_served.inc();
        self.metrics.segments_sent.add(u64::from(event.segments));
        self.metrics.serve_latency_ns.record(event.serve.as_nanos());
        self.metrics
            .first_byte_ns
            .record(event.first_byte.as_nanos());
        self.metrics.download_ns.record(event.download.as_nanos());
        if let Some(sid) = meta.session {
            let total = event.first_byte.as_nanos() + event.download.as_nanos();
            let lens = self.lens.entry(sid).or_default();
            let chunk = lens.chunks;
            lens.chunks += 1;
            lens.last =
                ChunkBreakdown::from_phases(total, event.serve.as_nanos(), event.stack.as_nanos());
            if let Some(buf) = &mut self.spans {
                let at = meta.at.as_nanos();
                let end = at + total;
                // Phase boundaries, clamped into the chunk interval so
                // the span tree always nests (modeling noise can land a
                // boundary a hair past the end).
                let serve_start = (at + event.serve_offset.as_nanos()).min(end);
                let serve_end = (serve_start + event.serve.as_nanos()).min(end);
                let net_end = (at + event.net_end.as_nanos()).clamp(serve_end, end);
                let mut push = |kind: SpanKind, start_ns: u64, end_ns: u64| {
                    buf.push(SimSpan {
                        id: 0,
                        parent: None,
                        session: sid,
                        chunk: Some(chunk),
                        kind,
                        start_ns,
                        end_ns,
                    });
                };
                push(SpanKind::Chunk, at, end);
                push(SpanKind::CacheLookup, serve_start, serve_end);
                push(SpanKind::NetTransfer, serve_end, net_end);
                push(SpanKind::Render, net_end, end);
            }
        }
        self.emit(meta, "ChunkServed", event);
    }

    fn on_server_restarted(&mut self, meta: &Meta, event: &ServerRestarted) {
        self.metrics.server_restarts.inc();
        self.emit(meta, "ServerRestarted", event);
    }

    fn on_request_failed(&mut self, meta: &Meta, event: &RequestFailed) {
        match event.reason {
            FailReason::Outage => self.metrics.outage_rejections.inc(),
            FailReason::Blackout => self.metrics.blackout_rejections.inc(),
        }
        self.metrics.request_retries.inc();
        self.metrics
            .retry_backoff_ns
            .record(event.retry_delay.as_nanos());
        self.emit(meta, "RequestFailed", event);
    }

    fn on_failover(&mut self, meta: &Meta, event: &Failover) {
        self.metrics.failovers.inc();
        self.emit(meta, "Failover", event);
    }

    fn on_abr_emergency(&mut self, meta: &Meta, event: &AbrEmergency) {
        self.metrics.abr_emergency_switches.inc();
        self.emit(meta, "AbrEmergency", event);
    }

    fn on_session_aborted(&mut self, meta: &Meta, event: &SessionAborted) {
        self.metrics.sessions_aborted.inc();
        let class = classify_abort(event.reason);
        match class {
            ProblemClass::Network => self.metrics.loc_aborts_network.inc(),
            _ => self.metrics.loc_aborts_server.inc(),
        }
        if let Some(sid) = meta.session {
            self.lens.entry(sid).or_default().abort = Some(class);
        }
        self.emit(meta, "SessionAborted", event);
    }

    fn on_shard_merge(&mut self, meta: &Meta, event: &ShardMerge) {
        // Shard merges are an engine-topology fact, not a simulation
        // fact: they appear in the trace and in RunProfile only, never in
        // SimMetrics.
        self.emit(meta, "ShardMerge", event);
    }

    fn on_shard_stalled(&mut self, meta: &Meta, event: &ShardStalled) {
        // Same reasoning as shard merges: a stall is a harness-topology
        // fact (wall-clock watchdog), so it must not perturb SimMetrics.
        // It surfaces in the trace here and as ShardError::Stalled in the
        // run output.
        self.emit(meta, "ShardStalled", event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlab_sim::{SimDuration, SimTime};

    fn meta() -> Meta {
        Meta::session(SimTime::from_millis(10), 3)
    }

    #[test]
    fn counters_accumulate_per_event() {
        let mut r = MetricsRecorder::new(false);
        r.on_cache_lookup(
            &meta(),
            &CacheLookup {
                tier: CacheTier::Ram,
                manifest: false,
                bytes: 100,
            },
        );
        r.on_cache_lookup(
            &meta(),
            &CacheLookup {
                tier: CacheTier::Miss,
                manifest: true,
                bytes: 50,
            },
        );
        r.on_retry_timer_fired(&meta(), &RetryTimerFired {});
        r.on_chunk_served(
            &meta(),
            &ChunkServed {
                bytes: 100,
                segments: 70,
                serve: SimDuration::from_millis(2),
                first_byte: SimDuration::from_millis(40),
                download: SimDuration::from_millis(300),
                serve_offset: SimDuration::from_millis(10),
                net_end: SimDuration::from_millis(330),
                stack: SimDuration::from_millis(5),
            },
        );
        let m = r.metrics();
        assert_eq!(m.segments_sent.get(), 70);
        assert_eq!(m.chunk_ram_hits.get(), 1);
        assert_eq!(m.manifest_misses.get(), 1);
        assert_eq!(m.manifest_requests.get(), 1);
        assert_eq!(m.bytes_served.get(), 150);
        assert_eq!(m.bytes_ram.get(), 100);
        assert_eq!(m.bytes_disk.get(), 0);
        assert_eq!(m.bytes_miss.get(), 50);
        assert_eq!(m.retry_timer_fires.get(), 1);
        assert_eq!(m.chunks_served.get(), 1);
        assert_eq!(m.serve_latency_ns.count(), 1);
        assert!(r.trace_lines().is_empty());
    }

    #[test]
    fn trace_lines_are_json_objects() {
        let mut r = MetricsRecorder::new(true);
        r.on_stall(
            &meta(),
            &Stall {
                count: 2,
                duration: SimDuration::from_millis(500),
            },
        );
        r.on_shard_merge(
            &Meta::fleet(SimTime::ZERO),
            &ShardMerge {
                shard_index: 7,
                pop_index: 4,
                sessions: 10,
                events: 99,
            },
        );
        let lines = r.trace_lines();
        assert_eq!(lines.len(), 2);
        for l in lines {
            let v = Value::parse_json(l).expect("valid json");
            assert!(v.get("at_ns").is_some());
            assert!(v.get("event").is_some());
        }
        assert!(lines[0].contains("Stall"));
        assert!(lines[1].contains("ShardMerge"));
        // Fleet-level event has a null session.
        assert!(lines[1].contains("\"session\":null"));
    }

    fn served(serve_ms: u64, stack_ms: u64, fb_ms: u64, dl_ms: u64) -> ChunkServed {
        ChunkServed {
            bytes: 1000,
            segments: 4,
            serve: SimDuration::from_millis(serve_ms),
            first_byte: SimDuration::from_millis(fb_ms),
            download: SimDuration::from_millis(dl_ms),
            serve_offset: SimDuration::from_millis(1),
            net_end: SimDuration::from_millis(fb_ms + dl_ms - stack_ms),
            stack: SimDuration::from_millis(stack_ms),
        }
    }

    #[test]
    fn stalls_are_localized_to_the_dominant_component() {
        let mut r = MetricsRecorder::new(false);
        let m9 = Meta::session(SimTime::from_millis(10), 9);
        r.on_session_start(&m9, &SessionStart { server: 0 });
        // Server-dominated chunk: serve 80 of 100 ms total.
        r.on_chunk_served(&m9, &served(80, 5, 90, 10));
        r.on_stall(
            &m9,
            &Stall {
                count: 2,
                duration: SimDuration::from_millis(100),
            },
        );
        r.on_session_end(&m9, &SessionEnd { chunks: 1 });
        assert_eq!(r.metrics().loc_rebuffers_server.get(), 2);
        assert_eq!(
            r.metrics().loc_rebuffers_total(),
            r.metrics().stall_events.get()
        );
        assert_eq!(r.metrics().loc_sessions_server.get(), 1);
        assert_eq!(
            r.metrics().loc_sessions_total(),
            r.metrics().sessions_ended.get()
        );
    }

    #[test]
    fn aborts_are_localized_by_their_terminal_failure() {
        let mut r = MetricsRecorder::new(false);
        let m4 = Meta::session(SimTime::from_millis(3), 4);
        r.on_session_start(&m4, &SessionStart { server: 1 });
        r.on_session_aborted(
            &m4,
            &SessionAborted {
                attempts: 5,
                reason: FailReason::Blackout,
            },
        );
        r.on_session_end(&m4, &SessionEnd { chunks: 0 });
        let m = r.metrics();
        assert_eq!(m.loc_aborts_network.get(), 1);
        assert_eq!(m.loc_aborts_total(), m.sessions_aborted.get());
        // The abort outranks everything in the session diagnosis.
        assert_eq!(m.loc_sessions_network.get(), 1);
    }

    #[test]
    fn healthy_sessions_stay_healthy() {
        let mut r = MetricsRecorder::new(false);
        let m1 = Meta::session(SimTime::from_millis(1), 1);
        r.on_session_start(&m1, &SessionStart { server: 0 });
        r.on_chunk_served(&m1, &served(2, 1, 10, 40));
        r.on_chunk_rendered(
            &m1,
            &ChunkRendered {
                frames: 240,
                dropped: 1,
            },
        );
        r.on_session_end(&m1, &SessionEnd { chunks: 1 });
        assert_eq!(r.metrics().loc_sessions_healthy.get(), 1);
        assert_eq!(r.metrics().loc_rebuffers_total(), 0);
    }

    #[test]
    fn spans_cover_the_session_tree_when_enabled() {
        let mut r = MetricsRecorder::with_options(false, true);
        let start = Meta::session(SimTime::from_millis(100), 6);
        r.on_session_start(&start, &SessionStart { server: 0 });
        r.on_chunk_served(&start, &served(10, 5, 30, 70));
        r.on_session_end(
            &Meta::session(SimTime::from_millis(200), 6),
            &SessionEnd { chunks: 1 },
        );
        let mut spans = r.take_spans();
        // 1 session + chunk + 3 phases.
        assert_eq!(spans.len(), 5);
        crate::span::canonicalize(&mut spans);
        assert_eq!(spans[0].kind, crate::span::SpanKind::Session);
        assert_eq!(spans[0].start_ns, SimTime::from_millis(100).as_nanos());
        // Phases nest inside the chunk, the chunk inside the session.
        for s in &spans[1..] {
            assert!(s.start_ns >= spans[0].start_ns && s.end_ns <= spans[0].end_ns);
            assert!(s.end_ns >= s.start_ns);
        }
        // Spans off by default: nothing buffered.
        let mut plain = MetricsRecorder::new(true);
        plain.on_chunk_served(&start, &served(1, 1, 5, 5));
        assert!(plain.sim_spans().is_empty());
    }

    #[test]
    fn absorb_merges_metrics_and_appends_trace() {
        let mut a = MetricsRecorder::new(true);
        a.on_rto_timeout(&meta(), &RtoTimeout {});
        let mut b = MetricsRecorder::new(true);
        b.on_rto_timeout(&meta(), &RtoTimeout {});
        b.on_retransmit(&meta(), &Retransmit { segments: 3 });
        a.absorb(b);
        assert_eq!(a.metrics().rto_timeouts.get(), 2);
        assert_eq!(a.metrics().retx_segments.get(), 3);
        assert_eq!(a.trace_lines().len(), 3);
    }
}
