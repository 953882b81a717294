//! Chrome Trace Event Format export — one file, two clocks.
//!
//! `--trace-out` writes a JSON object Perfetto / `chrome://tracing` open
//! directly. Process 1 carries the deterministic **sim-time** lanes (one
//! thread lane per session, `B`/`E` duration events built from
//! [`SimSpan`]s); process 2 carries the **wall-clock** engine lanes (one
//! lane per worker thread, `X` complete events for shard jobs plus
//! counter events from a [`WallTrace`]). Keeping the clocks in separate
//! processes means neither can contaminate the other: the sim side is
//! byte-identical at any `--threads`, the wall side is honest about being
//! a measurement.
//!
//! Timestamps are microseconds (the format's unit): sim-time nanoseconds
//! and engine milliseconds both convert losslessly enough at trace
//! granularity, and integer µs keeps the output byte-stable.

use crate::span::{SimSpan, SpanKind};
use serde::{Map, Serialize, Value};

/// Trace process id for the deterministic sim-time lanes.
pub const SIM_PID: u64 = 1;
/// Trace process id for the wall-clock engine lanes.
pub const WALL_PID: u64 = 2;

/// One wall-clock interval (a shard job, the setup phase, the merge),
/// rendered as a Chrome `X` complete event.
#[derive(Debug, Clone)]
pub struct WallSpan {
    /// Lane (trace thread id) the interval belongs to — worker index for
    /// shard jobs, a reserved lane for run phases.
    pub lane: u64,
    /// Event name shown on the slice.
    pub name: String,
    /// Start, microseconds since the engine epoch.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Extra key/value payload (shard index, sessions, events, ...).
    pub args: Vec<(String, u64)>,
}

/// One sample of a wall-clock counter series (watchdog heartbeats),
/// rendered as a Chrome `C` counter event.
#[derive(Debug, Clone)]
pub struct WallCounter {
    /// Counter name (one chart per name).
    pub name: String,
    /// Sample time, microseconds since the engine epoch.
    pub at_us: u64,
    /// Series name → value at this sample.
    pub series: Vec<(String, u64)>,
}

/// Everything the engine measured on the host clock for one run.
#[derive(Debug, Clone, Default)]
pub struct WallTrace {
    /// Lane id → display name (`worker 0`, `run`, ...).
    pub lanes: Vec<(u64, String)>,
    /// Intervals (shard jobs, run phases).
    pub spans: Vec<WallSpan>,
    /// Counter samples (heartbeats).
    pub counters: Vec<WallCounter>,
}

fn base_event(name: &str, cat: &str, ph: &str, ts: u64, pid: u64, tid: u64) -> Map {
    let mut e = Map::new();
    e.insert("name".into(), name.to_value());
    e.insert("cat".into(), cat.to_value());
    e.insert("ph".into(), ph.to_value());
    e.insert("ts".into(), ts.to_value());
    e.insert("pid".into(), pid.to_value());
    e.insert("tid".into(), tid.to_value());
    e
}

fn args_object(args: &[(String, u64)]) -> Value {
    let mut m = Map::new();
    for (k, v) in args {
        m.insert(k.clone(), v.to_value());
    }
    Value::Object(m)
}

fn metadata(kind: &str, pid: u64, tid: u64, name: &str, out: &mut Vec<String>) {
    let mut e = base_event(kind, "__metadata", "M", 0, pid, tid);
    let mut args = Map::new();
    args.insert("name".into(), name.to_value());
    e.insert("args".into(), Value::Object(args));
    out.push(Value::Object(e).to_json_string());
}

fn span_name(s: &SimSpan) -> String {
    match (s.kind, s.chunk) {
        (SpanKind::Session, _) => "session".to_string(),
        (SpanKind::Chunk, Some(c)) => format!("chunk {c}"),
        (SpanKind::Chunk, None) => "chunk".to_string(),
        (SpanKind::CacheLookup, _) => "cache_lookup".to_string(),
        (SpanKind::NetTransfer, _) => "net_transfer".to_string(),
        (SpanKind::Render, _) => "render".to_string(),
    }
}

/// Emit `B`/`E` pairs for one session's canonically ordered spans.
/// The canonical order is a pre-order walk, so a begin/end stack yields
/// matched pairs with non-decreasing timestamps — the two properties the
/// schema test pins down.
fn emit_session_spans(spans: &[SimSpan], out: &mut Vec<String>) {
    let mut stack: Vec<&SimSpan> = Vec::new();
    let close = |s: &SimSpan, out: &mut Vec<String>| {
        let e = base_event(
            &span_name(s),
            "sim",
            "E",
            s.end_ns / 1000,
            SIM_PID,
            s.session,
        );
        out.push(Value::Object(e).to_json_string());
    };
    for s in spans {
        while let Some(top) = stack.last() {
            if top.end_ns <= s.start_ns {
                close(top, out);
                stack.pop();
            } else {
                break;
            }
        }
        let mut e = base_event(
            &span_name(s),
            "sim",
            "B",
            s.start_ns / 1000,
            SIM_PID,
            s.session,
        );
        let mut args = vec![("id".to_string(), s.id)];
        if let Some(p) = s.parent {
            args.push(("parent".to_string(), p));
        }
        e.insert("args".into(), args_object(&args));
        out.push(Value::Object(e).to_json_string());
        stack.push(s);
    }
    while let Some(top) = stack.pop() {
        close(top, out);
    }
}

/// Render a complete Chrome trace from canonicalized sim spans and an
/// optional wall-clock trace. The output is a pure function of its
/// inputs; with `wall == None` (or an empty wall trace) it is as
/// deterministic as the spans themselves.
pub fn render_chrome_trace(sim: &[SimSpan], wall: Option<&WallTrace>) -> String {
    let mut out: Vec<String> = Vec::new();
    metadata(
        "process_name",
        SIM_PID,
        0,
        "sim-time (deterministic)",
        &mut out,
    );
    // One B/E stack per session lane: split on session boundaries (the
    // canonical order groups each session contiguously).
    let mut i = 0;
    while i < sim.len() {
        let session = sim[i].session;
        let mut j = i;
        while j < sim.len() && sim[j].session == session {
            j += 1;
        }
        emit_session_spans(&sim[i..j], &mut out);
        i = j;
    }
    if let Some(w) = wall {
        metadata("process_name", WALL_PID, 0, "engine (wall-clock)", &mut out);
        for (lane, name) in &w.lanes {
            metadata("thread_name", WALL_PID, *lane, name, &mut out);
        }
        for s in &w.spans {
            let mut e = base_event(&s.name, "engine", "X", s.start_us, WALL_PID, s.lane);
            e.insert("dur".into(), s.dur_us.to_value());
            e.insert("args".into(), args_object(&s.args));
            out.push(Value::Object(e).to_json_string());
        }
        for c in &w.counters {
            let mut e = base_event(&c.name, "engine", "C", c.at_us, WALL_PID, 0);
            e.insert("args".into(), args_object(&c.series));
            out.push(Value::Object(e).to_json_string());
        }
    }
    let mut text = String::from("{\"traceEvents\":[\n");
    for (k, line) in out.iter().enumerate() {
        text.push_str(line);
        if k + 1 < out.len() {
            text.push(',');
        }
        text.push('\n');
    }
    text.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::canonicalize;

    fn raw(session: u64, chunk: Option<u32>, kind: SpanKind, start: u64, end: u64) -> SimSpan {
        SimSpan {
            id: 0,
            parent: None,
            session,
            chunk,
            kind,
            start_ns: start,
            end_ns: end,
        }
    }

    fn parse_events(text: &str) -> Vec<Value> {
        let v = Value::parse_json(text).expect("trace parses");
        v.get("traceEvents")
            .and_then(|t| t.as_array())
            .expect("traceEvents array")
            .to_vec()
    }

    #[test]
    fn sim_spans_emit_matched_nested_pairs() {
        let mut spans = vec![
            raw(4, None, SpanKind::Session, 0, 100_000),
            raw(4, Some(0), SpanKind::Chunk, 10_000, 60_000),
            raw(4, Some(0), SpanKind::CacheLookup, 12_000, 20_000),
            raw(4, Some(0), SpanKind::NetTransfer, 20_000, 50_000),
            raw(4, Some(0), SpanKind::Render, 50_000, 60_000),
            raw(4, Some(1), SpanKind::Chunk, 60_000, 95_000),
        ];
        canonicalize(&mut spans);
        let text = render_chrome_trace(&spans, None);
        let events = parse_events(&text);
        let mut depth = 0i64;
        let mut last_ts = 0u64;
        let mut begins = 0;
        for e in &events {
            let ph = e.get("ph").and_then(|p| p.as_str()).unwrap();
            if ph == "M" {
                continue;
            }
            let ts = e.get("ts").and_then(|t| t.as_u64()).unwrap();
            assert!(ts >= last_ts, "timestamps regressed: {last_ts} -> {ts}");
            last_ts = ts;
            match ph {
                "B" => {
                    depth += 1;
                    begins += 1;
                }
                "E" => depth -= 1,
                other => panic!("unexpected ph {other}"),
            }
            assert!(depth >= 0, "E without matching B");
        }
        assert_eq!(depth, 0, "unclosed B events");
        assert_eq!(begins, spans.len());
    }

    #[test]
    fn wall_trace_renders_slices_and_counters() {
        let wall = WallTrace {
            lanes: vec![(0, "worker 0".into()), (9, "run".into())],
            spans: vec![WallSpan {
                lane: 0,
                name: "shard 3".into(),
                start_us: 100,
                dur_us: 900,
                args: vec![("events".into(), 1234)],
            }],
            counters: vec![WallCounter {
                name: "heartbeat events".into(),
                at_us: 200,
                series: vec![("shard 3".into(), 500)],
            }],
        };
        let text = render_chrome_trace(&[], Some(&wall));
        let events = parse_events(&text);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert_eq!(phases, ["M", "M", "M", "M", "X", "C"]);
        assert!(text.contains("worker 0"));
        assert!(text.contains("\"dur\":900"));
    }

    #[test]
    fn empty_trace_is_still_valid_json() {
        let text = render_chrome_trace(&[], None);
        let events = parse_events(&text);
        // Only the sim process-name metadata event.
        assert_eq!(events.len(), 1);
    }
}
