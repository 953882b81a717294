//! Deterministic sim-time spans: the causal skeleton of a run.
//!
//! A span is a named interval on the **simulation clock** with a parent
//! id, mirroring the paper's per-chunk instrumentation: every session
//! owns a lane of `session → chunk → {cache_lookup, net_transfer,
//! render}` intervals, so one chunk can be followed from the CDN cache
//! through the TCP transfer into the player.
//!
//! Spans are collected per shard as they happen, concatenated in
//! canonical shard order, and then [`canonicalize`]d — sorted by
//! `(session, chunk, kind)` and re-numbered with parents assigned — so
//! the serialized stream is **byte-identical at any `--threads` value**:
//! the canonical order is a pure function of the simulated timeline,
//! which `tests/trace_spans.rs` pins down. Wall-clock
//! intervals are deliberately a different type
//! ([`crate::trace_writer::WallTrace`]); the two clocks never mix.

use serde::Serialize;

/// What a sim-time span covers. The declaration order is the canonical
/// sort order within one chunk (parents sort before children).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum SpanKind {
    /// A whole session: arrival to last rendered byte (or abort).
    Session,
    /// One chunk end to end: request to player-last-byte.
    Chunk,
    /// The server-side serve (`D_wait + D_open + D_read`), placed after
    /// the request's uplink propagation.
    CacheLookup,
    /// The TCP transfer: server send start to last byte off the wire.
    NetTransfer,
    /// The client tail: last network byte through the download stack to
    /// player-last-byte (decode/render hand-off).
    Render,
}

/// One interval on the simulation clock. `id`/`parent` are assigned by
/// [`canonicalize`]; raw spans carry `id == 0` and `parent == None`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SimSpan {
    /// Span id, 1-based in canonical order (0 = not yet canonicalized).
    pub id: u64,
    /// Enclosing span's id (`None` for session spans).
    pub parent: Option<u64>,
    /// Session the span belongs to.
    pub session: u64,
    /// Chunk index within the session (`None` for the session span).
    pub chunk: Option<u32>,
    /// What the interval covers.
    pub kind: SpanKind,
    /// Start, sim-time nanoseconds.
    pub start_ns: u64,
    /// End, sim-time nanoseconds (`>= start_ns`).
    pub end_ns: u64,
}

/// Sort spans into canonical order and assign ids and parents.
///
/// The order is `(session, chunk, kind)` with the session span first
/// (chunk `None` sorts before chunk `Some(0)`), i.e. a depth-first
/// pre-order walk of each session's tree: parents always precede their
/// children, which both the Chrome-trace writer and the byte-identity
/// contract rely on. Ids are 1-based positions in that order, so the
/// result is a pure function of the span *set* — independent of the
/// shard interleaving that produced it.
pub fn canonicalize(spans: &mut [SimSpan]) {
    spans.sort_by_key(|s| {
        (
            s.session,
            s.chunk.map(|c| u64::from(c) + 1).unwrap_or(0),
            s.kind,
            s.start_ns,
        )
    });
    let mut session_span: Option<(u64, u64)> = None; // (session, id)
    let mut chunk_span: Option<(u64, u32, u64)> = None; // (session, chunk, id)
    for (i, s) in spans.iter_mut().enumerate() {
        s.id = i as u64 + 1;
        match (s.kind, s.chunk) {
            (SpanKind::Session, _) => {
                session_span = Some((s.session, s.id));
                chunk_span = None;
                s.parent = None;
            }
            (SpanKind::Chunk, Some(c)) => {
                chunk_span = Some((s.session, c, s.id));
                s.parent = match session_span {
                    Some((sess, id)) if sess == s.session => Some(id),
                    _ => None,
                };
            }
            (_, chunk) => {
                s.parent = match (chunk_span, chunk) {
                    (Some((sess, c, id)), Some(mine)) if sess == s.session && c == mine => Some(id),
                    _ => None,
                };
            }
        }
    }
}

/// Serialize a canonicalized span list as JSONL, one span per line.
///
/// This is the byte-compared determinism artifact: the same seed must
/// yield the same string at any thread count.
pub fn to_jsonl(spans: &[SimSpan]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&s.to_value().to_json_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn canonical_order_is_a_pure_function_of_the_span_set() {
        let mut a = vec![
            raw(2, Some(0), SpanKind::Chunk, 10, 20),
            raw(1, None, SpanKind::Session, 0, 30),
            raw(2, Some(0), SpanKind::NetTransfer, 12, 18),
            raw(1, Some(0), SpanKind::Chunk, 1, 15),
            raw(2, None, SpanKind::Session, 5, 25),
            raw(2, Some(0), SpanKind::CacheLookup, 10, 12),
        ];
        let mut b = a.clone();
        b.reverse(); // a different shard interleaving
        canonicalize(&mut a);
        canonicalize(&mut b);
        assert_eq!(to_jsonl(&a), to_jsonl(&b));
        // Session span leads its session, chunk follows, phases last.
        let kinds: Vec<SpanKind> = a.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Session,
                SpanKind::Chunk,
                SpanKind::Session,
                SpanKind::Chunk,
                SpanKind::CacheLookup,
                SpanKind::NetTransfer,
            ]
        );
    }

    #[test]
    fn parents_point_at_the_enclosing_span() {
        let mut spans = vec![
            raw(7, None, SpanKind::Session, 0, 100),
            raw(7, Some(0), SpanKind::Chunk, 5, 50),
            raw(7, Some(0), SpanKind::CacheLookup, 6, 10),
            raw(7, Some(0), SpanKind::NetTransfer, 10, 40),
            raw(7, Some(0), SpanKind::Render, 40, 50),
            raw(7, Some(1), SpanKind::Chunk, 50, 90),
            raw(7, Some(1), SpanKind::Render, 80, 90),
        ];
        canonicalize(&mut spans);
        let by_kind = |k: SpanKind, c: Option<u32>| {
            spans
                .iter()
                .find(|s| s.kind == k && s.chunk == c)
                .copied()
                .unwrap()
        };
        let session = by_kind(SpanKind::Session, None);
        let chunk0 = by_kind(SpanKind::Chunk, Some(0));
        let chunk1 = by_kind(SpanKind::Chunk, Some(1));
        assert_eq!(session.parent, None);
        assert_eq!(chunk0.parent, Some(session.id));
        assert_eq!(chunk1.parent, Some(session.id));
        assert_eq!(
            by_kind(SpanKind::CacheLookup, Some(0)).parent,
            Some(chunk0.id)
        );
        assert_eq!(by_kind(SpanKind::Render, Some(1)).parent, Some(chunk1.id));
        // Ids are 1-based positions: parents always precede children.
        for s in &spans {
            if let Some(p) = s.parent {
                assert!(p < s.id, "parent {p} not before child {}", s.id);
            }
        }
    }

    #[test]
    fn orphan_chunks_survive_without_a_session_span() {
        // A shard cancelled mid-run can leave chunk spans whose session
        // span was never closed; they must not inherit a stale parent.
        let mut spans = vec![
            raw(1, None, SpanKind::Session, 0, 10),
            raw(2, Some(0), SpanKind::Chunk, 3, 9),
        ];
        canonicalize(&mut spans);
        assert_eq!(spans[1].session, 2);
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut spans = vec![raw(3, Some(2), SpanKind::Chunk, 1, 2)];
        canonicalize(&mut spans);
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 1);
        let v = serde::Value::parse_json(text.lines().next().unwrap()).expect("valid json");
        assert_eq!(v.get("session").and_then(|s| s.as_u64()), Some(3));
        assert!(text.contains("\"Chunk\""), "{text}");
    }
}
