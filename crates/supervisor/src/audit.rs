//! Post-run structural invariant auditor.
//!
//! A deterministic simulator can be wrong *quietly*: a dropped counter
//! increment or a mis-merged shard produces plausible-looking figures
//! that no longer conserve anything. The auditor re-derives the
//! bookkeeping identities that must hold for **any** configuration —
//! conservation of sessions, chunks and bytes, histogram totals vs their
//! driving counters, monotone per-session sim-time — and reports each
//! breach with the numbers that disagree, so a violation pinpoints the
//! broken subsystem instead of surfacing three figures later as a weird
//! quantile.
//!
//! The checks deliberately use only two inputs: the merged [`SimMetrics`]
//! block (observer path) and a [`DatasetFacts`] summary of the primary
//! output (beacon-join path). The two are produced by disjoint code, so
//! agreement between them is evidence, not tautology.

use serde::Serialize;
use streamlab_obs::SimMetrics;

/// Plain-number facts about the run's primary outputs, computed by the
/// caller (the engine crate) so the auditor needs no dataset types.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DatasetFacts {
    /// Sessions simulated before any telemetry-side filtering.
    pub raw_sessions: u64,
    /// Sessions present in the joined dataset (after proxy filtering).
    pub dataset_sessions: u64,
    /// Per-chunk records present in the joined dataset.
    pub dataset_chunks: u64,
    /// Session ids whose per-chunk request times go backwards.
    pub nonmonotonic_sessions: Vec<u64>,
    /// Session ids whose chunk indices are not `0..n` exactly.
    pub noncontiguous_sessions: Vec<u64>,
    /// Shards that failed (panicked or stalled); their results are
    /// excluded from both metrics and dataset, so conservation must still
    /// hold among the survivors.
    pub shard_errors: u64,
}

/// One violated invariant.
#[derive(Debug, Clone, Serialize)]
pub struct AuditViolation {
    /// Short stable name of the invariant (e.g. `bytes_conservation`).
    pub invariant: &'static str,
    /// The disagreeing numbers, spelled out.
    pub detail: String,
}

/// The auditor's verdict: which invariants were checked, which failed.
#[derive(Debug, Clone, Default, Serialize)]
pub struct AuditReport {
    /// Names of every invariant evaluated, in evaluation order.
    pub checks: Vec<&'static str>,
    /// The failures (empty on a clean run).
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// A short human summary: one line when clean, one line per
    /// violation otherwise.
    pub fn render(&self) -> String {
        if self.is_clean() {
            format!("audit: {} invariants checked, all hold", self.checks.len())
        } else {
            let mut s = format!(
                "audit: {} of {} invariants VIOLATED\n",
                self.violations.len(),
                self.checks.len()
            );
            for v in &self.violations {
                s.push_str(&format!("  {}: {}\n", v.invariant, v.detail));
            }
            s
        }
    }

    fn check(&mut self, invariant: &'static str, holds: bool, detail: String) {
        self.checks.push(invariant);
        if !holds {
            self.violations.push(AuditViolation { invariant, detail });
        }
    }

    fn check_eq(&mut self, invariant: &'static str, left: (&str, u64), right: (&str, u64)) {
        self.check(
            invariant,
            left.1 == right.1,
            format!("{} = {} but {} = {}", left.0, left.1, right.0, right.1),
        );
    }

    fn check_le(&mut self, invariant: &'static str, small: (&str, u64), big: (&str, u64)) {
        self.check(
            invariant,
            small.1 <= big.1,
            format!("{} = {} exceeds {} = {}", small.0, small.1, big.0, big.1),
        );
    }
}

/// Run every structural invariant over a completed run.
pub fn audit(m: &SimMetrics, facts: &DatasetFacts) -> AuditReport {
    let mut r = AuditReport::default();

    // Session lifecycle: the event loop drains, so every started session
    // ends (aborted sessions end too), and the observer and beacon paths
    // must have seen the same population. The join drops sessions without
    // chunks, and only an abort ends a session before its first chunk, so
    // a started session may be missing from the join only if it aborted:
    // `started − aborted ≤ raw_sessions ≤ started`, equality without
    // aborts.
    let started = m.sessions_started.get();
    let aborted = m.sessions_aborted.get();
    r.check_eq(
        "session_lifecycle",
        ("sessions_started", started),
        ("sessions_ended", m.sessions_ended.get()),
    );
    r.check(
        "session_population",
        started.saturating_sub(aborted) <= facts.raw_sessions && facts.raw_sessions <= started,
        format!(
            "dataset raw_sessions = {} but sessions_started = {started} \
             with sessions_aborted = {aborted}",
            facts.raw_sessions
        ),
    );
    r.check_le(
        "session_filtering",
        ("dataset sessions", facts.dataset_sessions),
        ("raw_sessions", facts.raw_sessions),
    );

    // Chunk conservation: every served chunk went through exactly one
    // cache lookup, and the telemetry join can only drop records (proxy
    // filtering), never invent them.
    let lookups = m.chunk_lookups();
    r.check_eq(
        "chunk_lookup_partition",
        ("chunk ram+disk+miss lookups", lookups),
        ("chunks_served", m.chunks_served.get()),
    );
    r.check_le(
        "chunk_join",
        ("dataset chunks", facts.dataset_chunks),
        ("chunks_served", m.chunks_served.get()),
    );

    // Manifest conservation: same partition on the manifest side.
    r.check_eq(
        "manifest_lookup_partition",
        (
            "manifest ram+disk+miss lookups",
            m.manifest_ram_hits.get() + m.manifest_disk_hits.get() + m.manifest_misses.get(),
        ),
        ("manifest_requests", m.manifest_requests.get()),
    );

    // Byte conservation: every served byte came from exactly one tier.
    r.check_eq(
        "bytes_conservation",
        ("bytes_served", m.bytes_served.get()),
        (
            "bytes_ram + bytes_disk + bytes_miss",
            m.bytes_ram.get() + m.bytes_disk.get() + m.bytes_miss.get(),
        ),
    );

    // Histogram totals vs their driving counters: one sample per serve
    // (three latency views of the same chunk) and one per failed attempt.
    r.check_eq(
        "serve_latency_samples",
        ("serve_latency_ns count", m.serve_latency_ns.count()),
        ("chunks_served", m.chunks_served.get()),
    );
    r.check_eq(
        "first_byte_samples",
        ("first_byte_ns count", m.first_byte_ns.count()),
        ("chunks_served", m.chunks_served.get()),
    );
    r.check_eq(
        "download_samples",
        ("download_ns count", m.download_ns.count()),
        ("chunks_served", m.chunks_served.get()),
    );
    r.check_eq(
        "retry_backoff_samples",
        ("retry_backoff_ns count", m.retry_backoff_ns.count()),
        ("request_retries", m.request_retries.get()),
    );

    // Transport and playback sanity.
    r.check_le(
        "retransmit_bound",
        ("retx_segments", m.retx_segments.get()),
        ("segments_sent", m.segments_sent.get()),
    );
    r.check_le(
        "frame_drop_bound",
        ("frames_dropped", m.frames_dropped.get()),
        ("frames_rendered", m.frames_rendered.get()),
    );

    // Engine accounting: a chunk serve consumes at least one event.
    r.check_le(
        "event_accounting",
        ("chunks_served", m.chunks_served.get()),
        ("events_processed", m.events_processed.get()),
    );

    // Localization partition: the problem-localization pass must
    // attribute every rebuffer, abort and ended session to exactly one
    // problem class — no double counting, nothing unclassified.
    r.check_eq(
        "localization_rebuffer_partition",
        ("loc_rebuffers_* total", m.loc_rebuffers_total()),
        ("stall_events", m.stall_events.get()),
    );
    r.check_eq(
        "localization_abort_partition",
        ("loc_aborts_* total", m.loc_aborts_total()),
        ("sessions_aborted", m.sessions_aborted.get()),
    );
    r.check_eq(
        "localization_session_partition",
        ("loc_sessions_* total", m.loc_sessions_total()),
        ("sessions_ended", m.sessions_ended.get()),
    );

    // Sim-time structure of the joined dataset.
    r.check(
        "monotone_session_time",
        facts.nonmonotonic_sessions.is_empty(),
        format!(
            "request sim-time goes backwards within session(s) {:?}",
            truncate(&facts.nonmonotonic_sessions)
        ),
    );
    r.check(
        "contiguous_chunk_indices",
        facts.noncontiguous_sessions.is_empty(),
        format!(
            "chunk indices are not 0..n within session(s) {:?}",
            truncate(&facts.noncontiguous_sessions)
        ),
    );

    r
}

/// First few offending ids — enough to pinpoint, not enough to flood.
fn truncate(ids: &[u64]) -> Vec<u64> {
    ids.iter().copied().take(8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A self-consistent metrics block + facts pair.
    fn consistent() -> (SimMetrics, DatasetFacts) {
        let mut m = SimMetrics::default();
        m.sessions_started.add(4);
        m.sessions_ended.add(4);
        m.chunks_served.add(10);
        m.chunk_ram_hits.add(6);
        m.chunk_disk_hits.add(1);
        m.chunk_misses.add(3);
        m.manifest_requests.add(4);
        m.manifest_ram_hits.add(3);
        m.manifest_misses.add(1);
        m.bytes_served.add(1_000);
        m.bytes_ram.add(600);
        m.bytes_disk.add(100);
        m.bytes_miss.add(300);
        m.segments_sent.add(700);
        m.retx_segments.add(7);
        m.frames_rendered.add(2_400);
        m.frames_dropped.add(3);
        m.events_processed.add(500);
        m.request_retries.add(2);
        m.stall_events.add(2);
        m.loc_rebuffers_network.add(1);
        m.loc_rebuffers_server.add(1);
        m.loc_sessions_healthy.add(3);
        m.loc_sessions_network.add(1);
        for _ in 0..10 {
            m.serve_latency_ns.record(5_000_000);
            m.first_byte_ns.record(40_000_000);
            m.download_ns.record(300_000_000);
        }
        for _ in 0..2 {
            m.retry_backoff_ns.record(250_000_000);
        }
        let facts = DatasetFacts {
            raw_sessions: 4,
            dataset_sessions: 3,
            dataset_chunks: 8,
            ..DatasetFacts::default()
        };
        (m, facts)
    }

    #[test]
    fn consistent_run_is_clean() {
        let (m, facts) = consistent();
        let report = audit(&m, &facts);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.checks.len() >= 15);
        assert!(report.render().contains("all hold"));
    }

    #[test]
    fn corrupted_byte_counter_is_pinpointed() {
        let (mut m, facts) = consistent();
        m.bytes_ram.add(1); // lose conservation by a single byte
        let report = audit(&m, &facts);
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.invariant, "bytes_conservation");
        assert!(v.detail.contains("1000"), "{}", v.detail);
        assert!(v.detail.contains("1001"), "{}", v.detail);
        assert!(report.render().contains("VIOLATED"));
    }

    #[test]
    fn dropped_histogram_sample_is_caught() {
        let (mut m, facts) = consistent();
        m.chunks_served.add(1); // one serve whose latency was never recorded
        m.chunk_misses.add(1);
        m.events_processed.add(1);
        let report = audit(&m, &facts);
        let names: Vec<_> = report.violations.iter().map(|v| v.invariant).collect();
        assert!(names.contains(&"serve_latency_samples"), "{names:?}");
        assert!(names.contains(&"first_byte_samples"), "{names:?}");
        assert!(names.contains(&"download_samples"), "{names:?}");
    }

    #[test]
    fn dataset_structure_violations_list_sessions() {
        let (m, mut facts) = consistent();
        facts.nonmonotonic_sessions = vec![17];
        facts.noncontiguous_sessions = (0..20).collect();
        let report = audit(&m, &facts);
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations[0].detail.contains("17"));
        // Long offender lists are truncated.
        assert!(!report.violations[1].detail.contains("19"));
    }

    #[test]
    fn unattributed_rebuffer_is_caught() {
        let (mut m, facts) = consistent();
        m.stall_events.add(1); // a stall the localization pass never classified
        let report = audit(&m, &facts);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(
            report.violations[0].invariant,
            "localization_rebuffer_partition"
        );
    }

    #[test]
    fn double_counted_session_class_is_caught() {
        let (mut m, facts) = consistent();
        m.loc_sessions_server.add(1); // same session classified twice
        let report = audit(&m, &facts);
        let names: Vec<_> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(names, vec!["localization_session_partition"]);
    }

    #[test]
    fn inverted_bound_is_caught() {
        let (mut m, facts) = consistent();
        m.retx_segments.add(100_000); // more retransmits than segments
        let report = audit(&m, &facts);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, "retransmit_bound");
    }

    /// `consistent()` with `aborted` of its sessions aborted (before their
    /// first chunk, by the network) and `raw` sessions in the join.
    fn with_aborts(aborted: u64, raw: u64) -> (SimMetrics, DatasetFacts) {
        let (mut m, mut facts) = consistent();
        m.sessions_aborted.add(aborted);
        m.loc_aborts_network.add(aborted);
        facts.raw_sessions = raw;
        facts.dataset_sessions = facts.dataset_sessions.min(raw);
        (m, facts)
    }

    #[test]
    fn sessions_missing_from_the_join_are_covered_by_aborts() {
        for raw in [2, 3, 4] {
            let (m, facts) = with_aborts(2, raw);
            let report = audit(&m, &facts);
            assert!(report.is_clean(), "raw {raw}: {}", report.render());
        }
    }

    #[test]
    fn more_missing_sessions_than_aborts_is_caught() {
        let (m, facts) = with_aborts(1, 2);
        let report = audit(&m, &facts);
        assert_eq!(report.violations.len(), 1, "{}", report.render());
        let v = &report.violations[0];
        assert_eq!(v.invariant, "session_population");
        assert!(v.detail.contains("raw_sessions = 2"), "{}", v.detail);
        assert!(v.detail.contains("sessions_aborted = 1"), "{}", v.detail);
    }

    #[test]
    fn more_joined_sessions_than_started_is_caught() {
        for aborted in [0, 2] {
            let (m, facts) = with_aborts(aborted, 5);
            let report = audit(&m, &facts);
            let names: Vec<_> = report.violations.iter().map(|v| v.invariant).collect();
            assert_eq!(names, vec!["session_population"], "aborted {aborted}");
        }
    }

    #[test]
    fn empty_run_is_clean() {
        let report = audit(&SimMetrics::default(), &DatasetFacts::default());
        assert!(report.is_clean(), "{}", report.render());
    }
}
