//! Wall-clock run profiling — the explicitly **non-deterministic** half
//! of a run's telemetry.
//!
//! Everything here is measured with the host's monotonic clock and varies
//! run to run and with `--threads`; it is kept in a separate struct so
//! the deterministic [`SimMetrics`] block can be
//! serialized alone (that is what `--metrics-out` writes, and what the
//! byte-identity tests compare).

use crate::metrics::SimMetrics;
use serde::{Deserialize, Serialize};

/// Wall-time and throughput profile of one shard's event loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardProfile {
    /// Canonical shard index — the shard's slot in the engine's
    /// (PoP-ascending, then server-ascending) shard order.
    pub shard_index: u64,
    /// PoP index the shard covered (several shards share a PoP when it is
    /// split per server).
    pub pop_index: u64,
    /// Global index of the shard's first server.
    pub first_server: u64,
    /// Servers in the shard: 1 for a per-server shard, the PoP's member
    /// count for a coarse (whole-PoP) shard.
    pub servers: u64,
    /// Sessions the shard ran.
    pub sessions: u64,
    /// Events its event loop processed.
    pub events: u64,
    /// Peak pending-event count in the shard's queue.
    pub peak_queue_depth: u64,
    /// Wall time the shard's event loop took, milliseconds.
    pub wall_ms: f64,
    /// Worker thread that ran the shard job (a steal lands a job on a
    /// different worker than the deal chose).
    pub worker: u64,
    /// Job start, milliseconds after the engine's event-loop epoch — with
    /// `wall_ms` this places the job on its worker's trace lane.
    pub start_ms: f64,
}

/// Work-stealing queue counters for one run: how jobs moved between
/// workers. Timing-dependent (steals happen when a worker goes idle
/// first), so these live on the wall-clock side, never in
/// [`SimMetrics`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SchedulerCounters {
    /// Jobs dealt across the worker deques (the LPT assignment size).
    pub jobs_dealt: u64,
    /// Jobs a worker popped from its own deque.
    pub owner_pops: u64,
    /// Jobs stolen from another worker's deque.
    pub steals: u64,
    /// Steal scans that found every deque empty.
    pub steal_failures: u64,
    /// Worker deques actually spun up (after the per-worker cost-floor
    /// clamp).
    pub workers: u64,
    /// Workers the cost-floor clamp removed relative to the requested
    /// thread count: non-zero means the fleet was too small to feed every
    /// requested thread profitably.
    pub workers_clamped: u64,
}

/// Wall-clock profile of one run: where the time went.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunProfile {
    /// Engine used: always `"sharded"` (one event loop per fleet shard at
    /// every thread count).
    pub engine: String,
    /// Worker threads requested.
    pub threads: u64,
    /// World generation, fleet warm-up and session placement,
    /// milliseconds. Warm-up only lays out each cache tier's fill order,
    /// a few counters per assigned video: a warm object is stored when
    /// traffic first touches it. That, like building each session's
    /// runtime as the session arrives, counts in `event_loop_ms`.
    pub setup_ms: f64,
    /// Event loop(s), wall milliseconds (for the sharded engine this is
    /// the span from first shard start to last shard finish).
    pub event_loop_ms: f64,
    /// Telemetry join + preprocessing + report assembly, milliseconds.
    pub merge_ms: f64,
    /// Events processed per wall second across the whole event loop.
    pub events_per_sec: f64,
    /// Peak pending-event count: the maximum over shards.
    pub peak_queue_depth: u64,
    /// Work-stealing scheduler counters.
    pub scheduler: SchedulerCounters,
    /// Per-shard breakdown, in canonical shard order.
    pub shards: Vec<ShardProfile>,
}

/// Everything a run's self-telemetry produces: the deterministic metrics
/// block plus the wall-clock profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Deterministic, sim-time-keyed metrics (byte-identical at any
    /// thread count; what `--metrics-out` writes).
    pub sim: SimMetrics,
    /// Wall-clock profile (non-deterministic by nature).
    pub profile: RunProfile,
}

impl RunMetrics {
    /// The compact end-of-run summary every `streamlab run` prints,
    /// showing the 8 slowest shards ([`RunMetrics::summary_with`]).
    pub fn summary(&self) -> String {
        self.summary_with(8)
    }

    /// The end-of-run summary with the shard breakdown capped at `shown`
    /// shards (`0` = show all) — the `--summary-shards` knob.
    pub fn summary_with(&self, shown: usize) -> String {
        let s = &self.sim;
        let p = &self.profile;
        let ns_ms = |q: Option<u64>| q.map(|v| v as f64 / 1.0e6).unwrap_or(0.0);
        let mut out = String::new();
        out.push_str(&format!(
            "engine {} ({} threads): {} events in {:.0} ms ({:.0}k events/s), peak queue {}\n",
            p.engine,
            p.threads,
            s.events_processed.get(),
            p.event_loop_ms,
            p.events_per_sec / 1.0e3,
            p.peak_queue_depth,
        ));
        out.push_str(&format!(
            "chunks {} (hit ratio {:.3}: ram {} disk {} miss {}), manifests {}, retry fires {} ({:.1}% of serves)\n",
            s.chunks_served.get(),
            s.chunk_hit_ratio(),
            s.chunk_ram_hits.get(),
            s.chunk_disk_hits.get(),
            s.chunk_misses.get(),
            s.manifest_requests.get(),
            s.retry_timer_fires.get(),
            100.0 * s.retry_ratio(),
        ));
        out.push_str(&format!(
            "tcp: {} segs, retx {} ({:.2}%), rto {}, cwnd resets {} loss / {} idle; stalls {} ({:.1} s); frames dropped {}/{}\n",
            s.segments_sent.get(),
            s.retx_segments.get(),
            100.0 * s.retx_ratio(),
            s.rto_timeouts.get(),
            s.cwnd_resets_loss.get(),
            s.cwnd_resets_idle.get(),
            s.stall_events.get(),
            s.stall_sim_ns.get() as f64 / 1.0e9,
            s.frames_dropped.get(),
            s.frames_rendered.get(),
        ));
        out.push_str(&format!(
            "serve latency p50/p99 {:.1}/{:.1} ms, first byte p50 {:.1} ms; wall: setup {:.0} ms, loop {:.0} ms, merge {:.0} ms\n",
            ns_ms(s.serve_latency_ns.quantile(0.5)),
            ns_ms(s.serve_latency_ns.quantile(0.99)),
            ns_ms(s.first_byte_ns.quantile(0.5)),
            p.setup_ms,
            p.event_loop_ms,
            p.merge_ms,
        ));
        if s.fault_activity() > 0 {
            out.push_str(&format!(
                "faults: {} restarts, {} outage / {} blackout rejections, {} retries, {} failovers, {} emergency switches, {} aborted\n",
                s.server_restarts.get(),
                s.outage_rejections.get(),
                s.blackout_rejections.get(),
                s.request_retries.get(),
                s.failovers.get(),
                s.abr_emergency_switches.get(),
                s.sessions_aborted.get(),
            ));
        }
        if s.loc_sessions_total() > 0 {
            out.push_str(&format!(
                "localization: sessions {} server / {} network / {} stack / {} rendering / {} healthy; rebuffers {}s/{}n/{}c\n",
                s.loc_sessions_server.get(),
                s.loc_sessions_network.get(),
                s.loc_sessions_stack.get(),
                s.loc_sessions_rendering.get(),
                s.loc_sessions_healthy.get(),
                s.loc_rebuffers_server.get(),
                s.loc_rebuffers_network.get(),
                s.loc_rebuffers_stack.get(),
            ));
        }
        if !p.shards.is_empty() {
            // Per-server sharding yields dozens of shards; print the
            // slowest few (the ones that bound wall time) and summarize
            // the rest. `shown == 0` lifts the cap.
            let shown = if shown == 0 { p.shards.len() } else { shown };
            let mut by_wall: Vec<&ShardProfile> = p.shards.iter().collect();
            by_wall.sort_by(|a, b| {
                b.wall_ms
                    .total_cmp(&a.wall_ms)
                    .then(a.shard_index.cmp(&b.shard_index))
            });
            out.push_str("shards:");
            for sh in by_wall.iter().take(shown) {
                if sh.servers == 1 {
                    out.push_str(&format!(
                        " pop{}/srv{} {:.0}ms/{}ev",
                        sh.pop_index, sh.first_server, sh.wall_ms, sh.events
                    ));
                } else {
                    out.push_str(&format!(
                        " pop{} {:.0}ms/{}ev",
                        sh.pop_index, sh.wall_ms, sh.events
                    ));
                }
            }
            if by_wall.len() > shown {
                out.push_str(&format!(" (+{} more)", by_wall.len() - shown));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let mut sim = SimMetrics::default();
        sim.chunks_served.add(1234);
        sim.chunk_ram_hits.add(1000);
        sim.chunk_misses.add(234);
        sim.events_processed.add(5000);
        let m = RunMetrics {
            sim,
            profile: RunProfile {
                engine: "sharded".into(),
                threads: 4,
                setup_ms: 12.0,
                event_loop_ms: 340.0,
                merge_ms: 8.0,
                events_per_sec: 14_705.0,
                peak_queue_depth: 77,
                scheduler: SchedulerCounters {
                    jobs_dealt: 2,
                    owner_pops: 1,
                    steals: 1,
                    steal_failures: 3,
                    workers: 2,
                    workers_clamped: 0,
                },
                shards: vec![
                    ShardProfile {
                        shard_index: 0,
                        pop_index: 0,
                        first_server: 0,
                        servers: 2,
                        sessions: 60,
                        events: 5000,
                        peak_queue_depth: 77,
                        wall_ms: 340.0,
                        worker: 0,
                        start_ms: 0.0,
                    },
                    ShardProfile {
                        shard_index: 1,
                        pop_index: 1,
                        first_server: 7,
                        servers: 1,
                        sessions: 12,
                        events: 900,
                        peak_queue_depth: 9,
                        wall_ms: 40.0,
                        worker: 1,
                        start_ms: 2.5,
                    },
                ],
            },
        };
        let text = m.summary();
        assert!(text.contains("1234"));
        assert!(text.contains("sharded"));
        // Coarse shards print their PoP; fine shards name their server.
        assert!(text.contains("pop0"));
        assert!(text.contains("pop1/srv7"));
    }

    #[test]
    fn summary_caps_the_shard_breakdown() {
        let shards: Vec<ShardProfile> = (0..20)
            .map(|i| ShardProfile {
                shard_index: i,
                pop_index: i / 2,
                first_server: i,
                servers: 1,
                sessions: 5,
                events: 100,
                peak_queue_depth: 3,
                wall_ms: i as f64,
                worker: i % 4,
                start_ms: 0.0,
            })
            .collect();
        let m = RunMetrics {
            sim: SimMetrics::default(),
            profile: RunProfile {
                engine: "sharded".into(),
                threads: 4,
                setup_ms: 1.0,
                event_loop_ms: 2.0,
                merge_ms: 3.0,
                events_per_sec: 0.0,
                peak_queue_depth: 3,
                scheduler: SchedulerCounters::default(),
                shards,
            },
        };
        let text = m.summary();
        assert!(text.contains("(+12 more)"), "summary: {text}");
        // The slowest shard (19) is shown, the fastest (0) elided.
        assert!(text.contains("srv19"));
        assert!(!text.contains("srv0 "));
    }

    #[test]
    fn run_metrics_serialize() {
        let m = RunMetrics {
            sim: SimMetrics::default(),
            profile: RunProfile {
                engine: "sequential".into(),
                threads: 1,
                setup_ms: 1.0,
                event_loop_ms: 2.0,
                merge_ms: 3.0,
                events_per_sec: 0.0,
                peak_queue_depth: 0,
                scheduler: SchedulerCounters::default(),
                shards: Vec::new(),
            },
        };
        let v = serde::Serialize::to_value(&m);
        assert!(v.get("sim").is_some());
        assert!(v.get("profile").is_some());
    }
}
