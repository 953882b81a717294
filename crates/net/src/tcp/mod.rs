//! A round-based Reno TCP sender with kernel-style `tcp_info` snapshots.
//!
//! The model advances in *transmission rounds* (one congestion window per
//! round, the classic fluid approximation). Within a round:
//!
//! 1. the sender emits `min(cwnd, remaining)` segments;
//! 2. the standing queue at the bottleneck is `max(0, inflight − BDP)`;
//!    its delay is added to the RTT the sender observes (the paper's
//!    *self-loading*, §4.2.1 — SRTT samples taken mid-chunk may reflect the
//!    connection's own queue, which is why the analyses estimate `rtt₀`
//!    separately);
//! 3. if the standing queue exceeds the bottleneck buffer, the tail of the
//!    burst is dropped — without pacing the whole overshoot is lost at
//!    once (the bursty end-of-slow-start losses of §4.2.3 / Fig. 15), with
//!    pacing only a sliver is;
//! 4. random per-segment losses are layered on top;
//! 5. SRTT/RTTVAR update per RFC 6298, the window reacts per Reno (fast
//!    retransmit when enough dup-acks are possible, timeout otherwise).

mod config;
mod connection;
mod info;

pub use config::{CongestionControl, TcpConfig};
pub use connection::*;
pub use info::{ChunkTransfer, TcpInfo};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{PathProfile, PropagationModel};
    use streamlab_sim::{RngStream, SimDuration, SimTime};

    fn quiet_path(mbps: f64, rtt_ms: f64, buffer_bdp: f64) -> PathProfile {
        PathProfile::from_parts(
            &PropagationModel::default(),
            0.0,
            rtt_ms,
            0.0,
            mbps,
            buffer_bdp,
            0.0,
            0.0,
            0.0,
            1.0,
        )
    }

    fn conn(path: PathProfile, cfg: TcpConfig, seed: u64) -> TcpConnection {
        TcpConnection::new(path, cfg, SimTime::ZERO, RngStream::new(seed, "tcp-test"))
    }

    /// Config with the probabilistic HyStart exit disabled, for tests that
    /// need the slow-start burst deterministically.
    fn no_hystart() -> TcpConfig {
        TcpConfig {
            hystart: false,
            ..TcpConfig::default()
        }
    }

    const CHUNK: u64 = 1_312_500; // 6 s at 1750 kbps

    #[test]
    fn clean_path_has_no_loss() {
        // 100 Mbps, large buffer: slow start never overruns 3x BDP buffer.
        let mut c = conn(quiet_path(100.0, 40.0, 8.0), TcpConfig::default(), 1);
        let t = c.transfer(SimTime::ZERO, CHUNK);
        assert_eq!(t.retx, 0);
        assert_eq!(t.timeouts, 0);
        assert!(t.first_byte_at < t.last_byte_at);
        assert!(t.first_byte_at >= t.send_start);
        assert_eq!(t.bytes, CHUNK);
        assert!(t.segments >= (CHUNK / 1460) as u32);
    }

    #[test]
    fn transfer_time_bounded_by_bottleneck() {
        let mut c = conn(quiet_path(20.0, 40.0, 8.0), TcpConfig::default(), 2);
        let t = c.transfer(SimTime::ZERO, CHUNK);
        // Serialization floor: 1.3125 MB at 2.5 MB/s = 525 ms.
        assert!(
            t.duration() >= SimDuration::from_millis(525),
            "{}",
            t.duration()
        );
        // And it should be within a small factor of it on a clean path.
        assert!(
            t.duration() < SimDuration::from_millis(1800),
            "{}",
            t.duration()
        );
    }

    #[test]
    fn slow_start_overshoot_concentrates_loss_on_first_chunk() {
        // Tight buffer: classic end-of-slow-start burst loss (Fig. 15).
        let mut c = conn(quiet_path(20.0, 40.0, 1.5), no_hystart(), 3);
        let t1 = c.transfer(SimTime::ZERO, CHUNK);
        let mut later_retx = 0u32;
        let mut later_segs = 0u32;
        for i in 1..6 {
            let t = c.transfer(SimTime::from_secs(6 * i), CHUNK);
            later_retx += t.retx;
            later_segs += t.segments;
        }
        assert!(t1.retx > 0, "first chunk should hit the slow-start burst");
        let first_rate = t1.retx_rate();
        let later_rate = f64::from(later_retx) / f64::from(later_segs);
        assert!(
            first_rate > 3.0 * later_rate.max(1e-6),
            "first = {first_rate}, later = {later_rate}"
        );
    }

    #[test]
    fn pacing_reduces_burst_loss() {
        let mut unpaced = conn(quiet_path(20.0, 40.0, 1.5), no_hystart(), 4);
        let mut paced = conn(
            quiet_path(20.0, 40.0, 1.5),
            TcpConfig {
                pacing: true,
                hystart: false,
                ..TcpConfig::default()
            },
            4,
        );
        let a = unpaced.transfer(SimTime::ZERO, CHUNK);
        let b = paced.transfer(SimTime::ZERO, CHUNK);
        assert!(
            b.retx < a.retx / 2,
            "paced retx {} vs unpaced {}",
            b.retx,
            a.retx
        );
    }

    #[test]
    fn srtt_tracks_base_rtt_on_unloaded_path() {
        let mut c = conn(quiet_path(100.0, 60.0, 8.0), TcpConfig::default(), 5);
        let t = c.transfer(SimTime::ZERO, CHUNK);
        let srtt = t.snapshots.last().unwrap().srtt.as_millis_f64();
        assert!((srtt - 60.0).abs() < 10.0, "srtt = {srtt}");
    }

    #[test]
    fn self_loading_inflates_srtt_on_narrow_path() {
        let mut c = conn(quiet_path(5.0, 30.0, 6.0), TcpConfig::default(), 6);
        let t = c.transfer(SimTime::ZERO, CHUNK);
        let max_srtt = t
            .snapshots
            .iter()
            .map(|s| s.srtt.as_millis_f64())
            .fold(0.0, f64::max);
        // Standing queue on a 5 Mbps path adds tens of ms.
        assert!(max_srtt > 45.0, "max srtt = {max_srtt}");
        // ... but min_rtt stays near the propagation baseline.
        assert!(t.min_rtt.as_millis_f64() < 40.0);
    }

    #[test]
    fn random_loss_produces_retx_and_can_timeout() {
        let mut path = quiet_path(50.0, 40.0, 4.0);
        path.random_loss = 0.3;
        let mut c = conn(path, TcpConfig::default(), 7);
        let t = c.transfer(SimTime::ZERO, CHUNK / 4);
        assert!(t.retx > 0);
        // With 30 % loss, small windows regularly lose enough for an RTO.
        assert!(t.timeouts > 0, "expected at least one RTO");
    }

    #[test]
    fn connection_state_persists_across_chunks() {
        let mut c = conn(quiet_path(50.0, 40.0, 4.0), TcpConfig::default(), 8);
        let t1 = c.transfer(SimTime::ZERO, CHUNK);
        let w_end = t1.snapshots.last().unwrap().cwnd;
        let t2 = c.transfer(SimTime::from_secs(6), CHUNK);
        // Second chunk starts from the grown window, so it uses fewer rounds.
        assert!(t2.rounds < t1.rounds, "{} vs {}", t2.rounds, t1.rounds);
        assert!(w_end > 10);
    }

    #[test]
    fn idle_reset_collapses_window() {
        let mut c = conn(
            quiet_path(50.0, 40.0, 4.0),
            TcpConfig {
                idle_reset: true,
                ..TcpConfig::default()
            },
            9,
        );
        let t1 = c.transfer(SimTime::ZERO, CHUNK);
        assert!(
            c.idle_until(t1.last_byte_at + SimDuration::from_secs(10)),
            "idle_until must report the collapse"
        );
        let info = c.info(SimTime::from_secs(20));
        assert_eq!(info.cwnd, 10);
    }

    #[test]
    fn transfer_with_emits_loss_events_matching_counters() {
        use streamlab_obs::MetricsRecorder;
        let mut path = quiet_path(50.0, 40.0, 4.0);
        path.random_loss = 0.3;
        let mut c = conn(path, TcpConfig::default(), 7);
        let mut rec = MetricsRecorder::new(false);
        let t = c.transfer_with(SimTime::ZERO, CHUNK / 4, Some(42), &mut rec);
        let m = rec.metrics();
        assert_eq!(m.retx_segments.get(), u64::from(t.retx));
        assert_eq!(m.rto_timeouts.get(), u64::from(t.timeouts));
        assert_eq!(m.cwnd_resets_loss.get(), u64::from(t.timeouts));
        assert!(m.retx_segments.get() > 0);
    }

    #[test]
    fn transfer_with_noop_matches_plain_transfer() {
        use streamlab_obs::NoopSubscriber;
        let mk = || {
            let mut path = quiet_path(20.0, 50.0, 2.0);
            path.random_loss = 0.005;
            path.jitter_sigma = 0.1;
            conn(path, TcpConfig::default(), 99)
        };
        let (mut a, mut b) = (mk(), mk());
        let ta = a.transfer(SimTime::ZERO, CHUNK);
        let tb = b.transfer_with(SimTime::ZERO, CHUNK, Some(1), &mut NoopSubscriber);
        assert_eq!(ta.last_byte_at, tb.last_byte_at);
        assert_eq!(ta.retx, tb.retx);
        assert_eq!(ta.segments, tb.segments);
    }

    #[test]
    fn snapshots_at_least_one_per_chunk_and_on_grid() {
        let mut c = conn(quiet_path(50.0, 40.0, 4.0), TcpConfig::default(), 10);
        let t = c.transfer(SimTime::ZERO, 200_000);
        assert!(!t.snapshots.is_empty());
        // A long transfer on a slow path crosses several 500 ms boundaries.
        let mut slow = conn(quiet_path(2.0, 40.0, 4.0), TcpConfig::default(), 11);
        let t2 = slow.transfer(SimTime::ZERO, CHUNK);
        assert!(t2.duration() > SimDuration::from_secs(4));
        assert!(t2.snapshots.len() >= 8, "{} snapshots", t2.snapshots.len());
        for w in t2.snapshots.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn snapshots_are_exactly_sized_and_fresh_per_transfer() {
        // On a slow path a full chunk crosses many 500 ms grid points and
        // a 20 kB object at most one, so alternating them on one
        // connection makes each short transfer follow a long one.
        let mut c = conn(quiet_path(2.0, 40.0, 4.0), TcpConfig::default(), 16);
        let mut at = SimTime::ZERO;
        let mut lens = Vec::new();
        for i in 0..8 {
            let bytes = if i % 2 == 0 { CHUNK } else { 20_000 };
            let t = c.transfer(at, bytes);
            assert_eq!(t.snapshots.len(), t.snapshots.capacity(), "transfer {i}");
            for s in &t.snapshots {
                assert!(
                    t.send_start <= s.at && s.at <= t.last_byte_at,
                    "transfer {i}: snapshot at {:?} outside {:?}..={:?}",
                    s.at,
                    t.send_start,
                    t.last_byte_at
                );
            }
            lens.push(t.snapshots.len());
            at = t.last_byte_at + SimDuration::from_secs(1);
        }
        assert!(lens.iter().step_by(2).all(|&n| n >= 8), "{lens:?}");
        assert!(lens.iter().skip(1).step_by(2).all(|&n| n == 1), "{lens:?}");
    }

    #[test]
    fn retx_counter_is_cumulative_in_info() {
        let mut path = quiet_path(20.0, 40.0, 1.5);
        path.random_loss = 0.01;
        let mut c = conn(path, TcpConfig::default(), 12);
        let t1 = c.transfer(SimTime::ZERO, CHUNK);
        let t2 = c.transfer(SimTime::from_secs(6), CHUNK);
        // A mid-transfer grid snapshot may predate the final losses; the
        // kernel view *after* the transfer must account for all of them.
        let info = c.info(t2.last_byte_at);
        assert_eq!(info.retx_total, u64::from(t1.retx) + u64::from(t2.retx));
        if let Some(last) = t2.snapshots.last() {
            assert!(last.retx_total <= info.retx_total);
        }
    }

    #[test]
    fn rto_follows_linux_formula() {
        let mut c = conn(quiet_path(50.0, 40.0, 4.0), TcpConfig::default(), 13);
        let _ = c.transfer(SimTime::ZERO, 100_000);
        let info = c.info(SimTime::from_secs(1));
        let expect = SimDuration::from_millis(200) + info.srtt + info.rttvar * 4;
        assert_eq!(c.rto(), expect);
    }

    #[test]
    fn throughput_estimate_matches_eq3() {
        let info = TcpInfo {
            at: SimTime::ZERO,
            srtt: SimDuration::from_millis(100),
            rttvar: SimDuration::ZERO,
            cwnd: 100,
            retx_total: 0,
            segs_out_total: 0,
            mss: 1460,
        };
        // 1460 B * 100 / 0.1 s = 1.46 MB/s = 11.68 Mbps.
        assert!((info.throughput_mbps() - 11.68).abs() < 0.01);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut path = quiet_path(20.0, 50.0, 2.0);
            path.random_loss = 0.005;
            path.jitter_sigma = 0.1;
            conn(path, TcpConfig::default(), 99)
        };
        let (mut a, mut b) = (mk(), mk());
        let ta = a.transfer(SimTime::ZERO, CHUNK);
        let tb = b.transfer(SimTime::ZERO, CHUNK);
        assert_eq!(ta.last_byte_at, tb.last_byte_at);
        assert_eq!(ta.retx, tb.retx);
        assert_eq!(ta.rounds, tb.rounds);
    }

    #[test]
    fn spikes_raise_srtt_samples() {
        let mut path = quiet_path(50.0, 30.0, 4.0);
        path.spike_prob = 0.5;
        path.spike_mult = 10.0;
        let mut c = conn(path, TcpConfig::default(), 14);
        let mut max_srtt: f64 = 0.0;
        for i in 0..10 {
            let t = c.transfer(SimTime::from_secs(6 * i), CHUNK / 4);
            for s in &t.snapshots {
                max_srtt = max_srtt.max(s.srtt.as_millis_f64());
            }
        }
        assert!(max_srtt > 90.0, "max srtt = {max_srtt}");
    }

    #[test]
    fn congestion_episodes_couple_loss_with_slow_delivery() {
        // Same path with and without a congestion process. The tight
        // buffer makes both connections pay the one-off slow-start burst
        // on chunk 1 and settle into congestion avoidance; afterwards the
        // congested connection must see both more retransmissions and
        // slower chunks.
        let clean = quiet_path(20.0, 40.0, 1.0);
        let congested = quiet_path(20.0, 40.0, 1.0).with_congestion(0.15, 0.12);
        let mut a = conn(clean, no_hystart(), 21);
        let mut b = conn(congested, no_hystart(), 21);
        let (mut retx_a, mut retx_b) = (0u32, 0u32);
        let (mut dur_a, mut dur_b) = (SimDuration::ZERO, SimDuration::ZERO);
        for i in 1..15 {
            // Skip chunk 0's shared slow-start burst in the tallies.
            let t0 = SimTime::from_secs(40 * i);
            let ta = a.transfer(t0, CHUNK);
            let tb = b.transfer(t0, CHUNK);
            if i > 1 {
                retx_a += ta.retx;
                retx_b += tb.retx;
                dur_a += ta.duration();
                dur_b += tb.duration();
            }
        }
        assert!(retx_b > retx_a, "congested retx {retx_b} vs clean {retx_a}");
        assert!(
            dur_b > dur_a + SimDuration::from_secs(2),
            "congested {dur_b} vs clean {dur_a}"
        );
    }

    #[test]
    fn hystart_lets_many_connections_avoid_the_burst() {
        // With HyStart, a meaningful share of connections settles out of
        // slow start cleanly (paper: 40 % of sessions see no loss at all);
        // without it, every one of these takes the burst.
        let mut clean_with = 0;
        let mut clean_without = 0;
        for seed in 0..40 {
            let mut c = conn(quiet_path(20.0, 40.0, 2.0), TcpConfig::default(), seed);
            let mut total = 0;
            for i in 0..6 {
                total += c.transfer(SimTime::from_secs(6 * i), CHUNK).retx;
            }
            if total == 0 {
                clean_with += 1;
            }
            let mut d = conn(quiet_path(20.0, 40.0, 2.0), no_hystart(), seed);
            let mut total = 0;
            for i in 0..6 {
                total += d.transfer(SimTime::from_secs(6 * i), CHUNK).retx;
            }
            if total == 0 {
                clean_without += 1;
            }
        }
        assert!(clean_with >= 15, "only {clean_with}/40 clean with hystart");
        assert_eq!(clean_without, 0, "no-hystart must always overshoot here");
    }

    #[test]
    fn app_limited_sender_does_not_grow_cwnd_unboundedly() {
        // Tiny chunks never fill the window; cwnd must not balloon past
        // what the sender actually uses (RFC 2861).
        let mut c = conn(quiet_path(100.0, 40.0, 8.0), TcpConfig::default(), 22);
        for i in 0..50 {
            let _ = c.transfer(SimTime::from_millis(200 * i), 20_000); // ~14 segs
        }
        let info = c.info(SimTime::from_secs(100));
        assert!(
            info.cwnd <= 64,
            "cwnd grew to {} while app-limited",
            info.cwnd
        );
    }

    #[test]
    fn cubic_recovers_faster_than_reno_on_fat_pipes() {
        // After the same loss, CUBIC's cubic probe regrows the window far
        // faster than Reno's one-segment-per-RTT on a high-BDP path —
        // so the same byte volume completes sooner.
        let mk = |cc: CongestionControl| {
            let mut path = quiet_path(200.0, 80.0, 1.0);
            path.random_loss = 0.0;
            conn(
                path,
                TcpConfig {
                    congestion_control: cc,
                    hystart: false,
                    ..TcpConfig::default()
                },
                31,
            )
        };
        let total_time = |mut c: TcpConnection| {
            let mut t = SimTime::ZERO;
            let mut dur = SimDuration::ZERO;
            for i in 0..20 {
                let tr = c.transfer(t.max(SimTime::from_secs(6 * i)), 4 * CHUNK);
                dur += tr.duration();
                t = tr.last_byte_at;
            }
            dur
        };
        let reno = total_time(mk(CongestionControl::Reno));
        let cubic = total_time(mk(CongestionControl::Cubic));
        assert!(
            cubic < reno,
            "cubic {cubic} should beat reno {reno} on a fat pipe"
        );
    }

    #[test]
    fn cubic_still_delivers_and_conserves() {
        let mut path = quiet_path(20.0, 50.0, 2.0);
        path.random_loss = 0.005;
        let mut c = conn(
            path,
            TcpConfig {
                congestion_control: CongestionControl::Cubic,
                ..TcpConfig::default()
            },
            32,
        );
        let mut t = SimTime::ZERO;
        for _ in 0..8 {
            let tr = c.transfer(t, CHUNK);
            assert_eq!(tr.bytes, CHUNK);
            assert!(tr.retx <= tr.segments);
            assert!(tr.first_byte_at < tr.last_byte_at);
            t = tr.last_byte_at;
        }
    }

    #[test]
    fn zero_byte_transfer_is_trivial() {
        let mut c = conn(quiet_path(50.0, 40.0, 4.0), TcpConfig::default(), 15);
        let t = c.transfer(SimTime::from_secs(1), 0);
        assert_eq!(t.segments, 0);
        assert_eq!(t.retx, 0);
        assert_eq!(t.last_byte_at, SimTime::from_secs(1));
    }

    #[test]
    fn rtt0_sample_near_base_when_idle() {
        let mut c = conn(quiet_path(50.0, 80.0, 4.0), TcpConfig::default(), 16);
        let r = c.rtt0_sample(SimTime::ZERO);
        assert!((r.as_millis_f64() - 80.0).abs() < 1.0, "{r}");
    }

    #[test]
    fn loss_burst_injects_retransmissions() {
        use streamlab_faults::PathFaultTimeline;
        // Identical seeds: the only difference is the installed burst.
        let mut clean = conn(quiet_path(100.0, 40.0, 8.0), TcpConfig::default(), 17);
        let mut bursty = conn(quiet_path(100.0, 40.0, 8.0), TcpConfig::default(), 17);
        bursty.install_faults(PathFaultTimeline::new(
            vec![(SimTime::ZERO, SimTime::from_secs(60), 0.10)],
            Vec::new(),
        ));
        let a = clean.transfer(SimTime::ZERO, CHUNK);
        let b = bursty.transfer(SimTime::ZERO, CHUNK);
        assert_eq!(a.retx, 0, "clean fat path has no loss");
        assert!(b.retx > 0, "10% injected loss must retransmit");
        assert!(b.duration() > a.duration());
        // Outside the burst window the same connection is clean again.
        let after = bursty.transfer(SimTime::from_secs(120), CHUNK);
        assert_eq!(after.retx, 0, "burst must end with its window");
    }

    #[test]
    fn blackout_window_is_queryable_at_request_time() {
        use streamlab_faults::PathFaultTimeline;
        let mut c = conn(quiet_path(50.0, 40.0, 4.0), TcpConfig::default(), 18);
        assert!(!c.in_blackout(SimTime::from_secs(30)));
        c.install_faults(PathFaultTimeline::new(
            Vec::new(),
            vec![(SimTime::from_secs(20), SimTime::from_secs(40))],
        ));
        assert!(c.in_blackout(SimTime::from_secs(20)));
        assert!(c.in_blackout(SimTime::from_secs(39)));
        assert!(!c.in_blackout(SimTime::from_secs(40)));
    }
}
