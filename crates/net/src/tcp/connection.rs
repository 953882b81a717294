//! The connection state machine: slow start, HyStart-style exit,
//! Reno/CUBIC congestion avoidance, retransmission timers, spike and
//! congestion episodes, the self-loading queue, and the 500 ms sampler.

use super::{ChunkTransfer, CongestionControl, TcpConfig, TcpInfo};
use crate::path::PathProfile;
use streamlab_faults::PathFaultTimeline;
use streamlab_obs::{
    CwndReset, Meta, NoopSubscriber, ResetReason, Retransmit, RtoTimeout, Subscriber,
};
use streamlab_sim::{RngStream, SimDuration, SimTime};

/// A persistent TCP connection between a CDN server and one client.
#[derive(Debug)]
pub struct TcpConnection {
    path: PathProfile,
    cfg: TcpConfig,
    rng: RngStream,
    /// Congestion window, segments (fractional to track CA growth).
    cwnd: f64,
    /// Slow-start threshold, segments.
    ssthresh: f64,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    retx_total: u64,
    segs_out_total: u64,
    established_at: SimTime,
    next_snapshot_at: SimTime,
    last_activity: SimTime,
    /// End of the current latency-spike episode, if inside one.
    spike_until: SimTime,
    /// End of the current congestion episode, if inside one.
    congestion_until: SimTime,
    min_rtt_ever: SimDuration,
    /// CUBIC state: the window just before the last reduction, segments.
    cubic_w_max: f64,
    /// CUBIC state: when the current growth epoch began.
    cubic_epoch: SimTime,
    /// Injected path faults (loss bursts, blackouts); empty by default.
    faults: PathFaultTimeline,
    /// Snapshot buffer reused across transfers: each transfer's snapshots
    /// are collected here and handed out as one exactly sized `Vec`, so
    /// the records that outlive the transfer carry no growth slack.
    snapshots: Vec<TcpInfo>,
}

impl TcpConnection {
    /// Open a connection at `now` over `path`.
    pub fn new(path: PathProfile, cfg: TcpConfig, established_at: SimTime, rng: RngStream) -> Self {
        TcpConnection {
            path,
            cfg,
            rng,
            cwnd: f64::from(cfg.initial_window),
            ssthresh: f64::INFINITY,
            srtt: None,
            rttvar: SimDuration::ZERO,
            retx_total: 0,
            segs_out_total: 0,
            established_at,
            next_snapshot_at: established_at + cfg.snapshot_interval,
            last_activity: established_at,
            spike_until: SimTime::ZERO,
            congestion_until: SimTime::ZERO,
            min_rtt_ever: SimDuration::from_nanos(u64::MAX),
            cubic_w_max: 0.0,
            cubic_epoch: SimTime::ZERO,
            faults: PathFaultTimeline::default(),
            snapshots: Vec::new(),
        }
    }

    /// Install the injected path-fault timeline (loss bursts, blackouts).
    pub fn install_faults(&mut self, faults: PathFaultTimeline) {
        self.faults = faults;
    }

    /// True when a *new* request issued at `t` falls into an injected
    /// blackout window. Transfers already in flight ride the episode out
    /// inside TCP (retransmissions), so the orchestrator checks this at
    /// request time only.
    pub fn in_blackout(&self, t: SimTime) -> bool {
        self.faults.in_blackout(t)
    }

    /// CUBIC window at `elapsed` seconds into the current epoch:
    /// `W(t) = C·(t − K)³ + W_max`, with the standard C = 0.4 and the
    /// post-reduction multiplier β = 0.7 folded into K.
    fn cubic_window(&self, elapsed: f64) -> f64 {
        const C: f64 = 0.4;
        const BETA: f64 = 0.7;
        let k = (self.cubic_w_max * (1.0 - BETA) / C).cbrt();
        C * (elapsed - k).powi(3) + self.cubic_w_max
    }

    /// The path this connection runs over.
    pub fn path(&self) -> &PathProfile {
        &self.path
    }

    /// When the connection was established.
    pub fn established_at(&self) -> SimTime {
        self.established_at
    }

    /// Current `tcp_info` view.
    pub fn info(&self, at: SimTime) -> TcpInfo {
        TcpInfo {
            at,
            srtt: self.srtt.unwrap_or(self.path.base_rtt),
            rttvar: self.rttvar,
            cwnd: self.cwnd.max(1.0) as u32,
            retx_total: self.retx_total,
            segs_out_total: self.segs_out_total,
            mss: self.cfg.mss,
        }
    }

    /// The Linux retransmission-timer value the paper quotes (§4.3.2,
    /// RFC 2988 as implemented): `200 ms + srtt + 4·rttvar`.
    pub fn rto(&self) -> SimDuration {
        SimDuration::from_millis(200) + self.srtt.unwrap_or(self.path.base_rtt) + self.rttvar * 4
    }

    /// Sample an unloaded round-trip time at `now` — what a fresh HTTP GET
    /// and its first response byte experience (`rtt₀` in Eq. 1).
    pub fn rtt0_sample(&mut self, now: SimTime) -> SimDuration {
        let rate = self.effective_rate(now);
        self.raw_rtt(now, 0.0, rate)
    }

    /// The bottleneck rate currently available to this connection,
    /// advancing the congestion-episode process to time `t`. Episodes last
    /// 5–30 s — long enough to straddle several chunks, the way real
    /// cross-traffic events do.
    fn effective_rate(&mut self, t: SimTime) -> f64 {
        if self.path.congestion_prob > 0.0
            && t >= self.congestion_until
            && self.rng.chance(self.path.congestion_prob)
        {
            self.congestion_until =
                t + SimDuration::from_secs_f64(self.rng.uniform_range(5.0, 30.0));
        }
        if t < self.congestion_until {
            self.path.bottleneck_bytes_per_s * self.path.congestion_severity
        } else {
            self.path.bottleneck_bytes_per_s
        }
    }

    /// Minimum raw RTT the connection has ever observed.
    pub fn min_rtt(&self) -> SimDuration {
        if self.min_rtt_ever.as_nanos() == u64::MAX {
            self.path.base_rtt
        } else {
            self.min_rtt_ever
        }
    }

    /// One raw RTT draw at time `t` with `standing_queue` bytes queued at
    /// a bottleneck currently draining at `drain_rate`. Includes jitter
    /// and spike episodes.
    fn raw_rtt(&mut self, t: SimTime, standing_queue: f64, drain_rate: f64) -> SimDuration {
        // Spike episodes persist for seconds — long enough to straddle
        // chunk boundaries and pull the SRTT EWMA all the way up (a single
        // spiked sample would be smoothed away, and an episode shorter
        // than the inter-chunk gap would expire unobserved).
        if t >= self.spike_until && self.rng.chance(self.path.spike_prob) {
            self.spike_until = t + SimDuration::from_secs_f64(self.rng.uniform_range(2.0, 6.0));
        }
        let spike = if t < self.spike_until {
            self.path.spike_mult
        } else {
            1.0
        };
        // Log-normal jitter around the (possibly spiked) baseline.
        let z = {
            // Box-Muller using the connection's own stream.
            let u1 = (1.0 - self.rng.uniform()).max(f64::MIN_POSITIVE);
            let u2 = self.rng.uniform();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let jitter = (self.path.jitter_sigma * z).exp();
        let queue_delay = standing_queue / drain_rate.max(1.0);
        let rtt = SimDuration::from_secs_f64(
            self.path.base_rtt.as_secs_f64() * spike * jitter + queue_delay,
        );
        let rtt = rtt.max(SimDuration::from_micros(100));
        if rtt < self.min_rtt_ever {
            self.min_rtt_ever = rtt;
        }
        rtt
    }

    /// RFC 6298 estimator update.
    fn update_srtt(&mut self, sample: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let err = if sample > srtt {
                    sample - srtt
                } else {
                    srtt - sample
                };
                // rttvar = 3/4 rttvar + 1/4 |err|; srtt = 7/8 srtt + 1/8 sample
                self.rttvar = self.rttvar.mul_f64(0.75) + err.mul_f64(0.25);
                self.srtt = Some(srtt.mul_f64(7.0 / 8.0) + sample.mul_f64(1.0 / 8.0));
            }
        }
    }

    /// Poisson draw (Knuth for small means, normal approximation above 30)
    /// used for random per-segment losses in a round.
    fn poisson(&mut self, mean: f64) -> u32 {
        if mean <= 0.0 {
            return 0;
        }
        if mean > 30.0 {
            let u1 = (1.0 - self.rng.uniform()).max(f64::MIN_POSITIVE);
            let u2 = self.rng.uniform();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            return (mean + mean.sqrt() * z).round().max(0.0) as u32;
        }
        let l = (-mean).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= self.rng.uniform();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // unreachable safety valve
            }
        }
    }

    /// Mark the connection idle until `t` (between chunks). With
    /// `idle_reset` the window collapses back to IW after an RTO of idle.
    /// Returns `true` when the window actually collapsed, so callers can
    /// emit a [`CwndReset`] observability event.
    pub fn idle_until(&mut self, t: SimTime) -> bool {
        let mut reset = false;
        if self.cfg.idle_reset && t.duration_since(self.last_activity) > self.rto() {
            self.ssthresh = self.cwnd.max(f64::from(self.cfg.initial_window));
            self.cwnd = f64::from(self.cfg.initial_window);
            reset = true;
        }
        if t > self.last_activity {
            self.last_activity = t;
        }
        reset
    }

    /// Serve `bytes` starting at `send_start` (the moment the server first
    /// writes to the socket). Returns the transfer record, including
    /// kernel snapshots on the 500 ms grid plus one at completion.
    pub fn transfer(&mut self, send_start: SimTime, bytes: u64) -> ChunkTransfer {
        self.transfer_with(send_start, bytes, None, &mut NoopSubscriber)
    }

    /// [`transfer`](Self::transfer), emitting loss-path observability
    /// events ([`Retransmit`], [`RtoTimeout`], [`CwndReset`]) to `sub`.
    ///
    /// `session` attributes the events to a session id. With
    /// [`NoopSubscriber`] the probes monomorphize to nothing, so the plain
    /// `transfer` path pays no cost (the `parallel` bench guards this).
    pub fn transfer_with<S: Subscriber>(
        &mut self,
        send_start: SimTime,
        bytes: u64,
        session: Option<u64>,
        sub: &mut S,
    ) -> ChunkTransfer {
        let mss = f64::from(self.cfg.mss);
        // Pacing uses the buffer fully; un-paced ack bursts waste headroom.
        let eff_buffer = if self.cfg.pacing {
            self.path.buffer_bytes
        } else {
            self.path.buffer_bytes * 0.6
        };
        let max_cwnd = (2.0 * (self.path.bdp_bytes() + eff_buffer) / mss).max(64.0);
        // Socket-buffer autotuning (Linux tcp_wmem): the kernel keeps
        // roughly 3 BDPs of data in flight, bounding how much standing
        // queue a single chunk write can build even on a bufferbloated
        // path.
        let sndbuf_segs = ((3.5 * self.path.bdp_bytes()).max(96_000.0) / mss).max(16.0);

        // The kernel sampler only fires with a chunk in context: skip the
        // grid over the idle gap since the previous chunk, otherwise a
        // burst of stale samples would flood out at the first round.
        while self.next_snapshot_at < send_start {
            self.next_snapshot_at += self.cfg.snapshot_interval;
        }

        let mut remaining = bytes as f64;
        let mut t = send_start;
        let mut first_byte_at = None;
        let mut segments = 0u32;
        let mut retx = 0u32;
        let mut timeouts = 0u32;
        let mut rounds = 0u32;
        self.snapshots.clear();
        let mut min_rtt = SimDuration::from_nanos(u64::MAX);

        while remaining > 0.0 {
            rounds += 1;
            if rounds > 100_000 {
                // Safety valve: a pathological path (sub-kbps) could
                // otherwise spin; deliver the remainder at bottleneck rate.
                t += SimDuration::from_secs_f64(
                    remaining / (self.path.bottleneck_bytes_per_s * self.path.congestion_severity),
                );
                break;
            }

            // Cross traffic may be squeezing the bottleneck this round: it
            // takes its share of both the link *and* the buffer, and its
            // queue occupancy inflates the RTT for everyone.
            let rate = self.effective_rate(t);
            let share = rate / self.path.bottleneck_bytes_per_s;
            let bdp = rate * self.path.base_rtt.as_secs_f64();
            let avail_buffer = eff_buffer * share;
            let capacity = bdp + avail_buffer;
            let cross_queue_delay = SimDuration::from_secs_f64(
                (1.0 - share) * self.path.buffer_bytes * 0.5 / self.path.bottleneck_bytes_per_s,
            );

            let w_segs = self
                .cwnd
                .min(sndbuf_segs)
                .floor()
                .max(1.0)
                .min((remaining / mss).ceil());
            let w_bytes = (w_segs * mss).min(remaining.max(mss));
            let standing_queue = (w_bytes - bdp).max(0.0).min(avail_buffer.max(mss));

            // Buffer overrun: the overshoot beyond BDP + buffer is dropped.
            let overflow_bytes = (w_bytes - capacity).max(0.0);
            let overflow_segs = if overflow_bytes > 0.0 {
                let full = (overflow_bytes / mss).ceil();
                if self.cfg.pacing {
                    // Paced senders lose only the head of the overrun.
                    (full * 0.04).ceil().max(1.0)
                } else {
                    full
                }
            } else {
                0.0
            };

            let sent_segs = w_segs as u32;
            // Injected loss bursts stack on the path's baseline random
            // loss for rounds inside the burst window.
            let loss_p = (self.path.random_loss + self.faults.loss_boost(t)).min(1.0);
            let random_lost = self.poisson((w_segs - overflow_segs).max(0.0) * loss_p);
            let lost = (overflow_segs as u32 + random_lost).min(sent_segs);

            // The path's own latency this round (jitter/spikes/cross
            // traffic), excluding our standing queue...
            let path_rtt = self.raw_rtt(t, 0.0, rate) + cross_queue_delay;
            // ...which builds up as the window drains: the first segments
            // of the burst see none of it, the last see all of it. The
            // per-ACK samples feeding SRTT average to about half the
            // drain, and the ACK of the burst's tail returns after the
            // full drain.
            let drain = SimDuration::from_secs_f64(standing_queue / rate);
            let rtt = path_rtt + drain / 2;
            if rtt < min_rtt {
                min_rtt = rtt;
            }
            let serialization = SimDuration::from_secs_f64(w_bytes / rate);
            let round_duration = (path_rtt + drain).max(serialization);

            if first_byte_at.is_none() {
                // The chunk's first byte rides the front of the burst: one
                // way across the path, ahead of the standing queue it
                // leaves behind.
                first_byte_at = Some(t + path_rtt / 2);
            }

            let delivered = (w_bytes - f64::from(lost) * mss).max(0.0).min(remaining);
            remaining -= delivered;
            segments = segments.saturating_add(sent_segs);
            self.segs_out_total += u64::from(sent_segs);
            self.update_srtt(rtt);

            if lost > 0 {
                retx = retx.saturating_add(lost);
                self.retx_total += u64::from(lost);
                let meta = match session {
                    Some(id) => Meta::session(t, id),
                    None => Meta::fleet(t),
                };
                sub.on_retransmit(&meta, &Retransmit { segments: lost });
                let survivors = sent_segs - lost;
                if survivors < 3 {
                    // Not enough dup-acks for fast retransmit: RTO fires.
                    sub.on_rto_timeout(&meta, &RtoTimeout {});
                    sub.on_cwnd_reset(
                        &meta,
                        &CwndReset {
                            reason: ResetReason::Loss,
                        },
                    );
                    timeouts += 1;
                    t += self.rto();
                    self.cubic_w_max = self.cwnd;
                    self.cubic_epoch = t;
                    self.ssthresh = (self.cwnd / 2.0).max(2.0);
                    self.cwnd = 1.0;
                } else {
                    // Fast retransmit / fast recovery.
                    self.cubic_w_max = self.cwnd;
                    self.cubic_epoch = t;
                    let beta = match self.cfg.congestion_control {
                        CongestionControl::Reno => 0.5,
                        CongestionControl::Cubic => 0.7,
                    };
                    self.ssthresh = (self.cwnd * beta).max(2.0);
                    self.cwnd = self.ssthresh;
                }
            } else {
                // HyStart-style exit: the standing queue is inflating the
                // RTT; settle here instead of doubling into an overflow.
                // Detection samples ACK trains and misses sometimes.
                if self.cfg.hystart
                    && self.cwnd < self.ssthresh
                    && standing_queue > 0.25 * self.path.buffer_bytes
                    && self.rng.chance(0.55)
                {
                    self.ssthresh = self.cwnd;
                }
                // Congestion-window validation (RFC 2861): an
                // application-limited sender that did not fill its window
                // gets no credit to grow it.
                let window_filled = w_segs >= self.cwnd.floor();
                if !window_filled {
                    // keep cwnd
                } else if self.cwnd < self.ssthresh {
                    // Slow start: one increment per acked segment → doubling.
                    self.cwnd = (self.cwnd * 2.0).min(max_cwnd);
                } else {
                    match self.cfg.congestion_control {
                        CongestionControl::Reno => {
                            // Congestion avoidance: one segment per RTT.
                            self.cwnd = (self.cwnd + 1.0).min(max_cwnd);
                        }
                        CongestionControl::Cubic => {
                            // Track the cubic curve, clamped to sane
                            // per-round growth (at most +50%).
                            let elapsed = t.duration_since(self.cubic_epoch).as_secs_f64();
                            let target = self.cubic_window(elapsed + rtt.as_secs_f64());
                            self.cwnd =
                                target.clamp(self.cwnd + 0.1, self.cwnd * 1.5).min(max_cwnd);
                        }
                    }
                }
            }

            t += round_duration;

            // Kernel sampler: 500 ms grid, only while the chunk is in
            // flight (the paper logs snapshots with chunk context).
            while self.next_snapshot_at <= t {
                let at = self.next_snapshot_at;
                let info = self.info(at);
                self.snapshots.push(info);
                self.next_snapshot_at = at + self.cfg.snapshot_interval;
            }
        }

        // At-least-once-per-chunk snapshot (paper §2.1).
        let snapshots = if self.snapshots.is_empty() {
            vec![self.info(t)]
        } else {
            self.snapshots.to_vec()
        };

        self.last_activity = t;
        let first_byte_at = first_byte_at.unwrap_or(t);
        if min_rtt.as_nanos() == u64::MAX {
            min_rtt = self.path.base_rtt;
        }
        ChunkTransfer {
            send_start,
            first_byte_at,
            last_byte_at: t,
            bytes,
            segments,
            retx,
            timeouts,
            rounds,
            snapshots,
            min_rtt,
        }
    }
}
