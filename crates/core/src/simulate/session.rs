//! The per-session state machine: one chunk request at a time through
//! manifest → ABR → CDN serve → TCP delivery → download stack → playback
//! buffer → rendering, emitting both sides' telemetry records.

use crate::ablation::RunFold;
use streamlab_cdn::{CdnFleet, ObjectKey, PrefetchPolicy, ServerPool};
use streamlab_client::abr::{Abr, AbrContext};
use streamlab_client::{DownloadStack, PlaybackBuffer, RenderPath, RetryDecision, RetryState};
use streamlab_net::TcpConnection;
use streamlab_obs::{
    AbrEmergency, ChunkRendered, ChunkServed, CwndReset, FailReason, Failover, Meta, RequestFailed,
    ResetReason, SessionAborted, SessionEnd, SessionStart, Stall, Subscriber,
};
use streamlab_sim::{RngStream, SimTime};
use streamlab_telemetry::records::{
    CacheOutcome, CdnChunkRecord, ChunkRecord, ChunkTruth, PlayerChunkRecord, SessionMeta,
};
use streamlab_telemetry::{SessionData, TelemetrySink};
use streamlab_workload::{Catalog, ChunkIndex, Population, SessionSpec};

/// Where a shard's telemetry goes as its sessions run.
///
/// A [`TelemetrySink`] takes each chunk's records as they happen, for the
/// join (`run`). A [`RunFold`] takes each session whole when it ends, from
/// the records its runtime kept, and folds it into the shard's summaries
/// (sweeps and `serve`); the records are dropped with the runtime.
pub(super) trait ShardOutput {
    /// Whether a runtime keeps its chunk records until its session ends.
    const KEEPS_CHUNKS: bool;

    /// Take one chunk's records; `kept` is its session's own buffer.
    fn chunk(&mut self, kept: &mut Vec<ChunkRecord>, record: ChunkRecord);

    /// Take a finished session: its metadata and the records it kept.
    fn session(&mut self, meta: SessionMeta, kept: Vec<ChunkRecord>);

    /// The shard's loop drained; finish what is still open.
    fn seal(&mut self) {}
}

impl ShardOutput for TelemetrySink {
    const KEEPS_CHUNKS: bool = false;

    fn chunk(&mut self, _kept: &mut Vec<ChunkRecord>, record: ChunkRecord) {
        // Both halves go in adjacently, so `player[i]` and `cdn[i]` stay
        // 1:1 aligned and a seal sorts both arenas with one permutation.
        self.player_chunk(record.player);
        self.cdn_chunk(record.cdn);
    }

    fn session(&mut self, meta: SessionMeta, _kept: Vec<ChunkRecord>) {
        TelemetrySink::session(self, meta);
    }

    fn seal(&mut self) {
        TelemetrySink::seal(self);
    }
}

impl ShardOutput for RunFold {
    const KEEPS_CHUNKS: bool = true;

    fn chunk(&mut self, kept: &mut Vec<ChunkRecord>, record: ChunkRecord) {
        kept.push(record);
    }

    fn session(&mut self, meta: SessionMeta, chunks: Vec<ChunkRecord>) {
        // The join drops a session that has metadata but no chunks, so
        // the fold does too.
        if !chunks.is_empty() {
            self.push(&SessionData { meta, chunks });
        }
    }
}

/// One session of the day before it arrives: its spec and where the fleet
/// places it — the server [`CdnFleet::assign`] picks, that server's PoP,
/// and the client's distance to it. These are the only fleet reads a
/// [`SessionRuntime`] needs, so the world computes them up front and the
/// engine builds the runtime itself only when the session arrives.
pub(super) struct PlacedSession {
    pub(super) spec: SessionSpec,
    pub(super) server_idx: usize,
    pop_index: usize,
    distance_km: f64,
}

impl PlacedSession {
    /// Place `spec` on the warmed, fault-armed `fleet`.
    pub(super) fn new(spec: SessionSpec, population: &Population, fleet: &CdnFleet) -> Self {
        let location = &population.prefix(spec.client.prefix).location;
        let server_idx = fleet.assign(location, spec.video, spec.id);
        PlacedSession {
            distance_km: fleet.distance_km(server_idx, location),
            pop_index: fleet.pop_index_of(server_idx),
            server_idx,
            spec,
        }
    }
}

/// The runtime state of one in-flight session.
pub(super) struct SessionRuntime {
    spec: SessionSpec,
    manifest_done: bool,
    pub(super) server_idx: usize,
    /// PoP of the assigned server. Failover moves `server_idx` only
    /// within this PoP, which is what keeps the sharded engine exact.
    pop_index: usize,
    retry: RetryState,
    distance_km: f64,
    conn: TcpConnection,
    stack: DownloadStack,
    render: RenderPath,
    buffer: PlaybackBuffer,
    abr: Abr,
    throughputs: Vec<f64>,
    next_chunk: u32,
    rng: RngStream,
    /// Running sum of recorded chunk playback seconds.
    video_secs: f64,
    /// The session's chunk records, in chunk order, when its shard's
    /// output takes sessions whole ([`ShardOutput::KEEPS_CHUNKS`]); empty
    /// when each chunk goes straight into a [`TelemetrySink`].
    chunks: Vec<ChunkRecord>,
}

impl SessionRuntime {
    /// Assemble the runtime for one placed session: its network path
    /// (with per-session variation within the prefix), TCP connection,
    /// download stack, rendering path, playback buffer and ABR instance.
    ///
    /// Everything it reads is immutable while the event loops run, and
    /// its RNG forks off `session_master` by session id, so building it
    /// at any point before the session's first step gives the same
    /// runtime. With `keep_chunks` it reserves room for every chunk the
    /// session may watch.
    pub(super) fn new(
        placed: &PlacedSession,
        cfg: &crate::config::SimulationConfig,
        session_master: &RngStream,
        catalog: &Catalog,
        population: &Population,
        keep_chunks: bool,
    ) -> SessionRuntime {
        use streamlab_net::PathProfile;
        let spec = placed.spec.clone();
        let distance_km = placed.distance_km;
        let mut rng = session_master.fork_indexed(spec.id.raw());
        let prefix = population.prefix(spec.client.prefix);
        // A /24 spans many households/desks: individual sessions see the
        // prefix's path character with per-session variation (this
        // inter-session spread is what Fig. 10 aggregates). Enterprise
        // prefixes are the most heterogeneous — the same office block
        // mixes direct paths, VPN hairpins and branch backhauls.
        let overhead_spread = match prefix.org_kind {
            streamlab_workload::OrgKind::Enterprise => rng.uniform_range(0.3, 3.0),
            streamlab_workload::OrgKind::Residential => rng.uniform_range(0.7, 1.5),
        };
        let path = PathProfile::from_parts(
            &cfg.propagation,
            distance_km,
            prefix.path.last_mile_ms * rng.uniform_range(0.8, 1.4),
            prefix.path.overhead_ms * overhead_spread,
            prefix.path.bottleneck_mbps * rng.uniform_range(0.7, 1.3),
            prefix.path.buffer_bdp,
            prefix.path.random_loss * rng.uniform_range(0.5, 2.0),
            prefix.path.jitter_sigma,
            prefix.path.spike_prob * rng.uniform_range(0.5, 1.8),
            prefix.path.spike_mult,
        )
        .with_congestion(
            prefix.path.congestion_prob * rng.uniform_range(0.5, 1.8),
            prefix.path.congestion_severity,
        );
        let mut conn = TcpConnection::new(path, cfg.tcp, spec.arrival, rng.fork("tcp"));
        if cfg.faults.has_path_faults() {
            conn.install_faults(cfg.faults.path_timeline());
        }
        // The retry stream is a fork, so sessions that never see a fault
        // consume nothing from it and unfaulted runs stay byte-identical.
        let retry = RetryState::new(cfg.faults.resilience, rng.fork("retry"));
        let stack = DownloadStack::new(
            spec.client.os,
            spec.client.browser,
            cfg.stack,
            rng.fork("stack"),
        );
        let render = RenderPath::new(
            spec.client.os,
            spec.client.browser,
            spec.client.gpu,
            spec.client.cpu_cores,
            spec.client.background_load,
            rng.fork("render"),
        );
        let buffer = PlaybackBuffer::new(cfg.player, spec.arrival);
        let abr = Abr::new(cfg.abr, catalog.ladder());
        let chunks_hint = spec.chunks_watched as usize;
        SessionRuntime {
            spec,
            manifest_done: false,
            server_idx: placed.server_idx,
            pop_index: placed.pop_index,
            retry,
            distance_km,
            conn,
            stack,
            render,
            buffer,
            abr,
            throughputs: Vec::with_capacity(chunks_hint),
            next_chunk: 0,
            rng,
            video_secs: 0.0,
            chunks: Vec::with_capacity(if keep_chunks { chunks_hint } else { 0 }),
        }
    }
}

/// Process one chunk request for session `rt` at time `now`, serving from
/// its assigned server (`rt.server_idx`) in pool `pool`, under the
/// fleet-wide prefetch policy. Returns the time of the session's next
/// request, or `None` when the session ended.
///
/// The pool is the session's [`streamlab_cdn::FleetShard`] in the engine,
/// or the whole [`CdnFleet`] in the tests' global-queue oracle: a step
/// only ever touches servers of the session's own failover domain
/// (assignment and failover both stay inside it), so shards can run
/// concurrently and remain exact.
///
/// The chunk's records go to `out`. Observability events flow into `sub`;
/// with [`streamlab_obs::NoopSubscriber`] the probes monomorphize away and
/// this is the uninstrumented step.
pub(super) fn step_chunk<P: ServerPool, S: Subscriber, O: ShardOutput>(
    rt: &mut SessionRuntime,
    now: SimTime,
    catalog: &Catalog,
    prefetch_policy: PrefetchPolicy,
    pool: &mut P,
    out: &mut O,
    sub: &mut S,
) -> Option<SimTime> {
    let session_id = rt.spec.id.raw();
    let video = catalog.video(rt.spec.video);

    // The session-start event fires at the arrival instant, before any
    // retry delay the acquire loop below may add.
    if !rt.manifest_done {
        sub.on_session_start(
            &Meta::session(now, session_id),
            &SessionStart {
                server: rt.server_idx as u64,
            },
        );
    }

    // 0a. Acquire a serviceable request slot. A request issued inside a
    // blackout window, or aimed at a server inside an outage window,
    // fails after the client's timeout; the client backs off (capped
    // exponential + seeded jitter), fails over to the next same-PoP
    // server every `failover_after` consecutive failures, and aborts the
    // session once a chunk burns `max_attempts_per_chunk` attempts.
    // Faults are pure functions of the request time, so this loop is a
    // pure function of the session's own timeline — thread-invariant.
    let mut now = now;
    let mut attempts_this_chunk: u32 = 0;
    loop {
        let reason = if rt.conn.in_blackout(now) {
            Some(FailReason::Blackout)
        } else if pool.pool_server(rt.server_idx).is_out(now) {
            Some(FailReason::Outage)
        } else {
            None
        };
        let Some(reason) = reason else {
            if attempts_this_chunk > 0 {
                rt.retry.record_success();
            }
            break;
        };
        attempts_this_chunk += 1;
        let decision = rt.retry.record_failure();
        let delay = match decision {
            RetryDecision::Retry { delay } | RetryDecision::Failover { delay } => delay,
            RetryDecision::Abort => {
                let meta = Meta::session(now, session_id);
                sub.on_session_aborted(
                    &meta,
                    &SessionAborted {
                        attempts: attempts_this_chunk,
                        reason,
                    },
                );
                sub.on_session_end(
                    &meta,
                    &SessionEnd {
                        chunks: rt.next_chunk,
                    },
                );
                return None;
            }
        };
        sub.on_request_failed(
            &Meta::session(now, session_id),
            &RequestFailed {
                server: rt.server_idx as u64,
                reason,
                attempt: attempts_this_chunk,
                retry_delay: delay,
            },
        );
        if matches!(decision, RetryDecision::Failover { .. }) {
            let members = pool.pop_members(rt.pop_index);
            let pos = members
                .binary_search(&rt.server_idx)
                .expect("session's server is a member of its PoP");
            let to = members[(pos + 1) % members.len()];
            if to != rt.server_idx {
                sub.on_failover(
                    &Meta::session(now, session_id),
                    &Failover {
                        from_server: rt.server_idx as u64,
                        to_server: to as u64,
                    },
                );
                rt.server_idx = to;
            }
        }
        now += delay;
    }

    // 0b. The session opens by fetching the manifest (§2) — a small, hot
    // object listing the available bitrates. It rides the same connection
    // and serve path as the chunks, and its time lands in the startup
    // delay.
    let now = if rt.manifest_done {
        now
    } else {
        rt.manifest_done = true;
        let rtt0 = rt.conn.rtt0_sample(now);
        let at_server = now + rtt0 / 2;
        let outcome = pool.pool_server_mut(rt.server_idx).serve_with(
            ObjectKey::manifest(rt.spec.video),
            streamlab_cdn::MANIFEST_BYTES,
            rt.spec.video.rank(),
            at_server,
            &[],
            Some(session_id),
            sub,
        );
        // A few KB fit the initial window: delivered one round-trip after
        // the server's first byte.
        at_server + outcome.total() + rtt0 / 2
    };

    let chunk = ChunkIndex(rt.next_chunk);
    let chunk_secs = video.chunk_seconds(chunk);

    // 1. ABR picks the bitrate. When retries have eaten the buffer below
    // the emergency threshold, the player overrides it with the lowest
    // rung — rebuffering is the one thing worse than ugly video.
    let chosen = rt.abr.choose(&AbrContext {
        ladder: catalog.ladder(),
        throughput_kbps: &rt.throughputs,
        buffer_s: rt.buffer.level_s(),
        next_chunk: rt.next_chunk,
    });
    let bitrate = if rt
        .retry
        .emergency_active(attempts_this_chunk, rt.buffer.level_s())
    {
        let floor = catalog.ladder().min_kbps();
        if floor != chosen {
            sub.on_abr_emergency(
                &Meta::session(now, session_id),
                &AbrEmergency {
                    from_kbps: chosen,
                    to_kbps: floor,
                },
            );
        }
        floor
    } else {
        chosen
    };
    let key = ObjectKey {
        video: rt.spec.video,
        chunk,
        bitrate_kbps: bitrate,
    };
    let size = video.chunk_bytes(chunk, bitrate);

    // 2. The GET crosses the network (half of rtt₀ out).
    let rtt0 = rt.conn.rtt0_sample(now);
    let at_server = now + rtt0 / 2;

    // 3. The CDN serves (cache lookup, retry timer, backend, prefetch).
    let prefetch = prefetch_policy.list(catalog, key);
    let rank = rt.spec.video.rank();
    let outcome = pool.pool_server_mut(rt.server_idx).serve_with(
        key,
        size,
        rank,
        at_server,
        &prefetch,
        Some(session_id),
        sub,
    );

    // 4. TCP delivers the bytes (self-loading, losses, snapshots).
    let send_start = at_server + outcome.total();
    let transfer = rt
        .conn
        .transfer_with(send_start, size, Some(session_id), sub);

    // 5. The download stack hands bytes to the player.
    let delivery = rt
        .stack
        .deliver(chunk, transfer.first_byte_at, transfer.last_byte_at);

    let d_fb = delivery.player_first_byte.duration_since(now);
    let d_lb = delivery
        .player_last_byte
        .duration_since(delivery.player_first_byte);

    // 6. Playback buffer accounting (stall attribution to this chunk).
    let rebuf_before = rt.buffer.rebuffer_count();
    let stalled_a = rt.buffer.advance_to(delivery.player_last_byte);
    let level_before_add = rt.buffer.level_s();
    let stalled_b = rt.buffer.add_chunk(delivery.player_last_byte, chunk_secs);
    let buf_dur = stalled_a + stalled_b;
    let buf_count = rt.buffer.rebuffer_count() - rebuf_before;

    // 7. Rendering.
    let dl = (d_fb + d_lb).as_secs_f64();
    let download_rate = if dl > 0.0 {
        chunk_secs / dl
    } else {
        f64::INFINITY
    };
    let rendered = rt.render.render_chunk(
        chunk_secs,
        bitrate,
        download_rate,
        rt.spec.visible,
        level_before_add,
    );

    let meta_done = Meta::session(delivery.player_last_byte, session_id);
    sub.on_chunk_served(
        &Meta::session(now, session_id),
        &ChunkServed {
            bytes: size,
            segments: transfer.segments,
            serve: outcome.total(),
            serve_offset: rtt0 / 2,
            net_end: transfer.last_byte_at.duration_since(now),
            stack: delivery.dds,
            first_byte: d_fb,
            download: d_lb,
        },
    );
    if buf_count > 0 || !buf_dur.is_zero() {
        sub.on_stall(
            &meta_done,
            &Stall {
                count: buf_count,
                duration: buf_dur,
            },
        );
    }
    sub.on_chunk_rendered(
        &meta_done,
        &ChunkRendered {
            frames: rendered.frames,
            dropped: rendered.dropped,
        },
    );

    // 8. Records — both halves of the chunk, handed to the shard's output.
    let player_record = PlayerChunkRecord {
        session: rt.spec.id,
        chunk,
        bitrate_kbps: bitrate,
        requested_at: now,
        d_fb,
        d_lb,
        chunk_secs,
        buf_count,
        buf_dur,
        visible: rt.spec.visible,
        avg_fps: rendered.avg_fps,
        dropped_frames: rendered.dropped,
        frames: rendered.frames,
        truth: ChunkTruth {
            dds: delivery.dds,
            rtt0,
            transient_buffered: delivery.transient_buffered,
        },
    };
    rt.throughputs
        .push(player_record.observed_throughput_kbps());
    rt.video_secs += chunk_secs;
    let cdn_record = CdnChunkRecord {
        session: rt.spec.id,
        chunk,
        d_wait: outcome.d_wait,
        d_open: outcome.d_open,
        d_read: outcome.d_read,
        d_backend: outcome.d_backend,
        cache: match outcome.status {
            streamlab_cdn::CacheStatus::RamHit => CacheOutcome::RamHit,
            streamlab_cdn::CacheStatus::DiskHit => CacheOutcome::DiskHit,
            streamlab_cdn::CacheStatus::Miss => CacheOutcome::Miss,
        },
        retry_fired: outcome.retry_fired,
        size_bytes: size,
        served_at: at_server,
        segments: transfer.segments,
        retx_segments: transfer.retx,
        tcp: transfer.snapshots,
    };
    out.chunk(
        &mut rt.chunks,
        ChunkRecord {
            player: player_record,
            cdn: cdn_record,
        },
    );

    // 9. Schedule the next request (immediately, unless the buffer is
    // full — then after it drains to the high-water mark). A session ends
    // when the user runs out of interest — or, with the QoE-abandonment
    // policy enabled, out of patience.
    rt.next_chunk += 1;
    if rt.next_chunk >= rt.spec.chunks_watched || rt.buffer.should_abandon() {
        sub.on_session_end(
            &meta_done,
            &SessionEnd {
                chunks: rt.next_chunk,
            },
        );
        return None;
    }
    let next_t = delivery.player_last_byte + rt.buffer.request_backoff();
    if rt.conn.idle_until(next_t) {
        sub.on_cwnd_reset(
            &Meta::session(next_t, session_id),
            &CwndReset {
                reason: ResetReason::Idle,
            },
        );
    }
    Some(next_t)
}

/// Hand the finished session to `out`: its beacon metadata and the chunk
/// records the runtime kept. `pop` and `server` identify the serving
/// server (`rt.server_idx`) — passed as plain ids so shard workers can
/// finalize without a fleet reference.
pub(super) fn finalize_session<O: ShardOutput>(
    rt: &mut SessionRuntime,
    population: &Population,
    pop: streamlab_workload::PopId,
    server: streamlab_workload::ServerId,
    out: &mut O,
) {
    let prefix = population.prefix(rt.spec.client.prefix);
    let startup = rt
        .buffer
        .startup_delay()
        .map(|d| d.as_secs_f64())
        .unwrap_or(f64::NAN);
    // §3 filter signal (i): proxies rewrite the client IP / user agent
    // seen by the CDN, detectable on ~90 % of proxied sessions.
    let ua_mismatch = prefix.proxied && rt.rng.chance(0.9);
    let meta = SessionMeta {
        session: rt.spec.id,
        prefix: prefix.id,
        video: rt.spec.video,
        video_secs: 0.0_f64.max(rt.video_secs),
        os: rt.spec.client.os,
        browser: rt.spec.client.browser,
        org: prefix.org.clone(),
        org_kind: prefix.org_kind,
        access: prefix.access,
        region: prefix.region,
        location: prefix.location,
        pop,
        server,
        distance_km: rt.distance_km,
        arrival: rt.spec.arrival,
        startup_delay_s: startup,
        proxied: prefix.proxied,
        ua_mismatch,
        gpu: rt.spec.client.gpu,
        visible: rt.spec.visible,
    };
    out.session(meta, std::mem::take(&mut rt.chunks));
}
