//! The CLI's call sequence for one workload, replayed in-process on one
//! thread with a span around every call into a layer.
//!
//! The engine half re-drives the sequential engine (`run_sequential` and
//! its per-session `step_chunk`) through the layers' public APIs, in the
//! same order and with the same arguments, so the replay's outputs must
//! be byte-identical to the CLI's. The command half then does what
//! `streamlab run` or `streamlab sweep` does with the run: the report,
//! figures, CSVs and plots, or the checkpoint record and `sweep.json`.

use crate::trace::{Layer, Tracer, NO_ID};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use streamlab::ablation::AblationMetrics;
use streamlab::cdn::{
    CacheStatus, CdnFleet, ObjectKey, PrefetchPolicy, ServerPool, MANIFEST_BYTES,
};
use streamlab::client::abr::{Abr, AbrContext};
use streamlab::client::{DownloadStack, PlaybackBuffer, RenderPath, RetryDecision, RetryState};
use streamlab::experiments::{run_experiment, ExperimentId};
use streamlab::net::{PathProfile, TcpConnection};
use streamlab::obs::{
    AbrEmergency, ChunkRendered, ChunkServed, CwndReset, FailReason, Failover, Meta,
    MetricsRecorder, NoopSubscriber, RequestFailed, ResetReason, RunMetrics, RunProfile,
    SchedulerCounters, SessionAborted, SessionEnd, SessionStart, SimMetrics, Stall, Subscriber,
};
use streamlab::sim::{EventQueue, RngStream, SimTime};
use streamlab::supervisor::{ambient_storage, atomic_write, atomic_write_with, Manifest, RunDir};
use streamlab::sweep::SweepSummary;
use streamlab::telemetry::records::{
    CacheOutcome, CdnChunkRecord, ChunkTruth, PlayerChunkRecord, SessionMeta,
};
use streamlab::telemetry::{export, Dataset, SegmentMeta, SpillSpec, TelemetrySink};
use streamlab::workload::{
    Catalog, ChunkIndex, OrgKind, Population, SessionGenerator, SessionSpec,
};
use streamlab::{ObsOptions, RunOutput, ServerReport, Simulation, SimulationConfig, SpillConfig};

/// The CLI's default `--spill-threshold`.
const DEFAULT_SPILL_THRESHOLD: usize = 262_144;

/// The CLI subcommand a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    Run,
    Sweep,
}

/// One workload as the CLI receives it: the subset of `streamlab`
/// arguments the benchmark's workloads use.
#[derive(Clone, Debug)]
pub struct Workload {
    pub command: Command,
    pub scale: String,
    pub sessions: Option<usize>,
    pub seed: u64,
    pub threads: usize,
    pub out: PathBuf,
    pub spill_dir: Option<PathBuf>,
    pub spill_threshold: usize,
}

impl Workload {
    /// Parse a `streamlab` argument list (`run …` or `sweep --seeds 1 …`).
    /// Anything outside the benchmark's workloads is rejected rather than
    /// silently replayed differently.
    pub fn from_cli_args(args: &[String]) -> Result<Workload, String> {
        let command = match args.first().map(String::as_str) {
            Some("run") => Command::Run,
            Some("sweep") => Command::Sweep,
            other => return Err(format!("cannot replay command {other:?}")),
        };
        let mut w = Workload {
            command,
            scale: "small".to_owned(),
            sessions: None,
            seed: 2016,
            threads: 1,
            out: PathBuf::from("streamlab-out"),
            spill_dir: None,
            spill_threshold: DEFAULT_SPILL_THRESHOLD,
        };
        let mut it = args[1..].iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--scale" => w.scale = value()?,
                "--sessions" => w.sessions = Some(number(value()?)? as usize),
                "--seed" => w.seed = number(value()?)?,
                "--threads" => w.threads = number(value()?)? as usize,
                "--out" => w.out = PathBuf::from(value()?),
                "--spill-dir" => w.spill_dir = Some(PathBuf::from(value()?)),
                "--spill-threshold" => w.spill_threshold = number(value()?)? as usize,
                "--seeds" if command == Command::Sweep => {
                    if value()? != "1" {
                        return Err("the replay covers one-seed sweeps only".to_owned());
                    }
                }
                other => return Err(format!("cannot replay flag {other}")),
            }
        }
        Ok(w)
    }

    /// The configuration the CLI builds from these arguments.
    pub fn config(&self) -> Result<SimulationConfig, String> {
        let mut cfg = match self.scale.as_str() {
            "tiny" => SimulationConfig::tiny(self.seed),
            "small" => SimulationConfig::small(self.seed),
            "default" => SimulationConfig::default_scale(self.seed),
            other => return Err(format!("unknown scale '{other}'")),
        };
        if let Some(n) = self.sessions {
            cfg.traffic.sessions = n;
        }
        cfg.threads = self.threads;
        cfg.spill = self.spill_dir.as_ref().map(|dir| SpillConfig {
            dir: dir.to_string_lossy().into_owned(),
            threshold: self.spill_threshold,
        });
        Ok(cfg)
    }
}

/// Counts taken where the work happens, for the per-layer ratios.
#[derive(Debug, Default)]
pub struct Counters {
    /// `serve_with` calls (chunks and manifests) and their outcomes.
    pub serves: u64,
    pub ram_hits: u64,
    pub misses: u64,
    pub retries: u64,
    /// TCP segments sent and retransmitted by `transfer_with`.
    pub segments: u64,
    pub retx: u64,
    /// Chunk requests simulated (one `step_chunk` that served a chunk).
    pub chunks: u64,
    pub queue_peak_len: u64,
    /// Calls to `write` on the export files and the bytes they carried.
    pub export_write_calls: u64,
    pub export_bytes: u64,
    pub sealed_segments: u64,
    pub sealed_bytes: u64,
}

impl Counters {
    fn served(&mut self, status: CacheStatus, retry_fired: bool) {
        self.serves += 1;
        match status {
            CacheStatus::RamHit => self.ram_hits += 1,
            CacheStatus::DiskHit => {}
            CacheStatus::Miss => self.misses += 1,
        }
        self.retries += u64::from(retry_fired);
    }
}

/// What one traced replay measured.
pub struct Replay {
    pub tracer: Tracer,
    pub counters: Counters,
    /// Wall nanoseconds of the replay, on the tracer's clock.
    pub wall_ns: u64,
    /// Nanoseconds inside the window that no root span covered.
    pub unattributed_ns: u64,
}

/// Span id of a session: ids are dense indices, far below `u32::MAX`.
fn sid(spec: &SessionSpec) -> u32 {
    u32::try_from(spec.id.raw()).unwrap_or(NO_ID - 1)
}

/// The runtime state of one in-flight session (the engine's
/// `SessionRuntime`).
struct Runtime {
    spec: SessionSpec,
    manifest_done: bool,
    server_idx: usize,
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
    video_secs: f64,
}

fn build_runtime(
    spec: SessionSpec,
    cfg: &SimulationConfig,
    session_master: &RngStream,
    catalog: &Catalog,
    population: &Population,
    fleet: &CdnFleet,
) -> Runtime {
    let mut rng = session_master.fork_indexed(spec.id.raw());
    let prefix = population.prefix(spec.client.prefix);
    let server_idx = fleet.assign(&prefix.location, spec.video, spec.id);
    let distance_km = fleet.distance_km(server_idx, &prefix.location);
    let overhead_spread = match prefix.org_kind {
        OrgKind::Enterprise => rng.uniform_range(0.3, 3.0),
        OrgKind::Residential => rng.uniform_range(0.7, 1.5),
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
    Runtime {
        spec,
        manifest_done: false,
        server_idx,
        pop_index: fleet.pop_index_of(server_idx),
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
    }
}

/// Everything the engine hands back.
struct EngineRun {
    dataset: Dataset,
    raw_sessions: usize,
    servers: Vec<ServerReport>,
    catalog: Catalog,
    fleet: CdnFleet,
    segments: Vec<SegmentMeta>,
    events: u64,
    setup_ms: f64,
    event_loop_ms: f64,
    merge_ms: f64,
}

/// The world and the day's sessions, drawn as the engine draws them.
fn generate_world(cfg: &SimulationConfig) -> (Catalog, Population, Vec<SessionSpec>) {
    let mut cat_rng = RngStream::new(cfg.seed, "catalog");
    let catalog = Catalog::generate(&cfg.catalog, &mut cat_rng);
    let mut pop_rng = RngStream::new(cfg.seed, "population");
    let population = Population::generate(&cfg.population, &mut pop_rng);
    let mut sess_rng = RngStream::new(cfg.seed, &format!("sessions-day{}", cfg.day));
    let specs = SessionGenerator::new(&catalog, &population).generate(&cfg.traffic, &mut sess_rng);
    (catalog, population, specs)
}

/// The sequential engine, one span per layer call.
fn run_engine<S: Subscriber>(
    cfg: &SimulationConfig,
    sub: &mut S,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<EngineRun, String> {
    let spill = match &cfg.spill {
        None => None,
        Some(sc) => {
            let dir = PathBuf::from(&sc.dir);
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create spill dir {}: {e}", dir.display()))?;
            Some(SpillSpec {
                dir,
                threshold: sc.threshold.max(1),
                shard: 0,
                storage: ambient_storage(),
            })
        }
    };
    let seed = cfg.seed;
    let setup_started = Instant::now();

    let (catalog, population, specs) = tr.span(Layer::WorkloadGenerate, NO_ID, NO_ID, || {
        generate_world(cfg)
    });

    let mut fleet = tr.span(Layer::CdnWarm, NO_ID, NO_ID, || {
        let mut fleet = CdnFleet::new(cfg.fleet.clone(), seed);
        fleet.warm_parallel(&catalog, 1);
        fleet
    });
    fleet.install_faults(&cfg.faults);

    let session_master = RngStream::new(seed, &format!("session-streams-day{}", cfg.day));
    let mut runtimes: Vec<Runtime> = Vec::with_capacity(specs.len());
    for spec in specs {
        let id = sid(&spec);
        let rt = tr.span(Layer::CoreRuntimeBuild, id, NO_ID, || {
            build_runtime(spec, cfg, &session_master, &catalog, &population, &fleet)
        });
        runtimes.push(rt);
    }
    let setup_ms = setup_started.elapsed().as_secs_f64() * 1.0e3;
    let loop_started = Instant::now();

    // --- run_sequential ---
    let policy = fleet.config().prefetch;
    let est_chunks: usize = runtimes
        .iter()
        .map(|rt| rt.spec.chunks_watched as usize)
        .sum();
    let mut sink = match spill {
        Some(spec) => TelemetrySink::with_spill(runtimes.len(), spec),
        None => TelemetrySink::with_capacity(runtimes.len(), est_chunks),
    };
    let mut queue: EventQueue<usize> = EventQueue::with_capacity(runtimes.len());
    for (idx, rt) in runtimes.iter().enumerate() {
        let at = rt.spec.arrival;
        tr.span(Layer::SimQueue, sid(&rt.spec), NO_ID, || {
            queue.schedule(at, idx)
        });
    }
    loop {
        tr.open(Layer::SimQueue, NO_ID, NO_ID);
        let ev = queue.pop();
        let Some(ev) = ev else {
            tr.close();
            break;
        };
        let idx = ev.event;
        let now = ev.at;
        let rt = &mut runtimes[idx];
        tr.set_id(sid(&rt.spec), rt.next_chunk);
        tr.close();
        let next = step_chunk(rt, now, &catalog, policy, &mut fleet, &mut sink, sub, tr, c);
        match next {
            Some(next_t) => {
                let id = sid(&rt.spec);
                tr.span(Layer::SimQueue, id, rt.next_chunk, || {
                    queue.schedule(next_t.max(now), idx)
                });
            }
            None => {
                let server = &fleet.servers()[rt.server_idx];
                let (pop, server_id) = (server.pop(), server.id());
                finalize_session(rt, &population, pop, server_id, &mut sink, tr);
            }
        }
    }
    tr.span(Layer::TelemetrySeal, NO_ID, NO_ID, || sink.seal());
    c.queue_peak_len = queue.peak_len() as u64;
    let events = queue.popped();
    drop(runtimes);
    let event_loop_ms = loop_started.elapsed().as_secs_f64() * 1.0e3;
    let merge_started = Instant::now();

    if let Some(e) = sink.spill_errors().first() {
        return Err(format!("telemetry spill degraded to in-RAM: {e}"));
    }
    let segments = sink.sealed_segments().to_vec();
    c.sealed_segments = segments.len() as u64;
    c.sealed_bytes = segments
        .iter()
        .map(|s| std::fs::metadata(&s.path).map_or(0, |m| m.len()))
        .sum();
    let (dataset, raw_sessions) = tr
        .span(Layer::TelemetryJoin, NO_ID, NO_ID, || {
            Dataset::join(sink).map(|ds| {
                let raw = ds.raw_sessions;
                (ds.filter_proxies(), raw)
            })
        })
        .map_err(|e| e.to_string())?;
    let servers = fleet
        .servers()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let st = s.stats();
            ServerReport {
                server: i,
                metro: fleet.pop_of(i).metro.to_owned(),
                requests: st.requests,
                miss_ratio: st.miss_ratio(),
                mean_latency_ms: st.mean_latency_ms(),
                retry_ratio: if st.requests == 0 {
                    0.0
                } else {
                    st.retry_fired as f64 / st.requests as f64
                },
            }
        })
        .collect();
    let merge_ms = merge_started.elapsed().as_secs_f64() * 1.0e3;
    Ok(EngineRun {
        dataset,
        raw_sessions,
        servers,
        catalog,
        fleet,
        segments,
        events,
        setup_ms,
        event_loop_ms,
        merge_ms,
    })
}

/// One chunk request of one session (the engine's `step_chunk`).
#[allow(clippy::too_many_arguments)]
fn step_chunk<S: Subscriber>(
    rt: &mut Runtime,
    now: SimTime,
    catalog: &Catalog,
    prefetch_policy: PrefetchPolicy,
    pool: &mut CdnFleet,
    sink: &mut TelemetrySink,
    sub: &mut S,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Option<SimTime> {
    let session_id = rt.spec.id.raw();
    let span_id = sid(&rt.spec);
    let chunk_id = rt.next_chunk;
    let video = catalog.video(rt.spec.video);

    if !rt.manifest_done {
        sub.on_session_start(
            &Meta::session(now, session_id),
            &SessionStart {
                server: rt.server_idx as u64,
            },
        );
    }

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

    let now = if rt.manifest_done {
        now
    } else {
        rt.manifest_done = true;
        let rtt0 = tr.span(Layer::NetTransfer, span_id, chunk_id, || {
            rt.conn.rtt0_sample(now)
        });
        let at_server = now + rtt0 / 2;
        let server = rt.server_idx;
        let video_id = rt.spec.video;
        let outcome = tr.span(Layer::CdnServe, span_id, chunk_id, || {
            pool.pool_server_mut(server).serve_with(
                ObjectKey::manifest(video_id),
                MANIFEST_BYTES,
                video_id.rank(),
                at_server,
                &[],
                Some(session_id),
                sub,
            )
        });
        c.served(outcome.status, outcome.retry_fired);
        at_server + outcome.total() + rtt0 / 2
    };

    let chunk = ChunkIndex(rt.next_chunk);
    let chunk_secs = video.chunk_seconds(chunk);

    tr.open(Layer::ClientAbr, span_id, chunk_id);
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
    tr.close();
    let key = ObjectKey {
        video: rt.spec.video,
        chunk,
        bitrate_kbps: bitrate,
    };
    let size = video.chunk_bytes(chunk, bitrate);

    let rtt0 = tr.span(Layer::NetTransfer, span_id, chunk_id, || {
        rt.conn.rtt0_sample(now)
    });
    let at_server = now + rtt0 / 2;

    let prefetch = prefetch_policy.list(catalog, key);
    let rank = rt.spec.video.rank();
    let server = rt.server_idx;
    let outcome = tr.span(Layer::CdnServe, span_id, chunk_id, || {
        pool.pool_server_mut(server).serve_with(
            key,
            size,
            rank,
            at_server,
            &prefetch,
            Some(session_id),
            sub,
        )
    });
    c.served(outcome.status, outcome.retry_fired);

    let send_start = at_server + outcome.total();
    let transfer = tr.span(Layer::NetTransfer, span_id, chunk_id, || {
        rt.conn
            .transfer_with(send_start, size, Some(session_id), sub)
    });
    c.segments += u64::from(transfer.segments);
    c.retx += u64::from(transfer.retx);

    let delivery = tr.span(Layer::ClientStack, span_id, chunk_id, || {
        rt.stack
            .deliver(chunk, transfer.first_byte_at, transfer.last_byte_at)
    });

    let d_fb = delivery.player_first_byte.duration_since(now);
    let d_lb = delivery
        .player_last_byte
        .duration_since(delivery.player_first_byte);

    tr.open(Layer::ClientPlayer, span_id, chunk_id);
    let rebuf_before = rt.buffer.rebuffer_count();
    let stalled_a = rt.buffer.advance_to(delivery.player_last_byte);
    let level_before_add = rt.buffer.level_s();
    let stalled_b = rt.buffer.add_chunk(delivery.player_last_byte, chunk_secs);
    let buf_dur = stalled_a + stalled_b;
    let buf_count = rt.buffer.rebuffer_count() - rebuf_before;
    tr.close();

    let dl = (d_fb + d_lb).as_secs_f64();
    let download_rate = if dl > 0.0 {
        chunk_secs / dl
    } else {
        f64::INFINITY
    };
    let visible = rt.spec.visible;
    let rendered = tr.span(Layer::ClientRender, span_id, chunk_id, || {
        rt.render.render_chunk(
            chunk_secs,
            bitrate,
            download_rate,
            visible,
            level_before_add,
        )
    });

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
            CacheStatus::RamHit => CacheOutcome::RamHit,
            CacheStatus::DiskHit => CacheOutcome::DiskHit,
            CacheStatus::Miss => CacheOutcome::Miss,
        },
        retry_fired: outcome.retry_fired,
        size_bytes: size,
        served_at: at_server,
        segments: transfer.segments,
        retx_segments: transfer.retx,
        tcp: transfer.snapshots,
    };
    // A spilling sink seals a segment from inside the append that fills
    // its arena; that call is charged to `telemetry.seal`.
    let sealed_before = (sink.sealed_segments().len(), sink.spill_errors().len());
    tr.open(Layer::TelemetryAppend, span_id, chunk_id);
    sink.player_chunk(player_record);
    sink.cdn_chunk(cdn_record);
    if (sink.sealed_segments().len(), sink.spill_errors().len()) == sealed_before {
        tr.close();
    } else {
        tr.close_as(Layer::TelemetrySeal);
    }
    c.chunks += 1;

    rt.next_chunk += 1;
    tr.open(Layer::ClientPlayer, span_id, chunk_id);
    let ended = rt.next_chunk >= rt.spec.chunks_watched || rt.buffer.should_abandon();
    let backoff = if ended {
        None
    } else {
        Some(rt.buffer.request_backoff())
    };
    tr.close();
    let Some(backoff) = backoff else {
        sub.on_session_end(
            &meta_done,
            &SessionEnd {
                chunks: rt.next_chunk,
            },
        );
        return None;
    };
    let next_t = delivery.player_last_byte + backoff;
    if tr.span(Layer::NetTransfer, span_id, chunk_id, || {
        rt.conn.idle_until(next_t)
    }) {
        sub.on_cwnd_reset(
            &Meta::session(next_t, session_id),
            &CwndReset {
                reason: ResetReason::Idle,
            },
        );
    }
    Some(next_t)
}

/// The session's beacons (the engine's `finalize_session`).
fn finalize_session(
    rt: &mut Runtime,
    population: &Population,
    pop: streamlab::workload::PopId,
    server: streamlab::workload::ServerId,
    sink: &mut TelemetrySink,
    tr: &mut Tracer,
) {
    let prefix = population.prefix(rt.spec.client.prefix);
    let startup = rt
        .buffer
        .startup_delay()
        .map(|d| d.as_secs_f64())
        .unwrap_or(f64::NAN);
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
    tr.span(Layer::TelemetryAppend, sid(&rt.spec), NO_ID, || {
        sink.session(meta)
    });
}

/// The cache-churn totals the engine folds into the metrics block.
fn fold_cache_churn(sim: &mut SimMetrics, fleet: &CdnFleet) {
    for s in fleet.servers() {
        let churn = s.cache().churn();
        sim.cache_promotions.add(churn.promotions);
        sim.cache_demotions.add(churn.demotions);
        sim.cache_fills.add(churn.fills);
        sim.cache_disk_evictions.add(churn.disk_evictions);
    }
}

fn run_output(run: EngineRun, metrics: Option<RunMetrics>) -> RunOutput {
    RunOutput {
        dataset: run.dataset,
        raw_sessions: run.raw_sessions,
        servers: run.servers,
        catalog: run.catalog,
        metrics,
        trace_lines: None,
        sim_spans: None,
        wall_trace: None,
        shard_errors: Vec::new(),
        segments: run.segments,
    }
}

/// A `Write` that counts the `write` calls it forwards.
struct CountingWriter<'a, W: Write> {
    inner: W,
    calls: &'a mut u64,
    bytes: &'a mut u64,
}

impl<W: Write> Write for CountingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        *self.calls += 1;
        let n = self.inner.write(buf)?;
        *self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn at(path: &Path) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// `streamlab run`: engine with the metrics recorder, then the report,
/// `figures.json`, both CSVs and the plots.
fn replay_run(w: &Workload, tr: &mut Tracer, c: &mut Counters) -> Result<(), String> {
    let cfg = w.config()?;
    let mut rec = MetricsRecorder::with_options(false, false);
    let run = run_engine(&cfg, &mut rec, tr, c)?;
    rec.add_events_processed(run.events);
    let (mut sim, _) = rec.into_parts();
    fold_cache_churn(&mut sim, &run.fleet);
    let events = sim.events_processed.get();
    let profile = RunProfile {
        engine: "sequential".to_owned(),
        threads: 1,
        setup_ms: run.setup_ms,
        event_loop_ms: run.event_loop_ms,
        merge_ms: run.merge_ms,
        events_per_sec: if run.event_loop_ms > 0.0 {
            events as f64 * 1.0e3 / run.event_loop_ms
        } else {
            0.0
        },
        peak_queue_depth: c.queue_peak_len,
        scheduler: SchedulerCounters::default(),
        shards: Vec::new(),
    };
    let out = run_output(run, Some(RunMetrics { sim, profile }));

    std::fs::create_dir_all(&w.out).map_err(|e| e.to_string())?;
    let mut report = String::new();
    for &id in ExperimentId::all() {
        let r = tr.span(Layer::Analysis, NO_ID, NO_ID, || run_experiment(id, &out));
        report.push_str(&format!("== {} ==\n{}\n\n", r.title, r.text));
    }
    let report_path = w.out.join("report.txt");
    tr.span(Layer::SupervisorAtomicWrite, NO_ID, NO_ID, || {
        atomic_write(&report_path, report.as_bytes())
    })
    .map_err(at(&report_path))?;

    let mut all = serde_json::Map::new();
    for &id in ExperimentId::all() {
        let r = tr.span(Layer::Analysis, NO_ID, NO_ID, || run_experiment(id, &out));
        all.insert(format!("{id:?}"), r.json);
    }
    let figures = serde_json::to_string_pretty(&all).map_err(|e| e.to_string())?;
    let figures_path = w.out.join("figures.json");
    tr.span(Layer::SupervisorAtomicWrite, NO_ID, NO_ID, || {
        atomic_write(&figures_path, figures.as_bytes())
    })
    .map_err(at(&figures_path))?;

    let (mut calls, mut bytes) = (0u64, 0u64);
    for (name, chunks) in [("chunks.csv", true), ("sessions.csv", false)] {
        let path = w.out.join(name);
        tr.open(Layer::SupervisorAtomicWrite, NO_ID, NO_ID);
        let written = atomic_write_with(&path, |f| {
            tr.open(Layer::TelemetryExport, NO_ID, NO_ID);
            let counted = CountingWriter {
                inner: f,
                calls: &mut calls,
                bytes: &mut bytes,
            };
            let r = if chunks {
                export::write_chunks_csv(&out.dataset, counted)
            } else {
                export::write_sessions_csv(&out.dataset, counted)
            };
            tr.close();
            r
        });
        tr.close();
        written.map_err(at(&path))?;
    }
    c.export_write_calls = calls;
    c.export_bytes = bytes;

    let plots_dir = w.out.join("plots");
    tr.span(Layer::CorePlot, NO_ID, NO_ID, || {
        streamlab::plot::emit_all(&out, &plots_dir)
    })
    .map_err(|e| e.to_string())?;

    // What the CLI prints to stdout, rendered and discarded as the
    // benchmark discards the CLI's stdout.
    let metrics = out.metrics.as_ref().expect("observed run has metrics");
    let mut stdout = io::sink();
    writeln!(stdout, "{report}").map_err(|e| e.to_string())?;
    write!(stdout, "{}", metrics.summary_with(8)).map_err(|e| e.to_string())?;
    drop(out);
    Ok(())
}

/// The checkpoint record payload the sweep writes for one seed.
fn seed_payload(m: &AblationMetrics, segments: &[SegmentMeta]) -> serde::Value {
    use serde::{Map, Number, Serialize, Value};
    let bits = [
        m.miss_rate,
        m.ram_hit_rate,
        m.hit_median_ms,
        m.miss_session_ratio,
        m.loss_free_share,
        m.first_chunk_retx_pct,
        m.mean_rebuffer_pct,
        m.mean_bitrate_kbps,
        m.startup_median_s,
        m.load_latency_corr,
    ]
    .iter()
    .map(|v| Value::Number(Number::UInt(v.to_bits())))
    .collect();
    let mut obj = Map::new();
    obj.insert("bits".to_owned(), Value::Array(bits));
    obj.insert("metrics".to_owned(), m.to_value());
    obj.insert(
        "segments".to_owned(),
        Value::Array(segments.iter().map(|s| s.to_value()).collect()),
    );
    Value::Object(obj)
}

/// `streamlab sweep --seeds 1`: the run directory and its manifest, the
/// seed's run, its `AblationMetrics`, the checkpoint record, `sweep.json`.
fn replay_sweep(w: &Workload, tr: &mut Tracer, c: &mut Counters) -> Result<(), String> {
    use serde::Serialize;
    let base = w.config()?;
    let seed = w.seed;
    let mut manifest_cfg = base.clone();
    manifest_cfg.seed = 0;
    manifest_cfg.faults.kill_after_seeds = 0;
    let manifest = Manifest::new("sweep", vec![seed], manifest_cfg.to_value());
    let run_dir = tr.span(Layer::SupervisorAtomicWrite, NO_ID, NO_ID, || {
        RunDir::create(&w.out, manifest)
    })?;

    let mut cfg = base;
    cfg.faults.kill_after_seeds = 0;
    cfg.seed = seed;
    if let Some(sc) = &cfg.spill {
        cfg.spill = Some(SpillConfig {
            dir: format!("{}/seed-{seed}", sc.dir),
            threshold: sc.threshold,
        });
    }
    let run = run_engine(&cfg, &mut NoopSubscriber, tr, c)?;
    let out = run_output(run, None);
    let m = tr.span(Layer::Analysis, NO_ID, NO_ID, || {
        AblationMetrics::from_run(&out)
    });
    tr.span(Layer::SupervisorAtomicWrite, NO_ID, NO_ID, || {
        run_dir.record_seed(seed, seed_payload(&m, &out.segments))
    })?;
    drop(out);

    let summary = SweepSummary::from_per_seed(vec![seed], vec![m]);
    let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
    let summary_path = w.out.join("sweep.json");
    tr.span(Layer::SupervisorAtomicWrite, NO_ID, NO_ID, || {
        atomic_write(&summary_path, (json + "\n").as_bytes())
    })
    .map_err(at(&summary_path))?;
    Ok(())
}

/// Replay workload `w`, tracing every layer call. `span_capacity` sizes
/// the span storage up front so it rarely grows inside the window.
pub fn replay(w: &Workload, span_capacity: usize) -> Result<Replay, String> {
    let mut tracer = Tracer::with_capacity(span_capacity);
    let mut counters = Counters::default();
    let start_ns = tracer.now_ns();
    match w.command {
        Command::Run => replay_run(w, &mut tracer, &mut counters)?,
        Command::Sweep => replay_sweep(w, &mut tracer, &mut counters)?,
    }
    let wall_ns = tracer.now_ns() - start_ns;
    assert!(tracer.is_balanced(), "every span was closed");
    // Root spans never overlap, so the time outside them is the window
    // minus their total.
    let unattributed_ns = wall_ns - tracer.root_ns();
    Ok(Replay {
        tracer,
        counters,
        wall_ns,
        unattributed_ns,
    })
}

/// An upper bound on the spans a replay of `w` records: at most twelve per
/// chunk its sessions plan to watch, five per session, and a few per run.
pub fn span_estimate(w: &Workload) -> Result<usize, String> {
    let (_, _, specs) = generate_world(&w.config()?);
    let chunks: usize = specs.iter().map(|s| s.chunks_watched as usize).sum();
    Ok(12 * chunks + 5 * specs.len() + 4096)
}

/// Work-stealing scheduler figures from one `run_observed` call of the
/// workload's configuration at its own thread count.
pub struct SchedulerProbe {
    pub steals: u64,
    /// Workers × event-loop wall − Σ shard wall, in seconds.
    pub idle_s: f64,
}

/// Run the workload's engine untraced with the metrics recorder and read
/// the scheduler figures off its public `RunProfile`. `spill_dir` stands
/// in for the workload's own spill directory.
pub fn probe_scheduler(w: &Workload, spill_dir: Option<&Path>) -> Result<SchedulerProbe, String> {
    let mut cfg = w.config()?;
    if let (Some(sc), Some(dir)) = (cfg.spill.as_mut(), spill_dir) {
        sc.dir = dir.to_string_lossy().into_owned();
    }
    let out = Simulation::new(cfg)
        .run_observed(ObsOptions::default())
        .map_err(|e| e.to_string())?;
    let profile = &out.metrics.as_ref().expect("observed run").profile;
    let busy_ms: f64 = profile.shards.iter().map(|s| s.wall_ms).sum();
    let workers = profile.scheduler.workers as f64;
    Ok(SchedulerProbe {
        steals: profile.scheduler.steals,
        idle_s: ((workers * profile.event_loop_ms - busy_ms) / 1.0e3).max(0.0),
    })
}

/// The session count at which workload `w`'s world simulates about
/// `target` chunk requests.
///
/// How many chunks a session watches is mostly a property of the world the
/// seed draws (the catalog's video lengths), so at a fixed session count
/// the work of a run varies by a factor of two across seeds. Scaling the
/// session count by the chunks the generated sessions plan to watch keeps
/// the work of every seed's run within a few percent of `target`.
pub fn sessions_for(w: &Workload, target: u64) -> Result<usize, String> {
    let cfg = w.config()?;
    let (_, _, specs) = generate_world(&cfg);
    let planned: u64 = specs.iter().map(|s| u64::from(s.chunks_watched)).sum();
    let scaled = cfg.traffic.sessions as f64 * target as f64 / planned.max(1) as f64;
    Ok(scaled.round().max(1.0) as usize)
}

/// What an untraced in-process run of the workload's configuration
/// produces: the chunk requests it simulated and, for a sweep, the
/// `sweep.json` bytes the CLI must write. Spilling is turned off: the
/// reference is the in-RAM run.
pub struct Reference {
    pub chunks: u64,
    pub sweep_json: Option<String>,
}

/// Run the workload's configuration untraced, in RAM, at its own thread
/// count (see [`Reference`]).
pub fn reference(w: &Workload) -> Result<Reference, String> {
    let mut cfg = w.config()?;
    cfg.spill = None;
    let out = Simulation::new(cfg)
        .run_observed(ObsOptions::default())
        .map_err(|e| e.to_string())?;
    if !out.shard_errors.is_empty() {
        return Err(format!("{} shard(s) lost", out.shard_errors.len()));
    }
    let chunks = out
        .metrics
        .as_ref()
        .expect("observed run")
        .sim
        .chunks_served
        .get();
    let sweep_json = match w.command {
        Command::Run => None,
        Command::Sweep => {
            let summary =
                SweepSummary::from_per_seed(vec![w.seed], vec![AblationMetrics::from_run(&out)]);
            Some(serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())? + "\n")
        }
    };
    Ok(Reference { chunks, sweep_json })
}
