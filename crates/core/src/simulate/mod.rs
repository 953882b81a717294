//! The end-to-end orchestrator: interleaves every session's chunk requests
//! in time order over the CDN fleet, producing the joined telemetry
//! dataset.
//!
//! One engine runs at every `threads` value. The fleet is split into
//! [`FleetShard`]s — one **per server** wherever the active fault scenario
//! cannot make requests fail (so no session can ever fail over off its
//! server), falling back to one per PoP where it can — sessions are
//! partitioned by the shard owning their assigned server, and one
//! independent event loop runs per shard across a work-stealing pool of
//! `threads` workers ([`crate::scheduler::WorkQueue`]). Because a session
//! only ever touches servers inside its own shard and the telemetry join
//! canonicalizes by session id, the output is **bit-identical** at any
//! thread count — and to one event loop over the whole fleet, which the
//! tests keep as their oracle. See DESIGN.md §9 for the full argument.

use crate::config::SimulationConfig;
use crate::scheduler::{effective_workers, StealEvent, WorkQueue};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use streamlab_cdn::{CdnFleet, FleetShard, ServerPool, TierChurn};
use streamlab_obs::{
    canonicalize, Meta, MetricsRecorder, NoopSubscriber, ProgressCell, RunMetrics, RunProfile,
    SchedulerCounters, ShardMerge, ShardProfile, ShardStalled, SimMetrics, SimSpan, Subscriber,
    WallCounter, WallInstant, WallSpan, WallTrace,
};
use streamlab_sim::{EventQueue, RngStream, SimTime};
use streamlab_supervisor::watchdog::{self, WatchdogConfig};
use streamlab_supervisor::{ambient_storage, Storage};
use streamlab_telemetry::{Dataset, SpillSpec, TelemetrySink};
use streamlab_workload::{Catalog, Population, SessionGenerator, SessionSpec};

/// Errors surfaced by a run.
#[derive(Debug)]
pub enum SimError {
    /// The telemetry join failed — an orchestrator bug by construction.
    Join(streamlab_telemetry::JoinError),
    /// A replayed session trace references entities outside this world.
    InvalidTrace(String),
    /// The configuration is self-contradictory (e.g. a stall harness
    /// fault without a shard deadline to detect it).
    Config(String),
    /// An audited sweep seed broke a structural invariant; the rendered
    /// [`streamlab_supervisor::AuditReport`].
    Audit(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Join(e) => write!(f, "telemetry join failed: {e}"),
            SimError::InvalidTrace(msg) => write!(f, "invalid session trace: {msg}"),
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Audit(report) => f.write_str(report),
        }
    }
}

impl std::error::Error for SimError {}

/// Resolved spill settings for one run: the [`crate::config::SpillConfig`]
/// with the directory created, the threshold clamped to ≥ 1, and the
/// ambient [`Storage`] captured once so every shard's segment writes go
/// through the same failpoint seam (§17 fault plans cover them).
#[derive(Debug, Clone)]
struct SpillPlan {
    dir: PathBuf,
    threshold: usize,
    storage: Storage,
}

impl SpillPlan {
    /// Resolve `cfg`'s spill settings up front, so a bad spill directory
    /// fails the run before any simulation work happens.
    fn resolve(cfg: &SimulationConfig) -> Result<Option<SpillPlan>, SimError> {
        let Some(sc) = &cfg.spill else {
            return Ok(None);
        };
        let dir = PathBuf::from(&sc.dir);
        std::fs::create_dir_all(&dir).map_err(|e| {
            SimError::Config(format!("cannot create spill dir {}: {e}", dir.display()))
        })?;
        Ok(Some(SpillPlan {
            dir,
            threshold: sc.threshold.max(1),
            storage: ambient_storage(),
        }))
    }

    /// The per-shard [`SpillSpec`]: shard index is baked into segment
    /// file names and headers, so concurrent shards never collide and
    /// the merged stream can validate provenance.
    fn spec(&self, shard: u32) -> SpillSpec {
        SpillSpec {
            dir: self.dir.clone(),
            threshold: self.threshold,
            shard,
            storage: self.storage.clone(),
        }
    }
}

/// One shard worker died. The run still completes: surviving shards'
/// sessions land in the dataset, and the error is reported here instead
/// of poisoning the whole run.
#[derive(Debug, Clone)]
pub enum ShardError {
    /// The shard's worker panicked (a bug, or an injected `panic_pops` /
    /// `panic_servers` harness fault); its half-built results were
    /// dropped.
    Panicked {
        /// Canonical shard index in the engine's shard order.
        shard_index: usize,
        /// PoP index of the shard whose worker panicked.
        pop_index: usize,
        /// Global indices of the servers the shard owned (one for a
        /// per-server shard, the PoP's members for a whole-PoP shard).
        servers: Vec<usize>,
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// The shard's sim-time stopped advancing past the configured
    /// `shard_deadline_ms` and the supervisor watchdog cancelled it; its
    /// partial results were dropped.
    Stalled {
        /// Canonical shard index in the engine's shard order.
        shard_index: usize,
        /// PoP index of the stalled shard.
        pop_index: usize,
        /// Global indices of the servers the shard owned.
        servers: Vec<usize>,
        /// Events the shard had processed when it was cancelled.
        events: u64,
        /// The sim-time (ns) the shard was stuck at.
        sim_ns: u64,
        /// The deadline it exceeded, wall-clock milliseconds.
        deadline_ms: u64,
    },
}

impl ShardError {
    /// Canonical shard index of the failed shard.
    pub fn shard_index(&self) -> usize {
        match self {
            ShardError::Panicked { shard_index, .. } => *shard_index,
            ShardError::Stalled { shard_index, .. } => *shard_index,
        }
    }

    /// PoP index of the failed shard, whatever the failure mode.
    pub fn pop_index(&self) -> usize {
        match self {
            ShardError::Panicked { pop_index, .. } => *pop_index,
            ShardError::Stalled { pop_index, .. } => *pop_index,
        }
    }

    /// Global server indices the failed shard owned — the sessions lost
    /// with it are exactly those assigned to these servers.
    pub fn servers(&self) -> &[usize] {
        match self {
            ShardError::Panicked { servers, .. } => servers,
            ShardError::Stalled { servers, .. } => servers,
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Name the single server of a fine shard; a coarse shard is its
        // whole PoP.
        let scope = |servers: &[usize], pop_index: usize| {
            if servers.len() == 1 {
                format!("server {} (PoP {pop_index})", servers[0])
            } else {
                format!("PoP {pop_index}")
            }
        };
        match self {
            ShardError::Panicked {
                pop_index,
                servers,
                message,
                ..
            } => {
                write!(
                    f,
                    "shard for {} panicked: {message}",
                    scope(servers, *pop_index)
                )
            }
            ShardError::Stalled {
                pop_index,
                servers,
                events,
                sim_ns,
                deadline_ms,
                ..
            } => write!(
                f,
                "shard for {} stalled at sim t={:.3}s after {events} events \
                 (no progress for {deadline_ms} ms); cancelled by the watchdog",
                scope(servers, *pop_index),
                *sim_ns as f64 / 1.0e9
            ),
        }
    }
}

/// Per-server aggregate for the §4.1.3 load-vs-performance analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerReport {
    /// Server index in the fleet.
    pub server: usize,
    /// Hosting PoP metro.
    pub metro: String,
    /// Chunks served.
    pub requests: u64,
    /// Cache-miss ratio.
    pub miss_ratio: f64,
    /// Mean total server latency, ms.
    pub mean_latency_ms: f64,
    /// Chunks on which the retry timer fired, ratio.
    pub retry_ratio: f64,
}

/// Observability options for [`Simulation::run_observed`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsOptions {
    /// Also buffer a structured JSONL event trace (one line per event).
    pub trace: bool,
    /// Also buffer deterministic sim-time spans (`session → chunk →
    /// {cache_lookup, net_transfer, render}`) for `--trace-out`
    /// ([`RunOutput::sim_spans`]).
    pub spans: bool,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutput {
    /// The joined, proxy-filtered dataset (what every analysis consumes).
    pub dataset: Dataset,
    /// The same dataset before proxy filtering, kept for preprocessing
    /// statistics.
    pub raw_sessions: usize,
    /// Per-server aggregates.
    pub servers: Vec<ServerReport>,
    /// The catalog used (several figures need it).
    pub catalog: Catalog,
    /// Self-telemetry: deterministic simulation metrics plus the
    /// wall-clock run profile. `None` unless the run was started with
    /// [`Simulation::run_observed`].
    pub metrics: Option<RunMetrics>,
    /// The structured JSONL event trace (`None` unless requested via
    /// [`ObsOptions::trace`]).
    pub trace_lines: Option<Vec<String>>,
    /// Canonicalized sim-time spans (`None` unless requested via
    /// [`ObsOptions::spans`]). Byte-identical at any `--threads`.
    pub sim_spans: Option<Vec<SimSpan>>,
    /// Wall-clock engine trace — run phases, per-worker shard job lanes,
    /// steal instants, watchdog heartbeat counters. `None` unless the run
    /// was observed; inherently non-deterministic.
    pub wall_trace: Option<WallTrace>,
    /// Shards whose worker panicked (sharded engine only). Their sessions
    /// are missing from the dataset; everything else is intact. Empty on
    /// a healthy run.
    pub shard_errors: Vec<ShardError>,
    /// Manifest of the sealed spill segments the run's telemetry streamed
    /// through (empty unless [`crate::config::SimulationConfig::spill`]
    /// was set). The files stay on disk after the run.
    pub segments: Vec<streamlab_telemetry::SegmentMeta>,
}

/// Everything a *streaming* run produces: the joined sessions arrive as a
/// bounded-memory iterator instead of a materialized [`Dataset`].
///
/// This is the out-of-core twin of [`RunOutput`], for million-session runs
/// where the dataset would not fit in RAM. The stream yields the raw join
/// *before* §3 proxy filtering — the filter's per-prefix volume heuristic
/// needs every session's played seconds first. Collect into a [`Dataset`]
/// and call [`Dataset::filter_proxies`], or fold the sessions into
/// per-session summaries and apply [`streamlab_telemetry::proxy_keep_mask`]
/// to those. Everything else the run computes (server reports, shard
/// errors, segment manifest) is materialized as usual since those are
/// small.
pub struct StreamOutput {
    /// Joined sessions in ascending session-id order, assembled
    /// incrementally from the spill segments (or from RAM when the run
    /// never spilled). Consume once.
    pub stream: streamlab_telemetry::SessionStream,
    /// Per-server aggregates.
    pub servers: Vec<ServerReport>,
    /// Shards whose worker panicked (sharded engine only).
    pub shard_errors: Vec<ShardError>,
    /// Manifest of the sealed spill segments backing the stream.
    pub segments: Vec<streamlab_telemetry::SegmentMeta>,
}

/// Everything a folded run produces ([`Simulation::run_folded`]): each
/// session folded into its shard's [`RunFold`] when it ended, the shards'
/// parts merged in ascending session id, and §3's proxy filter applied to
/// the summaries. No chunk record outlives its session.
pub(crate) struct FoldOutput {
    /// The kept sessions' summaries, in ascending session id.
    pub(crate) fold: RunFold,
    /// Sessions folded before the proxy filter: the join's raw count.
    pub(crate) raw_sessions: usize,
    /// Per-server aggregates.
    pub(crate) servers: Vec<ServerReport>,
    /// Self-telemetry; `None` unless the run was observed.
    pub(crate) metrics: Option<RunMetrics>,
    /// Shards whose worker failed; their sessions are not in `fold`.
    pub(crate) shard_errors: Vec<ShardError>,
}

/// Per-PoP aggregation of the fleet's serving statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopReport {
    /// Metro name.
    pub metro: String,
    /// Servers in the PoP.
    pub servers: usize,
    /// Chunks served.
    pub requests: u64,
    /// Request-weighted miss ratio.
    pub miss_ratio: f64,
    /// Request-weighted mean total server latency, ms.
    pub mean_latency_ms: f64,
}

impl RunOutput {
    /// Aggregate the per-server reports by PoP (metro), ordered by
    /// request volume — the fleet-operations view of §4.1.
    pub fn pop_reports(&self) -> Vec<PopReport> {
        use std::collections::HashMap;
        let mut acc: HashMap<&str, (usize, u64, f64, f64)> = HashMap::new();
        for s in &self.servers {
            let e = acc.entry(s.metro.as_str()).or_insert((0, 0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.requests;
            e.2 += s.miss_ratio * s.requests as f64;
            e.3 += s.mean_latency_ms * s.requests as f64;
        }
        let mut out: Vec<PopReport> = acc
            .into_iter()
            .map(|(metro, (servers, req, miss_w, lat_w))| PopReport {
                metro: metro.to_owned(),
                servers,
                requests: req,
                miss_ratio: if req == 0 { 0.0 } else { miss_w / req as f64 },
                mean_latency_ms: if req == 0 { 0.0 } else { lat_w / req as f64 },
            })
            .collect();
        out.sort_unstable_by(|a, b| b.requests.cmp(&a.requests).then(a.metro.cmp(&b.metro)));
        out
    }

    /// Summarize the primary outputs into the plain numbers the
    /// supervisor's invariant auditor checks against [`SimMetrics`].
    pub fn audit_facts(&self) -> streamlab_supervisor::DatasetFacts {
        crate::ablation::RunFold::over(&self.dataset.sessions)
            .facts(self.raw_sessions, self.shard_errors.len())
    }

    /// Run the supervisor's structural invariant audit over this run.
    /// `None` when the run was not observed (no [`SimMetrics`] to check).
    pub fn audit(&self) -> Option<streamlab_supervisor::AuditReport> {
        let m = &self.metrics.as_ref()?.sim;
        Some(streamlab_supervisor::audit::audit(m, &self.audit_facts()))
    }

    /// Pearson correlation between per-server request count and mean
    /// latency. The paper's §4.1.3 finding is that this is *negative*
    /// (busier servers are faster) under cache-focused routing.
    pub fn load_latency_correlation(&self) -> f64 {
        load_latency_correlation(&self.servers)
    }
}

/// [`RunOutput::load_latency_correlation`] over any run's server reports.
pub(crate) fn load_latency_correlation(servers: &[ServerReport]) -> f64 {
    let xs: Vec<f64> = servers
        .iter()
        .filter(|s| s.requests > 0)
        .map(|s| s.requests as f64)
        .collect();
    let ys: Vec<f64> = servers
        .iter()
        .filter(|s| s.requests > 0)
        .map(|s| s.mean_latency_ms)
        .collect();
    streamlab_analysis::stats::pearson(&xs, &ys)
}

mod session;

use crate::ablation::RunFold;
use session::{finalize_session, step_chunk, PlacedSession, SessionRuntime, ShardOutput};

/// The end-to-end simulator.
pub struct Simulation {
    cfg: SimulationConfig,
}

impl Simulation {
    /// Create a simulation from config.
    pub fn new(cfg: SimulationConfig) -> Self {
        Simulation { cfg }
    }

    /// Run the full measurement window and return the joined dataset.
    ///
    /// Runs uninstrumented ([`NoopSubscriber`], no metrics): the probes
    /// monomorphize away and this path costs the same as before the
    /// observability subsystem existed.
    pub fn run(self) -> Result<RunOutput, SimError> {
        self.run_joined(None, None)
    }

    /// Run the full measurement window and return the joined sessions as a
    /// bounded-memory stream instead of a materialized dataset — the
    /// out-of-core path for runs too large to hold in RAM. Pair with
    /// [`crate::config::SimulationConfig::spill`]; without spill the
    /// "stream" is just the in-RAM dataset behind an iterator.
    pub fn run_streaming(self) -> Result<StreamOutput, SimError> {
        let spill = SpillPlan::resolve(&self.cfg)?;
        let ran = self.run_inner(None, None, sink_for(spill.as_ref()), |sinks| {
            let segments = sealed_segments(&sinks);
            Ok((streamlab_telemetry::SessionStream::new(sinks), segments))
        })?;
        let (stream, segments) = ran.assembled;
        Ok(StreamOutput {
            stream,
            servers: ran.servers,
            shard_errors: ran.shard_errors,
            segments,
        })
    }

    /// Run with self-telemetry: [`RunOutput::metrics`] carries the
    /// deterministic [`SimMetrics`] plus the wall-clock [`RunProfile`],
    /// and, with [`ObsOptions::trace`], [`RunOutput::trace_lines`] holds
    /// the structured JSONL event trace.
    pub fn run_observed(self, obs: ObsOptions) -> Result<RunOutput, SimError> {
        self.run_joined(None, Some(obs))
    }

    /// Run against an explicit session trace instead of generating one —
    /// the replay path: the same recorded workload can be driven through
    /// different configurations (see [`crate::trace`]).
    ///
    /// The trace must reference this world's entities (its videos and
    /// prefixes), which holds whenever it was generated from a config with
    /// the same `seed`, `catalog` and `population` sections.
    pub fn run_with_sessions(self, specs: Vec<SessionSpec>) -> Result<RunOutput, SimError> {
        self.run_joined(Some(specs), None)
    }

    /// Run the full measurement window and fold every session into its
    /// shard's [`RunFold`] as it ends — the sweep and `serve` path, which
    /// needs only per-session summaries. No chunk record outlives its
    /// session: nothing is appended to a sink, sealed, spilled or joined,
    /// and [`crate::config::SimulationConfig::spill`] is ignored. With
    /// `observed` the run carries [`FoldOutput::metrics`], as
    /// [`Simulation::run_observed`] does, for the audit.
    pub(crate) fn run_folded(self, observed: bool) -> Result<FoldOutput, SimError> {
        let obs = observed.then(ObsOptions::default);
        let ran = self.run_inner(
            None,
            obs,
            |_, sessions: &[PlacedSession]| RunFold::with_capacity(sessions.len()),
            |parts| {
                let fold = RunFold::merge(parts);
                let raw_sessions = fold.session_count();
                Ok((fold.filter_proxies(), raw_sessions))
            },
        )?;
        let (fold, raw_sessions) = ran.assembled;
        Ok(FoldOutput {
            fold,
            raw_sessions,
            servers: ran.servers,
            metrics: ran.metrics,
            shard_errors: ran.shard_errors,
        })
    }

    /// The materialized run behind [`Simulation::run`],
    /// [`Simulation::run_observed`] and [`Simulation::run_with_sessions`]:
    /// shard sinks joined into the dataset, then proxy-filtered.
    fn run_joined(
        self,
        specs_override: Option<Vec<SessionSpec>>,
        obs: Option<ObsOptions>,
    ) -> Result<RunOutput, SimError> {
        let spill = SpillPlan::resolve(&self.cfg)?;
        let ran = self.run_inner(specs_override, obs, sink_for(spill.as_ref()), |sinks| {
            let segments = sealed_segments(&sinks);
            let dataset = Dataset::join_runs(sinks).map_err(SimError::Join)?;
            let raw_sessions = dataset.raw_sessions;
            Ok((dataset.filter_proxies(), raw_sessions, segments))
        })?;
        let (dataset, raw_sessions, segments) = ran.assembled;
        Ok(RunOutput {
            dataset,
            raw_sessions,
            servers: ran.servers,
            catalog: ran.catalog,
            metrics: ran.metrics,
            trace_lines: ran.trace_lines,
            sim_spans: ran.sim_spans,
            wall_trace: ran.wall_trace,
            shard_errors: ran.shard_errors,
            segments,
        })
    }

    /// Build the world, run the engine with one `make_out` output per
    /// shard, and `assemble` the surviving shards' outputs (canonical
    /// shard order) once the warmed fleet is freed. Assembly is timed as
    /// the profile's merge phase.
    fn run_inner<O, A>(
        self,
        specs_override: Option<Vec<SessionSpec>>,
        obs: Option<ObsOptions>,
        make_out: impl Fn(u32, &[PlacedSession]) -> O + Sync,
        assemble: impl FnOnce(Vec<O>) -> Result<A, SimError>,
    ) -> Result<Ran<A>, SimError>
    where
        O: ShardOutput + Send,
    {
        let cfg = &self.cfg;
        // Harness faults: shard jobs covering these PoPs/servers panic at
        // start (or wedge, for the stall variants), at any thread count.
        let harness = HarnessFaults::from_scenario(&cfg.faults);
        if harness.wants_stall() && cfg.shard_deadline_ms == 0 {
            return Err(SimError::Config(
                "stall faults wedge shard workers forever unless a watchdog can cancel them; \
                 set shard_deadline_ms (CLI: --shard-deadline)"
                    .into(),
            ));
        }
        let setup_started = Instant::now();
        let World {
            catalog,
            population,
            mut fleet,
            sessions,
            session_master,
        } = World::build(cfg, specs_override)?;
        let coarse = coarse_pop_plan(&fleet, &cfg.faults, &harness);

        let setup_ms = setup_started.elapsed().as_secs_f64() * 1.0e3;
        let loop_started = Instant::now();

        // --- the event loops: one per shard, one event per chunk request ---
        // Two paths: instrumented and noop. The noop path drives the same
        // generic engine with [`NoopSubscriber`], which monomorphizes the
        // probes away.
        let (outputs, recorder, shard_profiles, loop_stats, shard_errors, engine_wall) = match obs {
            Some(o) => {
                let (outputs, runs, errors, wall) = run_sharded(
                    cfg,
                    &mut fleet,
                    sessions,
                    &session_master,
                    &catalog,
                    &population,
                    &harness,
                    &coarse,
                    loop_started,
                    &make_out,
                    || MetricsRecorder::with_options(o.trace, o.spans),
                );
                // Fold shard recorders in canonical (shard_index) order, so
                // the metrics block and the event trace are byte-identical
                // at any thread count.
                let mut rec = MetricsRecorder::with_options(o.trace, o.spans);
                let mut profiles = Vec::with_capacity(runs.len());
                let mut total = EngineStats::default();
                for run in runs {
                    total.events += run.stats.events;
                    total.peak_queue = total.peak_queue.max(run.stats.peak_queue);
                    profiles.push(ShardProfile {
                        shard_index: run.shard_index as u64,
                        pop_index: run.pop_index as u64,
                        first_server: run.first_server as u64,
                        servers: run.n_servers as u64,
                        sessions: run.sessions,
                        events: run.stats.events,
                        peak_queue_depth: run.stats.peak_queue as u64,
                        wall_ms: run.wall_ms,
                        worker: run.worker as u64,
                        start_ms: run.start_ms,
                    });
                    rec.absorb(run.sub);
                }
                rec.add_events_processed(total.events);
                // Engine-topology events land after the per-shard streams;
                // they never touch SimMetrics.
                for p in &profiles {
                    rec.on_shard_merge(
                        &Meta::fleet(SimTime::ZERO),
                        &ShardMerge {
                            shard_index: p.shard_index,
                            pop_index: p.pop_index,
                            sessions: p.sessions,
                            events: p.events,
                        },
                    );
                }
                for e in &errors {
                    if let ShardError::Stalled {
                        shard_index,
                        pop_index,
                        events,
                        sim_ns,
                        ..
                    } = e
                    {
                        rec.on_shard_stalled(
                            &Meta::fleet(SimTime::ZERO),
                            &ShardStalled {
                                shard_index: *shard_index as u64,
                                pop_index: *pop_index as u64,
                                events: *events,
                                sim_ns: *sim_ns,
                            },
                        );
                    }
                }
                (outputs, Some(rec), profiles, total, errors, wall)
            }
            None => {
                // Unobserved runs report no profile, so the per-shard
                // stats and wall observations are not needed.
                let (outputs, _, errors, _) = run_sharded(
                    cfg,
                    &mut fleet,
                    sessions,
                    &session_master,
                    &catalog,
                    &population,
                    &harness,
                    &coarse,
                    loop_started,
                    &make_out,
                    || NoopSubscriber,
                );
                (
                    outputs,
                    None,
                    Vec::new(),
                    EngineStats::default(),
                    errors,
                    EngineWall::default(),
                )
            }
        };

        let event_loop_ms = loop_started.elapsed().as_secs_f64() * 1.0e3;
        let merge_started = Instant::now();

        // Nothing past the event loop reads the warmed fleet beyond these
        // aggregates: take them and free the caches before assembly
        // allocates the dataset, so the two are never alive together.
        let servers = server_reports(&fleet);
        let churn: Vec<TierChurn> = fleet.servers().iter().map(|s| s.cache().churn()).collect();
        drop(fleet);

        let assembled = assemble(outputs)?;
        let merge_ms = merge_started.elapsed().as_secs_f64() * 1.0e3;

        let (metrics, trace_lines, sim_spans, wall_trace) = match recorder {
            Some(mut rec) => {
                let want_trace = obs.map(|o| o.trace).unwrap_or(false);
                let want_spans = obs.map(|o| o.spans).unwrap_or(false);
                let sim_spans = want_spans.then(|| {
                    let mut spans = rec.take_spans();
                    canonicalize(&mut spans);
                    spans
                });
                let (mut sim, lines) = rec.into_parts();
                fold_cache_churn(&mut sim, &churn);
                let events = sim.events_processed.get();
                let profile = RunProfile {
                    engine: "sharded".to_owned(),
                    threads: cfg.threads.max(1) as u64,
                    setup_ms,
                    event_loop_ms,
                    merge_ms,
                    events_per_sec: if event_loop_ms > 0.0 {
                        events as f64 * 1.0e3 / event_loop_ms
                    } else {
                        0.0
                    },
                    peak_queue_depth: loop_stats.peak_queue as u64,
                    scheduler: engine_wall.scheduler,
                    shards: shard_profiles,
                };
                let wall = build_wall_trace(&profile, &engine_wall);
                (
                    Some(RunMetrics { sim, profile }),
                    if want_trace { Some(lines) } else { None },
                    sim_spans,
                    Some(wall),
                )
            }
            None => (None, None, None, None),
        };

        Ok(Ran {
            assembled,
            servers,
            catalog,
            metrics,
            trace_lines,
            sim_spans,
            wall_trace,
            shard_errors,
        })
    }
}

/// One shard sink per shard, spilling under `spill`. An in-RAM sink
/// reserves the shard's sessions and the chunks they may watch.
fn sink_for(
    spill: Option<&SpillPlan>,
) -> impl Fn(u32, &[PlacedSession]) -> TelemetrySink + Sync + '_ {
    move |shard, sessions| match spill {
        // Shard index is canonical, so segment names are stable across
        // runs and thread counts.
        Some(plan) => TelemetrySink::with_spill(sessions.len(), plan.spec(shard)),
        None => TelemetrySink::with_capacity(
            sessions.len(),
            sessions
                .iter()
                .map(|s| s.spec.chunks_watched as usize)
                .sum(),
        ),
    }
}

/// The sealed-segment manifest of the shard sinks, in shard order. A spill
/// failure degrades (that shard finished in RAM) rather than failing the
/// run; it is surfaced here so out-of-core users know the RSS bound did
/// not hold.
fn sealed_segments(sinks: &[TelemetrySink]) -> Vec<streamlab_telemetry::SegmentMeta> {
    for e in sinks.iter().flat_map(|s| s.spill_errors()) {
        eprintln!("warning: telemetry spill degraded to in-RAM: {e}");
    }
    sinks
        .iter()
        .flat_map(|s| s.sealed_segments())
        .cloned()
        .collect()
}

/// What [`Simulation::run_inner`] hands back: the assembled shard outputs
/// and everything else the run computed.
struct Ran<A> {
    assembled: A,
    servers: Vec<ServerReport>,
    catalog: Catalog,
    metrics: Option<RunMetrics>,
    trace_lines: Option<Vec<String>>,
    sim_spans: Option<Vec<SimSpan>>,
    wall_trace: Option<WallTrace>,
    shard_errors: Vec<ShardError>,
}

/// The world one run simulates: the catalog and client population drawn
/// from the seed, the warmed and fault-armed fleet, the day's sessions
/// (generated, or a validated replay trace) placed on it, and the master
/// stream every session's RNG forks from. Runtimes are not part of it:
/// the engine builds each one when its session arrives.
struct World {
    catalog: Catalog,
    population: Population,
    fleet: CdnFleet,
    sessions: Vec<PlacedSession>,
    session_master: RngStream,
}

impl World {
    fn build(
        cfg: &SimulationConfig,
        specs_override: Option<Vec<SessionSpec>>,
    ) -> Result<World, SimError> {
        let seed = cfg.seed;
        let mut cat_rng = RngStream::new(seed, "catalog");
        let catalog = Catalog::generate(&cfg.catalog, &mut cat_rng);
        let mut pop_rng = RngStream::new(seed, "population");
        let population = Population::generate(&cfg.population, &mut pop_rng);
        // Traffic varies by day; the world (catalog/population/fleet) does
        // not — the §4.2.1 recurrence analysis re-observes the same
        // deployment on successive days.
        let specs = match specs_override {
            Some(specs) => {
                for s in &specs {
                    if s.video.raw() as usize >= catalog.len() {
                        return Err(SimError::InvalidTrace(format!(
                            "{} watches {} but the catalog has {} videos",
                            s.id,
                            s.video,
                            catalog.len()
                        )));
                    }
                    if s.client.prefix.raw() as usize >= population.prefixes().len() {
                        return Err(SimError::InvalidTrace(format!(
                            "{} comes from {} but the population has {} prefixes",
                            s.id,
                            s.client.prefix,
                            population.prefixes().len()
                        )));
                    }
                }
                specs
            }
            None => {
                let mut sess_rng = RngStream::new(seed, &format!("sessions-day{}", cfg.day));
                SessionGenerator::new(&catalog, &population).generate(&cfg.traffic, &mut sess_rng)
            }
        };

        let mut fleet = CdnFleet::new(cfg.fleet.clone(), seed);
        fleet.warm(&catalog);
        fleet.install_faults(&cfg.faults);

        let sessions = specs
            .into_iter()
            .map(|spec| PlacedSession::new(spec, &population, &fleet))
            .collect();
        Ok(World {
            catalog,
            population,
            fleet,
            sessions,
            session_master: RngStream::new(seed, &format!("session-streams-day{}", cfg.day)),
        })
    }
}

/// Per-server aggregates, in fleet order.
fn server_reports(fleet: &CdnFleet) -> Vec<ServerReport> {
    fleet
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
        .collect()
}

/// The harness (test-infrastructure) faults of a scenario, preprocessed
/// for shard-level injection checks: sorted id lists plus per-shard
/// predicates.
struct HarnessFaults {
    panic_pops: Vec<usize>,
    stall_pops: Vec<usize>,
    panic_servers: Vec<usize>,
    stall_servers: Vec<usize>,
}

impl HarnessFaults {
    fn from_scenario(sc: &streamlab_faults::FaultScenario) -> HarnessFaults {
        let sorted = |v: &[usize]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        HarnessFaults {
            panic_pops: sorted(&sc.panic_pops),
            stall_pops: sorted(&sc.stall_pops),
            panic_servers: sorted(&sc.panic_servers),
            stall_servers: sorted(&sc.stall_servers),
        }
    }

    /// Any fault that wedges a worker — those are only survivable with a
    /// watchdog deadline configured.
    fn wants_stall(&self) -> bool {
        !self.stall_pops.is_empty() || !self.stall_servers.is_empty()
    }

    /// The injected panic message for `shard`, if any of its PoP or
    /// servers is targeted.
    fn panic_for(&self, shard: &FleetShard) -> Option<String> {
        let pop_index = shard.pop_index();
        if self.panic_pops.binary_search(&pop_index).is_ok() {
            return Some(format!(
                "injected shard panic (panic_pops includes PoP {pop_index})"
            ));
        }
        shard
            .members()
            .iter()
            .find(|s| self.panic_servers.binary_search(s).is_ok())
            .map(|s| format!("injected shard panic (panic_servers includes server {s})"))
    }

    /// True when `shard` must wedge (sim-time never advances) so the
    /// watchdog path gets exercised.
    fn stall_for(&self, shard: &FleetShard) -> bool {
        self.stall_pops.binary_search(&shard.pop_index()).is_ok()
            || shard
                .members()
                .iter()
                .any(|s| self.stall_servers.binary_search(s).is_ok())
    }
}

/// Decide, per PoP, whether the sharded engine must keep the PoP's
/// servers together (coarse) or may split them one shard per server.
///
/// A fine (per-server) shard is exact only while no session in it can
/// *fail over*: failover consults the PoP member list and may move a
/// session between servers, which a per-server split cannot represent.
/// The acquire loop fails a request in exactly two cases — the client is
/// inside a blackout window, or the assigned server is inside an outage
/// window — so those are precisely the faults that force coarseness:
///
/// * any `blackout` can fail sessions of **every** PoP → all coarse;
/// * a `pop_outage` / `server_outage` fails sessions on the affected
///   PoP's servers → that PoP coarse.
///
/// Restarts, loss bursts and backend slowdowns only change latency and
/// cache state, never reject a request, so they coarsen nothing. The
/// harness faults `panic_pops` / `stall_pops` target a *PoP's* shard and
/// keep their historical whole-PoP blast radius (`panic_servers` /
/// `stall_servers` are the per-server variants and need no coarsening).
fn coarse_pop_plan(
    fleet: &CdnFleet,
    scenario: &streamlab_faults::FaultScenario,
    harness: &HarnessFaults,
) -> Vec<bool> {
    let n_pops = fleet.pops().len();
    if !scenario.blackouts.is_empty() {
        return vec![true; n_pops];
    }
    let mut coarse = vec![false; n_pops];
    for o in &scenario.pop_outages {
        if o.pop < n_pops {
            coarse[o.pop] = true;
        }
    }
    for o in &scenario.server_outages {
        if o.server < fleet.len() {
            coarse[fleet.pop_index_of(o.server)] = true;
        }
    }
    for &p in harness.panic_pops.iter().chain(&harness.stall_pops) {
        if p < n_pops {
            coarse[p] = true;
        }
    }
    coarse
}

/// Deterministic event-loop throughput counters an engine reports back.
#[derive(Debug, Default, Clone, Copy)]
struct EngineStats {
    /// Events the loop(s) popped — equals the number ever scheduled, so
    /// the total is identical under any sharding.
    events: u64,
    /// Peak pending-event count, the maximum over shards (profile-only).
    peak_queue: usize,
}

/// One shard's engine result: canonical position, throughput, wall time
/// and the subscriber that observed it.
struct ShardRun<S> {
    shard_index: usize,
    pop_index: usize,
    first_server: usize,
    n_servers: usize,
    sessions: u64,
    wall_ms: f64,
    /// Worker thread that ran the job (a steal lands it elsewhere than
    /// the deal chose).
    worker: usize,
    /// Job start, ms after the event-loop epoch.
    start_ms: f64,
    stats: EngineStats,
    sub: S,
}

/// Wall-clock engine observations from one sharded run — scheduler
/// counters, the timestamped steal log, and watchdog heartbeat samples,
/// all measured against the event-loop epoch passed to [`run_sharded`].
/// Feeds [`RunProfile::scheduler`] and the `--trace-out` engine lanes;
/// never the deterministic metrics.
#[derive(Default)]
struct EngineWall {
    scheduler: SchedulerCounters,
    steals: Vec<StealEvent>,
    heartbeats: Vec<streamlab_supervisor::HeartbeatSample>,
}

/// Assemble the Chrome-trace wall-clock lanes for one observed run: a
/// `run` lane with the setup / event loop / merge phases, one lane per
/// worker carrying its shard jobs as complete events plus steal
/// instants, and the watchdog's heartbeat samples as counter series.
/// All timestamps are µs from setup start; shard/steal/heartbeat times
/// are measured from the event-loop epoch, so they are shifted by
/// `setup_ms` onto the shared timeline.
fn build_wall_trace(profile: &RunProfile, wall: &EngineWall) -> WallTrace {
    let us = |ms: f64| (ms.max(0.0) * 1.0e3) as u64;
    let loop_us = |ms: f64| us(profile.setup_ms + ms);
    let n_workers = profile
        .shards
        .iter()
        .map(|s| s.worker + 1)
        .chain(wall.steals.iter().map(|s| s.thief as u64 + 1))
        .max()
        .unwrap_or(0);
    let run_lane = n_workers;
    let mut t = WallTrace::default();
    for w in 0..n_workers {
        t.lanes.push((w, format!("worker {w}")));
    }
    t.lanes.push((run_lane, "run".to_owned()));
    let mut phase_start = 0.0;
    for (name, dur) in [
        ("setup", profile.setup_ms),
        ("event loop", profile.event_loop_ms),
        ("merge", profile.merge_ms),
    ] {
        t.spans.push(WallSpan {
            lane: run_lane,
            name: name.to_owned(),
            start_us: us(phase_start),
            dur_us: us(phase_start + dur).saturating_sub(us(phase_start)),
            args: Vec::new(),
        });
        phase_start += dur;
    }
    for s in &profile.shards {
        let name = if s.servers == 1 {
            format!("pop{}/srv{}", s.pop_index, s.first_server)
        } else {
            format!("pop{}", s.pop_index)
        };
        t.spans.push(WallSpan {
            lane: s.worker,
            name,
            start_us: loop_us(s.start_ms),
            dur_us: loop_us(s.start_ms + s.wall_ms).saturating_sub(loop_us(s.start_ms)),
            args: vec![
                ("shard".to_owned(), s.shard_index),
                ("sessions".to_owned(), s.sessions),
                ("events".to_owned(), s.events),
                ("peak_queue".to_owned(), s.peak_queue_depth),
            ],
        });
    }
    for st in &wall.steals {
        t.instants.push(WallInstant {
            lane: st.thief as u64,
            name: "steal".to_owned(),
            at_us: loop_us(st.at_ms),
            args: vec![("job".to_owned(), st.job as u64)],
        });
    }
    for hb in &wall.heartbeats {
        t.counters.push(WallCounter {
            name: "heartbeat events".to_owned(),
            at_us: loop_us(hb.at_ms),
            series: vec![(format!("shard {}", hb.shard_index), hb.events)],
        });
    }
    t
}

/// Fold the per-server cache-churn counters into the metrics block, in
/// canonical server order. Churn is a pure function of each server's
/// request stream, so the totals are threads-invariant.
fn fold_cache_churn(sim: &mut SimMetrics, churn: &[TierChurn]) {
    for c in churn {
        sim.cache_promotions.add(c.promotions);
        sim.cache_demotions.add(c.demotions);
        sim.cache_fills.add(c.fills);
        sim.cache_disk_evictions.add(c.disk_evictions);
    }
}

/// The engine: sessions partitioned by the shard owning their assigned
/// server, one independent event loop per [`FleetShard`], run across
/// `threads` workers (one at `threads <= 1`) by a work-stealing
/// [`WorkQueue`]. Each shard's telemetry goes to its own output, made by
/// `make_out` from the canonical shard index and the shard's sessions.
/// Returns the surviving shards' outputs in canonical shard order.
///
/// Shards are per **server** wherever `coarse` permits (see
/// [`coarse_pop_plan`]) and per PoP elsewhere, so a skewed session
/// distribution — one PoP holding most of the day — splits into many
/// independently runnable jobs instead of one monolithic tail.
///
/// Exactness (not just statistical equivalence) holds because:
/// 1. a session's server assignment is fixed before the loop and every
///    [`step_chunk`] touches only servers inside the session's shard
///    (failover — the one cross-server move — can only fire on coarse
///    shards, where the whole PoP is present), so cross-shard event
///    interleavings never affect state;
/// 2. the partition is stable and [`EventQueue`] breaks timestamp ties in
///    FIFO insertion order, so any two same-shard events pop in the same
///    relative order as in the global queue;
/// 3. the join ([`Dataset::join_runs`]) and the fold's merge
///    ([`RunFold::merge`]) both canonicalize by session id, making the
///    order of the shard outputs irrelevant.
///
/// Each shard job runs under [`catch_unwind`]: a panicking shard (a bug,
/// or an injected `panic_pops` / `panic_servers` harness fault) is
/// isolated, its error is reported as a [`ShardError`], and every other
/// shard's results survive — including sibling per-server shards of the
/// same PoP.
///
/// With `deadline_ms > 0` a supervisor watchdog thread runs alongside the
/// workers: each shard publishes its progress into a [`ProgressCell`]
/// every event pop, and a shard whose sim-time sits still past the
/// deadline is cancelled cooperatively and reported as
/// [`ShardError::Stalled`] — same partial-results semantics as a panic.
#[allow(clippy::too_many_arguments)]
fn run_sharded<S, F, O, G>(
    cfg: &SimulationConfig,
    fleet: &mut CdnFleet,
    sessions: Vec<PlacedSession>,
    session_master: &RngStream,
    catalog: &Catalog,
    population: &Population,
    harness: &HarnessFaults,
    coarse: &[bool],
    epoch: Instant,
    make_out: &G,
    make_sub: F,
) -> (Vec<O>, Vec<ShardRun<S>>, Vec<ShardError>, EngineWall)
where
    S: Subscriber + Send,
    F: Fn() -> S + Sync,
    O: ShardOutput + Send,
    G: Fn(u32, &[PlacedSession]) -> O + Sync,
{
    let (threads, deadline_ms) = (cfg.threads, cfg.shard_deadline_ms);
    let n_servers = fleet.len();
    let shards = fleet.split_shards_with(coarse);
    let n_jobs = shards.len();
    // Stable partition of sessions by the shard owning their assigned
    // server: ascending session index within each shard preserves the
    // insertion order the determinism argument rests on.
    let mut shard_of_server = vec![usize::MAX; n_servers];
    for (slot, shard) in shards.iter().enumerate() {
        for &s in shard.members() {
            shard_of_server[s] = slot;
        }
    }
    let mut by_shard: Vec<Vec<PlacedSession>> = (0..n_jobs).map(|_| Vec::new()).collect();
    for s in sessions {
        by_shard[shard_of_server[s.server_idx]].push(s);
    }
    // Static cost estimate for the LPT deal: one event per chunk watched,
    // plus one so empty shards still spread. The estimate only shapes the
    // schedule, never the results.
    let costs: Vec<u64> = by_shard
        .iter()
        .map(|sessions| {
            sessions
                .iter()
                .map(|s| s.spec.chunks_watched as u64 + 1)
                .sum()
        })
        .collect();
    let work: Vec<(FleetShard, Vec<PlacedSession>, Arc<ProgressCell>)> = shards
        .into_iter()
        .zip(by_shard)
        .map(|(shard, sessions)| (shard, sessions, Arc::new(ProgressCell::new())))
        .collect();
    // The watchdog's view of every shard, fixed before workers start and
    // keyed by canonical shard index.
    let cells: Vec<(usize, Arc<ProgressCell>)> = work
        .iter()
        .enumerate()
        .map(|(slot, (_, _, cell))| (slot, cell.clone()))
        .collect();

    // Workers drain a work-stealing deque: each starts on its own LPT-
    // dealt share and steals from the tail of loaded peers once dry, so
    // idle workers absorb a large PoP's per-server shards instead of
    // waiting. Each job's result lands in its own pre-allocated slot;
    // slot `i` belongs to the `i`-th shard of `split_shards_with`
    // (canonical order), so the results come out of the scope already
    // ordered — which worker ran which shard when never reaches the
    // output. A panic inside a shard job is caught below, so these locks
    // are never actually poisoned — `into_inner` recovery is belt-and-
    // braces against panics in the bookkeeping itself.
    type Job = (FleetShard, Vec<PlacedSession>, Arc<ProgressCell>);
    type ShardResult<S, O> = (FleetShard, Option<(O, ShardRun<S>)>, Option<ShardError>);
    let jobs: Vec<Mutex<Option<Job>>> = work.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<ShardResult<S, O>>>> =
        (0..n_jobs).map(|_| Mutex::new(None)).collect();
    // Clamp the worker count when the fleet is too small to feed every
    // requested thread: below MIN_COST_PER_WORKER of estimated work per
    // worker, spawn/merge overhead makes extra threads a net loss (tiny
    // fleets measurably *lose* throughput at 4 threads). Wall-clock only;
    // results are slot-indexed, so output is unaffected.
    let requested = threads.min(n_jobs).max(1);
    let workers = effective_workers(threads, n_jobs, &costs);
    let queue = WorkQueue::deal(workers, &costs);
    let heartbeat_log: Mutex<Vec<streamlab_supervisor::HeartbeatSample>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        // The watchdog joins on its own: workers mark their cell Done in
        // every outcome (completed, panicked, cancelled), and the
        // watchdog's loop exits once all cells are Done — so the scope
        // never deadlocks waiting for it.
        if deadline_ms > 0 {
            let (cells, heartbeat_log) = (&cells, &heartbeat_log);
            scope.spawn(move || {
                watchdog::run_observed(
                    cells,
                    WatchdogConfig::with_deadline(Duration::from_millis(deadline_ms)),
                    epoch,
                    heartbeat_log,
                );
            });
        }
        for w in 0..workers {
            let (queue, jobs, slots, make_sub) = (&queue, &jobs, &slots, &make_sub);
            scope.spawn(move || {
                while let Some(i) = queue.pop(w) {
                    let job = jobs[i].lock().unwrap_or_else(|e| e.into_inner()).take();
                    let Some((mut shard, sessions, cell)) = job else {
                        continue;
                    };
                    let started = Instant::now();
                    let start_ms = started.saturating_duration_since(epoch).as_secs_f64() * 1.0e3;
                    let n_sessions = sessions.len() as u64;
                    let pop_index = shard.pop_index();
                    let inject_panic = harness.panic_for(&shard);
                    let inject_stall = harness.stall_for(&shard);
                    cell.start();
                    // `AssertUnwindSafe`: on panic the shard is returned
                    // as-is (so the fleet merge stays total) and the half-
                    // built output and subscriber are dropped — exactly the
                    // partial-result semantics we want.
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        if let Some(message) = inject_panic {
                            panic!("{message}");
                        }
                        if inject_stall {
                            // Harness fault: sim-time never advances, so
                            // the watchdog must cancel us. run_inner
                            // rejects this fault when no deadline is
                            // configured.
                            while !cell.cancelled() {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            return None;
                        }
                        let mut sub = make_sub();
                        let out = make_out(i as u32, &sessions);
                        let (out, stats, completed) = run_shard(
                            &mut shard,
                            sessions,
                            cfg,
                            session_master,
                            catalog,
                            population,
                            out,
                            &mut sub,
                            Some(&cell),
                        );
                        // A cancelled loop's results are dropped here:
                        // partial shard state must never leak into the
                        // merged output.
                        completed.then_some((out, stats, sub))
                    }));
                    cell.finish();
                    // The shard's servers serve nothing more: free what
                    // traffic stored in their caches now, not when the
                    // whole fleet drops.
                    shard.retire_caches();
                    let entry: ShardResult<S, O> = match result {
                        Ok(Some((out, stats, sub))) => {
                            let run = ShardRun {
                                shard_index: i,
                                pop_index,
                                first_server: shard.members()[0],
                                n_servers: shard.members().len(),
                                sessions: n_sessions,
                                wall_ms: started.elapsed().as_secs_f64() * 1.0e3,
                                worker: w,
                                start_ms,
                                stats,
                                sub,
                            };
                            (shard, Some((out, run)), None)
                        }
                        Ok(None) => {
                            let snap = cell.snapshot();
                            let servers = shard.members().to_vec();
                            (
                                shard,
                                None,
                                Some(ShardError::Stalled {
                                    shard_index: i,
                                    pop_index,
                                    servers,
                                    events: snap.events,
                                    sim_ns: snap.sim_ns,
                                    deadline_ms,
                                }),
                            )
                        }
                        Err(payload) => {
                            let servers = shard.members().to_vec();
                            (
                                shard,
                                None,
                                Some(ShardError::Panicked {
                                    shard_index: i,
                                    pop_index,
                                    servers,
                                    message: panic_message(payload),
                                }),
                            )
                        }
                    };
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(entry);
                }
            });
        }
    });

    // Slot order *is* canonical shard order (see above), so the order of
    // the returned outputs — and the order shard recorders are folded in —
    // is reproducible run-to-run without a sort. Assembly canonicalizes by
    // session id anyway.
    let results: Vec<ShardResult<S, O>> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every shard job is claimed and resolved exactly once")
        })
        .collect();
    // Wall-clock flight recorder: the queue's steal log is timestamped
    // against its own epoch (the deal, a hair after `epoch`), so shift it
    // onto the caller's timeline before the queue drops.
    let steal_shift_ms = queue.epoch().saturating_duration_since(epoch).as_secs_f64() * 1.0e3;
    let mut scheduler = queue.counters();
    scheduler.workers_clamped = (requested - workers) as u64;
    let engine_wall = EngineWall {
        scheduler,
        steals: queue
            .steal_events()
            .into_iter()
            .map(|mut s| {
                s.at_ms += steal_shift_ms;
                s
            })
            .collect(),
        heartbeats: heartbeat_log
            .into_inner()
            .unwrap_or_else(|e| e.into_inner()),
    };

    let mut outputs = Vec::with_capacity(results.len());
    let mut shards = Vec::with_capacity(results.len());
    let mut runs = Vec::with_capacity(results.len());
    let mut errors = Vec::new();
    for (shard, ok, err) in results {
        if let Some((out, run)) = ok {
            outputs.push(out);
            runs.push(run);
        }
        if let Some(e) = err {
            errors.push(e);
        }
        shards.push(shard);
    }
    fleet.merge_shards(shards);
    (outputs, runs, errors, engine_wall)
}

/// Render a caught panic payload: strings pass through, anything else
/// gets a generic marker.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "shard worker panicked with a non-string payload".to_owned()
    }
}

/// One event loop over `sessions`, served by `pool`: a [`FleetShard`] in
/// the engine, or the whole [`CdnFleet`] in the tests' oracle. Every
/// chunk's records and every finished session go to `out`, which is
/// returned, sealed if the loop drained.
///
/// Every arrival is scheduled up front, in session order. A session's
/// runtime is built when its arrival event pops and dropped once the
/// session is finalized, so the loop holds runtimes only for the sessions
/// in flight. Construction forks the session's RNG by its id and reads
/// nothing the loop mutates, so when it happens never changes a draw or
/// the event order.
///
/// With a `progress` cell the loop publishes a heartbeat (events popped,
/// current sim-time) after every pop and honors the cell's cancel flag at
/// the pop boundary. The returned flag is `true` when the queue drained
/// normally, `false` when the loop was cancelled mid-run — the caller
/// must drop the partial results in that case. On runs that are never
/// cancelled the loop's behavior is byte-for-byte the uninstrumented one:
/// the heartbeat is two relaxed stores and never feeds back into
/// simulation state.
#[allow(clippy::too_many_arguments)]
fn run_shard<P: ServerPool, S: Subscriber, O: ShardOutput>(
    pool: &mut P,
    sessions: Vec<PlacedSession>,
    cfg: &SimulationConfig,
    session_master: &RngStream,
    catalog: &Catalog,
    population: &Population,
    mut out: O,
    sub: &mut S,
    progress: Option<&ProgressCell>,
) -> (O, EngineStats, bool) {
    let policy = cfg.fleet.prefetch;
    let mut queue: EventQueue<usize> = EventQueue::with_capacity(sessions.len());
    for (idx, s) in sessions.iter().enumerate() {
        queue.schedule(s.spec.arrival, idx);
    }
    let mut live: Vec<Option<Box<SessionRuntime>>> = sessions.iter().map(|_| None).collect();
    let mut completed = true;
    while let Some(ev) = queue.pop() {
        let idx = ev.event;
        let now = ev.at;
        if let Some(cell) = progress {
            cell.beat(queue.popped(), now.as_nanos());
            if cell.cancelled() {
                completed = false;
                break;
            }
        }
        let rt = live[idx].get_or_insert_with(|| {
            Box::new(SessionRuntime::new(
                &sessions[idx],
                cfg,
                session_master,
                catalog,
                population,
                O::KEEPS_CHUNKS,
            ))
        });
        match step_chunk(rt, now, catalog, policy, pool, &mut out, sub) {
            Some(next_t) => queue.schedule(next_t.max(now), idx),
            None => {
                // Read the server after the step: failover may have moved
                // the session within its PoP (never across shards).
                let server = pool.pool_server(rt.server_idx);
                let (pop, id) = (server.pop(), server.id());
                finalize_session(rt, population, pop, id, &mut out);
                live[idx] = None;
            }
        }
    }
    if completed {
        // Seal only completed shards: a cancelled shard's results are
        // dropped by the caller, and leaving a sink's tail unsealed avoids
        // writing segments that would never be read. A sink's seal sorts
        // what stays in RAM here, in the shard's worker, so the join finds
        // every run sorted.
        out.seal();
    }
    let stats = EngineStats {
        events: queue.popped(),
        peak_queue: queue.peak_len(),
    };
    (out, stats, completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimulationConfig;

    fn run_tiny(seed: u64) -> RunOutput {
        Simulation::new(SimulationConfig::tiny(seed))
            .run()
            .expect("tiny run")
    }

    #[test]
    fn tiny_run_produces_joined_dataset() {
        let out = run_tiny(1);
        assert!(out.dataset.sessions.len() > 300, "most sessions survive");
        assert!(out.dataset.chunk_count() > 1000);
        assert!(out.raw_sessions >= out.dataset.sessions.len());
        // Proxy filter dropped something (23 % of traffic is proxied).
        assert!(out.dataset.filtered_proxy_sessions > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_tiny(42);
        let b = run_tiny(42);
        assert_eq!(a.dataset.sessions.len(), b.dataset.sessions.len());
        assert_eq!(a.dataset.chunk_count(), b.dataset.chunk_count());
        for (x, y) in a.dataset.sessions.iter().zip(&b.dataset.sessions) {
            assert_eq!(x.meta.session, y.meta.session);
            for (cx, cy) in x.chunks.iter().zip(&y.chunks) {
                assert_eq!(cx.player.d_fb, cy.player.d_fb);
                assert_eq!(cx.cdn.retx_segments, cy.cdn.retx_segments);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_tiny(1);
        let b = run_tiny(2);
        let d_fb_a: u64 = a
            .dataset
            .chunks()
            .map(|(_, c)| c.player.d_fb.as_nanos())
            .sum();
        let d_fb_b: u64 = b
            .dataset
            .chunks()
            .map(|(_, c)| c.player.d_fb.as_nanos())
            .sum();
        assert_ne!(d_fb_a, d_fb_b);
    }

    #[test]
    fn chunk_sequences_are_contiguous() {
        let out = run_tiny(3);
        for s in &out.dataset.sessions {
            for (i, c) in s.chunks.iter().enumerate() {
                assert_eq!(c.chunk().raw() as usize, i);
                assert!(c.player.d_fb > streamlab_sim::SimDuration::ZERO);
                assert!(c.player.d_lb > streamlab_sim::SimDuration::ZERO);
                assert!(!c.cdn.tcp.is_empty(), "at least one snapshot per chunk");
            }
        }
    }

    #[test]
    fn requests_are_time_ordered_per_session() {
        let out = run_tiny(4);
        for s in &out.dataset.sessions {
            for w in s.chunks.windows(2) {
                assert!(w[1].player.requested_at >= w[0].player.requested_at);
            }
        }
    }

    #[test]
    fn paper_shape_miss_costs_an_order_of_magnitude() {
        let out = run_tiny(5);
        let stats = streamlab_analysis::figures::cdn::headline_stats(&out.dataset);
        assert!(stats.miss_rate > 0.0, "some misses must occur");
        assert!(
            stats.miss_median_ms > 10.0 * stats.hit_median_ms,
            "miss {} vs hit {}",
            stats.miss_median_ms,
            stats.hit_median_ms
        );
    }

    #[test]
    fn paper_shape_first_chunk_loses_most() {
        let out = run_tiny(6);
        let series = streamlab_analysis::figures::network::fig15(&out.dataset, 19);
        let first = series.bins.first().expect("chunk 0 bin");
        assert_eq!(first.x_center, 0.0);
        let later_mean = series.bins[3..].iter().map(|b| b.mean).sum::<f64>()
            / series.bins[3..].len().max(1) as f64;
        // Tiny-scale runs are seed-noisy; the paper-shape claim (first
        // chunk clearly dominates) is asserted at 1.5x here and exercised
        // more tightly in tests/paper_shapes.rs.
        assert!(
            first.mean > 1.5 * later_mean.max(0.01),
            "first {} vs later {}",
            first.mean,
            later_mean
        );
    }

    #[test]
    fn pop_reports_aggregate_all_requests() {
        let out = run_tiny(8);
        let pops = out.pop_reports();
        assert!(!pops.is_empty());
        let pop_total: u64 = pops.iter().map(|p| p.requests).sum();
        let server_total: u64 = out.servers.iter().map(|s| s.requests).sum();
        assert_eq!(pop_total, server_total);
        // Ordered by volume.
        for w in pops.windows(2) {
            assert!(w[0].requests >= w[1].requests);
        }
        // Server counts add up to the fleet size.
        let servers: usize = pops.iter().map(|p| p.servers).sum();
        assert_eq!(servers, out.servers.len());
        for p in &pops {
            assert!((0.0..=1.0).contains(&p.miss_ratio));
            assert!(p.mean_latency_ms >= 0.0);
        }
    }

    fn run_tiny_threads(seed: u64, threads: usize) -> RunOutput {
        let mut cfg = SimulationConfig::tiny(seed);
        cfg.threads = threads;
        Simulation::new(cfg).run().expect("tiny run")
    }

    /// The reference the engine is checked against: one global event
    /// queue over every session and the whole fleet — [`run_shard`] driven
    /// over the unsplit [`CdnFleet`], on the world a run builds.
    fn run_oracle(cfg: SimulationConfig) -> RunOutput {
        let World {
            catalog,
            population,
            mut fleet,
            sessions,
            session_master,
        } = World::build(&cfg, None).expect("oracle world");
        let (sink, _, completed) = run_shard(
            &mut fleet,
            sessions,
            &cfg,
            &session_master,
            &catalog,
            &population,
            TelemetrySink::new(),
            &mut NoopSubscriber,
            None,
        );
        assert!(completed, "an unwatched loop always drains");
        let dataset = Dataset::join(sink).expect("oracle join");
        RunOutput {
            raw_sessions: dataset.raw_sessions,
            dataset: dataset.filter_proxies(),
            servers: server_reports(&fleet),
            catalog,
            metrics: None,
            trace_lines: None,
            sim_spans: None,
            wall_trace: None,
            shard_errors: Vec::new(),
            segments: Vec::new(),
        }
    }

    /// Byte-compare a run's dataset and per-server reports with the
    /// oracle's.
    fn assert_matches_oracle(oracle: &RunOutput, out: &RunOutput, threads: usize) {
        let json = |o: &RunOutput| {
            (
                serde_json::to_string(&o.dataset).expect("serialize dataset"),
                serde_json::to_string(&o.servers).expect("serialize servers"),
            )
        };
        assert_eq!(out.raw_sessions, oracle.raw_sessions);
        assert!(
            json(oracle) == json(out),
            "engine at {threads} threads diverges from the global-queue oracle"
        );
    }

    #[test]
    fn sharded_engine_matches_sequential_exactly() {
        // Clean, then faulted: `stress_scenario`'s blackout makes every
        // PoP coarse, and the example's PoP outage makes only PoP 1
        // coarse — failover must keep every session inside its shard.
        let outage_restart = streamlab_faults::FaultScenario::from_json_str(include_str!(
            "../../../../examples/faults_outage_restart.json"
        ))
        .expect("valid scenario");
        let scenarios = [
            streamlab_faults::FaultScenario::default(),
            stress_scenario(),
            outage_restart,
        ];
        for faults in scenarios {
            let mut cfg = SimulationConfig::tiny(42);
            cfg.faults = faults;
            let oracle = run_oracle(cfg.clone());
            assert!(oracle.dataset.sessions.len() > 300);
            for threads in [1, 4] {
                cfg.threads = threads;
                let out = Simulation::new(cfg.clone()).run().expect("tiny run");
                assert!(out.shard_errors.is_empty());
                assert_matches_oracle(&oracle, &out, threads);
            }
        }
    }

    fn run_tiny_spilled(seed: u64, threads: usize, name: &str, threshold: usize) -> RunOutput {
        let dir = std::env::temp_dir().join(format!(
            "streamlab-spill-{name}-{threads}t-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = SimulationConfig::tiny(seed);
        cfg.threads = threads;
        cfg.spill = Some(crate::config::SpillConfig {
            dir: dir.to_string_lossy().into_owned(),
            threshold,
        });
        let out = Simulation::new(cfg).run().expect("spilled tiny run");
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn spilled_run_is_byte_identical_to_in_ram() {
        // A threshold far below the tiny run's chunk volume forces many
        // segment seals per shard; the assembled dataset must still be
        // byte-for-byte the in-RAM dataset at every thread count.
        let ram = run_tiny_threads(42, 1);
        let ram_json = serde_json::to_string(&ram.dataset).expect("serialize");
        for threads in [1usize, 2, 8] {
            let spilled = run_tiny_spilled(42, threads, "ident", 512);
            assert_eq!(
                ram_json,
                serde_json::to_string(&spilled.dataset).expect("serialize"),
                "spilled dataset diverged at {threads} threads"
            );
            assert!(
                spilled.shard_errors.is_empty(),
                "spill must not fault shards"
            );
        }
    }

    #[test]
    fn spilled_faulted_run_matches_in_ram() {
        // Fault injection changes the record stream (aborts, retries,
        // failovers); spill must stay transparent there too.
        let mut cfg = SimulationConfig::tiny(23);
        cfg.faults = stress_scenario();
        let ram = Simulation::new(cfg).run().expect("faulted tiny run");
        let ram_json = serde_json::to_string(&ram.dataset).expect("serialize");
        let dir = std::env::temp_dir().join(format!("streamlab-spill-flt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for threads in [1usize, 4] {
            let mut cfg = SimulationConfig::tiny(23);
            cfg.faults = stress_scenario();
            cfg.threads = threads;
            cfg.spill = Some(crate::config::SpillConfig {
                dir: dir.to_string_lossy().into_owned(),
                threshold: 256,
            });
            let spilled = Simulation::new(cfg).run().expect("spilled faulted run");
            assert_eq!(
                ram_json,
                serde_json::to_string(&spilled.dataset).expect("serialize"),
                "faulted spilled dataset diverged at {threads} threads"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_run_matches_materialized_run() {
        // The streaming path yields the raw (pre-proxy-filter) join;
        // collecting it and applying the same filter must reproduce the
        // materialized dataset exactly, spilled or not.
        let ram = run_tiny_threads(42, 1);
        let ram_json = serde_json::to_string(&ram.dataset).expect("serialize");
        let dir = std::env::temp_dir().join(format!("streamlab-stream-{}", std::process::id()));
        for spill in [false, true] {
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = SimulationConfig::tiny(42);
            cfg.threads = 2;
            if spill {
                cfg.spill = Some(crate::config::SpillConfig {
                    dir: dir.to_string_lossy().into_owned(),
                    threshold: 512,
                });
            }
            let out = Simulation::new(cfg).run_streaming().expect("streaming run");
            assert_eq!(out.segments.is_empty(), !spill);
            let sessions: Vec<_> = out.stream.map(|s| s.expect("stream yields")).collect();
            let raw = sessions.len();
            let collected = streamlab_telemetry::Dataset {
                sessions,
                filtered_proxy_sessions: 0,
                raw_sessions: raw,
            }
            .filter_proxies();
            assert_eq!(
                ram_json,
                serde_json::to_string(&collected).expect("serialize"),
                "streaming sessions diverged (spill={spill})"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fold at finalize checks what the join checked of a session's
    /// chunks: a repeated or a missing chunk index shows in the audit's
    /// facts, and a session with no chunks is dropped, as the join drops
    /// it.
    #[test]
    fn the_finalize_fold_flags_a_repeated_or_missing_chunk() {
        let out = run_tiny(7);
        let mut long = out.dataset.sessions.iter().filter(|s| s.chunks.len() >= 3);
        let (whole, twice, gap, empty) = (
            long.next().expect("a session"),
            long.next().expect("a second session"),
            long.next().expect("a third session"),
            long.next().expect("a fourth session"),
        );
        let mut fold = RunFold::default();
        fold.session(whole.meta.clone(), whole.chunks.clone());
        let mut repeated = twice.chunks.clone();
        repeated.insert(1, repeated[1].clone());
        fold.session(twice.meta.clone(), repeated);
        let mut missing = gap.chunks.clone();
        missing.remove(1);
        fold.session(gap.meta.clone(), missing);
        fold.session(empty.meta.clone(), Vec::new());
        let facts = RunFold::merge(vec![fold]).facts(3, 0);
        assert_eq!(facts.dataset_sessions, 3);
        assert_eq!(
            facts.noncontiguous_sessions,
            vec![twice.meta.session.raw(), gap.meta.session.raw()]
        );
        assert!(facts.nonmonotonic_sessions.is_empty());
    }

    #[test]
    fn thread_count_beyond_pop_count_is_harmless() {
        let out = run_tiny_threads(9, 64);
        assert!(out.dataset.sessions.len() > 300);
    }

    #[test]
    fn observed_run_yields_consistent_metrics() {
        let mut cfg = SimulationConfig::tiny(11);
        cfg.threads = 2;
        let out = Simulation::new(cfg)
            .run_observed(ObsOptions {
                trace: true,
                spans: false,
            })
            .expect("observed run");
        let m = out.metrics.as_ref().expect("metrics present");
        // Every session starts, ends, and shows up in the raw dataset.
        assert_eq!(m.sim.sessions_started.get(), m.sim.sessions_ended.get());
        assert_eq!(m.sim.sessions_started.get(), out.raw_sessions as u64);
        // One event pop per chunk step; tiers partition the lookups.
        assert_eq!(m.sim.chunks_served.get(), m.sim.events_processed.get());
        assert_eq!(
            m.sim.chunks_served.get(),
            m.sim.chunk_ram_hits.get() + m.sim.chunk_disk_hits.get() + m.sim.chunk_misses.get()
        );
        assert_eq!(m.sim.chunks_served.get(), m.sim.serve_latency_ns.count());
        assert!(m.sim.frames_rendered.get() > 0);
        assert!(m.sim.segments_sent.get() > m.sim.retx_segments.get());
        // Sharded profile carries per-shard spans; trace is non-empty and
        // each line is one JSON object.
        assert_eq!(m.profile.engine, "sharded");
        assert!(!m.profile.shards.is_empty());
        let lines = out.trace_lines.as_ref().expect("trace requested");
        assert!(lines.len() as u64 >= m.sim.chunks_served.get());
        let first = serde::Value::parse_json(&lines[0]).expect("line parses");
        assert!(first.get("at_ns").is_some());
        assert!(m.summary().contains("sharded"));
    }

    #[test]
    fn sim_metrics_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut cfg = SimulationConfig::tiny(42);
            cfg.threads = threads;
            Simulation::new(cfg)
                .run_observed(ObsOptions::default())
                .expect("observed run")
                .metrics
                .expect("metrics present")
                .sim
        };
        let json = |m: &SimMetrics| serde::Serialize::to_value(m).to_json_string();
        let one = json(&run(1));
        assert_eq!(one, json(&run(2)));
        assert_eq!(one, json(&run(8)));
    }

    #[test]
    fn unobserved_run_carries_no_metrics() {
        let out = run_tiny(12);
        assert!(out.metrics.is_none());
        assert!(out.trace_lines.is_none());
    }

    /// A scenario exercising every injection type at tiny scale: restarts
    /// across the fleet, a PoP outage, a loss burst, a blackout and a
    /// backend slowdown, all inside the 4 h tiny window.
    fn stress_scenario() -> streamlab_faults::FaultScenario {
        streamlab_faults::FaultScenario::from_json_str(
            r#"{
                "server_restarts": [
                    {"server": 0, "at_s": 3600.0}, {"server": 1, "at_s": 3600.0},
                    {"server": 2, "at_s": 3600.0}, {"server": 3, "at_s": 3600.0},
                    {"server": 4, "at_s": 3600.0}, {"server": 5, "at_s": 3600.0}
                ],
                "pop_outages": [{"pop": 1, "from_s": 5000.0, "until_s": 5600.0}],
                "loss_bursts": [{"from_s": 2000.0, "until_s": 2600.0, "added_loss": 0.08}],
                "blackouts": [{"from_s": 8000.0, "until_s": 8030.0}],
                "backend_slowdowns": [{"from_s": 9000.0, "until_s": 9600.0, "factor": 3.0}]
            }"#,
        )
        .expect("valid scenario")
    }

    fn run_faulted(threads: usize) -> RunOutput {
        let mut cfg = SimulationConfig::tiny(42);
        cfg.threads = threads;
        cfg.faults = stress_scenario();
        Simulation::new(cfg)
            .run_observed(ObsOptions::default())
            .expect("faulted run")
    }

    #[test]
    fn faulted_run_reports_fault_activity() {
        let out = run_faulted(2);
        let m = &out.metrics.as_ref().expect("metrics present").sim;
        assert_eq!(m.server_restarts.get(), 6);
        assert!(m.outage_rejections.get() > 0, "PoP outage must reject");
        assert!(m.request_retries.get() > 0);
        assert!(m.retry_backoff_ns.count() == m.request_retries.get());
        assert!(out.shard_errors.is_empty());
        // Sessions either finish or abort; nothing is silently dropped.
        assert_eq!(
            m.sessions_started.get(),
            m.sessions_ended.get(),
            "aborted sessions still emit SessionEnd"
        );
    }

    #[test]
    fn faulted_metrics_identical_across_thread_counts() {
        let json = |out: &RunOutput| {
            serde::Serialize::to_value(&out.metrics.as_ref().expect("metrics").sim).to_json_string()
        };
        let one = run_faulted(1);
        assert!(one.metrics.as_ref().expect("metrics").sim.fault_activity() > 0);
        let s = json(&one);
        assert_eq!(s, json(&run_faulted(2)));
        assert_eq!(s, json(&run_faulted(8)));
    }

    #[test]
    fn injected_shard_panic_yields_partial_results() {
        let full = run_tiny_threads(13, 2);
        for threads in [1, 2] {
            let mut cfg = SimulationConfig::tiny(13);
            cfg.threads = threads;
            cfg.faults.panic_pops = vec![0];
            let out = Simulation::new(cfg).run().expect("partial run succeeds");
            assert_eq!(out.shard_errors.len(), 1);
            assert_eq!(out.shard_errors[0].pop_index(), 0);
            assert!(matches!(&out.shard_errors[0], ShardError::Panicked { .. }));
            assert!(out.shard_errors[0]
                .to_string()
                .contains("injected shard panic"));
            // The surviving shards' sessions are all there — and nothing else.
            assert!(!out.dataset.sessions.is_empty());
            assert!(out.dataset.sessions.len() < full.dataset.sessions.len());
            let survivors: std::collections::HashSet<_> = out
                .dataset
                .sessions
                .iter()
                .map(|s| s.meta.session)
                .collect();
            // Every surviving session matches its counterpart in the full run
            // (panic isolation does not perturb other shards).
            for s in &full.dataset.sessions {
                if survivors.contains(&s.meta.session) {
                    let p = out
                        .dataset
                        .sessions
                        .iter()
                        .find(|x| x.meta.session == s.meta.session)
                        .expect("present");
                    assert_eq!(p.chunks.len(), s.chunks.len());
                }
            }
        }
    }

    #[test]
    fn stalled_shard_trips_watchdog_and_yields_partial_results() {
        let full = run_tiny_threads(13, 2);
        for threads in [1, 2] {
            let mut cfg = SimulationConfig::tiny(13);
            cfg.threads = threads;
            cfg.faults.stall_pops = vec![0];
            cfg.shard_deadline_ms = 150;
            let out = Simulation::new(cfg).run().expect("partial run succeeds");
            assert_eq!(out.shard_errors.len(), 1);
            assert_eq!(out.shard_errors[0].pop_index(), 0);
            assert!(
                matches!(
                    out.shard_errors[0],
                    ShardError::Stalled {
                        deadline_ms: 150,
                        ..
                    }
                ),
                "expected a stall, got {:?}",
                out.shard_errors[0]
            );
            assert!(out.shard_errors[0].to_string().contains("stalled"));
            // Survivors are intact and byte-equal to the healthy run's.
            assert!(!out.dataset.sessions.is_empty());
            assert!(out.dataset.sessions.len() < full.dataset.sessions.len());
            for p in &out.dataset.sessions {
                let f = full
                    .dataset
                    .sessions
                    .iter()
                    .find(|x| x.meta.session == p.meta.session)
                    .expect("survivor present in full run");
                assert_eq!(p.chunks.len(), f.chunks.len());
            }
        }
    }

    #[test]
    fn healthy_run_is_untouched_by_an_armed_watchdog() {
        // A generous deadline must never perturb output: the heartbeat is
        // observe-only, so bytes match the watchdog-less run exactly.
        let plain = run_tiny_threads(17, 4);
        let mut cfg = SimulationConfig::tiny(17);
        cfg.threads = 4;
        cfg.shard_deadline_ms = 60_000;
        let watched = Simulation::new(cfg).run().expect("watched run");
        assert!(watched.shard_errors.is_empty());
        assert_eq!(watched.dataset.sessions.len(), plain.dataset.sessions.len());
        assert_eq!(watched.dataset.chunk_count(), plain.dataset.chunk_count());
        for (w, p) in watched.dataset.sessions.iter().zip(&plain.dataset.sessions) {
            assert_eq!(w.meta.session, p.meta.session);
            assert_eq!(w.chunks.len(), p.chunks.len());
        }
    }

    #[test]
    fn stall_fault_without_deadline_is_rejected() {
        for threads in [1, 2] {
            let mut cfg = SimulationConfig::tiny(13);
            cfg.threads = threads;
            cfg.faults.stall_pops = vec![0];
            let err = Simulation::new(cfg).run().unwrap_err();
            assert!(
                matches!(err, SimError::Config(_)),
                "expected config error, got {err}"
            );
            assert!(err.to_string().contains("shard-deadline"));
        }
    }

    #[test]
    fn injected_server_panic_loses_only_that_server() {
        let full = run_tiny_threads(13, 2);
        for threads in [1, 2] {
            let mut cfg = SimulationConfig::tiny(13);
            cfg.threads = threads;
            cfg.faults.panic_servers = vec![0];
            let out = Simulation::new(cfg).run().expect("partial run succeeds");
            // Without failure faults the engine shards per server, so the
            // blast radius is exactly one server — not its whole PoP.
            assert_eq!(out.shard_errors.len(), 1);
            let err = &out.shard_errors[0];
            assert!(matches!(err, ShardError::Panicked { .. }));
            assert_eq!(err.servers(), &[0]);
            let msg = err.to_string();
            assert!(msg.contains("injected shard panic"), "{msg}");
            assert!(msg.contains("panic_servers includes server 0"), "{msg}");
            assert!(msg.contains("server 0"), "{msg}");
            // Exactly server 0's sessions are missing; every survivor —
            // including those on server 0's PoP siblings — is byte-equal to
            // its counterpart in the healthy run.
            let lost = full
                .dataset
                .sessions
                .iter()
                .filter(|s| s.meta.server.raw() == 0)
                .count();
            assert!(lost > 0, "server 0 must serve someone at tiny scale");
            assert_eq!(
                out.dataset.sessions.len(),
                full.dataset.sessions.len() - lost
            );
            assert!(out
                .dataset
                .sessions
                .iter()
                .all(|s| s.meta.server.raw() != 0));
            let metro0 = full.servers[0].metro.clone();
            let siblings: std::collections::HashSet<u64> = full
                .servers
                .iter()
                .filter(|s| s.metro == metro0 && s.server != 0)
                .map(|s| s.server as u64)
                .collect();
            assert!(!siblings.is_empty(), "tiny fleet has >1 server per PoP");
            let mut sibling_sessions = 0;
            for (p, f) in out.dataset.sessions.iter().zip(
                full.dataset
                    .sessions
                    .iter()
                    .filter(|s| s.meta.server.raw() != 0),
            ) {
                assert_eq!(p.meta.session, f.meta.session);
                assert_eq!(p.chunks.len(), f.chunks.len());
                for (cp, cf) in p.chunks.iter().zip(&f.chunks) {
                    assert_eq!(cp.player.d_fb, cf.player.d_fb);
                    assert_eq!(cp.cdn.retx_segments, cf.cdn.retx_segments);
                }
                if siblings.contains(&p.meta.server.raw()) {
                    sibling_sessions += 1;
                }
            }
            assert!(
                sibling_sessions > 0,
                "sibling shards of the panicked server's PoP must survive"
            );
        }
    }

    #[test]
    fn injected_server_stall_is_cancelled_at_server_granularity() {
        let full = run_tiny_threads(13, 2);
        for threads in [1, 2] {
            let mut cfg = SimulationConfig::tiny(13);
            cfg.threads = threads;
            cfg.faults.stall_servers = vec![3];
            cfg.shard_deadline_ms = 150;
            let out = Simulation::new(cfg).run().expect("partial run succeeds");
            assert_eq!(out.shard_errors.len(), 1);
            let err = &out.shard_errors[0];
            assert!(
                matches!(
                    err,
                    ShardError::Stalled {
                        deadline_ms: 150,
                        ..
                    }
                ),
                "expected a stall, got {err:?}"
            );
            assert_eq!(err.servers(), &[3]);
            let msg = err.to_string();
            assert!(msg.contains("stalled"), "{msg}");
            assert!(msg.contains("server 3"), "{msg}");
            assert!(msg.contains("cancelled by the watchdog"), "{msg}");
            // Only server 3's sessions are gone.
            let lost = full
                .dataset
                .sessions
                .iter()
                .filter(|s| s.meta.server.raw() == 3)
                .count();
            assert!(lost > 0);
            assert_eq!(
                out.dataset.sessions.len(),
                full.dataset.sessions.len() - lost
            );
            assert!(out
                .dataset
                .sessions
                .iter()
                .all(|s| s.meta.server.raw() != 3));
        }
    }

    #[test]
    fn server_fault_in_coarse_pop_takes_the_whole_pop_shard() {
        // A pop_outage on PoP 0 forces that PoP coarse (failover is
        // possible there); a panic_servers fault on one of its members
        // then costs the whole PoP's shard — the documented fallback.
        for threads in [1, 2] {
            let mut cfg = SimulationConfig::tiny(13);
            cfg.threads = threads;
            cfg.faults = streamlab_faults::FaultScenario::from_json_str(
                r#"{
                    "pop_outages": [{"pop": 0, "from_s": 5000.0, "until_s": 5100.0}],
                    "panic_servers": [0]
                }"#,
            )
            .expect("valid scenario");
            let out = Simulation::new(cfg).run().expect("partial run succeeds");
            assert_eq!(out.shard_errors.len(), 1);
            let err = &out.shard_errors[0];
            assert_eq!(err.pop_index(), 0);
            assert!(
                err.servers().len() > 1,
                "coarse shard owns the whole PoP, got {:?}",
                err.servers()
            );
            assert!(err.to_string().contains("PoP 0"));
        }
    }

    #[test]
    fn stall_server_without_deadline_is_rejected() {
        for threads in [1, 2] {
            let mut cfg = SimulationConfig::tiny(13);
            cfg.threads = threads;
            cfg.faults.stall_servers = vec![1];
            let err = Simulation::new(cfg).run().unwrap_err();
            assert!(matches!(err, SimError::Config(_)));
            assert!(err.to_string().contains("shard-deadline"));
        }
    }

    #[test]
    fn healthy_run_shards_per_server() {
        let mut cfg = SimulationConfig::tiny(11);
        cfg.threads = 4;
        let out = Simulation::new(cfg)
            .run_observed(ObsOptions::default())
            .expect("observed run");
        let m = out.metrics.expect("metrics present");
        // Tiny = 20 servers over 10 PoPs, no failure faults: every shard
        // is a single server, in canonical (PoP, then server) order.
        assert_eq!(m.profile.shards.len(), 20);
        let mut seen = std::collections::HashSet::new();
        for (i, w) in m.profile.shards.windows(2).enumerate() {
            assert_eq!(w[0].shard_index, i as u64);
            assert!(
                (w[0].pop_index, w[0].first_server) < (w[1].pop_index, w[1].first_server),
                "canonical order violated at shard {i}"
            );
        }
        for sh in &m.profile.shards {
            assert_eq!(sh.servers, 1);
            assert!(seen.insert(sh.first_server), "server in two shards");
        }
        assert_eq!(seen.len(), 20);
        assert!(m.summary().contains("srv"));
    }

    #[test]
    fn failure_faults_coarsen_only_their_pop() {
        let mut cfg = SimulationConfig::tiny(42);
        cfg.threads = 4;
        cfg.faults = stress_scenario();
        let out = Simulation::new(cfg)
            .run_observed(ObsOptions::default())
            .expect("observed run");
        let m = out.metrics.expect("metrics present");
        // stress_scenario has a blackout, which can fail any session:
        // every PoP must stay coarse (10 whole-PoP shards).
        assert_eq!(m.profile.shards.len(), 10);
        assert!(m.profile.shards.iter().all(|s| s.servers == 2));

        // Outage-only scenario: PoP 1 coarse, the other 9 PoPs split.
        let mut cfg = SimulationConfig::tiny(42);
        cfg.threads = 4;
        cfg.faults = streamlab_faults::FaultScenario::from_json_str(
            r#"{"pop_outages": [{"pop": 1, "from_s": 5000.0, "until_s": 5600.0}]}"#,
        )
        .expect("valid scenario");
        let out = Simulation::new(cfg)
            .run_observed(ObsOptions::default())
            .expect("observed run");
        let m = out.metrics.expect("metrics present");
        assert_eq!(m.profile.shards.len(), 19, "9 split PoPs + 1 coarse");
        let coarse: Vec<_> = m.profile.shards.iter().filter(|s| s.servers > 1).collect();
        assert_eq!(coarse.len(), 1);
        assert_eq!(coarse[0].pop_index, 1);
    }

    #[test]
    fn zero_session_shards_are_harmless() {
        // Few sessions over many servers: some shards run zero sessions
        // and must still round-trip (empty sink, zero events, merged
        // back) without perturbing the output.
        let config = |threads: usize| {
            let mut cfg = SimulationConfig::tiny(21);
            cfg.traffic.sessions = 40;
            cfg.threads = threads;
            cfg
        };
        let oracle = run_oracle(config(1));
        for threads in [1, 4] {
            let out = Simulation::new(config(threads))
                .run_observed(ObsOptions::default())
                .expect("observed run");
            let m = out.metrics.as_ref().expect("metrics present");
            assert!(
                m.profile.shards.iter().any(|s| s.sessions == 0),
                "40 sessions over 20 servers must leave some shard empty"
            );
            assert_matches_oracle(&oracle, &out, threads);
        }
    }

    #[test]
    fn singleton_pop_fleet_matches_sequential() {
        // One server per PoP: every shard is simultaneously per-server
        // and per-PoP — the fine/coarse boundary collapses; more workers
        // than shards leaves the spares idle.
        let config = |threads: usize| {
            let mut cfg = SimulationConfig::tiny(5);
            cfg.fleet_mut().servers = 10;
            cfg.threads = threads;
            cfg
        };
        let oracle = run_oracle(config(1));
        assert!(oracle.dataset.sessions.len() > 300);
        for threads in [1, 16] {
            let out = Simulation::new(config(threads)).run().expect("run");
            assert_matches_oracle(&oracle, &out, threads);
        }
    }

    #[test]
    fn startup_recorded_for_nearly_all_sessions() {
        let out = run_tiny(7);
        let with_startup = out
            .dataset
            .sessions
            .iter()
            .filter(|s| s.meta.startup_delay_s.is_finite())
            .count();
        assert!(with_startup as f64 > 0.99 * out.dataset.sessions.len() as f64);
    }
}
