//! # streamlab-obs
//!
//! The simulator's self-telemetry substrate: typed simulation events with
//! an s2n-quic-style [`Subscriber`] trait, deterministic metric primitives
//! (counters, gauges, a log-linear latency histogram), and wall-clock run
//! profiling.
//!
//! The paper's whole method is instrumentation — per-chunk records from
//! both vantage points joined into one dataset (§2.2) — and this crate
//! gives the simulator that *generates* the dataset the same treatment:
//!
//! * [`event`] — one struct per simulation event (cache lookups, retry
//!   timer fires, TCP retransmits, stalls, …) plus the [`Subscriber`]
//!   trait. Every `on_*` method has an inlined no-op default, so the
//!   instrumented hot paths compile down to nothing when driven with
//!   [`NoopSubscriber`] — probes are free unless someone listens.
//! * [`metrics`] — [`SimMetrics`], the *deterministic* half of a run's
//!   telemetry: integer counters and fixed-bucket histograms keyed to
//!   sim-time quantities only. Collected per shard and merged in canonical
//!   shard order, its serialized form is byte-identical at any thread
//!   count.
//! * [`profile`] — [`RunProfile`], the *non-deterministic* half:
//!   wall-clock spans (setup / event loop / merge), per-shard wall times,
//!   and event-loop throughput. Wall-clock readings never appear anywhere
//!   else.
//! * [`recorder`] — [`MetricsRecorder`], the built-in subscriber that
//!   folds events into [`SimMetrics`], optionally buffers a JSONL
//!   structured trace and sim-time spans, and runs the localization pass
//!   online.
//! * [`span`] — deterministic sim-time [`SimSpan`]s (`session → chunk →
//!   {cache_lookup, net_transfer, render}`), canonicalized so the stream
//!   is byte-identical at any thread count.
//! * [`trace_writer`] — Chrome Trace Event Format export for
//!   `--trace-out`: sim-time span lanes plus wall-clock [`WallTrace`]
//!   engine lanes, loadable in Perfetto.
//! * [`diagnose`] — the paper's problem-localization taxonomy
//!   ([`ProblemClass`]): every rebuffer, abort and session attributed to
//!   the CDN server, the network path, the client download stack or the
//!   rendering path.
//! * [`openmetrics`] — OpenMetrics text exposition of the metrics
//!   (`--metrics-format openmetrics`).
//! * [`heartbeat`] — [`ProgressCell`], a lock-free per-shard liveness
//!   slot (events popped, current sim-time, cancel flag) that the run
//!   supervisor's watchdog polls to detect stalled shards.
//! * [`storage`] — [`storage::StorageFaultSnapshot`], the canonical
//!   names for injected-storage-fault counters exported by every
//!   OpenMetrics exposition path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diagnose;
pub mod event;
pub mod heartbeat;
pub mod metrics;
pub mod openmetrics;
pub mod profile;
pub mod recorder;
pub mod span;
pub mod storage;
pub mod trace_writer;

pub use diagnose::{
    classify_abort, classify_session, ChunkBreakdown, ProblemClass, RebufferShares, SessionLens,
};
pub use event::{
    AbrEmergency, CacheLookup, CacheTier, ChunkRendered, ChunkServed, CwndReset, FailReason,
    Failover, Meta, NoopSubscriber, RequestFailed, ResetReason, Retransmit, RetryTimerFired,
    RtoTimeout, ServerRestarted, SessionAborted, SessionEnd, SessionStart, ShardMerge,
    ShardStalled, Stall, Subscriber,
};
pub use heartbeat::{ProgressCell, ProgressSnapshot, ShardState};
pub use metrics::{Counter, Gauge, LogLinearHistogram, SimMetrics};
pub use profile::{RunMetrics, RunProfile, SchedulerCounters, ShardProfile};
pub use recorder::MetricsRecorder;
pub use span::{canonicalize, SimSpan, SpanKind};
pub use trace_writer::{render_chrome_trace, WallCounter, WallSpan, WallTrace, SIM_PID, WALL_PID};
