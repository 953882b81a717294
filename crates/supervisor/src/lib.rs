//! # streamlab-supervisor
//!
//! The crash-safety layer around the simulation harness: everything that
//! makes a *long* run survivable. The simulated world became
//! fault-tolerant in the fault-injection layer (`streamlab-faults`); this
//! crate makes the **harness that generates the trace** fault-tolerant:
//!
//! * [`atomic`] — torn-write-free file emission (temp file + fsync +
//!   rename), used by every CLI output path so a `SIGKILL` at any instant
//!   never leaves a half-written JSON/CSV behind.
//! * [`checkpoint`] — a versioned, fingerprinted run directory for
//!   multi-seed sweeps: a manifest plus one durable record per completed
//!   seed, so an interrupted sweep resumes exactly where it died and
//!   reproduces the uninterrupted output byte for byte.
//! * [`failpoint`] — deterministic storage fault injection: a
//!   [`Storage`] seam over create/write/fsync/rename/read used by every
//!   persistence path, governed by a JSON-declared, seeded
//!   [`StorageFaultPlan`] (`--storage-faults`) that injects EIO, ENOSPC,
//!   torn writes, lost fsyncs, slow IO, and crash failpoints — the
//!   substrate for systematic crash-point sweeps.
//! * [`watchdog`] — a wall-clock monitor over per-shard sim-time
//!   heartbeats: a shard that stops progressing past a deadline is
//!   cancelled and reported as a structured stall instead of hanging the
//!   process forever.
//! * [`audit`] — post-run structural invariant checks (conservation of
//!   sessions/chunks/bytes, histogram totals vs counters, monotone
//!   sim-time) that fail loudly with a pinpointed diagnostic rather than
//!   letting silent corruption reach the figures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atomic;
pub mod audit;
pub mod checkpoint;
pub mod failpoint;
pub mod fingerprint;
pub mod watchdog;

pub use atomic::{
    atomic_write, atomic_write_in, atomic_write_with, atomic_write_with_in, is_staging_name,
    sweep_stale_staging, sweep_stale_staging_in, AtomicWriteError, WriteStage,
};
pub use audit::{AuditReport, AuditViolation, DatasetFacts};
pub use checkpoint::{Manifest, RunDir, FORMAT_VERSION};
pub use failpoint::{
    ambient_storage, install_ambient_storage, FaultKind, FaultRule, Storage, StorageFaultPlan,
    StorageOp,
};
pub use fingerprint::{fingerprint_config, fnv1a64};
pub use watchdog::{HeartbeatSample, StallReport, WatchdogConfig};
