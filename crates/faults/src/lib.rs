//! Deterministic fault-injection scenarios and the resilience policy that
//! answers them.
//!
//! The paper's findings are all *failure* mechanisms: cache miss storms
//! after server churn (§5), the ATS open-read retry timer, loss episodes
//! on the network path (§6), and stalls that the playback buffer may or
//! may not mask (§8). This crate declares those failures as data — a
//! [`FaultScenario`] parsed from config or a `--faults` JSON file — and
//! compiles them into per-server and per-path timelines the simulator
//! queries at serve / transfer time.
//!
//! ## Determinism contract
//!
//! Every fault is keyed to *simulated* time and applied lazily at the
//! point of use (a server applies its due restarts when the next request
//! reaches it; a path samples its loss boost inside the transfer that
//! overlaps the burst). Because each server's request stream and each
//! session's transfer times are identical at every `--threads` count, the
//! injected faults — and the retries, failovers, and aborts they provoke —
//! are bit-identical too. Retry jitter is drawn from a dedicated
//! per-session [`RngStream`](streamlab_sim::RngStream) fork so that
//! scenario-free runs consume exactly the same random numbers as before
//! the fault layer existed.
//!
//! The one deliberate exception is [`FaultScenario::panic_pops`] and its
//! siblings: they inject *harness* faults (a shard job that panics or
//! wedges) used to exercise the orchestrator's isolation of shard
//! workers, at any thread count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backoff;
mod scenario;
mod schedule;

pub use backoff::retry_delay;
pub use scenario::{
    BackendSlowdown, Blackout, FaultScenario, LossBurst, PopOutage, ResilienceConfig, ServerOutage,
    ServerRestart,
};
pub use schedule::{PathFaultTimeline, ServerFaultTimeline};
