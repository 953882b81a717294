//! # streamlab-cdn
//!
//! The CDN substrate: an Apache-Traffic-Server-like caching HTTP server
//! fleet, reproducing §4.1 of the paper.
//!
//! * [`cache`] — a byte-capacity cache with pluggable eviction (LRU as
//!   deployed; perfect-LFU, GD-Size and FIFO for the §4.1.1 take-away
//!   ablation), composed into a RAM + disk [`cache::TieredCache`].
//! * [`ats`] — the request serve path and its latency anatomy:
//!   `D_wait` (request queue), `D_open` (first open attempt), `D_read`
//!   (RAM/disk read or backend first byte) including the **10 ms
//!   asynchronous open-read retry timer** that bimodalizes `D_read`
//!   (Fig. 5), rank-dependent disk seek latency (Fig. 6b), and the backend
//!   service (`D_BE`) consulted on cache misses.
//! * [`server`] — one CDN machine: tiered cache + ATS timings + a sliding
//!   load window (the §4.1.3 load-vs-performance analysis).
//! * [`fleet`] — 85 servers in 10 PoPs with *cache-focused* client mapping
//!   (nearest PoP, content-hash affinity within the PoP), optional
//!   popular-content partitioning, and prefetching policies
//!   (§4.1.2 take-aways).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ats;
pub mod cache;
pub mod fleet;
pub mod server;

pub use ats::{AtsConfig, BackendConfig, CacheStatus, ServeOutcome};
pub use cache::{
    AdmissionPolicy, ByteCache, EvictionPolicy, ObjectKey, TierChurn, TieredCache,
    TieredCacheConfig, MANIFEST_BYTES,
};
pub use fleet::{CdnFleet, FleetConfig, FleetShard, PrefetchPolicy, ServerPool};
pub use server::{CdnServer, ServerConfig};
