//! # streamlab-telemetry
//!
//! The instrumentation layer: per-chunk and per-session records from both
//! vantage points (player beacons and CDN logs), the session/chunk-ID join
//! that fuses them (§2.2), and the proxy-filtering preprocessing of §3.
//!
//! The field sets mirror the paper's Tables 2 and 3 exactly. On top of
//! them, records carry a [`records::ChunkTruth`] block — quantities the
//! production system could *not* observe (true download-stack latency,
//! true `rtt₀`, whether a transient stack-buffering event really occurred).
//! The truth block is how the analysis crate validates the paper's
//! estimators (Eq. 4's outlier detector, Eq. 5's RTO bound) against ground
//! truth, something the authors could only argue for indirectly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod export;
pub mod merge;
pub mod records;
pub mod segment;

pub use dataset::{
    proxy_keep_mask, Dataset, JoinError, ProxySignals, SessionData, SpillSpec, TelemetrySink,
};
pub use merge::SessionStream;
pub use records::{CdnChunkRecord, ChunkRecord, ChunkTruth, PlayerChunkRecord, SessionMeta};
pub use segment::{SegmentMeta, SegmentReader};
