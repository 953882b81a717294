//! Exact heap accounting for sweep seeds.
//!
//! A counting global allocator tracks live and peak live heap bytes. The
//! test runs one-thread tiny sweep seeds — each session folded into its
//! shard's summaries as it ends, the path `streamlab sweep` takes — and
//! bounds the heap's peak above what it was before the seed started: with
//! a spill config at a threshold small enough that every shard would seal
//! several runs and at the CLI's default, and in RAM at two session counts,
//! whose difference bounds what the sweep holds per session.
//!
//! The run is deterministic and the allocator ([`counting`]) sees every
//! allocation of the process, so the count is exact and repeats from run
//! to run. It lives in its own test binary with one test, so no other
//! test's allocations land in it.

use std::sync::atomic::Ordering;

use streamlab::{SimulationConfig, SpillConfig};

mod counting;
use counting::{LIVE, PEAK};

/// Peak live heap of the seed above the live heap before it started.
///
/// Building every session's runtime before the event loop, sealing each
/// spill run through a second and a third copy of its rows, and giving
/// every open segment its own group buffer peaked at 36,442,897 bytes.
/// Building runtimes at arrival, sealing in place and sharing one group
/// buffer peak at 35,219,756 bytes. Arenas that grow by need, to 128 rows
/// of capacity at this threshold, instead of reserving 97 rows up front,
/// peaked at 35,226,400. Folding each session as it ends, with nothing
/// appended, sealed or spilled, peaked at 35,138,583 (bound 35,800,000),
/// most of it the warmed fleet. Keeping each tier's warm-up as an
/// implicit run, which traffic materializes on touch, peaked at
/// 1,472,190; freeing each shard's caches when its loop ends as well
/// peaks at 702,797.
const PEAK_BYTES_MAX: usize = 800_000;

/// The same peak at the CLI's default `--spill-threshold`
/// ([`SpillConfig::DEFAULT_THRESHOLD`]), which no shard of a tiny seed
/// reaches, so each shard sealed one segment when its loop drained.
/// Reserving the threshold's rows in both arenas of every shard sink up
/// front peaked at 88,892,790 bytes; arenas that grow to what the shard
/// holds peaked at 37,283,197 (bound 38,000,000). A sweep no longer
/// spills, so the threshold is ignored: 35,137,687 (bound 35,800,000),
/// then 1,471,902 with implicit warm-ups and 702,801 with shard caches
/// freed at the end of their loops.
const DEFAULT_THRESHOLD_PEAK_BYTES_MAX: usize = 800_000;

/// The in-RAM seed's heap peak grows by at most this many bytes per
/// session, measured between 600 and 2,400 sessions. Appending every
/// chunk to the shard sinks, joining them and folding the stream grew it
/// by 8,536 bytes a session; folding each session as it ends grew it by
/// 427 (bound 1,000). An implicit warm-up stores an object once traffic
/// touches it, about 24 objects a session here, so with every shard's
/// caches kept to the end of the engine the peak grew by 1,786 bytes a
/// session; freeing each shard's caches when its loop ends leaves one
/// shard's at a time: 679.
const PEAK_BYTES_PER_SESSION_MAX: usize = 800;

/// Run the one-thread tiny seed-7 sweep at `sessions` sessions (the
/// preset's when `None`), with `spill` as its spill config, and return
/// its heap peak above the live heap before it started.
fn seed_heap_peak(sessions: Option<usize>, spill: Option<SpillConfig>) -> usize {
    let mut cfg = SimulationConfig::tiny(7);
    cfg.threads = 1;
    if let Some(n) = sessions {
        cfg.traffic.sessions = n;
    }
    cfg.spill = spill;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let summary = streamlab::sweep::run_seeds(&cfg, &[7]).expect("sweep seed");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    drop(summary);
    peak
}

/// [`seed_heap_peak`] with a spill config at `threshold` rows; the
/// directory is removed afterwards.
fn spilled_seed_heap_peak(threshold: usize) -> usize {
    let dir = std::env::temp_dir().join(format!(
        "streamlab-engine-memory-{}-{threshold}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let peak = seed_heap_peak(
        None,
        Some(SpillConfig {
            dir: dir.to_string_lossy().into_owned(),
            threshold,
        }),
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "tiny sweep seed spilled at threshold {threshold}: heap peak {peak} bytes above its start"
    );
    peak
}

#[test]
fn spilled_sweep_seed_heap_peak_is_bounded() {
    // Small enough that every shard would seal several runs mid-loop.
    let peak = spilled_seed_heap_peak(97);
    assert!(
        peak <= PEAK_BYTES_MAX,
        "the spilled sweep seed's heap peaked at {peak} bytes, over {PEAK_BYTES_MAX}"
    );
    let peak = spilled_seed_heap_peak(SpillConfig::DEFAULT_THRESHOLD);
    assert!(
        peak <= DEFAULT_THRESHOLD_PEAK_BYTES_MAX,
        "at the default threshold the spilled sweep seed's heap peaked at {peak} bytes, \
         over {DEFAULT_THRESHOLD_PEAK_BYTES_MAX}"
    );
    let (small, large) = (600, 2_400);
    let peaks = [small, large].map(|n| {
        let peak = seed_heap_peak(Some(n), None);
        println!("tiny sweep seed in RAM at {n} sessions: heap peak {peak} bytes above its start");
        peak
    });
    let per_session = peaks[1].saturating_sub(peaks[0]) / (large - small);
    println!("in-RAM sweep seed heap peak: {per_session} bytes per session");
    assert!(
        per_session <= PEAK_BYTES_PER_SESSION_MAX,
        "the in-RAM sweep seed's heap peak grew by {per_session} bytes a session, \
         over {PEAK_BYTES_PER_SESSION_MAX}"
    );
}
