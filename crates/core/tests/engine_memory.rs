//! Exact heap accounting for one spilled sweep seed.
//!
//! A counting global allocator tracks live and peak live heap bytes. The
//! test runs a one-thread tiny sweep seed with telemetry spilled and its
//! metrics folded from the streamed join — the path `streamlab sweep
//! --spill-dir` takes — and bounds the heap's peak above what it was
//! before the seed started, once at a threshold small enough that every
//! shard seals several runs and once at the CLI's default.
//!
//! The run is deterministic and the allocator sees every allocation of
//! the process, so the count is exact and repeats from run to run. It
//! lives in its own test binary with one test, so no other test's
//! allocations land in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use streamlab::{SimulationConfig, SpillConfig};

/// [`System`] plus live and peak byte counters.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout; the
// counters never affect what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live heap of the seed above the live heap before it started.
///
/// Building every session's runtime before the event loop, sealing each
/// spill run through a second and a third copy of its rows, and giving
/// every open segment its own group buffer peaked at 36,442,897 bytes.
/// Building runtimes at arrival, sealing in place and sharing one group
/// buffer peak at 35,219,756 bytes. Arenas that grow by need, to 128 rows
/// of capacity at this threshold, instead of reserving 97 rows up front,
/// peak at 35,226,400. Most of the rest is the warmed fleet.
const PEAK_BYTES_MAX: usize = 35_800_000;

/// The same peak at the CLI's default `--spill-threshold`
/// ([`SpillConfig::DEFAULT_THRESHOLD`]), which no shard of a tiny seed
/// reaches, so each shard seals one segment when its loop drains.
/// Reserving the threshold's rows in both arenas of every shard sink up
/// front peaked at 88,892,790 bytes; arenas that grow to what the shard
/// holds peak at 37,283,197.
const DEFAULT_THRESHOLD_PEAK_BYTES_MAX: usize = 38_000_000;

/// Run the one-thread tiny sweep seed spilled at `threshold` rows and
/// return its heap peak above the live heap before it started.
fn spilled_seed_heap_peak(threshold: usize) -> usize {
    let dir = std::env::temp_dir().join(format!(
        "streamlab-engine-memory-{}-{threshold}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = SimulationConfig::tiny(7);
    cfg.threads = 1;
    cfg.spill = Some(SpillConfig {
        dir: dir.to_string_lossy().into_owned(),
        threshold,
    });

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let summary = streamlab::sweep::run_seeds(&cfg, &[7]).expect("spilled sweep seed");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    drop(summary);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "spilled tiny sweep seed at threshold {threshold}: heap peak {peak} bytes above its start"
    );
    peak
}

#[test]
fn spilled_sweep_seed_heap_peak_is_bounded() {
    // Small enough that every shard seals several runs mid-loop.
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
}
