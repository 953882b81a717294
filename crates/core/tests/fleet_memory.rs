//! Exact heap accounting for a warmed CDN fleet.
//!
//! A counting global allocator ([`counting`]) tracks live and peak live
//! heap bytes. The test warms the small preset's fleet at seed 3, a world
//! whose warm-up overflows some tiers, and bounds the heap the warmed
//! fleet holds. The count is exact and repeats from run to run: the test
//! lives in its own test binary, so no other test's allocations land in
//! it.

use std::sync::atomic::Ordering;

use streamlab::cdn::CdnFleet;
use streamlab::sim::RngStream;
use streamlab::workload::Catalog;
use streamlab::SimulationConfig;

mod counting;
use counting::{LIVE, PEAK};

/// Live heap of the small seed-3 fleet once warmed. Its warm-up fills
/// 2,470,830 objects after 28,610 warm-time evictions. Inserting each of
/// them held 118,003,710 bytes (118,086,630 at the warm-up's peak).
/// Keeping each tier's warm-up as an implicit run of fill-order positions
/// holds 939,710 (1,104,510 at the peak): a few counters per assigned
/// video and one bit per warm object. The bound leaves 17 % above that.
const WARMED_FLEET_BYTES_MAX: usize = 1_100_000;

#[test]
fn warmed_fleet_heap_is_bounded() {
    let cfg = SimulationConfig::small(3);
    let catalog = Catalog::generate(&cfg.catalog, &mut RngStream::new(3, "catalog"));
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut fleet = CdnFleet::new(cfg.fleet.clone(), 3);
    fleet.warm(&catalog);
    let live = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let objects: usize = fleet
        .servers()
        .iter()
        .map(|s| s.cache().ram().len() + s.cache().disk().len())
        .sum();
    drop(fleet);
    println!(
        "small seed-3 fleet: {objects} warm objects, {live} bytes live once warmed, \
         {peak} at the warm-up's peak"
    );
    assert!(
        live <= WARMED_FLEET_BYTES_MAX,
        "the warmed fleet holds {live} bytes, over {WARMED_FLEET_BYTES_MAX}"
    );
}
