//! Byte-capacity caches with pluggable eviction, and the RAM+disk tier.
//!
//! The production system caches video chunks in "a multi-level and
//! distributed cache (between the main memory and the local disk) ... with
//! an LRU replacement policy" (§2). The §4.1.1 take-away suggests GD-Size
//! or perfect-LFU would fit the popularity-heavy workload better, so those
//! policies are implemented too and exercised by the ablation bench.

mod bytecache;
mod object;
mod run;
mod tiered;

pub use bytecache::ByteCache;
pub use object::{EvictionPolicy, ObjectKey, MANIFEST_BYTES};
pub use tiered::{AdmissionPolicy, TierChurn, TieredCache, TieredCacheConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ats::CacheStatus;
    use streamlab_workload::{ChunkIndex, VideoId};

    fn key(v: u64, c: u32) -> ObjectKey {
        ObjectKey {
            video: VideoId(v),
            chunk: ChunkIndex(c),
            bitrate_kbps: 1050,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ByteCache::new(EvictionPolicy::Lru, 300);
        c.insert(key(1, 0), 100);
        c.insert(key(2, 0), 100);
        c.insert(key(3, 0), 100);
        assert!(c.lookup(key(1, 0))); // refresh 1
        let evicted = c.insert(key(4, 0), 100);
        assert_eq!(evicted, vec![(key(2, 0), 100)]);
        assert!(c.contains(key(1, 0)));
        assert!(!c.contains(key(2, 0)));
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut c = ByteCache::new(EvictionPolicy::Fifo, 300);
        c.insert(key(1, 0), 100);
        c.insert(key(2, 0), 100);
        c.insert(key(3, 0), 100);
        assert!(c.lookup(key(1, 0))); // access must NOT refresh under FIFO
        let evicted = c.insert(key(4, 0), 100);
        assert_eq!(evicted, vec![(key(1, 0), 100)]);
    }

    #[test]
    fn lfu_keeps_frequent_objects() {
        let mut c = ByteCache::new(EvictionPolicy::PerfectLfu, 300);
        c.insert(key(1, 0), 100);
        c.insert(key(2, 0), 100);
        c.insert(key(3, 0), 100);
        for _ in 0..5 {
            c.lookup(key(1, 0));
            c.lookup(key(3, 0));
        }
        let evicted = c.insert(key(4, 0), 100);
        assert_eq!(evicted, vec![(key(2, 0), 100)]);
    }

    #[test]
    fn perfect_lfu_remembers_across_eviction() {
        let mut c = ByteCache::new(EvictionPolicy::PerfectLfu, 200);
        // Build frequency for key 1 while it is present.
        c.insert(key(1, 0), 100);
        for _ in 0..10 {
            c.lookup(key(1, 0));
        }
        c.insert(key(2, 0), 100);
        // Force key 1 out via explicit remove, then re-insert: its old
        // frequency must still protect it ("perfect" LFU).
        c.remove(key(1, 0));
        c.insert(key(3, 0), 100);
        // Cache now holds {2, 3}, both frequency 0. Re-inserting key 1
        // (remembered frequency 10) evicts the least-frequent, oldest
        // entry — key 2 — and key 1 itself is never the victim.
        c.insert(key(1, 0), 100);
        assert!(c.contains(key(1, 0)));
        assert!(!c.contains(key(2, 0)));
        assert!(c.contains(key(3, 0)));
    }

    #[test]
    fn gdsize_prefers_small_objects_and_inflates() {
        let mut c = ByteCache::new(EvictionPolicy::GdSize, 1000);
        c.insert(key(1, 0), 900); // big ⇒ low priority
        c.insert(key(2, 0), 50); // small ⇒ high priority
        let evicted = c.insert(key(3, 0), 500);
        assert_eq!(evicted, vec![(key(1, 0), 900)]);
        assert!(c.contains(key(2, 0)));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = ByteCache::new(EvictionPolicy::Lru, 1000);
        for i in 0..100 {
            c.insert(key(i, 0), 90 + (i % 7) * 10);
            assert!(c.used() <= c.capacity(), "used {} > cap", c.used());
        }
    }

    #[test]
    fn oversized_objects_are_not_admitted() {
        let mut c = ByteCache::new(EvictionPolicy::Lru, 100);
        let evicted = c.insert(key(1, 0), 500);
        assert!(evicted.is_empty());
        assert!(!c.contains(key(1, 0)));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn pinned_entries_survive_pressure() {
        let mut c = ByteCache::new(EvictionPolicy::Lru, 300);
        c.insert(key(1, 0), 100);
        c.pin(key(1, 0));
        c.insert(key(2, 0), 100);
        c.insert(key(3, 0), 100);
        c.insert(key(4, 0), 100);
        c.insert(key(5, 0), 100);
        assert!(c.contains(key(1, 0)), "pinned entry was evicted");
        assert!(c.used() <= c.capacity());
    }

    #[test]
    fn pins_leave_with_their_entries() {
        for drop_pinned in [
            |c: &mut ByteCache| assert!(c.remove(key(1, 0))),
            |c: &mut ByteCache| c.clear(),
        ] {
            let mut c = ByteCache::new(EvictionPolicy::Lru, 300);
            c.insert(key(1, 0), 100);
            c.pin(key(1, 0));
            drop_pinned(&mut c);
            c.insert(key(2, 0), 100); // may reuse key 1's storage
            c.insert(key(3, 0), 100);
            c.insert(key(4, 0), 100);
            let evicted = c.insert(key(5, 0), 100);
            assert_eq!(evicted, vec![(key(2, 0), 100)], "a dropped pin lingered");
        }
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = ByteCache::new(EvictionPolicy::Lru, 300);
        c.insert(key(1, 0), 100);
        c.insert(key(2, 0), 100);
        c.insert(key(1, 0), 100); // refresh
        assert_eq!(c.len(), 2);
        assert_eq!(c.used(), 200);
        c.insert(key(3, 0), 100);
        let evicted = c.insert(key(4, 0), 100);
        assert_eq!(evicted, vec![(key(2, 0), 100)]); // 1 was refreshed after 2
    }

    #[test]
    fn hit_miss_stats() {
        let mut c = ByteCache::new(EvictionPolicy::Lru, 300);
        c.insert(key(1, 0), 100);
        assert!(c.lookup(key(1, 0)));
        assert!(!c.lookup(key(2, 0)));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn tiered_promotion_and_fill() {
        let mut t = TieredCache::new(TieredCacheConfig {
            ram_bytes: 200,
            disk_bytes: 1000,
            policy: EvictionPolicy::Lru,
            admission: AdmissionPolicy::Always,
        });
        assert_eq!(t.fetch(key(1, 0), 100), CacheStatus::Miss);
        t.fill(key(1, 0), 100);
        assert_eq!(t.fetch(key(1, 0), 100), CacheStatus::RamHit);
        // Push key 1 out of RAM (not disk) with other fills.
        t.fill(key(2, 0), 100);
        t.fill(key(3, 0), 100);
        assert!(!t.ram().contains(key(1, 0)));
        assert!(t.disk().contains(key(1, 0)));
        assert_eq!(t.fetch(key(1, 0), 100), CacheStatus::DiskHit);
        // Promoted back to RAM.
        assert_eq!(t.fetch(key(1, 0), 100), CacheStatus::RamHit);
    }

    #[test]
    fn admission_second_request_gate() {
        use streamlab_sim::RngStream;
        let mut t = TieredCache::new(TieredCacheConfig {
            ram_bytes: 10_000,
            disk_bytes: 10_000,
            policy: EvictionPolicy::Lru,
            admission: AdmissionPolicy::OnSecondRequest,
        });
        let mut rng = RngStream::new(1, "adm");
        assert!(
            !t.should_admit(key(1, 0), &mut rng),
            "first request rejected"
        );
        assert!(
            t.should_admit(key(1, 0), &mut rng),
            "second request admitted"
        );
        assert!(t.should_admit(key(1, 0), &mut rng), "third too");
        assert!(
            !t.should_admit(key(2, 0), &mut rng),
            "other keys independent"
        );
    }

    #[test]
    fn admission_probabilistic_rate() {
        use streamlab_sim::RngStream;
        let mut t = TieredCache::new(TieredCacheConfig {
            ram_bytes: 10_000,
            disk_bytes: 10_000,
            policy: EvictionPolicy::Lru,
            admission: AdmissionPolicy::Probabilistic(0.3),
        });
        let mut rng = RngStream::new(2, "adm");
        let admitted = (0..10_000)
            .filter(|i| t.should_admit(key(i % 97, 0), &mut rng))
            .count() as f64;
        let rate = admitted / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn admission_always_is_default_and_permissive() {
        use streamlab_sim::RngStream;
        let mut t = TieredCache::new(TieredCacheConfig::default());
        let mut rng = RngStream::new(3, "adm");
        for i in 0..100 {
            assert!(t.should_admit(key(i, 0), &mut rng));
        }
    }

    #[test]
    fn lru_beats_fifo_on_zipf_like_reuse() {
        // A popularity-skewed request stream should see better hit rates
        // under LRU than FIFO (recency captures popularity reuse).
        use streamlab_sim::dist::Zipf;
        use streamlab_sim::RngStream;
        let mut rng = RngStream::new(42, "cache-zipf");
        let z = Zipf::new(500, 1.0);
        let mut lru = ByteCache::new(EvictionPolicy::Lru, 50 * 100);
        let mut fifo = ByteCache::new(EvictionPolicy::Fifo, 50 * 100);
        for _ in 0..20_000 {
            let k = key(z.sample_rank(&mut rng) as u64, 0);
            if !lru.lookup(k) {
                lru.insert(k, 100);
            }
            if !fifo.lookup(k) {
                fifo.insert(k, 100);
            }
        }
        let (lh, lm) = lru.stats();
        let (fh, fm) = fifo.stats();
        let lru_rate = lh as f64 / (lh + lm) as f64;
        let fifo_rate = fh as f64 / (fh + fm) as f64;
        assert!(lru_rate > fifo_rate, "lru {lru_rate} vs fifo {fifo_rate}");
    }

    #[test]
    fn lfu_beats_lru_on_zipf_head_retention() {
        use streamlab_sim::dist::Zipf;
        use streamlab_sim::RngStream;
        let mut rng = RngStream::new(43, "cache-zipf2");
        let z = Zipf::new(2_000, 0.9);
        let mut lru = ByteCache::new(EvictionPolicy::Lru, 100 * 100);
        let mut lfu = ByteCache::new(EvictionPolicy::PerfectLfu, 100 * 100);
        for _ in 0..40_000 {
            let k = key(z.sample_rank(&mut rng) as u64, 0);
            if !lru.lookup(k) {
                lru.insert(k, 100);
            }
            if !lfu.lookup(k) {
                lfu.insert(k, 100);
            }
        }
        let (lh, lm) = lru.stats();
        let (fh, fm) = lfu.stats();
        let lru_rate = lh as f64 / (lh + lm) as f64;
        let lfu_rate = fh as f64 / (fh + fm) as f64;
        // §4.1.1 take-away: perfect-LFU suits popularity-heavy workloads.
        assert!(lfu_rate > lru_rate, "lfu {lfu_rate} vs lru {lru_rate}");
    }
}
