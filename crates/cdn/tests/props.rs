//! Property-based tests for the cache layer: under arbitrary request
//! sequences, every policy preserves the capacity and accounting
//! invariants and evicts exactly what a naive reference model evicts —
//! also after a warm-up, which the cache keeps implicit and the model
//! inserts object by object — and LRU keeps the inclusion property of a
//! stack algorithm.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;
use streamlab_cdn::{
    ByteCache, EvictionPolicy, ObjectKey, TieredCache, TieredCacheConfig, MANIFEST_BYTES,
};
use streamlab_workload::{ChunkIndex, Video, VideoId};

fn key(v: u8, c: u8) -> ObjectKey {
    ObjectKey {
        video: VideoId(u64::from(v)),
        chunk: ChunkIndex(u32::from(c)),
        bitrate_kbps: 1050,
    }
}

/// Key `k` of a dense key space: video `k / 8`, chunk `k % 8`.
fn wide_key(k: u32) -> ObjectKey {
    ObjectKey {
        video: VideoId(u64::from(k / 8)),
        chunk: ChunkIndex(k % 8),
        bitrate_kbps: 1050,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Lookup(ObjectKey),
    Insert(ObjectKey, u64),
    Remove(ObjectKey),
    Pin(ObjectKey),
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0u8..8).prop_map(|(v, c)| Op::Lookup(key(v % 32, c))),
        (any::<u8>(), 0u8..8, 1u64..5_000).prop_map(|(v, c, s)| Op::Insert(key(v % 32, c), s)),
        (any::<u8>(), 0u8..8).prop_map(|(v, c)| Op::Remove(key(v % 32, c))),
        (any::<u8>(), 0u8..8).prop_map(|(v, c)| Op::Pin(key(v % 32, c))),
    ]
}

/// Many small objects (1–64 B) over 4,000 keys, with the occasional pin
/// and restart: the cache's index grows through several doublings, wraps
/// around its end and shifts entries back on every delete.
fn small_object_op() -> impl Strategy<Value = Op> {
    (0u32..2_000, 0u32..4_000, 1u64..=64).prop_map(|(pick, k, size)| match pick {
        0 => Op::Clear,
        1..=40 => Op::Pin(wide_key(k)),
        41..=240 => Op::Remove(wide_key(k)),
        241..=1_000 => Op::Lookup(wide_key(k)),
        _ => Op::Insert(wide_key(k), size),
    })
}

fn policies() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![
        Just(EvictionPolicy::Lru),
        Just(EvictionPolicy::PerfectLfu),
        Just(EvictionPolicy::GdSize),
        Just(EvictionPolicy::Fifo),
    ]
}

struct ModelEntry {
    key: ObjectKey,
    size: u64,
    /// The policy's eviction order: the lowest unpinned stamp goes first.
    stamp: (u64, u64),
    pinned: bool,
}

/// A naive reference for `ByteCache`: a `Vec` of entries, each stamped
/// with its place in the policy's eviction order.
///
/// - LRU: `(0, t)`, restamped on every hit and re-insert.
/// - FIFO: `(0, t)`, stamped on insert only.
/// - Perfect-LFU: `(requests for the key so far, t)`, restamped like LRU.
/// - GD-Size: `(L + 10^12 / size, t)`, restamped like LRU, where L is
///   the stamp priority of the last victim.
///
/// `t` counts stamps, so ties go to the older stamp.
struct Model {
    policy: EvictionPolicy,
    capacity: u64,
    entries: Vec<ModelEntry>,
    stamps: u64,
    requests: HashMap<ObjectKey, u64>,
    inflation: u64,
    hits: u64,
    misses: u64,
}

impl Model {
    fn new(policy: EvictionPolicy, capacity: u64) -> Model {
        Model {
            policy,
            capacity,
            entries: Vec::new(),
            stamps: 0,
            requests: HashMap::new(),
            inflation: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn used(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }

    fn position(&self, key: ObjectKey) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    fn stamp(&mut self, key: ObjectKey, size: u64) -> (u64, u64) {
        self.stamps += 1;
        let priority = match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => 0,
            EvictionPolicy::PerfectLfu => self.requests.get(&key).copied().unwrap_or(0),
            EvictionPolicy::GdSize => (self.inflation as f64 + 1e12 / size.max(1) as f64) as u64,
        };
        (priority, self.stamps)
    }

    fn touch(&mut self, i: usize) {
        if self.policy != EvictionPolicy::Fifo {
            let (key, size) = (self.entries[i].key, self.entries[i].size);
            self.entries[i].stamp = self.stamp(key, size);
        }
    }

    fn lookup(&mut self, key: ObjectKey) -> bool {
        if self.policy == EvictionPolicy::PerfectLfu {
            *self.requests.entry(key).or_insert(0) += 1;
        }
        match self.position(key) {
            Some(i) => {
                self.hits += 1;
                self.touch(i);
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    fn insert(&mut self, key: ObjectKey, size: u64) -> Vec<(ObjectKey, u64)> {
        if size > self.capacity {
            return Vec::new();
        }
        if let Some(i) = self.position(key) {
            self.touch(i);
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used() + size > self.capacity {
            let victim = (0..self.entries.len())
                .filter(|&i| !self.entries[i].pinned)
                .min_by_key(|&i| self.entries[i].stamp);
            let Some(victim) = victim else {
                return evicted;
            };
            let gone = self.entries.remove(victim);
            if self.policy == EvictionPolicy::GdSize {
                self.inflation = gone.stamp.0;
            }
            evicted.push((gone.key, gone.size));
        }
        let stamp = self.stamp(key, size);
        self.entries.push(ModelEntry {
            key,
            size,
            stamp,
            pinned: false,
        });
        evicted
    }

    fn remove(&mut self, key: ObjectKey) -> bool {
        self.position(key).map(|i| self.entries.remove(i)).is_some()
    }

    fn pin(&mut self, key: ObjectKey) {
        if let Some(i) = self.position(key) {
            self.entries[i].pinned = true;
        }
    }
}

/// Drive `ops` through a `ByteCache` and the reference model side by
/// side, checking the cache's invariants and its agreement with the model
/// after every op. Returns the cache for further checks.
fn check_against_model(
    policy: EvictionPolicy,
    capacity: u64,
    ops: Vec<Op>,
) -> Result<ByteCache, TestCaseError> {
    let mut cache = ByteCache::new(policy, capacity);
    let mut model = Model::new(policy, capacity);
    let mut inserted_sizes: HashMap<ObjectKey, u64> = HashMap::new();
    for op in ops {
        match op {
            Op::Lookup(k) => {
                let hit = cache.lookup(k);
                prop_assert_eq!(hit, inserted_sizes.contains_key(&k) && cache.contains(k));
                prop_assert_eq!(hit, model.lookup(k), "lookup({:?})", k);
            }
            Op::Insert(k, s) => {
                let evicted = cache.insert(k, s);
                for (k, size) in &evicted {
                    // Evicted sizes must match what was inserted.
                    prop_assert_eq!(inserted_sizes.get(k), Some(size));
                    inserted_sizes.remove(k);
                }
                if cache.contains(k) {
                    inserted_sizes.entry(k).or_insert(s);
                }
                prop_assert_eq!(&evicted, &model.insert(k, s), "insert({:?}, {})", k, s);
            }
            Op::Remove(k) => {
                prop_assert_eq!(cache.remove(k), model.remove(k));
                inserted_sizes.remove(&k);
            }
            Op::Pin(k) => {
                cache.pin(k);
                model.pin(k);
            }
            Op::Clear => {
                cache.clear();
                model.entries.clear();
                inserted_sizes.clear();
            }
        }
        // The core invariants, after every operation:
        prop_assert!(cache.used() <= cache.capacity(), "over capacity");
        let tracked: u64 = inserted_sizes
            .iter()
            .filter(|(k, _)| cache.contains(**k))
            .map(|(_, s)| *s)
            .sum();
        prop_assert_eq!(cache.used(), tracked, "byte accounting drifted");
        prop_assert_eq!(cache.used(), model.used());
        prop_assert_eq!(cache.len(), model.entries.len());
        prop_assert_eq!(cache.stats(), (model.hits, model.misses));
    }
    Ok(cache)
}

/// A warm-up: the rungs each video warms, in order (a rung may repeat),
/// and each video with the chunks it warms at every rung.
#[derive(Debug, Clone)]
struct Warm {
    rungs: Vec<u32>,
    videos: Vec<(Video, u32)>,
}

impl Warm {
    fn borrowed(&self) -> Vec<(&Video, u32)> {
        self.videos.iter().map(|(v, c)| (v, *c)).collect()
    }

    /// Every key the warm-up could fill, each video's chunks past what it
    /// warms and a rung it never warms: the keys ops draw from.
    fn keys(&self) -> Vec<ObjectKey> {
        let mut keys = Vec::new();
        for (video, _) in &self.videos {
            keys.push(ObjectKey::manifest(video.id));
            let mut rungs = self.rungs.clone();
            rungs.push(99);
            for rung in rungs {
                for c in 0..video.chunk_count() {
                    keys.push(ObjectKey {
                        video: video.id,
                        chunk: ChunkIndex(c),
                        bitrate_kbps: rung,
                    });
                }
            }
        }
        keys
    }
}

/// Up to eight videos of 1–7 chunks at rungs of 1–12 kbps (a 6 s chunk is
/// 750 bytes per kbps), each warming up to all its chunks.
fn warm_strategy() -> impl Strategy<Value = Warm> {
    (
        proptest::collection::vec(1u32..=12, 1..4),
        proptest::collection::vec((1u64..4, 1.0f64..42.0, 0.0f64..=1.0), 1..9),
    )
        .prop_map(|(rungs, specs)| {
            let mut id = 0;
            let videos = specs
                .into_iter()
                .map(|(gap, duration_s, share)| {
                    id += gap;
                    let video = Video {
                        id: VideoId(id),
                        duration_s,
                    };
                    let chunks = (f64::from(video.chunk_count()) * share).round() as u32;
                    (video, chunks)
                })
                .collect();
            Warm { rungs, videos }
        })
}

/// An op on a key of the warm-up's key space, picked by an index taken
/// modulo its size.
#[derive(Debug, Clone)]
enum WarmOp {
    Lookup(usize),
    Insert(usize, u64),
    Remove(usize),
    Pin(usize),
    Clear,
}

/// Mostly lookups and inserts, some removes and pins, rare restarts.
fn warm_op_strategy() -> impl Strategy<Value = WarmOp> {
    (0u32..64, any::<usize>(), 1u64..12_000).prop_map(|(pick, k, size)| match pick {
        0 => WarmOp::Clear,
        1..=4 => WarmOp::Pin(k),
        5..=12 => WarmOp::Remove(k),
        13..=36 => WarmOp::Lookup(k),
        _ => WarmOp::Insert(k, size),
    })
}

/// The warm-up as the model sees it, one insert per fill: each video's
/// manifest, then — unless the cache is 90 % full — its warmed chunks at
/// each rung in turn.
fn model_warm(model: &mut Model, warm: &Warm) {
    for (video, chunks) in &warm.videos {
        model.insert(ObjectKey::manifest(video.id), MANIFEST_BYTES);
        if model.used() as f64 >= 0.9 * model.capacity as f64 {
            continue;
        }
        for &rung in &warm.rungs {
            for c in 0..*chunks {
                let key = ObjectKey {
                    video: video.id,
                    chunk: ChunkIndex(c),
                    bitrate_kbps: rung,
                };
                model.insert(key, video.chunk_bytes(ChunkIndex(c), rung));
            }
        }
    }
}

/// The cache holds exactly the model's objects, bytes and stats.
fn same_contents(cache: &ByteCache, model: &Model, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(cache.used(), model.used(), "used after {}", what);
    prop_assert_eq!(cache.len(), model.entries.len(), "len after {}", what);
    for e in &model.entries {
        prop_assert!(cache.contains(e.key), "{:?} lost after {}", e.key, what);
    }
    prop_assert_eq!(
        cache.stats(),
        (model.hits, model.misses),
        "stats after {}",
        what
    );
    Ok(())
}

/// Warm a `ByteCache` and the model from the same fill, both holding the
/// same pinned objects first, then drive both through `ops`.
fn check_warmed_against_model(
    policy: EvictionPolicy,
    capacity: u64,
    warm: &Warm,
    pinned: &[(usize, u64)],
    ops: Vec<WarmOp>,
) -> Result<(), TestCaseError> {
    let keys = warm.keys();
    let mut cache = ByteCache::new(policy, capacity);
    let mut model = Model::new(policy, capacity);
    for (k, size) in pinned {
        let k = keys[k % keys.len()];
        cache.insert(k, *size);
        cache.pin(k);
        model.insert(k, *size);
        model.pin(k);
    }
    cache.warm(&warm.rungs, &warm.borrowed());
    model_warm(&mut model, warm);
    same_contents(&cache, &model, "the warm-up")?;
    for op in ops {
        match op {
            WarmOp::Lookup(k) => {
                let k = keys[k % keys.len()];
                prop_assert_eq!(cache.lookup(k), model.lookup(k), "lookup({:?})", k);
            }
            WarmOp::Insert(k, s) => {
                let k = keys[k % keys.len()];
                prop_assert_eq!(
                    cache.insert(k, s),
                    model.insert(k, s),
                    "insert({:?}, {})",
                    k,
                    s
                );
            }
            WarmOp::Remove(k) => {
                let k = keys[k % keys.len()];
                prop_assert_eq!(cache.remove(k), model.remove(k), "remove({:?})", k);
            }
            WarmOp::Pin(k) => {
                let k = keys[k % keys.len()];
                cache.pin(k);
                model.pin(k);
            }
            WarmOp::Clear => {
                cache.clear();
                model.entries.clear();
            }
        }
        same_contents(&cache, &model, "an op")?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A warm-up kept implicit behaves as one inserted fill by fill: the
    /// same evictions in the same order, bytes, objects and hits, under
    /// every policy, with fills that overflow the cache during the
    /// warm-up and objects pinned before it.
    #[test]
    fn warmed_cache_matches_reference_model(
        policy in policies(),
        capacity in prop_oneof![4_000u64..60_000, 60_000u64..600_000],
        warm in warm_strategy(),
        pinned in proptest::collection::vec((any::<usize>(), 1u64..12_000), 0..4),
        ops in proptest::collection::vec(warm_op_strategy(), 0..200)
    ) {
        check_warmed_against_model(policy, capacity, &warm, &pinned, ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_invariants_under_arbitrary_ops(
        policy in policies(),
        capacity in 1_000u64..50_000,
        ops in proptest::collection::vec(op_strategy(), 1..300)
    ) {
        let cache = check_against_model(policy, capacity, ops)?;
        let (hits, misses) = cache.stats();
        prop_assert!(hits + misses <= 300);
    }

    #[test]
    fn cache_matches_reference_model_on_many_small_objects(
        policy in policies(),
        capacity in 2_000u64..60_000,
        ops in proptest::collection::vec(small_object_op(), 1..3_000)
    ) {
        check_against_model(policy, capacity, ops)?;
    }

    /// LRU is a stack algorithm: under one lookup-then-insert-on-miss
    /// stream, a cache of capacity C holds a subset of what a cache of
    /// C' ≥ C holds, so the larger one never misses more. That needs each
    /// key to keep one size and every size to fit in C; FIFO has no such
    /// property (Belady's anomaly).
    #[test]
    fn lru_is_a_stack_algorithm(
        capacity in 1_000u64..20_000,
        extra in 0u64..20_000,
        sizes in proptest::collection::vec(1u64..=1_000, 64),
        requests in proptest::collection::vec(0usize..64, 1..600)
    ) {
        let mut small = ByteCache::new(EvictionPolicy::Lru, capacity);
        let mut large = ByteCache::new(EvictionPolicy::Lru, capacity + extra);
        for r in requests {
            let k = wide_key(r as u32);
            for cache in [&mut small, &mut large] {
                if !cache.lookup(k) {
                    cache.insert(k, sizes[r]);
                }
            }
            for k in (0..64).map(wide_key) {
                prop_assert!(!small.contains(k) || large.contains(k), "{:?} only in the smaller cache", k);
            }
            prop_assert!(large.stats().1 <= small.stats().1, "the larger cache missed more");
        }
    }

    #[test]
    fn tiered_cache_never_loses_track(
        policy in policies(),
        ops in proptest::collection::vec((any::<u8>(), 0u8..6, 500u64..4_000), 1..200)
    ) {
        let mut t = TieredCache::new(TieredCacheConfig {
            ram_bytes: 10_000,
            disk_bytes: 40_000,
            policy,
            admission: streamlab_cdn::AdmissionPolicy::Always,
        });
        for (v, c, s) in ops {
            let k = key(v % 16, c);
            let status = t.fetch(k, s);
            if !status.is_hit() {
                t.fill(k, s);
            }
            prop_assert!(t.ram().used() <= t.ram().capacity());
            prop_assert!(t.disk().used() <= t.disk().capacity());
            // After a fill the object is somewhere (it fits in both tiers).
            prop_assert!(t.contains(k));
        }
    }

    #[test]
    fn fetch_miss_then_fill_then_hit(policy in policies(), v in any::<u8>(), s in 100u64..5_000) {
        let mut t = TieredCache::new(TieredCacheConfig {
            ram_bytes: 100_000,
            disk_bytes: 100_000,
            policy,
            admission: streamlab_cdn::AdmissionPolicy::Always,
        });
        let k = key(v, 0);
        prop_assert!(!t.fetch(k, s).is_hit());
        t.fill(k, s);
        prop_assert!(t.fetch(k, s).is_hit());
    }
}
