//! The ATS-style two-tier (RAM + disk) cache, with admission gating.

use super::{ByteCache, EvictionPolicy, ObjectKey};
use crate::ats::CacheStatus;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use streamlab_workload::Video;

/// Cache admission policy: which backend fills are worth caching at all.
///
/// Under a Zipf workload most of the *distinct* objects are one-hit
/// wonders; admitting them evicts useful content. CDNs commonly gate
/// admission (Bloom-filter second-hit caching, probabilistic admission) —
/// a natural companion ablation to the paper's eviction-policy take-away.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AdmissionPolicy {
    /// Admit every fill (the deployed baseline).
    #[default]
    Always,
    /// Admit an object only on its second request ("cache on second hit").
    OnSecondRequest,
    /// Admit each fill with this probability.
    Probabilistic(f64),
}

/// Configuration of the two-tier (RAM + disk) cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TieredCacheConfig {
    /// RAM cache capacity, bytes.
    pub ram_bytes: u64,
    /// Disk cache capacity, bytes.
    pub disk_bytes: u64,
    /// Eviction policy used by both tiers.
    pub policy: EvictionPolicy,
    /// Admission gate for backend fills.
    pub admission: AdmissionPolicy,
}

impl Default for TieredCacheConfig {
    fn default() -> Self {
        TieredCacheConfig {
            ram_bytes: 2 * 1024 * 1024 * 1024,
            disk_bytes: 24 * 1024 * 1024 * 1024,
            policy: EvictionPolicy::Lru,
            admission: AdmissionPolicy::Always,
        }
    }
}

/// Movement counters for the two-tier cache: how much churn the serve
/// path generated. Deterministic (pure functions of the request stream),
/// aggregated across servers in canonical order by the observability
/// layer. Warming ([`TieredCache::warm`]) is not counted — it happens
/// once before the event loop and is not churn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierChurn {
    /// Disk-tier objects promoted to RAM on a disk hit.
    pub promotions: u64,
    /// RAM victims demoted to the disk tier.
    pub demotions: u64,
    /// Backend fills admitted on the serve path.
    pub fills: u64,
    /// Objects evicted from the disk tier outright.
    pub disk_evictions: u64,
}

/// The ATS-style two-tier cache: a RAM cache in front of a disk cache.
///
/// Lookup order is RAM → disk → miss (§4.1: "The server first checks the
/// main memory cache, then tries the disk, and finally sends a request to a
/// backend server"). Disk hits are promoted to RAM; RAM evictions demote to
/// disk (they were recently useful); backend fills land in both tiers.
#[derive(Debug, Clone)]
pub struct TieredCache {
    ram: ByteCache,
    disk: ByteCache,
    admission: AdmissionPolicy,
    /// Request counts for second-hit admission (requests, not hits).
    seen: FxHashMap<ObjectKey, u32>,
    churn: TierChurn,
}

impl TieredCache {
    /// Build from config.
    pub fn new(cfg: TieredCacheConfig) -> Self {
        TieredCache {
            ram: ByteCache::new(cfg.policy, cfg.ram_bytes),
            disk: ByteCache::new(cfg.policy, cfg.disk_bytes),
            admission: cfg.admission,
            seen: FxHashMap::default(),
            churn: TierChurn::default(),
        }
    }

    /// Serve-path movement counters accumulated so far.
    pub fn churn(&self) -> TierChurn {
        self.churn
    }

    /// Should a backend fill of `key` be admitted, per the configured
    /// policy? Second-hit counting is updated by this call, so invoke it
    /// exactly once per miss.
    pub fn should_admit(&mut self, key: ObjectKey, rng: &mut streamlab_sim::RngStream) -> bool {
        match self.admission {
            AdmissionPolicy::Always => true,
            AdmissionPolicy::OnSecondRequest => {
                let c = self.seen.entry(key).or_insert(0);
                *c += 1;
                *c >= 2
            }
            AdmissionPolicy::Probabilistic(p) => rng.chance(p),
        }
    }

    /// The RAM tier.
    pub fn ram(&self) -> &ByteCache {
        &self.ram
    }

    /// The disk tier.
    pub fn disk(&self) -> &ByteCache {
        &self.disk
    }

    /// Look up an object; promotes/demotes/fills as a side effect and
    /// returns where it was found.
    pub fn fetch(&mut self, key: ObjectKey, size: u64) -> CacheStatus {
        if self.ram.lookup(key) {
            return CacheStatus::RamHit;
        }
        if self.disk.lookup(key) {
            // Promote to RAM; demoted RAM victims fall back to disk (they
            // were recently useful, so they deserve a disk slot).
            self.churn.promotions += 1;
            for (victim, vsize) in self.ram.insert(key, size) {
                self.churn.demotions += 1;
                self.churn.disk_evictions += self.disk.insert(victim, vsize).len() as u64;
            }
            return CacheStatus::DiskHit;
        }
        CacheStatus::Miss
    }

    /// Install a backend fill into both tiers; RAM victims demote to disk.
    pub fn fill(&mut self, key: ObjectKey, size: u64) {
        self.churn.fills += 1;
        self.churn.disk_evictions += self.disk.insert(key, size).len() as u64;
        for (victim, vsize) in self.ram.insert(key, size) {
            self.churn.demotions += 1;
            self.churn.disk_evictions += self.disk.insert(victim, vsize).len() as u64;
        }
    }

    /// Warm both tiers in fill order ([`ByteCache::warm`]): the disk at
    /// `disk_rungs`, then RAM at `ram_rungs`, each with every one of
    /// `videos`. Neither tier demotes into the other.
    pub fn warm(&mut self, disk_rungs: &[u32], ram_rungs: &[u32], videos: &[(&Video, u32)]) {
        self.disk.warm(disk_rungs, videos);
        self.ram.warm(ram_rungs, videos);
    }

    /// Wipe the RAM tier (a server restart: memory contents are lost, the
    /// disk tier stays warm). The next requests for the hot working set
    /// fall through to disk or the backend — the paper's §5 churn →
    /// miss-storm mechanism.
    pub fn wipe_ram(&mut self) {
        self.ram.clear();
    }

    /// Drop both tiers' contents and free their memory, for a server that
    /// serves no more requests. The churn counters stay.
    pub fn retire(&mut self) {
        self.ram = ByteCache::new(self.ram.policy(), self.ram.capacity());
        self.disk = ByteCache::new(self.disk.policy(), self.disk.capacity());
        self.seen = FxHashMap::default();
    }

    /// Pin an object in the disk tier (and RAM if present).
    pub fn pin(&mut self, key: ObjectKey) {
        self.disk.pin(key);
        self.ram.pin(key);
    }

    /// Does either tier hold the object? (No stat/ordering side effects.)
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.ram.contains(key) || self.disk.contains(key)
    }
}
