//! The server fleet and the traffic-engineering (client→server mapping)
//! layer.
//!
//! The paper's system "maps clients to CDN nodes using a function of
//! geography, latency, load, cache likelihood, etc. — the system tries to
//! route clients to the server that is likely to have a hot cache" (§4.1).
//! We reproduce that as: nearest PoP by geography, then *content affinity*
//! within the PoP (a stable hash of the video id picks the server), which
//! is exactly what makes some servers accumulate the unpopular tail and
//! show worse latency at lower load (Finding CDN-4 / §4.1.3).

use crate::cache::ObjectKey;
use crate::server::{CdnServer, ServerConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use streamlab_faults::FaultScenario;
use streamlab_sim::{derive_seed, RngStream};
use streamlab_workload::geo::{build_pops, nearest_pop, GeoPoint, Pop};
use streamlab_workload::{Catalog, ChunkIndex, ServerId, SessionId, Video, VideoId};

/// Chunk prefetching policy (§4.1.2 take-aways).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefetchPolicy {
    /// No prefetching (the deployed baseline).
    #[default]
    None,
    /// After a cache miss, pull the next `n` chunks of the same video and
    /// bitrate into the cache in the background.
    NextChunksOnMiss(u32),
}

impl PrefetchPolicy {
    /// The background-prefetch list for a request under this policy:
    /// subsequent chunks of the same video/bitrate. Pure — depends only on
    /// the policy, the catalog and the requested key — which is what lets
    /// shard workers compute it without any fleet reference.
    pub fn list(self, catalog: &Catalog, key: ObjectKey) -> Vec<(ObjectKey, u64)> {
        match self {
            PrefetchPolicy::None => Vec::new(),
            PrefetchPolicy::NextChunksOnMiss(n) => {
                let video = catalog.video(key.video);
                let total = video.chunk_count();
                (1..=n)
                    .filter_map(|d| {
                        let idx = key.chunk.raw() + d;
                        if idx < total {
                            let k = ObjectKey {
                                video: key.video,
                                chunk: ChunkIndex(idx),
                                bitrate_kbps: key.bitrate_kbps,
                            };
                            Some((k, video.chunk_bytes(ChunkIndex(idx), k.bitrate_kbps)))
                        } else {
                            None
                        }
                    })
                    .collect()
            }
        }
    }
}

/// Fleet configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of servers (the paper's dataset covers 85).
    pub servers: usize,
    /// Per-server configuration.
    pub server: ServerConfig,
    /// Prefetch policy applied fleet-wide.
    pub prefetch: PrefetchPolicy,
    /// Partition the most popular content across all of a PoP's servers
    /// instead of hashing it to one (the §4.1.3 load-balancing take-away).
    pub partition_popular: bool,
    /// "Popular" means rank within this top fraction of the catalog.
    pub popular_top_fraction: f64,
    /// Pin the first chunk of every video in cache at warm-up ("the CDN
    /// server could cache the first few chunks of all videos", §4.1.2).
    pub pin_first_chunks: bool,
    /// Warm caches to steady state before the measurement window.
    pub warm_caches: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            servers: 85,
            server: ServerConfig::default(),
            prefetch: PrefetchPolicy::None,
            partition_popular: false,
            popular_top_fraction: 0.10,
            pin_first_chunks: false,
            warm_caches: true,
        }
    }
}

/// The CDN fleet.
#[derive(Debug)]
pub struct CdnFleet {
    pops: Vec<Pop>,
    servers: Vec<CdnServer>,
    /// Server indices per PoP.
    by_pop: Vec<Vec<usize>>,
    /// Shared immutable configuration: the orchestrator, sweeps and
    /// ablations all hold the same `Arc`, so building a fleet never deep-
    /// copies the config.
    cfg: Arc<FleetConfig>,
    catalog_len: usize,
}

impl CdnFleet {
    /// Build the fleet: `cfg.servers` machines spread round-robin over the
    /// standard PoP set.
    pub fn new(cfg: Arc<FleetConfig>, master_seed: u64) -> Self {
        assert!(cfg.servers >= 1);
        let pops = build_pops();
        let mut servers = Vec::with_capacity(cfg.servers);
        let mut by_pop = vec![Vec::new(); pops.len()];
        for i in 0..cfg.servers {
            let pop = &pops[i % pops.len()];
            by_pop[i % pops.len()].push(i);
            servers.push(CdnServer::new(
                ServerId(i as u64),
                pop.id,
                cfg.server,
                RngStream::new(master_seed, &format!("cdn-server-{i}")),
            ));
        }
        CdnFleet {
            pops,
            servers,
            by_pop,
            cfg,
            catalog_len: 0,
        }
    }

    /// The PoP list.
    pub fn pops(&self) -> &[Pop] {
        &self.pops
    }

    /// All servers.
    pub fn servers(&self) -> &[CdnServer] {
        &self.servers
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when the fleet has no servers (cannot occur post-construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Pick the serving server for `(client location, video, session)`.
    ///
    /// Nearest PoP, then content-hash affinity within the PoP. With
    /// `partition_popular`, head content instead spreads across the PoP's
    /// servers keyed by session (load balancing at no cache cost: the head
    /// is hot everywhere).
    pub fn assign(&self, client: &GeoPoint, video: VideoId, session: SessionId) -> usize {
        let pop_idx = nearest_pop(&self.pops, client);
        let members = &self.by_pop[pop_idx];
        assert!(!members.is_empty(), "PoP without servers");
        let is_popular = self.catalog_len > 0
            && video.rank() as f64 <= self.cfg.popular_top_fraction * self.catalog_len as f64;
        let h = if self.cfg.partition_popular && is_popular {
            derive_seed(video.raw() ^ session.raw().rotate_left(17), "fleet-spread")
        } else {
            derive_seed(video.raw(), "fleet-affinity")
        };
        members[(h % members.len() as u64) as usize]
    }

    /// The PoP a server belongs to.
    pub fn pop_of(&self, server_idx: usize) -> &Pop {
        let pop_id = self.servers[server_idx].pop();
        &self.pops[pop_id.raw() as usize]
    }

    /// Serving distance in km between a client and its assigned server.
    pub fn distance_km(&self, server_idx: usize, client: &GeoPoint) -> f64 {
        self.pop_of(server_idx).location.distance_km(client)
    }

    /// Mutable access to a server (the orchestrator serves chunks through
    /// this).
    pub fn server_mut(&mut self, idx: usize) -> &mut CdnServer {
        &mut self.servers[idx]
    }

    /// Compute the background-prefetch list for a request under the
    /// fleet's policy: subsequent chunks of the same video/bitrate.
    pub fn prefetch_list(&self, catalog: &Catalog, key: ObjectKey) -> Vec<(ObjectKey, u64)> {
        self.cfg.prefetch.list(catalog, key)
    }

    /// Index (into [`CdnFleet::pops`]) of the PoP hosting a server.
    pub fn pop_index_of(&self, server_idx: usize) -> usize {
        self.servers[server_idx].pop().raw() as usize
    }

    /// Global indices of a PoP's member servers, ascending.
    pub fn pop_members(&self, pop_index: usize) -> &[usize] {
        &self.by_pop[pop_index]
    }

    /// Compile and install a fault scenario's per-server timelines
    /// (restarts, server/PoP outages, backend slowdowns). No-op for a
    /// scenario without server-level faults. Call before
    /// [`CdnFleet::split_shards`] so shards carry their timelines along.
    pub fn install_faults(&mut self, scenario: &FaultScenario) {
        if !scenario.has_server_faults() {
            return;
        }
        for idx in 0..self.servers.len() {
            let pop = self.pop_index_of(idx);
            let timeline = scenario.server_timeline(idx, pop);
            if !timeline.is_empty() {
                self.servers[idx].install_fault_timeline(timeline);
            }
        }
    }

    /// Carve the fleet into per-PoP shards, moving every server into the
    /// shard of its PoP. The fleet keeps its configuration and PoP list but
    /// holds no servers until [`CdnFleet::merge_shards`] puts them back;
    /// serving methods ([`CdnFleet::server_mut`], reports) must not be used
    /// in between.
    ///
    /// PoPs with no servers produce no shard. Within a shard, servers keep
    /// their relative (ascending global-index) order.
    pub fn split_shards(&mut self) -> Vec<FleetShard> {
        let coarse = vec![true; self.pops.len()];
        self.split_shards_with(&coarse)
    }

    /// Carve the fleet into mixed-granularity shards: PoPs flagged in
    /// `coarse` become one whole-PoP shard each (sessions there may fail
    /// over between member servers, so the members must stay together);
    /// every other PoP is split one-shard-per-server — the fine
    /// granularity that lets the engine's largest-first scheduler balance
    /// a skewed session distribution.
    ///
    /// Shards come out in canonical order: ascending PoP index, then
    /// ascending global server index within a split PoP. PoPs with no
    /// servers produce no shard. Same fleet-ownership contract as
    /// [`CdnFleet::split_shards`].
    pub fn split_shards_with(&mut self, coarse: &[bool]) -> Vec<FleetShard> {
        assert_eq!(coarse.len(), self.pops.len(), "one coarseness flag per PoP");
        let mut slots: Vec<Option<CdnServer>> = std::mem::take(&mut self.servers)
            .into_iter()
            .map(Some)
            .collect();
        let mut take = |i: usize| slots[i].take().expect("server split into two shards");
        let mut shards: Vec<FleetShard> = Vec::new();
        for (pop_index, members) in self.by_pop.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            if coarse[pop_index] {
                shards.push(FleetShard {
                    pop_index,
                    server_indices: members.clone(),
                    servers: members.iter().map(|&i| take(i)).collect(),
                });
            } else {
                for &i in members {
                    shards.push(FleetShard {
                        pop_index,
                        server_indices: vec![i],
                        servers: vec![take(i)],
                    });
                }
            }
        }
        shards
    }

    /// Reassemble the fleet from shards produced by
    /// [`CdnFleet::split_shards`], restoring every server to its global
    /// index. Accepts shards in any order; panics if the shard set does not
    /// cover exactly the servers that were split off.
    pub fn merge_shards(&mut self, shards: Vec<FleetShard>) {
        assert!(
            self.servers.is_empty(),
            "merge_shards on a fleet that still owns servers"
        );
        let total: usize = shards.iter().map(|s| s.servers.len()).sum();
        let mut slots: Vec<Option<CdnServer>> = (0..total).map(|_| None).collect();
        for shard in shards {
            for (global_idx, server) in shard.server_indices.into_iter().zip(shard.servers) {
                assert!(
                    slots[global_idx].is_none(),
                    "server {global_idx} appears in two shards"
                );
                slots[global_idx] = Some(server);
            }
        }
        self.servers = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("server {i} missing from shards")))
            .collect();
    }

    /// Warm every server's cache to a plausible steady state.
    ///
    /// Each server warms its own videos (each PoP's affinity server for
    /// the video) in popularity order, most popular first: the disk tier
    /// at every ladder rung until ~90 % full, then the RAM tier the same
    /// way at the rungs traffic concentrates on. Optionally pins first
    /// chunks of all assigned videos.
    ///
    /// The fill stays implicit ([`TieredCache::warm`](crate::cache::TieredCache::warm)):
    /// warm-up costs a few counters per assigned video, and a server
    /// stores an object only once traffic touches it. Every fill, pin and
    /// fullness check touches only the server being warmed, in one fixed
    /// order, so the caches are the same however the fleet is later split.
    ///
    /// Without warming, the measurement window would start against cold
    /// caches and overstate miss rates relative to the paper's
    /// steady-state 2 %.
    pub fn warm(&mut self, catalog: &Catalog) {
        self.catalog_len = catalog.len();
        if !self.cfg.warm_caches && !self.cfg.pin_first_chunks {
            return;
        }
        // Disk warms the full ladder: production caches have seen every
        // rung of the head content. RAM warms only the rungs traffic
        // concentrates on (the ABR's mid-ladder initial pick and the top
        // rung fast links converge to) — what an LRU RAM tier would
        // actually retain at steady state.
        let warm_rungs = &catalog.ladder().rungs_kbps;
        let ram_rungs = [
            catalog.ladder().floor_rung(1_200.0),
            catalog.ladder().max_kbps(),
        ];

        // Each PoP warms a video on its affinity server; collect every
        // server's assignment list, in catalog order, with the chunks
        // each video warms.
        let mut assigned: Vec<Vec<(&Video, u32)>> = vec![Vec::new(); self.servers.len()];
        for video in catalog.videos() {
            let chunks = warmed_chunks(video, self.catalog_len);
            for members in self.by_pop.iter().filter(|m| !m.is_empty()) {
                let h = derive_seed(video.id.raw(), "fleet-affinity");
                assigned[members[(h % members.len() as u64) as usize]].push((video, chunks));
            }
        }

        for (server, videos) in self.servers.iter_mut().zip(&assigned) {
            let cache = server.cache_mut();
            if self.cfg.pin_first_chunks {
                for &(video, _) in videos {
                    for &rung in warm_rungs {
                        let k = ObjectKey {
                            video: video.id,
                            chunk: ChunkIndex(0),
                            bitrate_kbps: rung,
                        };
                        cache.fill(k, video.chunk_bytes(ChunkIndex(0), rung));
                        cache.pin(k);
                    }
                }
            }
            // Disk first, then RAM, each most popular first, so RAM ends
            // up holding the head of the popularity distribution, as an
            // LRU in steady state would. Manifests are a few KB and every
            // session requests one: each tier warms every video's, even
            // once it is too full for the video's chunks.
            if self.cfg.warm_caches {
                cache.warm(warm_rungs, &ram_rungs, videos);
            }
        }
    }

    /// [`CdnFleet::warm`]. Warm-up costs a few counters per assigned video
    /// and needs no workers, so `threads` changes nothing.
    pub fn warm_parallel(&mut self, catalog: &Catalog, _threads: usize) {
        self.warm(catalog);
    }
}

/// How many chunks of `video` a tier warms at each rung. Steady-state
/// caches hold the union of what past viewers pulled, and viewers abandon
/// mid-video: the head fifth of the catalog is warmed end-to-end, the tail
/// only through a watch-prefix. Sessions that outlast the warmed prefix
/// then mix hits and misses (the paper's 60 % mean miss ratio within miss
/// sessions).
fn warmed_chunks(video: &Video, catalog_len: usize) -> u32 {
    if video.id.rank() * 5 <= catalog_len {
        return video.chunk_count();
    }
    let frac = 0.72 + 0.28 * (derive_seed(video.id.raw(), "warm-frac") % 1000) as f64 / 1000.0;
    ((f64::from(video.chunk_count()) * frac).ceil() as u32).clamp(1, video.chunk_count())
}

/// A slice of the fleet — a whole PoP's servers, or a single server of a
/// split PoP — detached from the fleet so an independent worker can
/// mutate it.
///
/// This is the unit of parallelism in the sharded simulation engine.
/// Client→server assignment never crosses PoP boundaries (nearest PoP,
/// then affinity *within* the PoP), and a session only leaves its
/// assigned *server* on failover — which the engine's failover-domain
/// analysis rules out for split PoPs — so every session's serve path
/// touches exactly one shard and shards can run concurrently without
/// synchronization.
#[derive(Debug)]
pub struct FleetShard {
    pop_index: usize,
    /// Global fleet indices of `servers`, ascending, parallel to `servers`.
    server_indices: Vec<usize>,
    servers: Vec<CdnServer>,
}

impl FleetShard {
    /// Index of the PoP this shard serves.
    pub fn pop_index(&self) -> usize {
        self.pop_index
    }

    /// Number of servers in the shard.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when the shard holds no servers (never produced by
    /// [`CdnFleet::split_shards`]).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Access a server by its *global* fleet index. Panics if the server
    /// lives in a different shard — a cross-PoP touch would break the
    /// parallelism contract, so it must fail loudly.
    pub fn server_mut(&mut self, global_idx: usize) -> &mut CdnServer {
        let local = self.local_index(global_idx);
        &mut self.servers[local]
    }

    /// Shared access to a server by its *global* fleet index.
    pub fn server(&self, global_idx: usize) -> &CdnServer {
        let local = self.local_index(global_idx);
        &self.servers[local]
    }

    /// Global fleet indices of the shard's servers, ascending — the same
    /// order [`CdnFleet::pop_members`] reports for this PoP.
    pub fn members(&self) -> &[usize] {
        &self.server_indices
    }

    /// Free every server's cache once the shard's sessions are done: no
    /// session of another shard reaches these servers, and past the event
    /// loop only their stats and churn counters are read.
    pub fn retire_caches(&mut self) {
        for server in &mut self.servers {
            server.cache_mut().retire();
        }
    }

    fn local_index(&self, global_idx: usize) -> usize {
        self.server_indices
            .binary_search(&global_idx)
            .unwrap_or_else(|_| {
                panic!(
                    "server {global_idx} is not in the PoP-{} shard",
                    self.pop_index
                )
            })
    }
}

/// Mutable access to servers plus same-PoP membership — the interface the
/// session step drives, implemented by one [`FleetShard`] (the engine's
/// event loops) and by the whole [`CdnFleet`] (the one-global-queue
/// reference the engine is tested against).
///
/// Failover never leaves the session's PoP, and both implementations
/// expose a PoP's members in the same ascending global-index order, so
/// retry/failover decisions are bit-identical whichever pool serves the
/// step — that is the fault layer's thread-invariance argument.
pub trait ServerPool {
    /// Mutable server by global fleet index.
    fn pool_server_mut(&mut self, global_idx: usize) -> &mut CdnServer;

    /// Shared server by global fleet index.
    fn pool_server(&self, global_idx: usize) -> &CdnServer;

    /// Global indices of a PoP's member servers, ascending.
    fn pop_members(&self, pop_index: usize) -> &[usize];
}

impl ServerPool for CdnFleet {
    fn pool_server_mut(&mut self, global_idx: usize) -> &mut CdnServer {
        self.server_mut(global_idx)
    }

    fn pool_server(&self, global_idx: usize) -> &CdnServer {
        &self.servers[global_idx]
    }

    fn pop_members(&self, pop_index: usize) -> &[usize] {
        CdnFleet::pop_members(self, pop_index)
    }
}

impl ServerPool for FleetShard {
    fn pool_server_mut(&mut self, global_idx: usize) -> &mut CdnServer {
        self.server_mut(global_idx)
    }

    fn pool_server(&self, global_idx: usize) -> &CdnServer {
        self.server(global_idx)
    }

    fn pop_members(&self, pop_index: usize) -> &[usize] {
        assert_eq!(
            pop_index, self.pop_index,
            "cross-PoP membership query on a shard"
        );
        // Failover consults this, and failover only fires under faults
        // that force the session's PoP into one whole-PoP (coarse) shard —
        // so when it is consulted, the list is the full PoP membership.
        &self.server_indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlab_workload::catalog::CatalogConfig;

    fn small_catalog() -> Catalog {
        let mut rng = RngStream::new(3, "fleet-cat");
        Catalog::generate(
            &CatalogConfig {
                videos: 500,
                ..CatalogConfig::default()
            },
            &mut rng,
        )
    }

    fn fleet(cfg: FleetConfig) -> CdnFleet {
        CdnFleet::new(Arc::new(cfg), 42)
    }

    #[test]
    fn eighty_five_servers_across_all_pops() {
        let f = fleet(FleetConfig::default());
        assert_eq!(f.len(), 85);
        for (i, pop_members) in f.by_pop.iter().enumerate() {
            assert!(
                !pop_members.is_empty(),
                "PoP {i} has no servers with 85 machines over 10 PoPs"
            );
        }
    }

    #[test]
    fn assignment_is_stable_and_geo_local() {
        let mut f = fleet(FleetConfig::default());
        let cat = small_catalog();
        f.warm(&cat);
        let seattle = GeoPoint {
            lat: 47.6,
            lon: -122.3,
        };
        let a = f.assign(&seattle, VideoId(7), SessionId(1));
        let b = f.assign(&seattle, VideoId(7), SessionId(999));
        assert_eq!(a, b, "affinity mapping must not depend on session");
        assert_eq!(f.pop_of(a).metro, "Seattle-WA");
        assert!(f.distance_km(a, &seattle) < 50.0);
    }

    #[test]
    fn different_videos_spread_within_pop() {
        let mut f = fleet(FleetConfig::default());
        let cat = small_catalog();
        f.warm(&cat);
        let ny = GeoPoint {
            lat: 40.7,
            lon: -74.0,
        };
        let mut targets = std::collections::HashSet::new();
        for v in 0..100 {
            targets.insert(f.assign(&ny, VideoId(v), SessionId(0)));
        }
        assert!(targets.len() > 1, "content hash should use several servers");
    }

    #[test]
    fn partition_popular_spreads_head_by_session() {
        let mut f = fleet(FleetConfig {
            partition_popular: true,
            ..FleetConfig::default()
        });
        let cat = small_catalog();
        f.warm(&cat);
        let ny = GeoPoint {
            lat: 40.7,
            lon: -74.0,
        };
        let head_video = VideoId(0); // rank 1: within the top 10%
        let mut targets = std::collections::HashSet::new();
        for s in 0..50 {
            targets.insert(f.assign(&ny, head_video, SessionId(s)));
        }
        assert!(
            targets.len() > 1,
            "popular content should spread across the PoP"
        );
        // Tail content stays affinity-mapped.
        let tail_video = VideoId(499);
        let mut tail_targets = std::collections::HashSet::new();
        for s in 0..50 {
            tail_targets.insert(f.assign(&ny, tail_video, SessionId(s)));
        }
        assert_eq!(tail_targets.len(), 1);
    }

    #[test]
    fn warming_includes_manifests() {
        let mut f = fleet(FleetConfig::default());
        let cat = small_catalog();
        f.warm(&cat);
        let ny = GeoPoint {
            lat: 40.7,
            lon: -74.0,
        };
        // Every video's manifest is warm on its affinity server — even the
        // least popular video's.
        for v in [VideoId(0), VideoId(250), VideoId(499)] {
            let idx = f.assign(&ny, v, SessionId(0));
            assert!(
                f.servers()[idx].cache().contains(ObjectKey::manifest(v)),
                "manifest of {v} not warmed"
            );
        }
    }

    #[test]
    fn tail_videos_get_partial_watch_prefix_warm() {
        let mut f = fleet(FleetConfig::default());
        let cat = small_catalog();
        f.warm(&cat);
        let ny = GeoPoint {
            lat: 40.7,
            lon: -74.0,
        };
        // Find a long tail video (rank beyond the head fifth) and check
        // that its early chunks are warmer than its last chunk somewhere.
        let mid_rung = cat.ladder().floor_rung(1_200.0);
        let mut partial_seen = false;
        for v in cat
            .videos()
            .iter()
            .filter(|v| v.id.rank() * 5 > cat.len() && v.chunk_count() >= 10)
        {
            let idx = f.assign(&ny, v.id, SessionId(0));
            let server = &f.servers()[idx];
            let first = ObjectKey {
                video: v.id,
                chunk: ChunkIndex(0),
                bitrate_kbps: mid_rung,
            };
            let last = ObjectKey {
                video: v.id,
                chunk: ChunkIndex(v.chunk_count() - 1),
                bitrate_kbps: mid_rung,
            };
            if server.cache().contains(first) && !server.cache().contains(last) {
                partial_seen = true;
                break;
            }
        }
        assert!(
            partial_seen,
            "no tail video shows the watch-prefix warm pattern"
        );
    }

    #[test]
    fn warming_fills_caches() {
        let mut f = fleet(FleetConfig::default());
        let cat = small_catalog();
        f.warm(&cat);
        let warmed_bytes: u64 = f
            .servers()
            .iter()
            .map(|s| s.cache().ram().used() + s.cache().disk().used())
            .sum();
        assert!(warmed_bytes > 0, "warm() stored nothing");
    }

    #[test]
    fn pinned_first_chunks_always_hit() {
        let mut f = fleet(FleetConfig {
            pin_first_chunks: true,
            warm_caches: false,
            ..FleetConfig::default()
        });
        let cat = small_catalog();
        f.warm(&cat);
        let ladder_mid = cat.ladder().floor_rung(1_200.0);
        let ny = GeoPoint {
            lat: 40.7,
            lon: -74.0,
        };
        // Even the least popular video's first chunk is cached.
        let v = VideoId(499);
        let idx = f.assign(&ny, v, SessionId(0));
        let key = ObjectKey {
            video: v,
            chunk: ChunkIndex(0),
            bitrate_kbps: ladder_mid,
        };
        assert!(f.servers()[idx].cache().contains(key));
    }

    #[test]
    fn prefetch_list_respects_video_end() {
        let f = fleet(FleetConfig {
            prefetch: PrefetchPolicy::NextChunksOnMiss(5),
            ..FleetConfig::default()
        });
        let cat = small_catalog();
        let v = cat.videos().iter().find(|v| v.chunk_count() >= 4).unwrap();
        let near_end = ObjectKey {
            video: v.id,
            chunk: ChunkIndex(v.chunk_count() - 2),
            bitrate_kbps: 1050,
        };
        let list = f.prefetch_list(&cat, near_end);
        assert_eq!(list.len(), 1, "only one chunk remains after {near_end:?}");
        let start = ObjectKey {
            video: v.id,
            chunk: ChunkIndex(0),
            bitrate_kbps: 1050,
        };
        let list = f.prefetch_list(&cat, start);
        assert_eq!(list.len(), 5.min(v.chunk_count() as usize - 1));
    }

    #[test]
    fn split_covers_every_server_and_merge_restores_order() {
        let mut f = fleet(FleetConfig::default());
        let ids_before: Vec<_> = f.servers().iter().map(|s| s.id()).collect();
        let shards = f.split_shards();
        assert!(f.servers().is_empty(), "split must move the servers out");
        // Every shard is a single PoP and shards partition the fleet.
        let mut seen = std::collections::HashSet::new();
        for shard in &shards {
            assert!(!shard.is_empty());
            for i in 0..shard.len() {
                let global = shard.server_indices[i];
                assert!(seen.insert(global), "server {global} in two shards");
                assert_eq!(shard.server(global).pop().raw() as usize, shard.pop_index());
            }
        }
        assert_eq!(seen.len(), ids_before.len());
        f.merge_shards(shards);
        let ids_after: Vec<_> = f.servers().iter().map(|s| s.id()).collect();
        assert_eq!(ids_before, ids_after, "merge must restore global order");
    }

    #[test]
    fn split_with_mixed_granularity_covers_and_merges() {
        let mut f = fleet(FleetConfig::default());
        let ids_before: Vec<_> = f.servers().iter().map(|s| s.id()).collect();
        // PoPs 0 and 3 stay coarse, every other PoP splits per server.
        let mut coarse = vec![false; f.pops().len()];
        coarse[0] = true;
        coarse[3] = true;
        let shards = f.split_shards_with(&coarse);
        let mut seen = std::collections::HashSet::new();
        let mut last_key = (0usize, 0usize);
        for (i, shard) in shards.iter().enumerate() {
            if coarse[shard.pop_index()] {
                assert!(shard.len() > 1, "85 servers over 10 PoPs: coarse > 1");
            } else {
                assert_eq!(shard.len(), 1, "split PoPs yield singleton shards");
            }
            for &global in shard.members() {
                assert!(seen.insert(global), "server {global} in two shards");
            }
            // Canonical order: ascending (PoP, first server).
            let key = (shard.pop_index(), shard.members()[0]);
            if i > 0 {
                assert!(key > last_key, "shards out of canonical order: {key:?}");
            }
            last_key = key;
        }
        assert_eq!(seen.len(), ids_before.len());
        f.merge_shards(shards);
        let ids_after: Vec<_> = f.servers().iter().map(|s| s.id()).collect();
        assert_eq!(ids_before, ids_after);
    }

    #[test]
    fn all_fine_split_is_one_shard_per_server() {
        let mut f = fleet(FleetConfig::default());
        let n = f.len();
        let coarse = vec![false; f.pops().len()];
        let shards = f.split_shards_with(&coarse);
        assert_eq!(shards.len(), n);
        f.merge_shards(shards);
    }

    #[test]
    fn parallel_warm_matches_sequential_warm() {
        // Warm-up has no workers left: the thread argument must change
        // nothing, down to every object of every tier.
        let cat = small_catalog();
        let warmed = |threads: usize| {
            let mut f = fleet(FleetConfig {
                pin_first_chunks: true,
                ..FleetConfig::default()
            });
            f.warm_parallel(&cat, threads);
            f
        };
        let seq = warmed(1);
        let par = warmed(4);
        // Every tenth video's manifest and its first and last chunks.
        let mut keys = Vec::new();
        for v in cat.videos().iter().step_by(10) {
            keys.push(ObjectKey::manifest(v.id));
            let n = v.chunk_count();
            for c in (0..n.min(3)).chain([n - 1]) {
                for &rung in &cat.ladder().rungs_kbps {
                    keys.push(ObjectKey {
                        video: v.id,
                        chunk: ChunkIndex(c),
                        bitrate_kbps: rung,
                    });
                }
            }
        }
        for (a, b) in seq.servers().iter().zip(par.servers()) {
            for (ta, tb) in [
                (a.cache().ram(), b.cache().ram()),
                (a.cache().disk(), b.cache().disk()),
            ] {
                assert_eq!((ta.used(), ta.len()), (tb.used(), tb.len()));
                assert!(keys.iter().all(|&k| ta.contains(k) == tb.contains(k)));
            }
            assert_eq!(a.cache().churn(), b.cache().churn());
        }
    }

    #[test]
    fn merge_accepts_shards_in_any_order() {
        let mut f = fleet(FleetConfig::default());
        let ids_before: Vec<_> = f.servers().iter().map(|s| s.id()).collect();
        let mut shards = f.split_shards();
        shards.reverse();
        f.merge_shards(shards);
        let ids_after: Vec<_> = f.servers().iter().map(|s| s.id()).collect();
        assert_eq!(ids_before, ids_after);
    }

    #[test]
    #[should_panic(expected = "is not in the PoP")]
    fn shard_rejects_cross_pop_server_access() {
        let mut f = fleet(FleetConfig::default());
        let mut shards = f.split_shards();
        // Find a server that belongs to a different shard than shards[0].
        let foreign = shards[1].server_indices[0];
        let _ = shards[0].server_mut(foreign);
    }

    #[test]
    fn prefetch_policy_list_matches_fleet_prefetch_list() {
        let f = fleet(FleetConfig {
            prefetch: PrefetchPolicy::NextChunksOnMiss(3),
            ..FleetConfig::default()
        });
        let cat = small_catalog();
        let key = ObjectKey {
            video: VideoId(1),
            chunk: ChunkIndex(0),
            bitrate_kbps: 1050,
        };
        assert_eq!(
            f.prefetch_list(&cat, key),
            PrefetchPolicy::NextChunksOnMiss(3).list(&cat, key)
        );
    }

    #[test]
    fn install_faults_covers_every_pop_member() {
        use streamlab_faults::PopOutage;
        use streamlab_sim::SimTime;
        let mut f = fleet(FleetConfig::default());
        let scenario = FaultScenario {
            pop_outages: vec![PopOutage {
                pop: 2,
                from_s: 100.0,
                until_s: 200.0,
            }],
            ..FaultScenario::default()
        };
        f.install_faults(&scenario);
        let mid = SimTime::from_secs(150);
        for idx in 0..f.len() {
            let out = f.servers()[idx].is_out(mid);
            assert_eq!(
                out,
                f.pop_index_of(idx) == 2,
                "server {idx} outage state wrong"
            );
        }
    }

    #[test]
    fn pool_members_agree_between_fleet_and_shard() {
        let mut f = fleet(FleetConfig::default());
        let fleet_members: Vec<Vec<usize>> = (0..f.pops().len())
            .map(|p| CdnFleet::pop_members(&f, p).to_vec())
            .collect();
        let shards = f.split_shards();
        for shard in &shards {
            assert_eq!(
                ServerPool::pop_members(shard, shard.pop_index()),
                &fleet_members[shard.pop_index()][..],
                "failover order must match between engines"
            );
        }
        f.merge_shards(shards);
    }

    #[test]
    fn no_prefetch_by_default() {
        let f = fleet(FleetConfig::default());
        let cat = small_catalog();
        let key = ObjectKey {
            video: VideoId(0),
            chunk: ChunkIndex(0),
            bitrate_kbps: 1050,
        };
        assert!(f.prefetch_list(&cat, key).is_empty());
    }
}
