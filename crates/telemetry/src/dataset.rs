//! Beacon collection, the two-sided join, and proxy preprocessing.
//!
//! §2.2: "A key to end-to-end analysis is to trace session performance
//! from the player through the CDN (at the granularity of chunks). We
//! implement tracing by using a globally unique session ID and per-session
//! chunk IDs." §3 then filters sessions behind HTTP proxies, keeping 77 %
//! of sessions.

use crate::records::{CdnChunkRecord, ChunkRecord, PlayerChunkRecord, SessionMeta};
use crate::segment::{self, SegmentMeta, SortKey};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use streamlab_sim::SimTime;
use streamlab_supervisor::Storage;
use streamlab_workload::{ChunkIndex, PrefixId, SessionId};

/// Configuration for a spilling sink: where segments go, when a flush
/// fires, which canonical shard the sink belongs to, and the storage
/// handle the segment writes are routed through (so §17 fault plans cover
/// them).
#[derive(Debug, Clone)]
pub struct SpillSpec {
    /// Directory sealed segments are written into (must exist).
    pub dir: PathBuf,
    /// Arena row count that triggers a flush.
    pub threshold: usize,
    /// Canonical shard index recorded in every segment header.
    pub shard: u32,
    /// Storage seam the segment writes go through.
    pub storage: Storage,
}

#[derive(Debug)]
struct SpillState {
    spec: SpillSpec,
    seq: u32,
    /// Set on the first failed flush; spilling stops, records stay in RAM
    /// and the run still completes correctly (degrade, don't die).
    disabled: bool,
}

/// Collects the three beacon streams as the simulation runs.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    player: Vec<PlayerChunkRecord>,
    cdn: Vec<CdnChunkRecord>,
    sessions: Vec<SessionMeta>,
    spill: Option<SpillState>,
    sealed: Vec<SegmentMeta>,
    spill_errors: Vec<String>,
}

impl TelemetrySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink with pre-sized arenas: room for `sessions` metadata beacons
    /// and `chunks` records in each per-chunk stream. The engines size
    /// this from the session specs so the hot loop appends without ever
    /// reallocating.
    pub fn with_capacity(sessions: usize, chunks: usize) -> Self {
        TelemetrySink {
            player: Vec::with_capacity(chunks),
            cdn: Vec::with_capacity(chunks),
            sessions: Vec::with_capacity(sessions),
            ..Self::default()
        }
    }

    /// A spilling sink: crossing `spill.threshold` arena rows seals a
    /// sorted segment in `spill.dir` and clears the arenas, so the sink
    /// runs in constant memory w.r.t. chunk volume (session metadata stays
    /// in RAM — one record per session). The arenas reserve nothing up
    /// front: they grow to what the shard holds, and since a flush keeps
    /// their capacity they stop growing at the threshold (rounded up by
    /// `Vec`'s doubling).
    pub fn with_spill(sessions: usize, spill: SpillSpec) -> Self {
        TelemetrySink {
            sessions: Vec::with_capacity(sessions),
            spill: Some(SpillState {
                spec: spill,
                seq: 0,
                disabled: false,
            }),
            ..Self::default()
        }
    }

    /// Record a player-side chunk beacon.
    pub fn player_chunk(&mut self, r: PlayerChunkRecord) {
        self.player.push(r);
        self.maybe_flush();
    }

    /// Record a CDN-side chunk log line.
    pub fn cdn_chunk(&mut self, r: CdnChunkRecord) {
        self.cdn.push(r);
        self.maybe_flush();
    }

    /// Record session metadata.
    pub fn session(&mut self, m: SessionMeta) {
        self.sessions.push(m);
    }

    /// Paired rows sealed into segments so far.
    pub fn spilled_rows(&self) -> u64 {
        self.sealed.iter().map(|s| s.rows).sum()
    }

    /// Manifest entries for every sealed segment, in seal order.
    pub fn sealed_segments(&self) -> &[SegmentMeta] {
        &self.sealed
    }

    /// Errors hit while spilling (each one disabled further spilling for
    /// the sink that hit it; the affected rows stayed in RAM).
    pub fn spill_errors(&self) -> &[String] {
        &self.spill_errors
    }

    /// Leave the sink's chunk records as sorted runs, ready for the join.
    ///
    /// A spilling sink seals the rows still in its arenas as a final
    /// (possibly small) segment and releases the drained arenas: a sealed
    /// sink would otherwise hold them until the join or stream finishes.
    /// An in-RAM sink, or one whose spilling a failure disabled, sorts its
    /// arenas in place (`sort_run`). The engines call this once per
    /// completed shard, in the shard's worker, so the sorts run in
    /// parallel and the join finds every run already sorted.
    pub fn seal(&mut self) {
        self.flush_run();
        if self.player.is_empty() && self.cdn.is_empty() {
            self.player = Vec::new();
            self.cdn = Vec::new();
        } else {
            sort_run(&mut self.player, &mut self.cdn);
        }
    }

    fn maybe_flush(&mut self) {
        let Some(state) = &self.spill else { return };
        if state.disabled
            || self.player.len() < state.spec.threshold
            || self.player.len() != self.cdn.len()
        {
            return;
        }
        self.flush_run();
    }

    /// Sort the current arenas into a run in place ([`sort_run`]) and seal
    /// it as a segment, so a seal holds no second copy of the rows. On
    /// success the arenas are cleared (keeping their capacity for the next
    /// run); on failure the sorted rows stay in them and spilling is
    /// disabled.
    fn flush_run(&mut self) {
        let Some(state) = &mut self.spill else { return };
        if state.disabled || self.player.is_empty() || self.player.len() != self.cdn.len() {
            return;
        }
        sort_run(&mut self.player, &mut self.cdn);
        let path = state.spec.dir.join(format!(
            "seg-{:05}-{:05}.slseg",
            state.spec.shard, state.seq
        ));
        match segment::write_segment(
            &state.spec.storage,
            &path,
            state.spec.shard,
            state.seq,
            &self.player,
            &self.cdn,
        ) {
            Ok(meta) => {
                state.seq += 1;
                self.sealed.push(meta);
                self.player.clear();
                self.cdn.clear();
            }
            Err(e) => {
                // Keep the sorted rows and stop spilling; the run
                // completes in RAM.
                state.disabled = true;
                self.spill_errors
                    .push(format!("sealing {} failed: {e}", path.display()));
            }
        }
    }

    /// Split the sink into its raw parts (merge machinery).
    pub(crate) fn into_parts(
        self,
    ) -> (
        Vec<PlayerChunkRecord>,
        Vec<CdnChunkRecord>,
        Vec<SessionMeta>,
        Vec<SegmentMeta>,
    ) {
        (self.player, self.cdn, self.sessions, self.sealed)
    }
}

/// The key a player half joins on.
pub(crate) fn player_key(p: &PlayerChunkRecord) -> SortKey {
    (p.session, p.chunk)
}

/// The key a CDN half joins on.
pub(crate) fn cdn_key(c: &CdnChunkRecord) -> SortKey {
    (c.session, c.chunk)
}

/// Sort a sink's in-RAM arenas into one key-sorted run, in place.
/// Pairwise-keyed arenas (`player[i]` and `cdn[i]` are the same chunk,
/// the shape the engines push) are sorted together by [`sort_paired`], any
/// others column by column. Arenas already sorted cost one read-only pass.
pub(crate) fn sort_run(player: &mut [PlayerChunkRecord], cdn: &mut [CdnChunkRecord]) {
    // One read-only pass tells whether the arenas are paired and whether
    // they are already in key order.
    let mut sorted = true;
    let mut prev = None;
    let paired = player.len() == cdn.len()
        && player.iter().zip(&*cdn).all(|(p, c)| {
            let key = player_key(p);
            sorted &= prev <= Some(key);
            prev = Some(key);
            key == cdn_key(c)
        });
    if !paired {
        player.sort_unstable_by_key(player_key);
        cdn.sort_unstable_by_key(cdn_key);
    } else if !sorted {
        sort_paired(player, cdn);
    }
}

/// Stable-sort the paired arenas by `(session, chunk)` in place: sort a
/// `u32` index permutation by the player row's key, then apply it to both
/// arenas by following its cycles with swaps.
fn sort_paired(player: &mut [PlayerChunkRecord], cdn: &mut [CdnChunkRecord]) {
    debug_assert_eq!(player.len(), cdn.len());
    let n = u32::try_from(player.len()).expect("a spill run's rows fit u32");
    let mut perm: Vec<u32> = (0..n).collect();
    // The index breaks ties, so the unstable sort, which needs no scratch
    // buffer, gives the stable order.
    perm.sort_unstable_by_key(|&i| (player[i as usize].session, player[i as usize].chunk, i));
    // Row `i` takes the row at `perm[i]`; a placed position is marked by
    // pointing it at itself.
    for start in 0..perm.len() {
        let mut at = start;
        while perm[at] as usize != start {
            let from = perm[at] as usize;
            player.swap(at, from);
            cdn.swap(at, from);
            perm[at] = at as u32;
            at = from;
        }
        perm[at] = at as u32;
    }
}

/// A join failure: the two vantage points disagree about what happened.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinError {
    /// A player beacon has no CDN log line.
    OrphanPlayerRecord(SessionId, ChunkIndex),
    /// A CDN log line has no player beacon.
    OrphanCdnRecord(SessionId, ChunkIndex),
    /// Chunk records exist for a session with no metadata.
    MissingSessionMeta(SessionId),
    /// Two records share a `(session, chunk)` key.
    DuplicateKey(SessionId, ChunkIndex),
    /// A spilled segment could not be read back (I/O error, torn file, or
    /// fingerprint mismatch).
    Spill(String),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::OrphanPlayerRecord(s, c) => {
                write!(f, "player record {s}/{c} has no CDN counterpart")
            }
            JoinError::OrphanCdnRecord(s, c) => {
                write!(f, "CDN record {s}/{c} has no player counterpart")
            }
            JoinError::MissingSessionMeta(s) => write!(f, "no session metadata for {s}"),
            JoinError::DuplicateKey(s, c) => write!(f, "duplicate record for {s}/{c}"),
            JoinError::Spill(msg) => write!(f, "spill segment failure: {msg}"),
        }
    }
}

impl std::error::Error for JoinError {}

/// One session's joined data: metadata plus its chunks in order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionData {
    /// Session metadata (Table 3).
    pub meta: SessionMeta,
    /// Joined chunk records in chunk order.
    pub chunks: Vec<ChunkRecord>,
}

impl SessionData {
    /// Session-wide retransmission rate (retx / segments over all chunks).
    pub fn retx_rate(&self) -> f64 {
        let segs: u64 = self.chunks.iter().map(|c| u64::from(c.cdn.segments)).sum();
        let retx: u64 = self
            .chunks
            .iter()
            .map(|c| u64::from(c.cdn.retx_segments))
            .sum();
        if segs == 0 {
            0.0
        } else {
            retx as f64 / segs as f64
        }
    }

    /// True when no segment was retransmitted in the whole session.
    pub fn loss_free(&self) -> bool {
        self.chunks.iter().all(|c| c.cdn.retx_segments == 0)
    }

    /// Average requested bitrate over chunks, kbps.
    pub fn avg_bitrate_kbps(&self) -> f64 {
        if self.chunks.is_empty() {
            return 0.0;
        }
        self.chunks
            .iter()
            .map(|c| f64::from(c.player.bitrate_kbps))
            .sum::<f64>()
            / self.chunks.len() as f64
    }

    /// Total rebuffering time across chunks.
    pub fn rebuffer_total_s(&self) -> f64 {
        self.chunks
            .iter()
            .map(|c| c.player.buf_dur.as_secs_f64())
            .sum()
    }

    /// Rebuffering rate: stalled time over (stalled + played) time, in
    /// percent (Figs. 11c/12 y-axis).
    pub fn rebuffer_rate_pct(&self) -> f64 {
        let stalled = self.rebuffer_total_s();
        let played: f64 = self.chunks.iter().map(|c| c.player.chunk_secs).sum();
        if stalled + played <= 0.0 {
            0.0
        } else {
            100.0 * stalled / (stalled + played)
        }
    }

    /// One SRTT sample per chunk (the last kernel snapshot taken while the
    /// chunk was in flight), ms, in chunk order.
    ///
    /// Per-chunk sampling weights every chunk equally; the raw 500 ms grid
    /// would instead over-represent slow chunks (a chunk that takes 10 s
    /// contributes 20 grid samples), biasing per-session variability
    /// statistics toward the degraded state.
    pub fn srtt_per_chunk_ms(&self) -> Vec<f64> {
        self.chunks
            .iter()
            .filter_map(|c| c.cdn.tcp.last().map(|s| s.srtt.as_millis_f64()))
            .collect()
    }

    /// All kernel SRTT samples of the session, ms, in time order.
    ///
    /// Chunks are sequential and each chunk's snapshots are taken on a
    /// forward-moving clock, so the flattened stream is almost always
    /// already time-ordered — detected in the same pass that collects it,
    /// skipping the sort entirely. The (stable, tie-preserving) sort only
    /// runs on streams that actually interleave.
    pub fn srtt_samples_ms(&self) -> Vec<f64> {
        let n: usize = self.chunks.iter().map(|c| c.cdn.tcp.len()).sum();
        let mut v: Vec<(u64, f64)> = Vec::with_capacity(n);
        let mut sorted = true;
        let mut last = 0u64;
        for c in &self.chunks {
            for s in &c.cdn.tcp {
                let at = s.at.as_nanos();
                sorted &= at >= last;
                last = at;
                v.push((at, s.srtt.as_millis_f64()));
            }
        }
        if !sorted {
            v.sort_by_key(|&(at, _)| at);
        }
        v.into_iter().map(|(_, s)| s).collect()
    }

    /// The session's startup delay: the player-perceived time-to-play is
    /// dominated by the first chunk's delivery (plus the startup
    /// threshold's worth of buffering).
    pub fn first_chunk(&self) -> Option<&ChunkRecord> {
        self.chunks.first()
    }
}

/// What §3's proxy filter reads of one session.
#[derive(Debug, Clone, Copy)]
pub struct ProxySignals {
    /// Client /24 prefix.
    pub prefix: PrefixId,
    /// Session arrival time.
    pub arrival: SimTime,
    /// User-agent / IP mismatch between HTTP requests and player beacons.
    pub ua_mismatch: bool,
    /// Seconds of video the session's chunks carry, summed in chunk order.
    pub played_s: f64,
}

impl ProxySignals {
    /// The signals of one joined session.
    pub fn of(s: &SessionData) -> ProxySignals {
        ProxySignals {
            prefix: s.meta.prefix,
            arrival: s.meta.arrival,
            ua_mismatch: s.meta.ua_mismatch,
            played_s: s.chunks.iter().map(|c| c.player.chunk_secs).sum(),
        }
    }
}

/// §3 preprocessing as a keep-mask over `sessions`, in their order: drop a
/// session whose observable signals identify a proxy — (i) user-agent/IP
/// mismatch between the HTTP requests and the player beacons, or (ii) a
/// prefix producing more video-minutes than wall-clock minutes (many users
/// behind one address). Signal (ii) needs every session's played seconds
/// first, so the rule runs over a whole run's signals, never inline.
pub fn proxy_keep_mask(sessions: &[ProxySignals]) -> Vec<bool> {
    // Signal (ii): per-prefix played seconds vs the observation window.
    let mut prefix_secs: HashMap<u64, f64> = HashMap::new();
    let mut window_end: f64 = 0.0;
    for s in sessions {
        *prefix_secs.entry(s.prefix.raw()).or_insert(0.0) += s.played_s;
        window_end = window_end.max(s.arrival.as_secs_f64());
    }
    let window = window_end.max(1.0);
    sessions
        .iter()
        .map(|s| !(s.ua_mismatch || prefix_secs[&s.prefix.raw()] > 3.0 * window))
        .collect()
}

/// The joined, preprocessed dataset every analysis consumes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Sessions in id order (post proxy-filtering unless stated).
    pub sessions: Vec<SessionData>,
    /// Sessions dropped by the proxy filter.
    pub filtered_proxy_sessions: usize,
    /// Raw session count before preprocessing.
    pub raw_sessions: usize,
}

impl Dataset {
    /// Join the three beacon streams on `(session, chunk)`.
    ///
    /// Fails if any record is orphaned or duplicated: in the simulator —
    /// unlike production — the join must be total, and a violation is a
    /// bug in the orchestrator.
    pub fn join(sink: TelemetrySink) -> Result<Dataset, JoinError> {
        Self::join_runs(vec![sink])
    }

    /// Join several sinks taken as *runs* — the engine's per-shard sinks,
    /// in canonical shard order — into one dataset, exactly as if every
    /// record had gone into one sink in run order. Nothing is copied into
    /// a merged sink first: this collects [`crate::SessionStream`], the
    /// one sort-merge join every sink goes through, in RAM or spilled.
    pub fn join_runs(runs: Vec<TelemetrySink>) -> Result<Dataset, JoinError> {
        let sessions = crate::SessionStream::new(runs).collect::<Result<Vec<_>, _>>()?;
        let raw = sessions.len();
        Ok(Dataset {
            sessions,
            filtered_proxy_sessions: 0,
            raw_sessions: raw,
        })
    }

    /// §3 preprocessing: drop the sessions [`proxy_keep_mask`] rejects.
    pub fn filter_proxies(mut self) -> Dataset {
        let signals: Vec<ProxySignals> = self.sessions.iter().map(ProxySignals::of).collect();
        let mut keep = proxy_keep_mask(&signals).into_iter();
        let before = self.sessions.len();
        self.sessions.retain(|_| keep.next() == Some(true));
        self.filtered_proxy_sessions = before - self.sessions.len();
        self
    }

    /// Total chunk count across sessions.
    pub fn chunk_count(&self) -> usize {
        self.sessions.iter().map(|s| s.chunks.len()).sum()
    }

    /// Iterate all joined chunk records.
    pub fn chunks(&self) -> impl Iterator<Item = (&SessionMeta, &ChunkRecord)> + '_ {
        self.sessions
            .iter()
            .flat_map(|s| s.chunks.iter().map(move |c| (&s.meta, c)))
    }

    /// Fraction of raw sessions kept after preprocessing (paper: 77 %).
    pub fn retention(&self) -> f64 {
        if self.raw_sessions == 0 {
            1.0
        } else {
            self.sessions.len() as f64 / self.raw_sessions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{CacheOutcome, ChunkTruth};
    use streamlab_sim::{SimDuration, SimTime};
    use streamlab_workload::{
        AccessClass, Browser, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId, VideoId,
    };

    fn meta(id: u64, ua_mismatch: bool) -> SessionMeta {
        SessionMeta {
            session: SessionId(id),
            prefix: PrefixId(id % 3),
            video: VideoId(1),
            video_secs: 120.0,
            os: Os::Windows,
            browser: Browser::Chrome,
            org: "Residential-ISP-0".into(),
            org_kind: OrgKind::Residential,
            access: AccessClass::Cable,
            region: Region::UnitedStates,
            location: GeoPoint {
                lat: 40.0,
                lon: -75.0,
            },
            pop: PopId(0),
            server: ServerId(3),
            distance_km: 25.0,
            arrival: SimTime::from_secs(3600),
            startup_delay_s: 1.2,
            proxied: ua_mismatch,
            ua_mismatch,
            gpu: true,
            visible: true,
        }
    }

    fn player(id: u64, chunk: u32) -> PlayerChunkRecord {
        PlayerChunkRecord {
            session: SessionId(id),
            chunk: ChunkIndex(chunk),
            bitrate_kbps: 1050,
            requested_at: SimTime::from_secs(3600),
            d_fb: SimDuration::from_millis(150),
            d_lb: SimDuration::from_millis(900),
            chunk_secs: 6.0,
            buf_count: 0,
            buf_dur: SimDuration::ZERO,
            visible: true,
            avg_fps: 29.0,
            dropped_frames: 6,
            frames: 180,
            truth: ChunkTruth::default(),
        }
    }

    fn cdn(id: u64, chunk: u32, retx: u32) -> CdnChunkRecord {
        CdnChunkRecord {
            session: SessionId(id),
            chunk: ChunkIndex(chunk),
            d_wait: SimDuration::from_micros(200),
            d_open: SimDuration::from_micros(200),
            d_read: SimDuration::from_millis(2),
            d_backend: SimDuration::ZERO,
            cache: CacheOutcome::RamHit,
            retry_fired: false,
            size_bytes: 787_500,
            served_at: SimTime::from_secs(3600),
            segments: 540,
            retx_segments: retx,
            tcp: vec![],
        }
    }

    #[test]
    fn join_is_total_on_consistent_streams() {
        let mut sink = TelemetrySink::new();
        for id in 0..3 {
            sink.session(meta(id, false));
            for c in 0..4 {
                sink.player_chunk(player(id, c));
                sink.cdn_chunk(cdn(id, c, 0));
            }
        }
        let ds = Dataset::join(sink).expect("join");
        assert_eq!(ds.sessions.len(), 3);
        assert_eq!(ds.chunk_count(), 12);
        for s in &ds.sessions {
            // Chunks in order.
            for (i, c) in s.chunks.iter().enumerate() {
                assert_eq!(c.chunk().raw() as usize, i);
            }
        }
    }

    #[test]
    fn seal_releases_the_drained_arenas() {
        let dir = std::env::temp_dir().join(format!("streamlab-seal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let mut sink = TelemetrySink::with_spill(
            3,
            SpillSpec {
                dir: dir.clone(),
                threshold: 8,
                shard: 0,
                storage: Storage::real(),
            },
        );
        for id in 0..3 {
            sink.session(meta(id, false));
            for c in 0..5 {
                sink.player_chunk(player(id, c));
                sink.cdn_chunk(cdn(id, c, 0));
            }
        }
        // One seal fired at the threshold; the 7-row tail is still in RAM.
        assert_eq!(sink.spilled_rows(), 8);
        sink.seal();
        assert!(sink.spill_errors().is_empty(), "{:?}", sink.spill_errors());
        assert_eq!(sink.spilled_rows(), 15);
        assert_eq!((sink.player.capacity(), sink.cdn.capacity()), (0, 0));
        let ds = Dataset::join(sink).expect("join");
        assert_eq!(ds.chunk_count(), 15);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_player_record_fails() {
        let mut sink = TelemetrySink::new();
        sink.session(meta(0, false));
        sink.player_chunk(player(0, 0));
        assert_eq!(
            Dataset::join(sink).unwrap_err(),
            JoinError::OrphanPlayerRecord(SessionId(0), ChunkIndex(0))
        );
    }

    #[test]
    fn orphan_cdn_record_fails() {
        let mut sink = TelemetrySink::new();
        sink.session(meta(0, false));
        sink.cdn_chunk(cdn(0, 0, 0));
        assert_eq!(
            Dataset::join(sink).unwrap_err(),
            JoinError::OrphanCdnRecord(SessionId(0), ChunkIndex(0))
        );
    }

    #[test]
    fn missing_meta_fails() {
        let mut sink = TelemetrySink::new();
        sink.player_chunk(player(0, 0));
        sink.cdn_chunk(cdn(0, 0, 0));
        assert_eq!(
            Dataset::join(sink).unwrap_err(),
            JoinError::MissingSessionMeta(SessionId(0))
        );
    }

    #[test]
    fn duplicate_key_fails() {
        let mut sink = TelemetrySink::new();
        sink.session(meta(0, false));
        sink.cdn_chunk(cdn(0, 0, 0));
        sink.cdn_chunk(cdn(0, 0, 0));
        assert_eq!(
            Dataset::join(sink).unwrap_err(),
            JoinError::DuplicateKey(SessionId(0), ChunkIndex(0))
        );
    }

    #[test]
    fn proxy_filter_drops_ua_mismatch() {
        let mut sink = TelemetrySink::new();
        for id in 0..10 {
            sink.session(meta(id, id % 5 == 0)); // 2 of 10 proxied
            sink.player_chunk(player(id, 0));
            sink.cdn_chunk(cdn(id, 0, 0));
        }
        let ds = Dataset::join(sink).unwrap().filter_proxies();
        assert_eq!(ds.sessions.len(), 8);
        assert_eq!(ds.filtered_proxy_sessions, 2);
        assert!((ds.retention() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn session_aggregates() {
        let mut sink = TelemetrySink::new();
        sink.session(meta(0, false));
        for c in 0..5 {
            sink.player_chunk(player(0, c));
            sink.cdn_chunk(cdn(0, c, if c == 0 { 54 } else { 0 }));
        }
        let ds = Dataset::join(sink).unwrap();
        let s = &ds.sessions[0];
        assert!(!s.loss_free());
        // 54 retx over 2700 segments = 2 %.
        assert!((s.retx_rate() - 0.02).abs() < 1e-9);
        assert!((s.avg_bitrate_kbps() - 1050.0).abs() < 1e-9);
        assert_eq!(s.rebuffer_rate_pct(), 0.0);
        assert_eq!(s.first_chunk().unwrap().chunk(), ChunkIndex(0));
    }
}
