//! Beacon collection, the two-sided join, and proxy preprocessing.
//!
//! §2.2: "A key to end-to-end analysis is to trace session performance
//! from the player through the CDN (at the granularity of chunks). We
//! implement tracing by using a globally unique session ID and per-session
//! chunk IDs." §3 then filters sessions behind HTTP proxies, keeping 77 %
//! of sessions.

use crate::records::{CdnChunkRecord, ChunkRecord, PlayerChunkRecord, SessionMeta};
use crate::segment::{self, SegmentMeta};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use streamlab_supervisor::Storage;
use streamlab_workload::{ChunkIndex, SessionId};

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

    /// A spilling sink: chunk arenas are capped at `spill.threshold` rows;
    /// crossing the threshold seals a sorted segment in `spill.dir` and
    /// resets the arenas, so the sink runs in constant memory w.r.t. chunk
    /// volume (session metadata stays in RAM — one record per session).
    pub fn with_spill(sessions: usize, spill: SpillSpec) -> Self {
        let cap = spill.threshold;
        TelemetrySink {
            player: Vec::with_capacity(cap),
            cdn: Vec::with_capacity(cap),
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

    /// Flush the remaining arena rows as a final (possibly small) segment.
    ///
    /// The engines call this once per shard when its event loop drains, so
    /// a spilling shard hands back a sink whose chunk arenas are empty and
    /// whose data lives entirely in sealed segments. A no-op without spill
    /// mode (or after a spill error disabled it).
    pub fn seal(&mut self) {
        if self.spill.is_some() {
            self.flush_run();
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

    /// Sort the current arenas into a run and seal it as a segment. On
    /// failure the (sorted) rows are put back and spilling is disabled.
    fn flush_run(&mut self) {
        let Some(state) = &mut self.spill else { return };
        if state.disabled || self.player.is_empty() || self.player.len() != self.cdn.len() {
            return;
        }
        let mut pairs: Vec<(PlayerChunkRecord, CdnChunkRecord)> =
            self.player.drain(..).zip(self.cdn.drain(..)).collect();
        pairs.sort_unstable_by_key(|a| (a.0.session, a.0.chunk));
        let (player, cdn): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        let path = state.spec.dir.join(format!(
            "seg-{:05}-{:05}.slseg",
            state.spec.shard, state.seq
        ));
        match segment::write_segment(
            &state.spec.storage,
            &path,
            state.spec.shard,
            state.seq,
            &player,
            &cdn,
        ) {
            Ok(meta) => {
                state.seq += 1;
                self.sealed.push(meta);
            }
            Err(e) => {
                // Keep the rows (sorted order is still engine-shaped:
                // pairwise adjacent, per-session chunks ascending) and stop
                // spilling; the run completes in RAM.
                state.disabled = true;
                self.spill_errors
                    .push(format!("sealing {} failed: {e}", path.display()));
                self.player.extend(player);
                self.cdn.extend(cdn);
            }
        }
    }

    /// Read every sealed segment back into the in-RAM arenas, consuming
    /// the segment list. Used by the reference join (the oracle must see
    /// the same rows the streaming merge does) and by the fallback path
    /// for sinks whose in-RAM tail is not merge-shaped.
    pub(crate) fn materialize(&mut self) -> Result<(), JoinError> {
        for meta in std::mem::take(&mut self.sealed) {
            let (_, p, c) = segment::read_segment(std::path::Path::new(&meta.path))
                .map_err(|e| JoinError::Spill(format!("reading {}: {e}", meta.path)))?;
            self.player.extend(p);
            self.cdn.extend(c);
        }
        Ok(())
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

    /// True when the in-RAM arenas are pairwise keyed (`player[i]` and
    /// `cdn[i]` are the same chunk) — the shape a spilled sink's tail must
    /// have to join the k-way merge as one more sorted run.
    pub(crate) fn arenas_paired(&self) -> bool {
        self.player.len() == self.cdn.len()
            && self
                .player
                .iter()
                .zip(&self.cdn)
                .all(|(p, c)| (p.session, p.chunk) == (c.session, c.chunk))
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
    /// a merged sink first.
    ///
    /// Spilled runs stream through the k-way merge of
    /// [`crate::SessionStream`]. In-RAM runs take a linear indexed pass
    /// exploiting the shape the engine emits, falling back to the
    /// reference hash join ([`Dataset::join_reference`]) when any
    /// invariant does not hold.
    ///
    /// The engine pushes each chunk's player and CDN records adjacently
    /// (`player[i]` ↔ `cdn[i]` are the same chunk) and each session's
    /// chunks in order `0, 1, 2, …`, all in the one shard that owns the
    /// session — invariants a single O(n) validation pass over the runs
    /// can confirm without hashing a single key. When they hold, assembly
    /// is pure moves into pre-sized per-session vectors in ascending
    /// session-id order: exactly the dataset the reference builds,
    /// without the `HashMap`, the `BTreeMap` or the per-session sort.
    /// When they don't (hand-built sinks, out-of-order replays, a key in
    /// two runs), the reference path runs and reports the exact same
    /// [`JoinError`]s it always did.
    pub fn join_runs(runs: Vec<TelemetrySink>) -> Result<Dataset, JoinError> {
        if runs.iter().any(|r| !r.sealed_segments().is_empty()) {
            return crate::merge::assemble_spilled(runs);
        }
        match Self::join_indexed(runs) {
            Ok(ds) => Ok(ds),
            Err(runs) => Self::reference(runs),
        }
    }

    /// The indexed fast path. Returns the runs unchanged if any invariant
    /// fails, so the caller can fall back to the reference join.
    fn join_indexed(runs: Vec<TelemetrySink>) -> Result<Dataset, Vec<TelemetrySink>> {
        // --- validation: one read-only linear pass ---
        if runs.iter().any(|r| r.player.len() != r.cdn.len()) {
            return Err(runs);
        }
        let (mut n_sessions, mut n_chunks, mut max_id) = (0usize, 0usize, 0u64);
        for r in &runs {
            n_sessions += r.sessions.len();
            n_chunks += r.player.len();
            for m in &r.sessions {
                max_id = max_id.max(m.session.raw());
            }
            for p in &r.player {
                max_id = max_id.max(p.session.raw());
            }
        }
        let slots = max_id as usize + 1;
        // Engines hand out dense session ids; a sparse id space would blow
        // the direct-indexed tables up, so punt to the hash join instead.
        if slots > 4 * (n_sessions + n_chunks) + 1024 {
            return Err(runs);
        }
        // Per-session expected next chunk id; doubles as the chunk count.
        // Shared across runs, so a key repeated in a later run breaks the
        // expected sequence like any other duplicate.
        let mut next: Vec<u32> = vec![0; slots];
        for r in &runs {
            for (p, c) in r.player.iter().zip(&r.cdn) {
                if p.session != c.session || p.chunk != c.chunk {
                    return Err(runs);
                }
                let sid = p.session.raw() as usize;
                if p.chunk.raw() != next[sid] {
                    return Err(runs);
                }
                next[sid] += 1;
            }
        }
        let mut has_meta = vec![false; slots];
        for m in runs.iter().flat_map(|r| &r.sessions) {
            has_meta[m.session.raw() as usize] = true;
        }
        if next.iter().zip(&has_meta).any(|(&n, &has)| n > 0 && !has) {
            return Err(runs);
        }

        // --- assembly: pure moves, cannot fail ---
        let mut meta_slot: Vec<Option<SessionMeta>> = (0..slots).map(|_| None).collect();
        let mut chunk_slot: Vec<Vec<ChunkRecord>> = next
            .iter()
            .map(|&n| Vec::with_capacity(n as usize))
            .collect();
        // Each run's arenas are freed as soon as its records have moved.
        for run in runs {
            for m in run.sessions {
                // Last meta wins, matching the reference join's map insert.
                let sid = m.session.raw() as usize;
                meta_slot[sid] = Some(m);
            }
            for (p, c) in run.player.into_iter().zip(run.cdn) {
                chunk_slot[p.session.raw() as usize].push(ChunkRecord { player: p, cdn: c });
            }
        }
        let live = next.iter().filter(|&&n| n > 0).count();
        let mut out = Vec::with_capacity(live);
        for (sid, chunks) in chunk_slot.into_iter().enumerate() {
            if chunks.is_empty() {
                // Zero-chunk sessions are dropped, like the reference join
                // (it only materializes sessions seen in the chunk streams).
                continue;
            }
            let meta = meta_slot[sid].take().expect("validated above");
            out.push(SessionData { meta, chunks });
        }
        let raw = out.len();
        Ok(Dataset {
            sessions: out,
            filtered_proxy_sessions: 0,
            raw_sessions: raw,
        })
    }

    /// The reference hash join: builds the dataset key-by-key with no
    /// assumptions about record order or alignment. This is the semantic
    /// definition [`Dataset::join`]'s fast path is tested against, and
    /// the path that diagnoses malformed sinks with a precise
    /// [`JoinError`].
    pub fn join_reference(sink: TelemetrySink) -> Result<Dataset, JoinError> {
        Self::reference(vec![sink])
    }

    /// [`Dataset::join_reference`] over runs: the records of every run, in
    /// run order.
    fn reference(mut runs: Vec<TelemetrySink>) -> Result<Dataset, JoinError> {
        // The oracle must see spilled rows too: read them back into the
        // arenas first so it joins exactly what the streaming merge would.
        for r in &mut runs {
            r.materialize()?;
        }
        let mut metas: BTreeMap<SessionId, SessionMeta> = BTreeMap::new();
        for m in runs.iter_mut().flat_map(|r| r.sessions.drain(..)) {
            metas.insert(m.session, m);
        }

        let mut cdn: HashMap<(SessionId, ChunkIndex), CdnChunkRecord> = HashMap::new();
        for r in runs.iter_mut().flat_map(|r| r.cdn.drain(..)) {
            let key = (r.session, r.chunk);
            if cdn.insert(key, r).is_some() {
                return Err(JoinError::DuplicateKey(key.0, key.1));
            }
        }

        let mut by_session: BTreeMap<SessionId, Vec<ChunkRecord>> = BTreeMap::new();
        for p in runs.into_iter().flat_map(|r| r.player) {
            let key = (p.session, p.chunk);
            let Some(c) = cdn.remove(&key) else {
                return Err(JoinError::OrphanPlayerRecord(key.0, key.1));
            };
            if !metas.contains_key(&p.session) {
                return Err(JoinError::MissingSessionMeta(p.session));
            }
            by_session
                .entry(p.session)
                .or_default()
                .push(ChunkRecord { player: p, cdn: c });
        }
        if let Some(((s, c), _)) = cdn.into_iter().next() {
            return Err(JoinError::OrphanCdnRecord(s, c));
        }

        let mut sessions = Vec::with_capacity(by_session.len());
        for (id, mut chunks) in by_session {
            // (session, chunk) keys are unique past the duplicate check, so
            // an unstable sort cannot reorder equal elements — there are
            // none.
            chunks.sort_unstable_by_key(|c| c.chunk());
            let meta = metas.remove(&id).expect("checked above");
            sessions.push(SessionData { meta, chunks });
        }
        let raw = sessions.len();
        Ok(Dataset {
            sessions,
            filtered_proxy_sessions: 0,
            raw_sessions: raw,
        })
    }

    /// §3 preprocessing: drop sessions whose observable signals identify a
    /// proxy — (i) user-agent/IP mismatch between the HTTP requests and the
    /// player beacons, or (ii) a prefix producing more video-minutes than
    /// wall-clock minutes (many users behind one address).
    pub fn filter_proxies(mut self) -> Dataset {
        // Signal (ii): per-prefix played seconds vs the observation window.
        let mut prefix_secs: HashMap<u64, f64> = HashMap::new();
        let mut window_end: f64 = 0.0;
        for s in &self.sessions {
            let played: f64 = s.chunks.iter().map(|c| c.player.chunk_secs).sum();
            *prefix_secs.entry(s.meta.prefix.raw()).or_insert(0.0) += played;
            window_end = window_end.max(s.meta.arrival.as_secs_f64());
        }
        let window = window_end.max(1.0);

        let before = self.sessions.len();
        self.sessions.retain(|s| {
            let ua = s.meta.ua_mismatch;
            let volume = prefix_secs
                .get(&s.meta.prefix.raw())
                .copied()
                .unwrap_or(0.0)
                > 3.0 * window;
            !(ua || volume)
        });
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
