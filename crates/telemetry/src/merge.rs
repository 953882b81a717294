//! The one join: a streaming sort-merge over key-sorted runs.
//!
//! The join takes the engine's per-shard sinks as *runs*. Each sink holds
//! its chunk records as sorted runs of its own: one per sealed segment,
//! streamed one row group at a time, plus its in-RAM arenas, sorted in
//! place (`dataset::sort_run`; a sealed sink's already are). A run is two
//! columns, player halves and CDN halves, each ascending on
//! `(session, chunk)`. A tournament tree over the runs' head keys —
//! `O(log k)` comparisons per step — yields the sessions in ascending
//! order, and the merge steps once per session: it walks the halves the
//! runs hold of the session chunk by chunk — straight from the one run
//! that holds them all in the engine's shape, or gathered into one run
//! when several hold some — and applies the join rule to each key:
//!
//! - exactly one player half and one CDN half make a chunk;
//! - two CDN halves are a [`JoinError::DuplicateKey`], and so is a run
//!   that falls back (a sort bug or a corrupt run): a session the merge
//!   has passed, or, in a session one run holds, a chunk no higher than
//!   the one before;
//! - a player half with no CDN half, or a second player half, is a
//!   [`JoinError::OrphanPlayerRecord`];
//! - a CDN half on its own is a [`JoinError::OrphanCdnRecord`];
//! - a session with chunks but no metadata is a
//!   [`JoinError::MissingSessionMeta`]; the last metadata record of a
//!   session wins, and sessions with metadata but no chunks are dropped.
//!
//! Halves held by different runs join like halves in one. On
//! single-violation input the errors are the reference hash join's, which
//! the telemetry tests keep as their oracle; with several violations the
//! merge reports the first in key order.

use std::path::Path;

use crate::dataset::{cdn_key, player_key, sort_run, JoinError, SessionData, TelemetrySink};
use crate::records::{CdnChunkRecord, ChunkRecord, PlayerChunkRecord, SessionMeta};
use crate::segment::{SegmentMeta, SegmentReader, SortKey};
use streamlab_workload::SessionId;

/// One key-sorted run: a player column and a CDN column, each ascending by
/// key, and for a sealed segment the reader that refills both, one row
/// group at a time, once both are drained.
struct Run {
    player: std::vec::IntoIter<PlayerChunkRecord>,
    cdn: std::vec::IntoIter<CdnChunkRecord>,
    /// The segment's reader and path (for error messages).
    segment: Option<(SegmentReader, String)>,
}

impl Run {
    fn in_ram(player: Vec<PlayerChunkRecord>, cdn: Vec<CdnChunkRecord>) -> Run {
        Run {
            player: player.into_iter(),
            cdn: cdn.into_iter(),
            segment: None,
        }
    }

    /// The smaller of the two columns' next keys.
    fn head(&self) -> Option<SortKey> {
        let p = self.player.as_slice().first().map(player_key);
        let c = self.cdn.as_slice().first().map(cdn_key);
        p.into_iter().chain(c).min()
    }

    /// How many rows of `session` lead each column.
    fn leading(&self, session: SessionId) -> (usize, usize) {
        let p = self.player.as_slice().iter();
        let c = self.cdn.as_slice().iter();
        (
            p.take_while(|p| p.session == session).count(),
            c.take_while(|c| c.session == session).count(),
        )
    }

    /// Move every half the run holds of `session` onto `player` and
    /// `cdn`, refilling the columns from the segment as they drain.
    fn take(
        &mut self,
        session: SessionId,
        player: &mut Vec<PlayerChunkRecord>,
        cdn: &mut Vec<CdnChunkRecord>,
        body: &mut Vec<u8>,
    ) -> Result<(), JoinError> {
        while self.head().is_some_and(|k| k.0 == session) {
            let (p, c) = self.leading(session);
            player.extend(self.player.by_ref().take(p));
            cdn.extend(self.cdn.by_ref().take(c));
            self.refill(body)?;
        }
        Ok(())
    }

    /// Join every half the run holds of `session` chunk by chunk, by the
    /// rule in the module docs, refilling the columns from the segment as
    /// they drain. Each pair moves straight into the session's vector.
    fn join(
        &mut self,
        session: SessionId,
        body: &mut Vec<u8>,
    ) -> Result<Vec<ChunkRecord>, JoinError> {
        let mut chunks = Vec::with_capacity(self.leading(session).0);
        let mut prev = None;
        loop {
            self.refill(body)?;
            let Some(key) = self.head().filter(|k| k.0 == session) else {
                return Ok(chunks);
            };
            // A run that does not ascend is a sort bug or a corrupt run;
            // report it rather than join out of order.
            if prev >= Some(key) {
                return Err(JoinError::DuplicateKey(key.0, key.1));
            }
            prev = Some(key);
            // How many halves of each side the key has, counted to two.
            let p = self.player.as_slice().iter().take(2);
            let c = self.cdn.as_slice().iter().take(2);
            let n_players = p.take_while(|p| player_key(p) == key).count();
            let n_cdns = c.take_while(|c| cdn_key(c) == key).count();
            match (n_players, n_cdns) {
                (_, 2) => return Err(JoinError::DuplicateKey(key.0, key.1)),
                (1, 1) => chunks.push(ChunkRecord {
                    player: self.player.next().expect("counted"),
                    cdn: self.cdn.next().expect("counted"),
                }),
                (0, _) => return Err(JoinError::OrphanCdnRecord(key.0, key.1)),
                _ => return Err(JoinError::OrphanPlayerRecord(key.0, key.1)),
            }
        }
    }

    fn refill(&mut self, body: &mut Vec<u8>) -> Result<(), JoinError> {
        let Some((reader, path)) = &mut self.segment else {
            return Ok(());
        };
        if !self.player.as_slice().is_empty() || !self.cdn.as_slice().is_empty() {
            return Ok(());
        }
        if let Some((p, c)) = reader
            .next_group(body)
            .map_err(|e| JoinError::Spill(format!("reading {path}: {e}")))?
        {
            self.player = p.into_iter();
            self.cdn = c.into_iter();
        }
        Ok(())
    }
}

/// Tournament (winner) tree over `k` sorted runs: leaf `k + i` is run
/// `i`, every inner node `n` keeps whichever of its children `2n` and
/// `2n + 1` has the smaller head key, and node 1 the run with the smallest
/// head key overall. After a run's head changes, replaying its path to the
/// root costs `O(log k)` key comparisons. The heads are keys only; rows
/// never pass through the tree.
///
/// Runs are refilled one at a time, so one group buffer, `body`, serves
/// every segment run: the merge holds each run's decoded group but only
/// one group's raw bytes.
struct Tournament {
    runs: Vec<Run>,
    heads: Vec<Option<SortKey>>,
    /// `2k` nodes; node 0 is unused.
    nodes: Vec<usize>,
    body: Vec<u8>,
    /// The runs holding the session being joined (reused).
    holders: Vec<usize>,
}

impl Tournament {
    fn new(mut runs: Vec<Run>) -> Result<Tournament, JoinError> {
        let k = runs.len().max(1);
        let mut body = Vec::new();
        let mut heads = Vec::with_capacity(k);
        for run in &mut runs {
            run.refill(&mut body)?;
            heads.push(run.head());
        }
        heads.resize(k, None);
        let mut nodes = vec![0; k];
        nodes.extend(0..k);
        let mut tree = Tournament {
            runs,
            heads,
            nodes,
            body,
            holders: Vec::new(),
        };
        for n in (1..k).rev() {
            tree.nodes[n] = tree.play(tree.nodes[2 * n], tree.nodes[2 * n + 1]);
        }
        Ok(tree)
    }

    /// The run with the smaller head key; exhausted runs lose to every
    /// other, and ties go to the lower run index so the merge is
    /// deterministic even on duplicate keys.
    fn play(&self, a: usize, b: usize) -> usize {
        let rank = |i: usize| (self.heads[i].is_none(), self.heads[i], i);
        if rank(b) < rank(a) {
            b
        } else {
            a
        }
    }

    /// Replay run `i`'s path to the root after its head changed.
    fn replay(&mut self, i: usize) {
        let mut n = (self.nodes.len() / 2 + i) / 2;
        while n > 0 {
            self.nodes[n] = self.play(self.nodes[2 * n], self.nodes[2 * n + 1]);
            n /= 2;
        }
    }

    /// The run with the smallest head key.
    fn winner(&self) -> usize {
        self.nodes[1]
    }

    /// The smallest head key across all runs.
    fn min_key(&self) -> Option<SortKey> {
        self.heads[self.winner()]
    }

    /// Join every half the runs hold of `session`, the smallest head
    /// key's session. The runs holding it step aside from the tree while
    /// it is joined: one run holding it all (the engine's shape, since a
    /// session lives in one shard) is joined straight from its columns;
    /// halves several runs hold are first gathered into one run.
    fn join_session(&mut self, session: SessionId) -> Result<Vec<ChunkRecord>, JoinError> {
        let mut holders = std::mem::take(&mut self.holders);
        while self.min_key().is_some_and(|k| k.0 == session) {
            let w = self.winner();
            holders.push(w);
            self.heads[w] = None;
            self.replay(w);
        }
        let chunks = match holders[..] {
            [w] => self.runs[w].join(session, &mut self.body),
            _ => self.gather(session, &holders),
        };
        for &w in &holders {
            self.heads[w] = self.runs[w].head();
            self.replay(w);
        }
        holders.clear();
        self.holders = holders;
        chunks
    }

    /// Join the halves of `session` that the `holders` hold between them:
    /// each run's take ascends, and a stable sort by chunk interleaves
    /// them, keeping halves under one key adjacent in run order.
    fn gather(
        &mut self,
        session: SessionId,
        holders: &[usize],
    ) -> Result<Vec<ChunkRecord>, JoinError> {
        let (mut player, mut cdn) = (Vec::new(), Vec::new());
        for &w in holders {
            self.runs[w].take(session, &mut player, &mut cdn, &mut self.body)?;
        }
        player.sort_by_key(|p| p.chunk);
        cdn.sort_by_key(|c| c.chunk);
        Run::in_ram(player, cdn).join(session, &mut self.body)
    }
}

/// Session metadata for the merge: sorted ascending by id, duplicates
/// resolved last-wins.
fn sorted_metas(mut sessions: Vec<SessionMeta>) -> Vec<SessionMeta> {
    // Stable sort keeps insertion order within an id, so keeping the last
    // element of each equal-id group is exactly "last meta wins".
    sessions.sort_by_key(|m| m.session);
    let mut out: Vec<SessionMeta> = Vec::with_capacity(sessions.len());
    for m in sessions {
        if out.last().is_some_and(|l| l.session == m.session) {
            *out.last_mut().expect("non-empty") = m;
        } else {
            out.push(m);
        }
    }
    out
}

/// A bounded-memory stream of joined sessions in ascending session-id
/// order; [`crate::Dataset::join_runs`] collects it.
///
/// Holds the runs' in-RAM arenas, one decoded row group per open segment,
/// one raw group buffer shared by all of them, and the session currently
/// being assembled; never the whole dataset. Yields `Err` at most once
/// (the first join violation or segment read failure), after which the
/// stream is exhausted.
pub struct SessionStream {
    /// The merge, or the error that ended it (`None` once yielded).
    merge: Result<Box<Merged>, Option<JoinError>>,
}

struct Merged {
    tree: Tournament,
    metas: std::iter::Peekable<std::vec::IntoIter<SessionMeta>>,
    prev: Option<SessionId>,
}

impl SessionStream {
    /// Build a session stream over sinks taken as runs (spilled or not),
    /// e.g. the engine's per-shard sinks in canonical shard order.
    pub fn new(runs: Vec<TelemetrySink>) -> SessionStream {
        SessionStream {
            merge: Merged::open(runs).map(Box::new).map_err(Some),
        }
    }
}

fn open_run(meta: &SegmentMeta) -> Result<Run, JoinError> {
    let reader = SegmentReader::open(Path::new(&meta.path))
        .map_err(|e| JoinError::Spill(format!("opening {}: {e}", meta.path)))?;
    let h = reader.header();
    if h.rows != meta.rows || h.shard != meta.shard || h.seq != meta.seq {
        return Err(JoinError::Spill(format!(
            "segment {} disagrees with its manifest entry",
            meta.path
        )));
    }
    Ok(Run {
        player: Vec::new().into_iter(),
        cdn: Vec::new().into_iter(),
        segment: Some((reader, meta.path.clone())),
    })
}

impl Merged {
    /// Every sink contributes its sealed segments and, when it holds any
    /// rows in RAM, its arenas as one more run.
    fn open(sinks: Vec<TelemetrySink>) -> Result<Merged, JoinError> {
        let mut runs = Vec::new();
        let mut metas = Vec::new();
        for sink in sinks {
            let (mut player, mut cdn, sessions, sealed) = sink.into_parts();
            for meta in &sealed {
                runs.push(open_run(meta)?);
            }
            if !player.is_empty() || !cdn.is_empty() {
                sort_run(&mut player, &mut cdn);
                runs.push(Run::in_ram(player, cdn));
            }
            metas.extend(sessions);
        }
        Ok(Merged {
            tree: Tournament::new(runs)?,
            metas: sorted_metas(metas).into_iter().peekable(),
            prev: None,
        })
    }

    fn next_session(&mut self) -> Result<Option<SessionData>, JoinError> {
        let Some((session, chunk)) = self.tree.min_key() else {
            return Ok(None);
        };
        // Each run ascends, so a session that comes round again is a sort
        // bug or a corrupt run; report it rather than join out of order.
        if self.prev >= Some(session) {
            return Err(JoinError::DuplicateKey(session, chunk));
        }
        self.prev = Some(session);
        let chunks = self.tree.join_session(session)?;
        // Advance the meta cursor to this session; metadata-only sessions
        // with no chunks are dropped.
        while self.metas.next_if(|m| m.session < session).is_some() {}
        let meta = self
            .metas
            .next_if(|m| m.session == session)
            .ok_or(JoinError::MissingSessionMeta(session))?;
        Ok(Some(SessionData { meta, chunks }))
    }
}

impl Iterator for SessionStream {
    type Item = Result<SessionData, JoinError>;

    fn next(&mut self) -> Option<Self::Item> {
        let merged = match &mut self.merge {
            Ok(merged) => merged,
            Err(e) => return e.take().map(Err),
        };
        match merged.next_session() {
            Ok(session) => session.map(Ok),
            Err(e) => {
                self.merge = Err(None);
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use streamlab_workload::ChunkIndex;

    /// An in-RAM run holding both halves of each key.
    fn run(keys: &[(u64, u32)]) -> Run {
        Run::in_ram(
            keys.iter().map(|&(s, c)| mk_player(s, c)).collect(),
            keys.iter().map(|&(s, c)| mk_cdn(s, c)).collect(),
        )
    }

    /// Join every session the tree yields, in order, and list the keys.
    fn drain(mut tree: Tournament) -> Vec<(u64, u32)> {
        let mut keys: Vec<(u64, u32)> = Vec::new();
        while let Some((session, _)) = tree.min_key() {
            // Each session is joined whole, once.
            assert!(keys.last().is_none_or(|k| k.0 < session.0));
            let chunks = tree.join_session(session).unwrap();
            keys.extend(chunks.iter().map(|c| (session.0, c.chunk().0)));
        }
        keys
    }

    #[test]
    fn tree_merges_three_runs() {
        let runs = vec![
            run(&[(0, 0), (2, 0), (2, 1)]),
            run(&[(1, 0), (1, 1)]),
            run(&[(0, 1), (3, 0)]),
        ];
        assert_eq!(
            drain(Tournament::new(runs).unwrap()),
            vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]
        );
    }

    #[test]
    fn spilled_interleaved_stream_matches_in_ram_assemble() {
        use crate::dataset::SpillSpec;
        use streamlab_supervisor::Storage;
        let dir =
            std::env::temp_dir().join(format!("streamlab-merge-interleave-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Engine-shaped stream: sessions interleave in time, chunks within
        // a session ascend. 40 sessions x 25 chunks, threshold 64 forces
        // ~15 seals plus a tail.
        let mut ram = TelemetrySink::new();
        let mut spilled = TelemetrySink::with_spill(
            40,
            SpillSpec {
                dir: dir.clone(),
                threshold: 64,
                shard: 0,
                storage: Storage::real(),
            },
        );
        for c in 0..25u32 {
            for s in 0..40u64 {
                for sink in [&mut ram, &mut spilled] {
                    sink.player_chunk(mk_player(s, c));
                    sink.cdn_chunk(mk_cdn(s, c));
                }
            }
        }
        for s in 0..40u64 {
            for sink in [&mut ram, &mut spilled] {
                sink.session(mk_meta(s));
            }
        }
        spilled.seal();
        assert!(
            spilled.spill_errors().is_empty(),
            "{:?}",
            spilled.spill_errors()
        );
        assert!(spilled.sealed_segments().len() > 10);
        let a = Dataset::join(ram).expect("in-RAM join");
        let b = Dataset::join(spilled).expect("spilled join");
        assert_eq!(a.sessions.len(), b.sessions.len());
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.meta.session, y.meta.session);
            assert_eq!(x.chunks.len(), y.chunks.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tree_merges_many_overlapping_runs() {
        // Reproduce the engine's spill shape: 1000 keys in time order,
        // chopped into 64-row batches, each batch sorted — ranges overlap.
        let mut stream: Vec<(u64, u32)> = Vec::new();
        for c in 0..25u32 {
            for s in 0..40u64 {
                stream.push((s, c));
            }
        }
        let mut runs = Vec::new();
        for batch in stream.chunks(64) {
            let mut b = batch.to_vec();
            b.sort_unstable();
            runs.push(run(&b));
        }
        let keys = drain(Tournament::new(runs).unwrap());
        assert_eq!(keys.len(), 1000);
        let mut expect = stream.clone();
        expect.sort_unstable();
        assert_eq!(keys, expect);
    }

    #[test]
    fn tree_merges_segment_runs() {
        use streamlab_supervisor::Storage;
        let dir = std::env::temp_dir().join(format!("streamlab-segrun-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut stream: Vec<(u64, u32)> = Vec::new();
        for c in 0..25u32 {
            for s in 0..40u64 {
                stream.push((s, c));
            }
        }
        let mut batches: Vec<Vec<(u64, u32)>> = stream.chunks(64).map(<[_]>::to_vec).collect();
        // One segment of more rows than a group: a session runs across the
        // group boundary, so its run refills in the middle of the session.
        let big: Vec<(u64, u32)> = (40..190u64)
            .flat_map(|s| (0..30u32).map(move |c| (s, c)))
            .collect();
        assert!(big.len() > crate::segment::GROUP_ROWS);
        stream.extend(&big);
        batches.push(big);
        let mut runs = Vec::new();
        for (i, mut b) in batches.into_iter().enumerate() {
            b.sort_unstable();
            let p: Vec<_> = b.iter().map(|&(s, c)| mk_player(s, c)).collect();
            let c: Vec<_> = b.iter().map(|&(s, c)| mk_cdn(s, c)).collect();
            let path = dir.join(format!("seg-00000-{i:05}.slseg"));
            let meta = crate::segment::write_segment(&Storage::real(), &path, 0, i as u32, &p, &c)
                .unwrap();
            runs.push(open_run(&meta).unwrap());
        }
        let keys = drain(Tournament::new(runs).unwrap());
        let mut expect = stream.clone();
        expect.sort_unstable();
        assert_eq!(keys.len(), 5500, "row count");
        assert_eq!(keys, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    pub(super) fn mk_meta(s: u64) -> SessionMeta {
        use streamlab_sim::SimTime;
        use streamlab_workload::{
            AccessClass, Browser, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId, VideoId,
        };
        SessionMeta {
            session: SessionId(s),
            prefix: PrefixId(s % 3),
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
            proxied: false,
            ua_mismatch: false,
            gpu: true,
            visible: true,
        }
    }

    pub(super) fn mk_player(s: u64, c: u32) -> PlayerChunkRecord {
        use crate::records::ChunkTruth;
        use streamlab_sim::{SimDuration, SimTime};
        PlayerChunkRecord {
            session: SessionId(s),
            chunk: ChunkIndex(c),
            bitrate_kbps: 1050,
            requested_at: SimTime::from_secs(1),
            d_fb: SimDuration::from_millis(150),
            d_lb: SimDuration::from_millis(900),
            chunk_secs: 6.0,
            buf_count: 0,
            buf_dur: SimDuration::ZERO,
            visible: true,
            avg_fps: 29.0,
            dropped_frames: 0,
            frames: 180,
            truth: ChunkTruth::default(),
        }
    }

    pub(super) fn mk_cdn(s: u64, c: u32) -> CdnChunkRecord {
        use crate::records::CacheOutcome;
        use streamlab_sim::{SimDuration, SimTime};
        CdnChunkRecord {
            session: SessionId(s),
            chunk: ChunkIndex(c),
            d_wait: SimDuration::from_micros(200),
            d_open: SimDuration::from_micros(200),
            d_read: SimDuration::from_millis(2),
            d_backend: SimDuration::ZERO,
            cache: CacheOutcome::RamHit,
            retry_fired: false,
            size_bytes: 787_500,
            served_at: SimTime::from_secs(1),
            segments: 540,
            retx_segments: 0,
            tcp: vec![],
        }
    }
}
