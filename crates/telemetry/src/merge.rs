//! Streaming k-way merge over sealed spill segments.
//!
//! The join takes the engine's per-shard sinks as *runs*. A spilled sink
//! holds its chunk records as a set of sorted runs of its own: one per
//! sealed segment plus whatever tail is still in RAM. Each run is strictly
//! ascending on `(session, chunk)` and pairwise keyed (player\[i\] ↔
//! cdn\[i\] are the same chunk), and a session's records all come from one
//! shard, so merging every sink's runs by sort key yields the exact record
//! order the in-RAM join produces: sessions ascending by id, chunks
//! ascending within each session.
//!
//! The merge runs behind a classic loser tree — `O(log k)` comparisons per
//! row — and re-applies the in-RAM join's invariant checks per merge
//! window: keys must strictly ascend (an equal key, within one sink or
//! across two, is a [`JoinError::DuplicateKey`]) and every emitted session
//! must have metadata ([`JoinError::MissingSessionMeta`]). Orphan checks
//! are free: segments store paired rows, so one-sided records cannot exist
//! in a run. Sinks whose in-RAM tail is *not* merge-shaped (hand-built
//! sinks with mismatched halves) fall back to materializing every segment
//! and joining in RAM, where [`Dataset::join_reference`] reports the same
//! errors it always did — the reference join stays the oracle either way.

use std::io;
use std::path::Path;

use crate::dataset::{Dataset, JoinError, SessionData, TelemetrySink};
use crate::records::{CdnChunkRecord, ChunkRecord, PlayerChunkRecord, SessionMeta};
use crate::segment::{SegmentMeta, SegmentReader, SortKey};

type Pair = (PlayerChunkRecord, CdnChunkRecord);

fn key_of(p: &PlayerChunkRecord) -> SortKey {
    (p.session, p.chunk)
}

/// One sorted run feeding the merge.
enum Run {
    /// A sealed segment, streamed one row group at a time.
    Segment {
        reader: SegmentReader,
        buf: std::vec::IntoIter<Pair>,
        path: String,
    },
    /// The sorted in-RAM tail.
    Mem(std::vec::IntoIter<Pair>),
}

impl Run {
    fn next(&mut self) -> Result<Option<Pair>, JoinError> {
        match self {
            Run::Mem(it) => Ok(it.next()),
            Run::Segment { reader, buf, path } => {
                if let Some(pair) = buf.next() {
                    return Ok(Some(pair));
                }
                match reader
                    .next_group()
                    .map_err(|e| JoinError::Spill(format!("reading {path}: {e}")))?
                {
                    None => Ok(None),
                    Some((p, c)) => {
                        *buf = p.into_iter().zip(c).collect::<Vec<_>>().into_iter();
                        Ok(buf.next())
                    }
                }
            }
        }
    }
}

/// Loser-tree merge over `k` sorted runs: `tree[0]` holds the current
/// winner, the internal nodes hold losers; replaying one run after a pop
/// costs `O(log k)` head comparisons.
struct LoserTree {
    runs: Vec<Run>,
    heads: Vec<Option<(SortKey, Pair)>>,
    tree: Vec<usize>,
    k: usize,
}

const EMPTY: usize = usize::MAX;

impl LoserTree {
    fn new(mut runs: Vec<Run>) -> Result<LoserTree, JoinError> {
        let k = runs.len().max(1);
        let mut heads = Vec::with_capacity(k);
        for run in &mut runs {
            heads.push(run.next()?.map(|p| (key_of(&p.0), p)));
        }
        heads.resize_with(k, || None);
        let mut tree = LoserTree {
            runs,
            heads,
            tree: vec![EMPTY; k],
            k,
        };
        tree.build();
        Ok(tree)
    }

    /// Bottom-up tournament build: leaves live at node indices `k..2k`,
    /// each internal node keeps its subtree's loser, the root slot keeps
    /// the overall winner.
    fn build(&mut self) {
        let k = self.k;
        if k == 1 {
            self.tree[0] = 0;
            return;
        }
        let mut winners = vec![EMPTY; 2 * k];
        for i in 0..k {
            winners[k + i] = i;
        }
        for node in (1..k).rev() {
            let l = winners[2 * node];
            let r = winners[2 * node + 1];
            let (w, loser) = if self.beats(r, l) { (r, l) } else { (l, r) };
            winners[node] = w;
            self.tree[node] = loser;
        }
        self.tree[0] = winners[1];
    }

    /// `a` beats `b` (strictly smaller key; exhausted runs lose to
    /// everything; ties break toward the lower run index so the merge is
    /// deterministic even on duplicate keys).
    fn beats(&self, a: usize, b: usize) -> bool {
        if a == EMPTY {
            return false;
        }
        if b == EMPTY {
            return true;
        }
        match (&self.heads[a], &self.heads[b]) {
            (Some((ka, _)), Some((kb, _))) => (ka, a) < (kb, b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Replay run `i` from its leaf to the root after its head changed.
    fn replay(&mut self, i: usize) {
        let mut winner = i;
        let mut node = (i + self.k) / 2;
        while node > 0 {
            let other = self.tree[node];
            if self.beats(other, winner) {
                self.tree[node] = winner;
                winner = other;
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// Pop the smallest head across all runs.
    fn pop(&mut self) -> Result<Option<Pair>, JoinError> {
        let w = self.tree[0];
        if w == EMPTY {
            return Ok(None);
        }
        let Some((_, pair)) = self.heads[w].take() else {
            return Ok(None);
        };
        self.heads[w] = self.runs[w].next()?.map(|p| (key_of(&p.0), p));
        self.replay(w);
        Ok(Some(pair))
    }
}

/// Session metadata for the merge: sorted ascending by id, duplicates
/// resolved last-wins (matching both in-RAM joins).
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
/// order — the streaming twin of [`Dataset::join_runs`].
///
/// Holds one row group per open segment plus the session currently being
/// assembled; never the whole dataset. Yields `Err` at most once (the
/// first invariant violation or segment read failure), after which the
/// stream is exhausted.
pub struct SessionStream {
    inner: StreamInner,
}

enum StreamInner {
    Merged(Box<Merged>),
    /// Fallback for sinks that cannot be streamed: fully materialized
    /// upfront (identical to the in-RAM join).
    Materialized(std::vec::IntoIter<SessionData>),
    Failed(Option<JoinError>),
}

struct Merged {
    tree: LoserTree,
    metas: std::vec::IntoIter<SessionMeta>,
    next_meta: Option<SessionMeta>,
    pending: Option<Pair>,
    prev_key: Option<SortKey>,
    done: bool,
}

impl SessionStream {
    /// Build a session stream over sinks taken as runs (spilled or not),
    /// e.g. the engine's per-shard sinks in canonical shard order.
    pub fn new(runs: Vec<TelemetrySink>) -> SessionStream {
        match Self::try_new(runs) {
            Ok(s) => s,
            Err(e) => SessionStream {
                inner: StreamInner::Failed(Some(e)),
            },
        }
    }

    fn try_new(mut runs: Vec<TelemetrySink>) -> Result<SessionStream, JoinError> {
        // Nothing spilled, or an in-RAM tail that is not engine-shaped
        // (pairwise keyed, so sortable into one more run): join in RAM.
        if runs.iter().all(|r| r.sealed_segments().is_empty())
            || !runs.iter().all(TelemetrySink::arenas_paired)
        {
            for r in &mut runs {
                r.materialize()?;
            }
            let ds = Dataset::join_runs(runs)?;
            return Ok(SessionStream {
                inner: StreamInner::Materialized(ds.sessions.into_iter()),
            });
        }

        let mut merge_runs = Vec::new();
        let mut metas = Vec::new();
        for sink in runs {
            let (player, cdn, sessions, sealed) = sink.into_parts();
            for meta in &sealed {
                merge_runs.push(open_run(meta)?);
            }
            if !player.is_empty() {
                let mut pairs: Vec<Pair> = player.into_iter().zip(cdn).collect();
                pairs.sort_unstable_by_key(|a| key_of(&a.0));
                merge_runs.push(Run::Mem(pairs.into_iter()));
            }
            metas.extend(sessions);
        }
        let mut metas = sorted_metas(metas).into_iter();
        let next_meta = metas.next();
        Ok(SessionStream {
            inner: StreamInner::Merged(Box::new(Merged {
                tree: LoserTree::new(merge_runs)?,
                metas,
                next_meta,
                pending: None,
                prev_key: None,
                done: false,
            })),
        })
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
    Ok(Run::Segment {
        reader,
        buf: Vec::new().into_iter(),
        path: meta.path.clone(),
    })
}

impl Merged {
    fn next_session(&mut self) -> Result<Option<SessionData>, JoinError> {
        // A pending pair was already key-checked when it popped (it is the
        // previous window's lookahead); only fresh pops get checked here.
        let first = match self.pending.take() {
            Some(p) => p,
            None => match self.tree.pop()? {
                Some(p) => {
                    self.check_key(key_of(&p.0))?;
                    p
                }
                None => return Ok(None),
            },
        };
        let session = first.0.session;
        let mut chunks = vec![ChunkRecord {
            player: first.0,
            cdn: first.1,
        }];
        loop {
            match self.tree.pop()? {
                None => break,
                Some(pair) => {
                    let key = key_of(&pair.0);
                    self.check_key(key)?;
                    if pair.0.session != session {
                        self.pending = Some(pair);
                        break;
                    }
                    chunks.push(ChunkRecord {
                        player: pair.0,
                        cdn: pair.1,
                    });
                }
            }
        }
        // Advance the meta cursor to this session; metadata-only sessions
        // with no chunks are dropped, like both in-RAM joins.
        while self.next_meta.as_ref().is_some_and(|m| m.session < session) {
            self.next_meta = self.metas.next();
        }
        let meta = match &self.next_meta {
            Some(m) if m.session == session => {
                let m = m.clone();
                self.next_meta = self.metas.next();
                m
            }
            _ => return Err(JoinError::MissingSessionMeta(session)),
        };
        Ok(Some(SessionData { meta, chunks }))
    }

    /// The per-window invariant check: the merged key sequence must
    /// strictly ascend (each run strictly ascends, so a repeat across
    /// runs is a duplicate record, never a sort bug).
    fn check_key(&mut self, key: SortKey) -> Result<(), JoinError> {
        if let Some(prev) = self.prev_key {
            if key <= prev {
                return Err(JoinError::DuplicateKey(key.0, key.1));
            }
        }
        self.prev_key = Some(key);
        Ok(())
    }
}

impl Iterator for SessionStream {
    type Item = Result<SessionData, JoinError>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            StreamInner::Materialized(it) => it.next().map(Ok),
            StreamInner::Failed(e) => e.take().map(Err),
            StreamInner::Merged(m) => {
                if m.done {
                    return None;
                }
                match m.next_session() {
                    Ok(Some(s)) => Some(Ok(s)),
                    Ok(None) => {
                        m.done = true;
                        None
                    }
                    Err(e) => {
                        m.done = true;
                        Some(Err(e))
                    }
                }
            }
        }
    }
}

/// [`Dataset::join_runs`] for spilled runs: stream the k-way merge and
/// collect the sessions. Byte-identical to the in-RAM path on
/// engine-shaped input; reference-identical errors on single-violation
/// faulted input.
pub(crate) fn assemble_spilled(runs: Vec<TelemetrySink>) -> Result<Dataset, JoinError> {
    let mut sessions = Vec::new();
    for s in SessionStream::new(runs) {
        sessions.push(s?);
    }
    let raw = sessions.len();
    Ok(Dataset {
        sessions,
        filtered_proxy_sessions: 0,
        raw_sessions: raw,
    })
}

/// Convenience for tests and manifest validation: check every sealed
/// segment in `sealed` against its manifest entry (fingerprints included).
pub fn validate_sealed(sealed: &[SegmentMeta]) -> io::Result<()> {
    for meta in sealed {
        crate::segment::validate_segment(meta)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlab_workload::{ChunkIndex, SessionId};

    #[test]
    fn loser_tree_merges_three_runs() {
        // Hand-built runs via Mem only: keys (session, chunk).
        fn pair(s: u64, c: u32) -> Pair {
            (mk_player(s, c), mk_cdn(s, c))
        }
        let runs = vec![
            Run::Mem(vec![pair(0, 0), pair(2, 0), pair(2, 1)].into_iter()),
            Run::Mem(vec![pair(1, 0), pair(1, 1)].into_iter()),
            Run::Mem(vec![pair(0, 1), pair(3, 0)].into_iter()),
        ];
        let mut tree = LoserTree::new(runs).unwrap();
        let mut keys = Vec::new();
        while let Some(p) = tree.pop().unwrap() {
            keys.push((p.0.session.0, p.0.chunk.0));
        }
        assert_eq!(
            keys,
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
    fn loser_tree_merges_many_overlapping_runs() {
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
            let mut b: Vec<Pair> = batch
                .iter()
                .map(|&(s, c)| (mk_player(s, c), mk_cdn(s, c)))
                .collect();
            b.sort_unstable_by_key(|p| key_of(&p.0));
            runs.push(Run::Mem(b.into_iter()));
        }
        let mut tree = LoserTree::new(runs).unwrap();
        let mut keys = Vec::new();
        while let Some(p) = tree.pop().unwrap() {
            keys.push((p.0.session.0, p.0.chunk.0));
        }
        assert_eq!(keys.len(), 1000);
        let mut expect = stream.clone();
        expect.sort_unstable();
        assert_eq!(keys, expect);
    }

    #[test]
    fn loser_tree_merges_segment_runs() {
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
        let mut runs = Vec::new();
        for (i, batch) in stream.chunks(64).enumerate() {
            let mut b: Vec<Pair> = batch
                .iter()
                .map(|&(s, c)| (mk_player(s, c), mk_cdn(s, c)))
                .collect();
            b.sort_unstable_by_key(|p| key_of(&p.0));
            let (p, c): (Vec<_>, Vec<_>) = b.into_iter().unzip();
            let path = dir.join(format!("seg-00000-{i:05}.slseg"));
            let meta = crate::segment::write_segment(&Storage::real(), &path, 0, i as u32, &p, &c)
                .unwrap();
            runs.push(open_run(&meta).unwrap());
        }
        let mut tree = LoserTree::new(runs).unwrap();
        let mut keys = Vec::new();
        while let Some(p) = tree.pop().unwrap() {
            keys.push((p.0.session.0, p.0.chunk.0));
        }
        let mut expect = stream.clone();
        expect.sort_unstable();
        assert_eq!(keys.len(), 1000, "row count");
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
