//! A tier's warm-up kept implicit: the fill order as a run of positions,
//! with nothing stored per object until traffic touches it.

use super::{ObjectKey, MANIFEST_BYTES};
use streamlab_workload::{ChunkIndex, Video, VideoId};

/// One warmed video's positions: its manifest at `start`, then its first
/// `chunks` chunks at each of the run's rungs in turn.
#[derive(Debug, Clone)]
struct Block {
    start: u64,
    video: Video,
    chunks: u32,
}

/// The objects a warm-up filled, in fill order, that are still cached
/// and not yet touched.
///
/// Position `p` names the `p`-th object of the fill order, so a block per
/// video is all the run stores: enough to turn a position into its key
/// and size and back. Positions below `cursor` are gone, oldest first. A
/// set `taken` bit marks a position whose object left the run some other
/// way (moved to the explicit queue, removed, pinned) or never entered
/// it (too large, or a repeat of an object already cached).
#[derive(Debug, Clone, Default)]
pub(super) struct WarmRun {
    rungs: Vec<u32>,
    /// In fill order, which is ascending video id.
    blocks: Vec<Block>,
    taken: Vec<u64>,
    /// Positions settled so far.
    end: u64,
    cursor: u64,
    /// The block holding `cursor`.
    at: usize,
    /// Live positions: at or past `cursor`, below `end`, not taken.
    len: usize,
}

impl WarmRun {
    /// An empty run over `rungs`, in the order each block warms them,
    /// with room for the blocks of `videos` videos.
    pub(super) fn new(rungs: &[u32], videos: usize) -> Self {
        WarmRun {
            rungs: rungs.to_vec(),
            blocks: Vec::with_capacity(videos),
            ..WarmRun::default()
        }
    }

    /// Live objects.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// True before any block was opened (a run never built, or dropped).
    pub(super) fn is_unbuilt(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Open `video`'s block: its manifest is the next position.
    pub(super) fn open(&mut self, video: &Video) {
        assert!(
            self.blocks.last().is_none_or(|b| b.video.id < video.id),
            "a run warms each video once, in ascending id"
        );
        self.blocks.push(Block {
            start: self.end,
            video: video.clone(),
            chunks: 0,
        });
    }

    /// Give the open block `chunks` chunks at each rung after its manifest.
    pub(super) fn widen(&mut self, chunks: u32) {
        self.blocks.last_mut().expect("an open block").chunks = chunks;
    }

    /// Settle the next position: live, or taken from the start.
    pub(super) fn settle(&mut self, live: bool) {
        let p = self.end;
        self.end += 1;
        self.taken.resize(self.end.div_ceil(64) as usize, 0);
        if live {
            self.len += 1;
        } else {
            self.taken[(p / 64) as usize] |= 1 << (p % 64);
        }
    }

    /// Settle the next `n` positions, all live.
    pub(super) fn settle_live(&mut self, n: u32) {
        self.end += u64::from(n);
        self.taken.resize(self.end.div_ceil(64) as usize, 0);
        self.len += n as usize;
    }

    fn is_live(&self, p: u64) -> bool {
        p >= self.cursor && p < self.end && (self.taken[(p / 64) as usize] >> (p % 64)) & 1 == 0
    }

    /// The live position holding `key`, and the object's size.
    pub(super) fn find(&self, key: &ObjectKey) -> Option<(u64, u64)> {
        let b = &self.blocks[self.block_of(key.video)?];
        if *key == ObjectKey::manifest(b.video.id) {
            return self.is_live(b.start).then_some((b.start, MANIFEST_BYTES));
        }
        if key.chunk.raw() >= b.chunks {
            return None;
        }
        // A rung listed twice fills its chunks twice; at most one of the
        // two positions is live.
        let p = (0..self.rungs.len())
            .filter(|&r| self.rungs[r] == key.bitrate_kbps)
            .map(|r| b.start + 1 + r as u64 * u64::from(b.chunks) + u64::from(key.chunk.raw()))
            .find(|&p| self.is_live(p))?;
        Some((p, b.video.chunk_bytes(key.chunk, key.bitrate_kbps)))
    }

    fn block_of(&self, video: VideoId) -> Option<usize> {
        self.blocks
            .binary_search_by_key(&video, |b| b.video.id)
            .ok()
    }

    /// Take the live object at `p` out of the run.
    pub(super) fn take(&mut self, p: u64) {
        debug_assert!(self.is_live(p));
        self.taken[(p / 64) as usize] |= 1 << (p % 64);
        self.len -= 1;
    }

    /// Evict the oldest live object.
    pub(super) fn pop(&mut self) -> Option<(ObjectKey, u64)> {
        if self.len == 0 {
            self.cursor = self.end;
            return None;
        }
        loop {
            let p = self.cursor;
            self.cursor += 1;
            if (self.taken[(p / 64) as usize] >> (p % 64)) & 1 == 1 {
                continue;
            }
            while self.blocks.get(self.at + 1).is_some_and(|b| b.start <= p) {
                self.at += 1;
            }
            self.len -= 1;
            return Some(self.object(&self.blocks[self.at], p));
        }
    }

    /// The key and size at position `p` of block `b`.
    fn object(&self, b: &Block, p: u64) -> (ObjectKey, u64) {
        let Some(offset) = (p - b.start).checked_sub(1) else {
            return (ObjectKey::manifest(b.video.id), MANIFEST_BYTES);
        };
        let chunks = u64::from(b.chunks);
        let bitrate_kbps = self.rungs[(offset / chunks) as usize];
        let chunk = ChunkIndex((offset % chunks) as u32);
        let key = ObjectKey {
            video: b.video.id,
            chunk,
            bitrate_kbps,
        };
        (key, b.video.chunk_bytes(chunk, bitrate_kbps))
    }
}
