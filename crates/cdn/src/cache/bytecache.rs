//! A byte-capacity cache with pluggable eviction.

use super::run::WarmRun;
use super::{EvictionPolicy, ObjectKey, MANIFEST_BYTES};
use rustc_hash::{FxHashMap, FxHasher};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use streamlab_workload::{ChunkIndex, Video};

/// Slot sentinel for "no slot".
const NIL: u32 = u32::MAX;

/// One cached object, stored once. `prev`/`next` link the LRU/FIFO queue
/// (head = oldest = victim side, tail = newest); a free slot chains the
/// free list through `next`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: ObjectKey,
    size: u64,
    prev: u32,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

/// Smallest non-empty index table.
const MIN_BUCKETS: usize = 8;

/// The index's hash tag for `key`: the high half of its FxHash, whose
/// bits are the well-mixed ones.
fn tag_of(key: &ObjectKey) -> u32 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (h.finish() >> 32) as u32
}

/// An index entry: `tag << 32 | (slot + 1)`, so 0 marks an empty bucket.
fn entry(tag: u32, slot: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(slot + 1)
}

fn tag_in(entry: u64) -> u32 {
    (entry >> 32) as u32
}

fn slot_of(entry: u64) -> u32 {
    entry as u32 - 1
}

/// Key → slot, by linear probing over tagged entries. The home bucket
/// comes from the tag's high bits, so growth and backward-shift deletion
/// move entries without reading the slab, and a probe reads a slot only
/// when the tag matches. The load never exceeds 7/8, so every probe
/// meets an empty bucket.
#[derive(Debug, Clone, Default)]
struct Index {
    buckets: Vec<u64>,
    len: usize,
}

impl Index {
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The home bucket of `tag`: its top `log2(buckets)` bits.
    fn home(&self, tag: u32) -> usize {
        ((u64::from(tag) * self.buckets.len() as u64) >> 32) as usize
    }

    /// The bucket and slot holding `key`, if present.
    fn find(&self, slots: &[Slot], key: &ObjectKey, tag: u32) -> Option<(usize, u32)> {
        if self.len == 0 {
            return None;
        }
        let mut i = self.home(tag);
        loop {
            let e = self.buckets[i];
            if e == 0 {
                return None;
            }
            if tag_in(e) == tag && slots[slot_of(e) as usize].key == *key {
                return Some((i, slot_of(e)));
            }
            i = (i + 1) & self.mask();
        }
    }

    /// The bucket holding exactly `entry`, which must be present.
    fn position(&self, entry: u64) -> usize {
        let mut i = self.home(tag_in(entry));
        while self.buckets[i] != entry {
            i = (i + 1) & self.mask();
        }
        i
    }

    fn insert(&mut self, entry: u64) {
        if (self.len + 1) * 8 > self.buckets.len() * 7 {
            let n = (self.buckets.len() * 2).max(MIN_BUCKETS);
            let old = std::mem::replace(&mut self.buckets, vec![0; n]);
            for e in old.into_iter().filter(|&e| e != 0) {
                self.place(e);
            }
        }
        self.place(entry);
        self.len += 1;
    }

    fn place(&mut self, entry: u64) {
        let mut i = self.home(tag_in(entry));
        while self.buckets[i] != 0 {
            i = (i + 1) & self.mask();
        }
        self.buckets[i] = entry;
    }

    /// Empty bucket `hole`, shifting the rest of its cluster back so that
    /// every entry stays reachable from its home.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let e = self.buckets[j];
            if e == 0 {
                break;
            }
            if (j.wrapping_sub(self.home(tag_in(e))) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = e;
                hole = j;
            }
        }
        self.buckets[hole] = 0;
        self.len -= 1;
    }

    fn clear(&mut self) {
        self.buckets.fill(0);
        self.len = 0;
    }
}

/// A tier stops taking a warmed video's chunks once this full; it still
/// takes every manifest.
const WARM_FULL: f64 = 0.9;

/// A byte-capacity cache over [`ObjectKey`]s.
///
/// Every explicit object lives once, in a slot of one slab, found through
/// the tagged index. LRU and FIFO order the slots by the queue threaded
/// through them; Perfect-LFU and GD-Size by a `BTreeSet` of computed
/// priorities. Eviction pops the lowest-priority (or oldest) entry,
/// skipping pinned entries. Where a key sits in the slab or the index
/// never decides what is evicted.
///
/// Under LRU and FIFO a [warm-up](ByteCache::warm) stays implicit: a run
/// of fill-order positions, older than every unpinned explicit entry, that
/// a lookup consults only when the index misses.
#[derive(Debug, Clone)]
pub struct ByteCache {
    policy: EvictionPolicy,
    capacity: u64,
    /// Bytes of the explicit entries and the warm run together.
    used: u64,
    slots: Vec<Slot>,
    /// Head of the free-slot chain.
    free: u32,
    index: Index,
    /// The LRU/FIFO queue's ends.
    head: u32,
    tail: u32,
    /// Perfect-LFU/GD-Size eviction order: `((priority, tick), slot)`.
    /// Ticks are unique, so the slot id never breaks a tie.
    tree: BTreeSet<((u64, u64), u32)>,
    /// Each slot's key in `tree`; stays empty under LRU/FIFO.
    order_keys: Vec<(u64, u64)>,
    /// One pin bit per slot; stays empty until something is pinned.
    pins: Vec<u64>,
    /// The untouched part of the warm-up (LRU/FIFO only).
    run: WarmRun,
    /// Monotone counter used for priority ties in `tree`.
    tick: u64,
    /// Perfect-LFU frequency table (survives eviction).
    freq: FxHashMap<ObjectKey, u64>,
    /// GD-Size inflation value L (scaled by `GD_SCALE`).
    gd_inflation: u64,
    hits: u64,
    misses: u64,
}

/// GD-Size priorities are fractional; scale into integers for the ordered
/// set. One unit = 1/GD_SCALE of "cost per byte".
const GD_SCALE: f64 = 1.0e12;

impl ByteCache {
    /// An empty cache of `capacity` bytes under `policy`.
    pub fn new(policy: EvictionPolicy, capacity: u64) -> Self {
        ByteCache {
            policy,
            capacity,
            used: 0,
            slots: Vec::new(),
            free: NIL,
            index: Index::default(),
            head: NIL,
            tail: NIL,
            tree: BTreeSet::new(),
            order_keys: Vec::new(),
            pins: Vec::new(),
            run: WarmRun::default(),
            tick: 0,
            freq: FxHashMap::default(),
            gd_inflation: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.index.len + self.run.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (hits, misses) counters from `lookup`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn queued(&self) -> bool {
        matches!(self.policy, EvictionPolicy::Lru | EvictionPolicy::Fifo)
    }

    fn find(&self, key: &ObjectKey) -> Option<(usize, u32)> {
        self.index.find(&self.slots, key, tag_of(key))
    }

    fn pinned(&self, slot: u32) -> bool {
        self.pins
            .get(slot as usize / 64)
            .is_some_and(|w| (w >> (slot % 64)) & 1 == 1)
    }

    /// Priority key of `slot` for the `tree` policies.
    fn order_key_for(&mut self, slot: u32) -> (u64, u64) {
        let Slot { key, size, .. } = self.slots[slot as usize];
        let priority = match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => unreachable!("queue policies"),
            EvictionPolicy::PerfectLfu => self.freq.get(&key).copied().unwrap_or(0),
            // priority = L + cost/size, with unit cost per object.
            EvictionPolicy::GdSize => {
                (self.gd_inflation as f64 + GD_SCALE / size.max(1) as f64) as u64
            }
        };
        self.tick += 1;
        (priority, self.tick)
    }

    fn push_back(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.prev = self.tail;
        s.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            tail => self.slots[tail as usize].next = slot,
        }
        self.tail = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            prev => self.slots[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.slots[next as usize].prev = prev,
        }
    }

    /// Record an access to `slot` in the eviction order.
    fn touch(&mut self, slot: u32) {
        match self.policy {
            EvictionPolicy::Fifo => {} // FIFO ignores accesses
            EvictionPolicy::Lru => {
                self.unlink(slot);
                self.push_back(slot);
            }
            EvictionPolicy::PerfectLfu | EvictionPolicy::GdSize => {
                let old = self.order_keys[slot as usize];
                self.tree.remove(&(old, slot));
                let new = self.order_key_for(slot);
                self.tree.insert((new, slot));
                self.order_keys[slot as usize] = new;
            }
        }
    }

    /// Is `key` present? Updates hit/miss stats and recency/frequency.
    pub fn lookup(&mut self, key: ObjectKey) -> bool {
        // Perfect-LFU counts every *request*, hit or miss.
        if self.policy == EvictionPolicy::PerfectLfu {
            *self.freq.entry(key).or_insert(0) += 1;
        }
        let hit = match self.find(&key) {
            Some((_, slot)) => {
                self.touch(slot);
                true
            }
            None => self.touch_warm(key),
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Record an access to `key` if the warm run holds it: LRU moves it
    /// to the explicit queue's newest end, FIFO leaves it in place.
    /// Returns whether the run held it.
    fn touch_warm(&mut self, key: ObjectKey) -> bool {
        let Some((p, size)) = self.run.find(&key) else {
            return false;
        };
        if self.policy == EvictionPolicy::Lru {
            self.run.take(p);
            self.admit(key, size);
        }
        true
    }

    /// Presence check without touching stats or ordering.
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.find(&key).is_some() || self.run.find(&key).is_some()
    }

    /// Insert `key` (`size` bytes), evicting until it fits. Returns the
    /// evicted `(key, size)` pairs so callers can demote them to a lower
    /// tier. Objects larger than the whole capacity are not admitted.
    /// Re-inserting an existing key refreshes it.
    pub fn insert(&mut self, key: ObjectKey, size: u64) -> Vec<(ObjectKey, u64)> {
        if size > self.capacity {
            return Vec::new();
        }
        if let Some((_, slot)) = self.find(&key) {
            self.touch(slot);
            return Vec::new();
        }
        if self.touch_warm(key) {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used + size > self.capacity {
            match self.pop_victim() {
                Some(victim) => evicted.push(victim),
                None => return evicted, // everything pinned; cannot admit
            }
        }
        self.admit(key, size);
        self.used += size;
        evicted
    }

    /// Store `key` in a slot and at the newest end of the eviction order;
    /// the caller accounts its bytes.
    fn admit(&mut self, key: ObjectKey, size: u64) -> u32 {
        let new = Slot {
            key,
            size,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free {
            NIL => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s < NIL)
                    .expect("fewer than 2^32 - 1 cached objects");
                self.slots.push(new);
                slot
            }
            free => {
                self.free = self.slots[free as usize].next;
                self.slots[free as usize] = new;
                free
            }
        };
        self.index.insert(entry(tag_of(&key), slot));
        if self.queued() {
            self.push_back(slot);
        } else {
            let order_key = self.order_key_for(slot);
            self.tree.insert((order_key, slot));
            if self.order_keys.len() <= slot as usize {
                self.order_keys.resize(slot as usize + 1, (0, 0));
            }
            self.order_keys[slot as usize] = order_key;
        }
        slot
    }

    /// Warm the cache with `videos`, in fill order: each video's manifest,
    /// then — unless the cache is already 90 % full — its first `chunks`
    /// chunks at each of `rungs` in turn. Every fill acts as an
    /// [`insert`](ByteCache::insert), so overflow evicts the oldest fills
    /// and a repeated fill refreshes; the evicted objects are dropped.
    ///
    /// Under LRU and FIFO the fill stays implicit, a run of fill-order
    /// positions: building it costs a few counters per video, and only
    /// objects that traffic touches are ever stored. Perfect-LFU and
    /// GD-Size order victims by priority, not age, so they insert each
    /// fill.
    ///
    /// Video ids must ascend. Under LRU and FIFO a cache warms once
    /// between clears, and entries cached before must be pinned: an
    /// unpinned one would be older than the whole run.
    pub fn warm(&mut self, rungs: &[u32], videos: &[(&Video, u32)]) {
        let implicit = self.queued();
        if implicit {
            assert!(self.run.is_unbuilt(), "a cache warms once between clears");
            let pinned: usize = self.pins.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(
                pinned, self.index.len,
                "unpinned entries before the warm-up"
            );
            self.run = WarmRun::new(rungs, videos.len());
        }
        for &(video, chunks) in videos {
            if implicit {
                self.run.open(video);
            }
            self.warm_fill(ObjectKey::manifest(video.id), MANIFEST_BYTES);
            if self.used as f64 >= WARM_FULL * self.capacity as f64 {
                continue;
            }
            if implicit {
                self.run.widen(chunks);
            }
            for (r, &rung) in rungs.iter().enumerate() {
                if self.warm_block(video, rung, chunks, rungs[..r].contains(&rung)) {
                    continue;
                }
                for c in 0..chunks {
                    let key = ObjectKey {
                        video: video.id,
                        chunk: ChunkIndex(c),
                        bitrate_kbps: rung,
                    };
                    self.warm_fill(key, video.chunk_bytes(ChunkIndex(c), rung));
                }
            }
        }
    }

    /// One warm-up fill. Under LRU and FIFO it settles the run's next
    /// position exactly as [`insert`](ByteCache::insert) would treat the
    /// object, with byte counters only.
    fn warm_fill(&mut self, key: ObjectKey, size: u64) {
        if !self.queued() {
            self.insert(key, size);
            return;
        }
        let live = if size > self.capacity {
            false
        } else if let Some((_, slot)) = self.find(&key) {
            self.touch(slot);
            false
        } else if let Some((p, _)) = self.run.find(&key) {
            // A refresh: LRU moves the object up to this position.
            let lru = self.policy == EvictionPolicy::Lru;
            if lru {
                self.run.take(p);
            }
            lru
        } else {
            loop {
                if self.used + size <= self.capacity {
                    self.used += size;
                    break true;
                }
                if self.pop_victim().is_none() {
                    break false; // everything left is pinned
                }
            }
        };
        self.run.settle(live);
    }

    /// Settle all of `video`'s first `chunks` chunks at `rung` at once, if
    /// none of them could evict, repeat a cached object or be refused.
    /// Returns whether it did.
    fn warm_block(&mut self, video: &Video, rung: u32, chunks: u32, repeated_rung: bool) -> bool {
        if !self.queued() || repeated_rung || self.index.len > 0 {
            return false;
        }
        let Some(last) = chunks.checked_sub(1) else {
            return true;
        };
        // Every chunk before a video's last is full length.
        let first = video.chunk_bytes(ChunkIndex(0), rung);
        let last = video.chunk_bytes(ChunkIndex(last), rung);
        let bytes = first * u64::from(chunks - 1) + last;
        if first.max(last) > self.capacity || self.used + bytes > self.capacity {
            return false;
        }
        self.used += bytes;
        self.run.settle_live(chunks);
        true
    }

    /// Drop every entry at once (a process restart losing its in-memory
    /// contents). Lifetime hit/miss stats and the Perfect-LFU frequency
    /// history survive — they model knowledge that outlives a restart —
    /// but pins are lost with the entries that held them.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free = NIL;
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.tree.clear();
        self.order_keys.clear();
        self.pins.clear();
        self.run = WarmRun::default();
        self.used = 0;
    }

    /// Pin `key` so it is never evicted (used by the "cache the first chunk
    /// of every video" policy). No-op if absent.
    pub fn pin(&mut self, key: ObjectKey) {
        let slot = match self.find(&key) {
            Some((_, slot)) => Some(slot),
            // A pinned entry is never evicted, so where it sits in the
            // queue cannot be observed: the warm object moves to the end.
            None => self.run.find(&key).map(|(p, size)| {
                self.run.take(p);
                self.admit(key, size)
            }),
        };
        if let Some(slot) = slot {
            let word = slot as usize / 64;
            if self.pins.len() <= word {
                self.pins.resize(word + 1, 0);
            }
            self.pins[word] |= 1 << (slot % 64);
        }
    }

    /// Remove a specific key (e.g. when promoting between tiers).
    pub fn remove(&mut self, key: ObjectKey) -> bool {
        if let Some((bucket, slot)) = self.find(&key) {
            self.release(bucket, slot);
            return true;
        }
        match self.run.find(&key) {
            Some((p, size)) => {
                self.run.take(p);
                self.used -= size;
                true
            }
            None => false,
        }
    }

    /// Take `slot`, found at index `bucket`, out of the index and the
    /// eviction order and onto the free list.
    fn release(&mut self, bucket: usize, slot: u32) {
        self.index.remove_at(bucket);
        if self.queued() {
            self.unlink(slot);
        } else {
            self.tree.remove(&(self.order_keys[slot as usize], slot));
        }
        if let Some(w) = self.pins.get_mut(slot as usize / 64) {
            *w &= !(1 << (slot % 64));
        }
        let s = &mut self.slots[slot as usize];
        self.used -= s.size;
        s.next = self.free;
        self.free = slot;
    }

    /// Evict the policy's victim, skipping pinned entries. Under LRU and
    /// FIFO that is the warm run's oldest object while one is left: every
    /// untouched warm object is older than any unpinned explicit entry.
    fn pop_victim(&mut self) -> Option<(ObjectKey, u64)> {
        if let Some((key, size)) = self.run.pop() {
            self.used -= size;
            return Some((key, size));
        }
        let slot = if self.queued() {
            let mut slot = self.head;
            while slot != NIL && self.pinned(slot) {
                slot = self.slots[slot as usize].next;
            }
            if slot == NIL {
                return None; // everything pinned
            }
            slot
        } else {
            let (_, slot) = *self.tree.iter().find(|(_, s)| !self.pinned(*s))?;
            slot
        };
        let Slot { key, size, .. } = self.slots[slot as usize];
        if self.policy == EvictionPolicy::GdSize {
            // GD-Size: the evicted priority becomes the new inflation L.
            self.gd_inflation = self.order_keys[slot as usize].0;
        }
        self.release(self.index.position(entry(tag_of(&key), slot)), slot);
        Some((key, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlab_workload::{ChunkIndex, VideoId};

    /// `n` slots whose keys differ in one field at a time: chunk,
    /// bitrate, then video.
    fn slab(n: u32) -> Vec<Slot> {
        (0..n)
            .map(|i| Slot {
                key: ObjectKey {
                    video: VideoId(u64::from(i / 4)),
                    chunk: ChunkIndex(i % 2),
                    bitrate_kbps: 1050 + i % 4 / 2,
                },
                size: 1,
                prev: NIL,
                next: NIL,
            })
            .collect()
    }

    #[test]
    fn equal_tags_are_told_apart_by_key() {
        let slots = slab(5);
        let mut index = Index::default();
        for s in 0..4 {
            index.insert(entry(7, s));
        }
        for s in 0..4 {
            let found = index.find(&slots, &slots[s as usize].key, 7);
            assert_eq!(found, Some((index.position(entry(7, s)), s)));
        }
        assert_eq!(index.find(&slots, &slots[4].key, 7), None);
        index.remove_at(index.position(entry(7, 0)));
        assert_eq!(index.find(&slots, &slots[0].key, 7), None);
        assert_eq!(index.find(&slots, &slots[2].key, 7).map(|f| f.1), Some(2));
    }

    #[test]
    fn clusters_wrap_past_the_end_and_close_up_on_delete() {
        // Tags with their top three bits set start at the last of eight
        // buckets, so a cluster of five wraps round to bucket 3.
        let slots = slab(6);
        let mut index = Index::default();
        for s in 0..5 {
            index.insert(entry(u32::MAX - s, s));
        }
        // Bucket 4 is this entry's home (top bits 100): it ends the
        // cluster but must not shift.
        index.insert(entry(0x8000_0000, 5));
        assert_eq!(index.buckets.len(), 8);
        assert_eq!(index.buckets[7], entry(u32::MAX, 0));
        assert_eq!(index.buckets[3], entry(u32::MAX - 4, 4));
        index.remove_at(7);
        assert_eq!(index.buckets[7], entry(u32::MAX - 1, 1));
        assert_eq!(index.buckets[2], entry(u32::MAX - 4, 4));
        assert_eq!(index.buckets[3], 0);
        assert_eq!(index.buckets[4], entry(0x8000_0000, 5));
        for s in 1..5 {
            let found = index.find(&slots, &slots[s as usize].key, u32::MAX - s);
            assert_eq!(found.map(|f| f.1), Some(s));
        }
        // The seventh entry fits in eight buckets; the eighth doubles them.
        index.insert(entry(1, 0));
        index.insert(entry(2, 3));
        assert_eq!((index.buckets.len(), index.len), (8, 7));
        index.insert(entry(3, 2));
        assert_eq!((index.buckets.len(), index.len), (16, 8));
    }
}
