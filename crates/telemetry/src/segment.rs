//! Columnar, append-only spill segments for out-of-core telemetry.
//!
//! A segment holds a sorted run of *paired* `(PlayerChunkRecord,
//! CdnChunkRecord)` rows — the engine emits both halves of every chunk, so
//! pairing them at spill time keeps the join keys stored once and makes the
//! orphan checks of `Dataset::join` trivially true for spilled data.
//!
//! On disk a segment is:
//!
//! ```text
//! header   magic "SLSEG1\r\n" · version · shard · seq · rows · groups ·
//!          min/max (session, chunk) sort-key range · FNV-1a of the header
//! groups   [byte len u32][rows u32][columnar payload] …
//! footer   FNV-1a of all group bytes · row count (repeated) · "SLSEGEND"
//! ```
//!
//! Within a group every record field is a fixed-width column block
//! (little-endian; `f64`s as IEEE-754 bit patterns via `to_bits`, so values
//! round-trip bit-exactly, `NaN` payloads included). The only variable-width
//! field, the per-chunk `tcp_info` snapshot vector, becomes a per-row length
//! column followed by flattened snapshot columns. Groups are capped at
//! [`GROUP_ROWS`] rows so a reader needs one group of memory per open
//! segment, never the whole file.
//!
//! Segments are written through [`streamlab_supervisor::atomic_write_with_in`]
//! against a [`Storage`] handle, so the §17 fault plans (torn writes, lost
//! fsyncs, crash points) cover segment sealing with no extra machinery: a
//! crash mid-seal leaves at most a staging file, never a torn segment.

use std::fmt;
use std::fs;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use streamlab_net::TcpInfo;
use streamlab_sim::{SimDuration, SimTime};
use streamlab_supervisor::{atomic_write_with_in, fnv1a64, Storage};
use streamlab_workload::{ChunkIndex, SessionId};

use crate::records::{CacheOutcome, CdnChunkRecord, ChunkTruth, PlayerChunkRecord};

/// Leading magic of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"SLSEG1\r\n";
/// Trailing magic closing the footer.
pub const SEGMENT_TAIL: [u8; 8] = *b"SLSEGEND";
/// On-disk format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Maximum rows per row group; bounds reader memory per open segment.
pub const GROUP_ROWS: usize = 4096;

const HEADER_LEN: usize = 8 + 4 + 4 + 4 + 4 + 8 + 4 + 4 + 8 + 4 + 8 + 4 + 8;
const FOOTER_LEN: usize = 8 + 8 + 8;
/// Bytes a paired row takes in a group when it carries no TCP snapshots:
/// join keys 12, player columns 82, CDN columns 58, snapshot count 4.
/// No row takes fewer, so it bounds the rows a file of a given length
/// can hold.
const MIN_ROW_BYTES: u64 = 12 + 82 + 58 + 4;

/// FNV-1a offset basis (matches `streamlab_supervisor::fnv1a64`).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Extend an FNV-1a hash over another buffer; `fnv_extend(FNV_OFFSET, b)`
/// equals `fnv1a64(b)`, letting us fingerprint a stream of groups without
/// holding the whole payload.
fn fnv_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The sort key a segment is ordered by: `(session, chunk)`.
pub type SortKey = (SessionId, ChunkIndex);

/// Decoded segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Format version (currently [`SEGMENT_VERSION`]).
    pub version: u32,
    /// Canonical index of the shard that produced this segment.
    pub shard: u32,
    /// Sequence number of this segment within its shard.
    pub seq: u32,
    /// Paired rows in the segment.
    pub rows: u64,
    /// Row groups in the segment.
    pub groups: u32,
    /// Smallest sort key in the segment.
    pub min_key: SortKey,
    /// Largest sort key in the segment.
    pub max_key: SortKey,
}

/// Manifest entry describing a sealed segment; serializable so sweep
/// checkpoints can record it and `--resume` can re-validate the file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// Path of the sealed segment file.
    pub path: String,
    /// Canonical shard index baked into the header.
    pub shard: u32,
    /// Per-shard sequence number.
    pub seq: u32,
    /// Paired rows in the segment.
    pub rows: u64,
    /// FNV-1a fingerprint of the group payload (the footer fingerprint).
    pub fingerprint: u64,
    /// Smallest `session.0` in the segment.
    pub min_session: u64,
    /// Chunk index paired with `min_session` at the run start.
    pub min_chunk: u32,
    /// Largest `session.0` in the segment.
    pub max_session: u64,
    /// Chunk index paired with `max_session` at the run end.
    pub max_chunk: u32,
}

impl SegmentMeta {
    /// Smallest sort key.
    pub fn min_key(&self) -> SortKey {
        (SessionId(self.min_session), ChunkIndex(self.min_chunk))
    }

    /// Largest sort key.
    pub fn max_key(&self) -> SortKey {
        (SessionId(self.max_session), ChunkIndex(self.max_chunk))
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Errors surfaced when a segment fails validation on read.
#[derive(Debug)]
pub enum SegmentError {
    /// Wrapped I/O error.
    Io(io::Error),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment error: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct ColBuf {
    bytes: Vec<u8>,
}

impl ColBuf {
    fn new() -> Self {
        ColBuf { bytes: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }

    fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }
}

fn cache_code(c: CacheOutcome) -> u8 {
    match c {
        CacheOutcome::RamHit => 0,
        CacheOutcome::DiskHit => 1,
        CacheOutcome::Miss => 2,
    }
}

fn cache_from_code(v: u8) -> io::Result<CacheOutcome> {
    match v {
        0 => Ok(CacheOutcome::RamHit),
        1 => Ok(CacheOutcome::DiskHit),
        2 => Ok(CacheOutcome::Miss),
        other => Err(bad(format!("invalid cache outcome code {other}"))),
    }
}

fn bool_from_code(v: u8) -> io::Result<bool> {
    match v {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(bad(format!("invalid bool code {other}"))),
    }
}

/// Encode one row group (paired, pre-validated slices) as columnar bytes.
fn encode_group(player: &[PlayerChunkRecord], cdn: &[CdnChunkRecord]) -> Vec<u8> {
    debug_assert_eq!(player.len(), cdn.len());
    let n = player.len();
    let mut buf = ColBuf::new();

    // Join keys, stored once for the pair.
    for p in player {
        buf.u64(p.session.0);
    }
    for p in player {
        buf.u32(p.chunk.0);
    }

    // Player columns, in record declaration order.
    for p in player {
        buf.u32(p.bitrate_kbps);
    }
    for p in player {
        buf.time(p.requested_at);
    }
    for p in player {
        buf.dur(p.d_fb);
    }
    for p in player {
        buf.dur(p.d_lb);
    }
    for p in player {
        buf.f64_bits(p.chunk_secs);
    }
    for p in player {
        buf.u32(p.buf_count);
    }
    for p in player {
        buf.dur(p.buf_dur);
    }
    for p in player {
        buf.u8(u8::from(p.visible));
    }
    for p in player {
        buf.f64_bits(p.avg_fps);
    }
    for p in player {
        buf.u32(p.dropped_frames);
    }
    for p in player {
        buf.u32(p.frames);
    }
    for p in player {
        buf.dur(p.truth.dds);
    }
    for p in player {
        buf.dur(p.truth.rtt0);
    }
    for p in player {
        buf.u8(u8::from(p.truth.transient_buffered));
    }

    // CDN columns.
    for c in cdn {
        buf.dur(c.d_wait);
    }
    for c in cdn {
        buf.dur(c.d_open);
    }
    for c in cdn {
        buf.dur(c.d_read);
    }
    for c in cdn {
        buf.dur(c.d_backend);
    }
    for c in cdn {
        buf.u8(cache_code(c.cache));
    }
    for c in cdn {
        buf.u8(u8::from(c.retry_fired));
    }
    for c in cdn {
        buf.u64(c.size_bytes);
    }
    for c in cdn {
        buf.time(c.served_at);
    }
    for c in cdn {
        buf.u32(c.segments);
    }
    for c in cdn {
        buf.u32(c.retx_segments);
    }

    // TCP side column: per-row snapshot counts, then flattened snapshot
    // columns over the concatenated snapshots.
    let mut total = 0u64;
    for c in cdn {
        buf.u32(u32::try_from(c.tcp.len()).expect("tcp snapshot count fits u32"));
        total += c.tcp.len() as u64;
    }
    let _ = (n, total);
    for c in cdn {
        for t in &c.tcp {
            buf.time(t.at);
        }
    }
    for c in cdn {
        for t in &c.tcp {
            buf.dur(t.srtt);
        }
    }
    for c in cdn {
        for t in &c.tcp {
            buf.dur(t.rttvar);
        }
    }
    for c in cdn {
        for t in &c.tcp {
            buf.u32(t.cwnd);
        }
    }
    for c in cdn {
        for t in &c.tcp {
            buf.u64(t.retx_total);
        }
    }
    for c in cdn {
        for t in &c.tcp {
            buf.u64(t.segs_out_total);
        }
    }
    for c in cdn {
        for t in &c.tcp {
            buf.u32(t.mss);
        }
    }

    buf.bytes
}

struct GroupCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> GroupCursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(bad("row group truncated"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8s(&mut self, n: usize) -> io::Result<&'a [u8]> {
        self.take(n)
    }

    fn u32s(&mut self, n: usize) -> io::Result<Vec<u32>> {
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn u64s(&mut self, n: usize) -> io::Result<Vec<u64>> {
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }
}

/// Decode one row group back into paired record vectors.
fn decode_group(
    bytes: &[u8],
    rows: usize,
) -> io::Result<(Vec<PlayerChunkRecord>, Vec<CdnChunkRecord>)> {
    let mut cur = GroupCursor { bytes, pos: 0 };
    let n = rows;

    let session = cur.u64s(n)?;
    let chunk = cur.u32s(n)?;

    let bitrate = cur.u32s(n)?;
    let requested_at = cur.u64s(n)?;
    let d_fb = cur.u64s(n)?;
    let d_lb = cur.u64s(n)?;
    let chunk_secs = cur.u64s(n)?;
    let buf_count = cur.u32s(n)?;
    let buf_dur = cur.u64s(n)?;
    let visible = cur.u8s(n)?.to_vec();
    let avg_fps = cur.u64s(n)?;
    let dropped = cur.u32s(n)?;
    let frames = cur.u32s(n)?;
    let dds = cur.u64s(n)?;
    let rtt0 = cur.u64s(n)?;
    let transient = cur.u8s(n)?.to_vec();

    let d_wait = cur.u64s(n)?;
    let d_open = cur.u64s(n)?;
    let d_read = cur.u64s(n)?;
    let d_backend = cur.u64s(n)?;
    let cache = cur.u8s(n)?.to_vec();
    let retry = cur.u8s(n)?.to_vec();
    let size_bytes = cur.u64s(n)?;
    let served_at = cur.u64s(n)?;
    let segments = cur.u32s(n)?;
    let retx_segments = cur.u32s(n)?;

    let tcp_len = cur.u32s(n)?;
    let total: usize = tcp_len.iter().map(|&l| l as usize).sum();
    let at = cur.u64s(total)?;
    let srtt = cur.u64s(total)?;
    let rttvar = cur.u64s(total)?;
    let cwnd = cur.u32s(total)?;
    let retx_total = cur.u64s(total)?;
    let segs_out = cur.u64s(total)?;
    let mss = cur.u32s(total)?;
    if cur.pos != bytes.len() {
        return Err(bad("row group has trailing bytes"));
    }

    let mut player = Vec::with_capacity(n);
    let mut cdn = Vec::with_capacity(n);
    let mut t = 0usize;
    for i in 0..n {
        player.push(PlayerChunkRecord {
            session: SessionId(session[i]),
            chunk: ChunkIndex(chunk[i]),
            bitrate_kbps: bitrate[i],
            requested_at: SimTime::from_nanos(requested_at[i]),
            d_fb: SimDuration::from_nanos(d_fb[i]),
            d_lb: SimDuration::from_nanos(d_lb[i]),
            chunk_secs: f64::from_bits(chunk_secs[i]),
            buf_count: buf_count[i],
            buf_dur: SimDuration::from_nanos(buf_dur[i]),
            visible: bool_from_code(visible[i])?,
            avg_fps: f64::from_bits(avg_fps[i]),
            dropped_frames: dropped[i],
            frames: frames[i],
            truth: ChunkTruth {
                dds: SimDuration::from_nanos(dds[i]),
                rtt0: SimDuration::from_nanos(rtt0[i]),
                transient_buffered: bool_from_code(transient[i])?,
            },
        });
        let len = tcp_len[i] as usize;
        let mut tcp = Vec::with_capacity(len);
        for j in t..t + len {
            tcp.push(TcpInfo {
                at: SimTime::from_nanos(at[j]),
                srtt: SimDuration::from_nanos(srtt[j]),
                rttvar: SimDuration::from_nanos(rttvar[j]),
                cwnd: cwnd[j],
                retx_total: retx_total[j],
                segs_out_total: segs_out[j],
                mss: mss[j],
            });
        }
        t += len;
        cdn.push(CdnChunkRecord {
            session: SessionId(session[i]),
            chunk: ChunkIndex(chunk[i]),
            d_wait: SimDuration::from_nanos(d_wait[i]),
            d_open: SimDuration::from_nanos(d_open[i]),
            d_read: SimDuration::from_nanos(d_read[i]),
            d_backend: SimDuration::from_nanos(d_backend[i]),
            cache: cache_from_code(cache[i])?,
            retry_fired: bool_from_code(retry[i])?,
            size_bytes: size_bytes[i],
            served_at: SimTime::from_nanos(served_at[i]),
            segments: segments[i],
            retx_segments: retx_segments[i],
            tcp,
        });
    }
    Ok((player, cdn))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Validate that `player`/`cdn` form a strictly ascending, pairwise-keyed
/// sorted run, returning the (min, max) sort keys.
fn validate_run(
    player: &[PlayerChunkRecord],
    cdn: &[CdnChunkRecord],
) -> io::Result<(SortKey, SortKey)> {
    if player.is_empty() || player.len() != cdn.len() {
        return Err(bad("segment run must be non-empty and pairwise"));
    }
    let mut prev: Option<SortKey> = None;
    for (p, c) in player.iter().zip(cdn) {
        let key = (p.session, p.chunk);
        if (c.session, c.chunk) != key {
            return Err(bad("player/cdn rows are not pairwise keyed"));
        }
        if let Some(pk) = prev {
            if pk >= key {
                return Err(bad("segment run is not strictly ascending"));
            }
        }
        prev = Some(key);
    }
    let min = (player[0].session, player[0].chunk);
    let last = player.len() - 1;
    let max = (player[last].session, player[last].chunk);
    Ok((min, max))
}

fn encode_header(
    shard: u32,
    seq: u32,
    rows: u64,
    groups: u32,
    min: SortKey,
    max: SortKey,
) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(&SEGMENT_MAGIC);
    h.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h.extend_from_slice(&shard.to_le_bytes());
    h.extend_from_slice(&seq.to_le_bytes());
    h.extend_from_slice(&groups.to_le_bytes());
    h.extend_from_slice(&rows.to_le_bytes());
    h.extend_from_slice(&(GROUP_ROWS as u32).to_le_bytes());
    h.extend_from_slice(&min.1 .0.to_le_bytes());
    h.extend_from_slice(&min.0 .0.to_le_bytes());
    h.extend_from_slice(&max.1 .0.to_le_bytes());
    h.extend_from_slice(&max.0 .0.to_le_bytes());
    h.extend_from_slice(&0u32.to_le_bytes());
    let fnv = fnv1a64(&h);
    h.extend_from_slice(&fnv.to_le_bytes());
    debug_assert_eq!(h.len(), HEADER_LEN);
    h
}

/// Write a sorted, paired run of records as one sealed segment file.
///
/// The write goes through [`atomic_write_with_in`] on `storage`, so it is
/// crash-atomic under the §17 fault plans: after a crash the segment either
/// exists fully fingerprinted or not at all.
pub fn write_segment(
    storage: &Storage,
    path: &Path,
    shard: u32,
    seq: u32,
    player: &[PlayerChunkRecord],
    cdn: &[CdnChunkRecord],
) -> io::Result<SegmentMeta> {
    let (min, max) = validate_run(player, cdn)?;
    let rows = player.len();
    let groups = rows.div_ceil(GROUP_ROWS);
    let header = encode_header(
        shard,
        seq,
        rows as u64,
        u32::try_from(groups).expect("group count fits u32"),
        min,
        max,
    );

    let mut payload_fnv = FNV_OFFSET;
    atomic_write_with_in(storage, path, |w| {
        w.write_all(&header)?;
        payload_fnv = FNV_OFFSET;
        for g in 0..groups {
            let lo = g * GROUP_ROWS;
            let hi = (lo + GROUP_ROWS).min(rows);
            let body = encode_group(&player[lo..hi], &cdn[lo..hi]);
            let mut head = [0u8; 8];
            head[..4].copy_from_slice(
                &u32::try_from(body.len())
                    .expect("group fits u32")
                    .to_le_bytes(),
            );
            head[4..].copy_from_slice(&u32::try_from(hi - lo).expect("rows fit u32").to_le_bytes());
            payload_fnv = fnv_extend(payload_fnv, &head);
            payload_fnv = fnv_extend(payload_fnv, &body);
            w.write_all(&head)?;
            w.write_all(&body)?;
        }
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&payload_fnv.to_le_bytes());
        footer.extend_from_slice(&(rows as u64).to_le_bytes());
        footer.extend_from_slice(&SEGMENT_TAIL);
        w.write_all(&footer)
    })?;

    Ok(SegmentMeta {
        path: path.to_string_lossy().into_owned(),
        shard,
        seq,
        rows: rows as u64,
        fingerprint: payload_fnv,
        min_session: min.0 .0,
        min_chunk: min.1 .0,
        max_session: max.0 .0,
        max_chunk: max.1 .0,
    })
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

fn decode_header(raw: &[u8]) -> io::Result<SegmentHeader> {
    if raw.len() != HEADER_LEN {
        return Err(bad("segment header truncated"));
    }
    if raw[..8] != SEGMENT_MAGIC {
        return Err(bad("bad segment magic"));
    }
    let u32_at = |o: usize| u32::from_le_bytes([raw[o], raw[o + 1], raw[o + 2], raw[o + 3]]);
    let u64_at = |o: usize| {
        u64::from_le_bytes([
            raw[o],
            raw[o + 1],
            raw[o + 2],
            raw[o + 3],
            raw[o + 4],
            raw[o + 5],
            raw[o + 6],
            raw[o + 7],
        ])
    };
    let stored = u64_at(HEADER_LEN - 8);
    if fnv1a64(&raw[..HEADER_LEN - 8]) != stored {
        return Err(bad("segment header fingerprint mismatch"));
    }
    let version = u32_at(8);
    if version != SEGMENT_VERSION {
        return Err(bad(format!("unsupported segment version {version}")));
    }
    Ok(SegmentHeader {
        version,
        shard: u32_at(12),
        seq: u32_at(16),
        groups: u32_at(20),
        rows: u64_at(24),
        min_key: (SessionId(u64_at(40)), ChunkIndex(u32_at(36))),
        max_key: (SessionId(u64_at(52)), ChunkIndex(u32_at(48))),
    })
}

/// Streaming segment reader: validates the header and footer on open, then
/// yields one decoded row group at a time, verifying the payload
/// fingerprint once the last group has been read.
pub struct SegmentReader {
    file: BufReader<fs::File>,
    header: SegmentHeader,
    expected_fnv: u64,
    running_fnv: u64,
    groups_read: u32,
    rows_read: u64,
    /// Group bytes between the read position and the footer; every group
    /// length read from the file must fit in it.
    unread: u64,
}

impl SegmentReader {
    /// Open and validate `path`.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = fs::File::open(path)?;
        let total = file.metadata()?.len();
        if total < (HEADER_LEN + FOOTER_LEN) as u64 {
            return Err(bad("segment file too short"));
        }
        let mut raw = [0u8; HEADER_LEN];
        file.read_exact(&mut raw)?;
        let header = decode_header(&raw)?;

        file.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        let mut foot = [0u8; FOOTER_LEN];
        file.read_exact(&mut foot)?;
        if foot[16..24] != SEGMENT_TAIL {
            return Err(bad("segment footer magic missing (torn file?)"));
        }
        let expected_fnv = u64::from_le_bytes(foot[..8].try_into().unwrap());
        let foot_rows = u64::from_le_bytes(foot[8..16].try_into().unwrap());
        if foot_rows != header.rows {
            return Err(bad("segment header/footer row counts disagree"));
        }
        let unread = total - (HEADER_LEN + FOOTER_LEN) as u64;
        if header.rows > unread / MIN_ROW_BYTES {
            return Err(bad(format!(
                "segment claims {} rows but holds {unread} group bytes",
                header.rows
            )));
        }
        file.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        Ok(SegmentReader {
            file: BufReader::new(file),
            header,
            expected_fnv,
            running_fnv: FNV_OFFSET,
            groups_read: 0,
            rows_read: 0,
            unread,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &SegmentHeader {
        &self.header
    }

    /// Read and decode the next row group; `Ok(None)` after the last group
    /// (at which point the payload fingerprint has been verified).
    pub fn next_group(
        &mut self,
    ) -> io::Result<Option<(Vec<PlayerChunkRecord>, Vec<CdnChunkRecord>)>> {
        if self.groups_read == self.header.groups {
            return Ok(None);
        }
        let mut head = [0u8; 8];
        let room = self
            .unread
            .checked_sub(head.len() as u64)
            .ok_or_else(|| bad("row group header runs into the segment footer"))?;
        self.file.read_exact(&mut head)?;
        let len = u32::from_le_bytes(head[..4].try_into().unwrap());
        let rows = u32::from_le_bytes(head[4..].try_into().unwrap()) as usize;
        if rows == 0 || rows > GROUP_ROWS {
            return Err(bad("row group has invalid row count"));
        }
        if u64::from(len) > room {
            return Err(bad(format!(
                "row group length {len} runs past the segment footer ({room} bytes left)"
            )));
        }
        self.unread = room - u64::from(len);
        let mut body = vec![0u8; len as usize];
        self.file.read_exact(&mut body)?;
        self.running_fnv = fnv_extend(self.running_fnv, &head);
        self.running_fnv = fnv_extend(self.running_fnv, &body);
        self.groups_read += 1;
        self.rows_read += rows as u64;
        let decoded = decode_group(&body, rows)?;
        if self.groups_read == self.header.groups {
            if self.rows_read != self.header.rows {
                return Err(bad("segment row count mismatch across groups"));
            }
            if self.running_fnv != self.expected_fnv {
                return Err(bad("segment payload fingerprint mismatch"));
            }
        }
        Ok(Some(decoded))
    }
}

/// Read an entire segment into memory (tests and manifest validation).
pub fn read_segment(
    path: &Path,
) -> io::Result<(SegmentHeader, Vec<PlayerChunkRecord>, Vec<CdnChunkRecord>)> {
    let mut r = SegmentReader::open(path)?;
    let header = *r.header();
    let mut player = Vec::with_capacity(header.rows as usize);
    let mut cdn = Vec::with_capacity(header.rows as usize);
    while let Some((p, c)) = r.next_group()? {
        player.extend(p);
        cdn.extend(c);
    }
    Ok((header, player, cdn))
}

/// Validate a sealed segment against its manifest entry without
/// materializing the rows: header decode, footer magic, row counts, and the
/// full payload fingerprint.
pub fn validate_segment(meta: &SegmentMeta) -> io::Result<SegmentHeader> {
    let path = PathBuf::from(&meta.path);
    let mut r = SegmentReader::open(&path)?;
    let header = *r.header();
    if header.shard != meta.shard || header.seq != meta.seq || header.rows != meta.rows {
        return Err(bad("segment header disagrees with manifest"));
    }
    while r.next_group()?.is_some() {}
    if r.expected_fnv != meta.fingerprint {
        return Err(bad("segment fingerprint disagrees with manifest"));
    }
    Ok(header)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn player(id: u64, c: u32) -> PlayerChunkRecord {
        PlayerChunkRecord {
            session: SessionId(id),
            chunk: ChunkIndex(c),
            bitrate_kbps: 1050 + c,
            requested_at: SimTime::from_millis(u64::from(c) * 6000),
            d_fb: SimDuration::from_micros(900 + u64::from(c)),
            d_lb: SimDuration::from_millis(2500),
            chunk_secs: 6.0 + f64::from(c) * 0.25,
            buf_count: c % 3,
            buf_dur: SimDuration::from_millis(u64::from(c % 3) * 40),
            visible: c.is_multiple_of(2),
            avg_fps: 29.97,
            dropped_frames: c,
            frames: 180,
            truth: ChunkTruth {
                dds: SimDuration::from_micros(1500),
                rtt0: SimDuration::from_micros(42_000),
                transient_buffered: c.is_multiple_of(5),
            },
        }
    }

    fn cdn(id: u64, c: u32) -> CdnChunkRecord {
        CdnChunkRecord {
            session: SessionId(id),
            chunk: ChunkIndex(c),
            d_wait: SimDuration::from_micros(120),
            d_open: SimDuration::from_micros(80),
            d_read: SimDuration::from_millis(2),
            d_backend: SimDuration::ZERO,
            cache: match c % 3 {
                0 => CacheOutcome::RamHit,
                1 => CacheOutcome::DiskHit,
                _ => CacheOutcome::Miss,
            },
            retry_fired: c.is_multiple_of(7),
            size_bytes: 787_500 + u64::from(c),
            served_at: SimTime::from_millis(u64::from(c) * 6000 + 30),
            segments: 540,
            retx_segments: c % 4,
            tcp: (0..(c % 3))
                .map(|k| TcpInfo {
                    at: SimTime::from_millis(u64::from(c) * 6000 + u64::from(k) * 500),
                    srtt: SimDuration::from_micros(40_000 + u64::from(k)),
                    rttvar: SimDuration::from_micros(5_000),
                    cwnd: 10 + k,
                    retx_total: u64::from(c % 4),
                    segs_out_total: 540 * u64::from(k + 1),
                    mss: 1460,
                })
                .collect(),
        }
    }

    fn sorted_run(sessions: u64, chunks: u32) -> (Vec<PlayerChunkRecord>, Vec<CdnChunkRecord>) {
        let mut p = Vec::new();
        let mut c = Vec::new();
        for s in 0..sessions {
            for k in 0..chunks {
                p.push(player(s, k));
                c.push(cdn(s, k));
            }
        }
        (p, c)
    }

    #[test]
    fn fnv_extend_matches_supervisor_fnv() {
        let data = b"the quick brown fox jumps over the lazy dog";
        assert_eq!(fnv_extend(FNV_OFFSET, data), fnv1a64(data));
        let split = fnv_extend(fnv_extend(FNV_OFFSET, &data[..10]), &data[10..]);
        assert_eq!(split, fnv1a64(data));
    }

    #[test]
    fn roundtrip_preserves_bit_patterns() {
        let dir = std::env::temp_dir().join(format!("slseg-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (mut p, c) = sorted_run(7, 11);
        // Exercise awkward f64 bit patterns (negative zero, subnormal).
        p[3].chunk_secs = -0.0;
        p[4].avg_fps = f64::MIN_POSITIVE / 2.0;
        let path = dir.join("seg-a.bin");
        let storage = Storage::real();
        let meta = write_segment(&storage, &path, 3, 9, &p, &c).unwrap();
        assert_eq!(meta.rows, p.len() as u64);
        let (header, rp, rc) = read_segment(&path).unwrap();
        assert_eq!(header.shard, 3);
        assert_eq!(header.seq, 9);
        assert_eq!(header.rows, p.len() as u64);
        assert_eq!(header.min_key, (SessionId(0), ChunkIndex(0)));
        assert_eq!(header.max_key, (SessionId(6), ChunkIndex(10)));
        assert_eq!(
            serde_json::to_string(&rp).unwrap(),
            serde_json::to_string(&p).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&rc).unwrap(),
            serde_json::to_string(&c).unwrap()
        );
        assert_eq!(rp[3].chunk_secs.to_bits(), (-0.0f64).to_bits());
        assert_eq!(rp[4].avg_fps.to_bits(), (f64::MIN_POSITIVE / 2.0).to_bits());
        assert!(validate_segment(&meta).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_group_segment_streams_group_at_a_time() {
        let dir = std::env::temp_dir().join(format!("slseg-mg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // > GROUP_ROWS rows forces at least two groups.
        let (p, c) = sorted_run(200, 40); // 8000 rows
        let path = dir.join("seg-b.bin");
        let meta = write_segment(&Storage::real(), &path, 0, 0, &p, &c).unwrap();
        let mut r = SegmentReader::open(&path).unwrap();
        assert!(r.header().groups >= 2);
        let mut rows = 0u64;
        let mut groups = 0;
        while let Some((gp, gc)) = r.next_group().unwrap() {
            assert_eq!(gp.len(), gc.len());
            assert!(gp.len() <= GROUP_ROWS);
            rows += gp.len() as u64;
            groups += 1;
        }
        assert_eq!(rows, meta.rows);
        assert_eq!(groups, r.header().groups);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = std::env::temp_dir().join(format!("slseg-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (p, c) = sorted_run(5, 6);
        let path = dir.join("seg-c.bin");
        let meta = write_segment(&Storage::real(), &path, 0, 0, &p, &c).unwrap();

        // Flip one payload byte: open succeeds (header intact) but the
        // group sweep must fail the fingerprint.
        let mut raw = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN + 32;
        raw[mid] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        assert!(validate_segment(&meta).is_err());

        // Truncate the tail: footer magic check fails at open.
        raw.truncate(raw.len() - 4);
        std::fs::write(&path, &raw).unwrap();
        assert!(SegmentReader::open(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn min_row_bytes_is_the_size_of_a_row_without_tcp_snapshots() {
        let (p, c) = (player(0, 0), cdn(0, 0));
        assert!(c.tcp.is_empty());
        assert_eq!(encode_group(&[p], &[c]).len() as u64, MIN_ROW_BYTES);
    }

    #[test]
    fn hostile_length_fields_are_rejected_before_allocating() {
        let dir = std::env::temp_dir().join(format!("slseg-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (p, c) = sorted_run(5, 6);
        let path = dir.join("seg-h.bin");
        write_segment(&Storage::real(), &path, 0, 0, &p, &c).unwrap();
        let sealed = std::fs::read(&path).unwrap();
        let read_error = |raw: &[u8]| {
            std::fs::write(&path, raw).unwrap();
            read_segment(&path).map(|_| ()).unwrap_err().kind()
        };

        // A group length far past the end of the file.
        let mut raw = sealed.clone();
        raw[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_error(&raw), io::ErrorKind::InvalidData);

        // A row count the file cannot hold, in a header whose fingerprint
        // was recomputed to match and a footer that agrees.
        let mut raw = sealed;
        let rows = (1u64 << 40).to_le_bytes();
        raw[24..32].copy_from_slice(&rows);
        let foot = raw.len() - FOOTER_LEN;
        raw[foot + 8..foot + 16].copy_from_slice(&rows);
        let fnv = fnv1a64(&raw[..HEADER_LEN - 8]);
        raw[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&fnv.to_le_bytes());
        assert_eq!(read_error(&raw), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsorted_or_unpaired_runs_are_rejected() {
        let dir = std::env::temp_dir().join(format!("slseg-rej-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let storage = Storage::real();
        let path = dir.join("seg-d.bin");
        let (mut p, c) = sorted_run(3, 3);
        p.swap(0, 1);
        assert!(write_segment(&storage, &path, 0, 0, &p, &c).is_err());
        let (p, mut c) = sorted_run(3, 3);
        c[2].chunk = ChunkIndex(99);
        assert!(write_segment(&storage, &path, 0, 0, &p, &c).is_err());
        let (p, c) = sorted_run(3, 3);
        assert!(write_segment(&storage, &path, 0, 0, &p[..4], &c).is_err());
        assert!(write_segment(&storage, &path, 0, 0, &[], &[]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
