//! Out-of-core spill properties.
//!
//! Four invariants keep the spill path honest:
//!
//! 1. Segment round-trips are *bit-exact*: every field — including `f64`s
//!    with arbitrary bit patterns (`NaN` payloads, `-0.0`, subnormals) and
//!    variable-length `tcp_info` snapshot vectors — survives
//!    `write_segment` → `read_segment` unchanged.
//! 2. Streaming assembly is observationally identical to the in-RAM
//!    join: a spilled sink drained through [`SessionStream`] or joined
//!    through [`Dataset::join`] produces the same dataset bytes (or
//!    the same [`JoinError`]) as `join` on an identical in-RAM sink and
//!    as the reference join (`support::join_reference`) on the same
//!    records — over engine-shaped, shuffled, and faulted streams alike.
//!    (Error parity is only guaranteed for single-violation streams: with
//!    several violations the paths may legitimately detect a different
//!    one first, so the generators inject at most one fault.)
//! 3. Segment sealing degrades, never dies: a crash-point sweep over every
//!    storage operation of a clean spill run must leave the sink able to
//!    produce the exact reference dataset, with every segment it still
//!    claims sealed passing fingerprint validation and no torn `.slseg`
//!    file visible on disk.
//! 4. The seal sorts its arenas in place, yet every segment it writes
//!    holds exactly the rows — and bytes — that moving the arenas into a
//!    `Vec` of pairs, sorting it and unzipping it would have written.

mod support;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use streamlab_net::TcpInfo;
use streamlab_sim::{SimDuration, SimTime};
use streamlab_supervisor::{Storage, StorageFaultPlan};
use streamlab_telemetry::records::{
    CacheOutcome, CdnChunkRecord, ChunkTruth, PlayerChunkRecord, SessionMeta,
};
use streamlab_telemetry::segment::{read_segment, validate_segment, write_segment};
use streamlab_telemetry::{Dataset, JoinError, SessionStream, SpillSpec, TelemetrySink};
use streamlab_workload::{
    AccessClass, Browser, ChunkIndex, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId,
    SessionId, VideoId,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per case so parallel proptest cases never
/// share segment files.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "streamlab-spill-props-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn meta(id: u64) -> SessionMeta {
    SessionMeta {
        session: SessionId(id),
        prefix: PrefixId(id % 7),
        video: VideoId(id % 5),
        video_secs: 120.0,
        os: Os::Windows,
        browser: Browser::Chrome,
        org: "R".into(),
        org_kind: OrgKind::Residential,
        access: AccessClass::Cable,
        region: Region::UnitedStates,
        location: GeoPoint {
            lat: 40.0,
            lon: -75.0,
        },
        pop: PopId(id % 3),
        server: ServerId(id % 9),
        distance_km: 25.0,
        arrival: SimTime::from_secs(3_600 + id * 900),
        startup_delay_s: 0.9,
        proxied: false,
        ua_mismatch: false,
        gpu: true,
        visible: true,
    }
}

fn player(id: u64, c: u32) -> PlayerChunkRecord {
    PlayerChunkRecord {
        session: SessionId(id),
        chunk: ChunkIndex(c),
        bitrate_kbps: 2050,
        requested_at: SimTime::from_secs(id + u64::from(c) * 4),
        d_fb: SimDuration::from_millis(90),
        d_lb: SimDuration::from_millis(700),
        chunk_secs: 4.0,
        buf_count: 0,
        buf_dur: SimDuration::ZERO,
        visible: true,
        avg_fps: 30.0,
        dropped_frames: 0,
        frames: 120,
        truth: ChunkTruth::default(),
    }
}

fn cdn(id: u64, c: u32) -> CdnChunkRecord {
    CdnChunkRecord {
        session: SessionId(id),
        chunk: ChunkIndex(c),
        d_wait: SimDuration::from_micros(150),
        d_open: SimDuration::from_micros(250),
        d_read: SimDuration::from_millis(3),
        d_backend: SimDuration::ZERO,
        cache: CacheOutcome::DiskHit,
        retry_fired: false,
        size_bytes: 1_025_000,
        served_at: SimTime::from_secs(id + u64::from(c) * 4),
        segments: 700,
        retx_segments: 1,
        tcp: vec![TcpInfo {
            at: SimTime::from_secs(id),
            srtt: SimDuration::from_millis(35),
            rttvar: SimDuration::from_millis(3),
            cwnd: 40,
            retx_total: 1,
            segs_out_total: 700,
            mss: 1460,
        }],
    }
}

/// Deterministic pseudo-shuffle shared by all streams of a case.
fn mix<T>(v: &mut [T], seed: u64) {
    let n = v.len();
    for i in 0..n {
        let j = (seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64)
            % n.max(1) as u64) as usize;
        v.swap(i, j);
    }
}

// ---------------------------------------------------------------------------
// 1. Bit-exact segment round-trips
// ---------------------------------------------------------------------------

/// Records carry no `PartialEq` (f64 fields), so round-trip equality is
/// asserted field-by-field with `to_bits` for the floats.
fn assert_player_bits_eq(a: &PlayerChunkRecord, b: &PlayerChunkRecord) {
    assert_eq!(a.session, b.session);
    assert_eq!(a.chunk, b.chunk);
    assert_eq!(a.bitrate_kbps, b.bitrate_kbps);
    assert_eq!(a.requested_at, b.requested_at);
    assert_eq!(a.d_fb, b.d_fb);
    assert_eq!(a.d_lb, b.d_lb);
    assert_eq!(a.chunk_secs.to_bits(), b.chunk_secs.to_bits(), "chunk_secs");
    assert_eq!(a.buf_count, b.buf_count);
    assert_eq!(a.buf_dur, b.buf_dur);
    assert_eq!(a.visible, b.visible);
    assert_eq!(a.avg_fps.to_bits(), b.avg_fps.to_bits(), "avg_fps");
    assert_eq!(a.dropped_frames, b.dropped_frames);
    assert_eq!(a.frames, b.frames);
    assert_eq!(a.truth, b.truth);
}

fn assert_cdn_bits_eq(a: &CdnChunkRecord, b: &CdnChunkRecord) {
    assert_eq!(a.session, b.session);
    assert_eq!(a.chunk, b.chunk);
    assert_eq!(a.d_wait, b.d_wait);
    assert_eq!(a.d_open, b.d_open);
    assert_eq!(a.d_read, b.d_read);
    assert_eq!(a.d_backend, b.d_backend);
    assert_eq!(a.cache, b.cache);
    assert_eq!(a.retry_fired, b.retry_fired);
    assert_eq!(a.size_bytes, b.size_bytes);
    assert_eq!(a.served_at, b.served_at);
    assert_eq!(a.segments, b.segments);
    assert_eq!(a.retx_segments, b.retx_segments);
    assert_eq!(a.tcp, b.tcp);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strictly-ascending paired run — with hostile `f64` bit patterns
    /// and 0–2 `tcp_info` snapshots per row — round-trips bit-exactly, and
    /// the returned manifest entry re-validates against the file.
    #[test]
    fn segment_roundtrip_is_bit_exact(
        sessions in proptest::collection::vec(1u32..6, 1..10),
        bits in proptest::collection::vec(any::<u64>(), 1..32),
        tcp_lens in proptest::collection::vec(0usize..3, 1..32),
        shard in 0u32..4,
        seq in 0u32..4,
    ) {
        let mut players = Vec::new();
        let mut cdns = Vec::new();
        let mut i = 0usize;
        for (id, &chunks) in sessions.iter().enumerate() {
            let id = id as u64;
            for c in 0..chunks {
                let mut p = player(id, c);
                p.chunk_secs = f64::from_bits(bits[i % bits.len()]);
                p.avg_fps = f64::from_bits(bits[(i + 1) % bits.len()]);
                let mut r = cdn(id, c);
                r.tcp = (0..tcp_lens[i % tcp_lens.len()])
                    .map(|k| TcpInfo {
                        at: SimTime::from_secs(id + k as u64),
                        srtt: SimDuration::from_millis(35 + k as u64),
                        rttvar: SimDuration::from_millis(3),
                        cwnd: 40 + k as u32,
                        retx_total: k as u64,
                        segs_out_total: 700,
                        mss: 1460,
                    })
                    .collect();
                players.push(p);
                cdns.push(r);
                i += 1;
            }
        }

        let dir = scratch();
        let path = dir.join(format!("seg-{shard:05}-{seq:05}.slseg"));
        let meta = write_segment(&Storage::real(), &path, shard, seq, &players, &cdns)
            .expect("write segment");
        prop_assert_eq!(meta.rows as usize, players.len());
        prop_assert_eq!(meta.shard, shard);
        prop_assert_eq!(meta.seq, seq);

        let header = validate_segment(&meta).expect("validate sealed segment");
        prop_assert_eq!(header.rows, meta.rows);
        prop_assert_eq!(header.min_key, meta.min_key());
        prop_assert_eq!(header.max_key, meta.max_key());

        let (h, rp, rc) = read_segment(&path).expect("read segment");
        prop_assert_eq!(h.rows as usize, players.len());
        prop_assert_eq!(rp.len(), players.len());
        prop_assert_eq!(rc.len(), cdns.len());
        for (a, b) in players.iter().zip(&rp) {
            assert_player_bits_eq(a, b);
        }
        for (a, b) in cdns.iter().zip(&rc) {
            assert_cdn_bits_eq(a, b);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// 2. Streaming assembly ≡ in-RAM assemble ≡ reference join
// ---------------------------------------------------------------------------

/// Feed the three record streams into `sink` the way an engine would:
/// chunk streams interleaved pairwise (so a spilling sink's aligned-arena
/// flush points actually fire), metadata up front.
fn feed(
    sink: &mut TelemetrySink,
    metas: &[SessionMeta],
    players: &[PlayerChunkRecord],
    cdns: &[CdnChunkRecord],
) {
    for m in metas {
        sink.session(m.clone());
    }
    let n = players.len().max(cdns.len());
    for i in 0..n {
        if let Some(p) = players.get(i) {
            sink.player_chunk(p.clone());
        }
        if let Some(c) = cdns.get(i) {
            sink.cdn_chunk(c.clone());
        }
    }
}

fn in_ram_sink(
    metas: &[SessionMeta],
    players: &[PlayerChunkRecord],
    cdns: &[CdnChunkRecord],
) -> TelemetrySink {
    let mut s = TelemetrySink::new();
    feed(&mut s, metas, players, cdns);
    s
}

fn spilled_sink(
    metas: &[SessionMeta],
    players: &[PlayerChunkRecord],
    cdns: &[CdnChunkRecord],
    threshold: usize,
) -> (TelemetrySink, PathBuf) {
    let dir = scratch();
    let mut s = TelemetrySink::with_spill(
        metas.len(),
        SpillSpec {
            dir: dir.clone(),
            threshold,
            shard: 0,
            storage: Storage::real(),
        },
    );
    feed(&mut s, metas, players, cdns);
    s.seal();
    (s, dir)
}

/// Drain a [`SessionStream`] into the same `Result` shape the batch joins
/// return, stopping at the first violation like they do.
fn drain_stream(sink: TelemetrySink) -> Result<Dataset, JoinError> {
    let mut sessions = Vec::new();
    for item in SessionStream::new(vec![sink]) {
        sessions.push(item?);
    }
    let raw = sessions.len();
    Ok(Dataset {
        sessions,
        filtered_proxy_sessions: 0,
        raw_sessions: raw,
    })
}

fn outcome_json(label: &str, r: &Result<Dataset, JoinError>) -> Result<String, String> {
    match r {
        Ok(d) => {
            Ok(serde_json::to_string(d)
                .unwrap_or_else(|e| panic!("{label}: serialize dataset: {e}")))
        }
        Err(e) => Err(format!("{e:?}")),
    }
}

/// Assert the four join paths — in-RAM `join`, `join_reference`, a
/// spilled `join`, and a spilled [`SessionStream`] drain — agree on
/// identical record streams: same dataset bytes for Ok, same error for
/// Err.
fn assert_spill_equivalent(
    metas: &[SessionMeta],
    players: &[PlayerChunkRecord],
    cdns: &[CdnChunkRecord],
    threshold: usize,
) {
    let reference = support::join_reference(metas, players, cdns);
    let fast = Dataset::join(in_ram_sink(metas, players, cdns));
    let (sink_a, dir_a) = spilled_sink(metas, players, cdns, threshold);
    let spilled_segments = sink_a.sealed_segments().len();
    let spilled = Dataset::join(sink_a);
    let (sink_b, dir_b) = spilled_sink(metas, players, cdns, threshold);
    let streamed = drain_stream(sink_b);

    let want = outcome_json("reference", &reference);
    for (label, got) in [
        ("assemble", &fast),
        ("assemble-spilled", &spilled),
        ("session-stream", &streamed),
    ] {
        assert_eq!(
            outcome_json(label, got),
            want,
            "{label} diverges from join_reference ({spilled_segments} segments sealed)"
        );
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Engine-shaped emission — adjacent player/CDN pushes, contiguous
    /// chunk ids, dense session ids — through a genuinely-spilling sink.
    #[test]
    fn engine_shaped_spill_matches_reference(
        sessions in proptest::collection::vec((0u32..15, any::<bool>()), 1..30),
        threshold in 4usize..64,
    ) {
        let mut metas = Vec::new();
        let mut players = Vec::new();
        let mut cdns = Vec::new();
        for (id, &(chunks, aborted)) in sessions.iter().enumerate() {
            let id = id as u64;
            metas.push(meta(id));
            let n = if aborted { chunks / 2 } else { chunks };
            for c in 0..n {
                players.push(player(id, c));
                cdns.push(cdn(id, c));
            }
        }
        assert_spill_equivalent(&metas, &players, &cdns, threshold);
    }

    /// Shuffled replays: spilled segments each hold a sorted run of an
    /// arbitrary key subset, so segment ranges overlap and the k-way merge
    /// does real work.
    #[test]
    fn shuffled_spill_matches_reference(
        sessions in proptest::collection::vec(1u32..10, 1..20),
        pseed in any::<u64>(),
        cseed in any::<u64>(),
        threshold in 4usize..32,
    ) {
        let mut metas = Vec::new();
        let mut players = Vec::new();
        let mut cdns = Vec::new();
        for (id, &chunks) in sessions.iter().enumerate() {
            let id = id as u64;
            metas.push(meta(id));
            for c in 0..chunks {
                players.push(player(id, c));
                cdns.push(cdn(id, c));
            }
        }
        mix(&mut players, pseed);
        mix(&mut cdns, cseed);
        assert_spill_equivalent(&metas, &players, &cdns, threshold);
    }

    /// Single-fault streams — a dropped CDN record, dropped metadata, a
    /// duplicated record, or a sparse id space — must fail (or degrade)
    /// identically through all four paths. Duplicates can also make a
    /// flush non-strictly-ascending, exercising the seal-failure
    /// keep-rows-in-RAM path under an otherwise healthy filesystem.
    #[test]
    fn faulted_spill_matches_reference(
        sessions in proptest::collection::vec(1u32..8, 1..12),
        fault in 0u8..5,
        pick in any::<u64>(),
        stride in 1u64..1000,
        threshold in 4usize..32,
    ) {
        let mut metas = Vec::new();
        let mut players = Vec::new();
        let mut cdns = Vec::new();
        for (i, &chunks) in sessions.iter().enumerate() {
            let id = i as u64 * stride;
            metas.push(meta(id));
            for c in 0..chunks {
                players.push(player(id, c));
                cdns.push(cdn(id, c));
            }
        }
        match fault {
            0 => { // drop a CDN record: orphan player
                let i = (pick % cdns.len() as u64) as usize;
                cdns.remove(i);
            }
            1 => { // drop a session's metadata
                let i = (pick % metas.len() as u64) as usize;
                metas.remove(i);
            }
            2 => { // duplicate a CDN record
                let i = (pick % cdns.len() as u64) as usize;
                let dup = cdns[i].clone();
                cdns.push(dup);
            }
            3 => { // duplicate a player record
                let i = (pick % players.len() as u64) as usize;
                let dup = players[i].clone();
                players.push(dup);
            }
            _ => {} // sparse ids alone (stride > 1 exercises the guard)
        }
        assert_spill_equivalent(&metas, &players, &cdns, threshold);
    }
}

// ---------------------------------------------------------------------------
// 3. Crash-point sweep over segment sealing
// ---------------------------------------------------------------------------

/// Deterministic engine-shaped workload big enough for several flushes at
/// threshold 32.
fn sweep_records() -> (
    Vec<SessionMeta>,
    Vec<PlayerChunkRecord>,
    Vec<CdnChunkRecord>,
) {
    let mut metas = Vec::new();
    let mut players = Vec::new();
    let mut cdns = Vec::new();
    for id in 0..20u64 {
        metas.push(meta(id));
        for c in 0..6 {
            players.push(player(id, c));
            cdns.push(cdn(id, c));
        }
    }
    (metas, players, cdns)
}

fn spill_with_storage(
    metas: &[SessionMeta],
    players: &[PlayerChunkRecord],
    cdns: &[CdnChunkRecord],
    dir: &Path,
    storage: Storage,
) -> TelemetrySink {
    let mut s = TelemetrySink::with_spill(
        metas.len(),
        SpillSpec {
            dir: dir.to_path_buf(),
            threshold: 32,
            shard: 0,
            storage,
        },
    );
    feed(&mut s, metas, players, cdns);
    s.seal();
    s
}

/// Crash the storage at every operation a clean spill run performs. At
/// every crash point: the sink records a spill error and keeps the rows
/// (degrade, don't die), every segment it still claims sealed
/// fingerprint-validates, no torn `.slseg` file is visible on disk, and
/// the join still produces the exact reference dataset bytes.
#[test]
fn crash_at_every_seal_failpoint_degrades_without_data_loss() {
    let (metas, players, cdns) = sweep_records();
    let reference = support::join_reference(&metas, &players, &cdns).expect("reference join");
    let want = serde_json::to_string(&reference).expect("serialize reference");

    // Clean run on a counting handle: enumerates the failpoints and
    // pins down the expected segment count.
    let counting = Storage::counting();
    let clean_dir = scratch();
    let clean = spill_with_storage(&metas, &players, &cdns, &clean_dir, counting.clone());
    let total_ops = counting.ops_seen();
    assert!(
        total_ops >= 6,
        "sealing several segments should exercise many failpoints, saw {total_ops}"
    );
    assert!(
        clean.sealed_segments().len() >= 2,
        "expected multiple flushes, got {}",
        clean.sealed_segments().len()
    );
    assert!(clean.spill_errors().is_empty());
    let got = serde_json::to_string(&Dataset::join(clean).expect("clean spilled join"))
        .expect("serialize");
    assert_eq!(got, want, "clean spilled join diverges from reference");
    std::fs::remove_dir_all(&clean_dir).ok();

    for at in 1..=total_ops {
        let dir = scratch();
        let storage = Storage::faulty_soft(StorageFaultPlan::crash_at(at));
        let sink = spill_with_storage(&metas, &players, &cdns, &dir, storage.clone());

        assert!(storage.is_dead(), "crash at op {at} never fired");
        assert!(
            !sink.spill_errors().is_empty(),
            "crash at op {at}: dead storage must surface a spill error"
        );

        // Whatever the sink still claims sealed survived the crash whole.
        for m in sink.sealed_segments() {
            validate_segment(m)
                .unwrap_or_else(|e| panic!("crash at op {at}: sealed segment invalid: {e}"));
        }

        // And nothing torn is visible: every `.slseg` file in the spill
        // dir is complete (header, groups, and footer all verify). A
        // complete file *unclaimed* by the manifest is legal — the crash
        // can land between the rename and the directory fsync, in which
        // case the rows were also kept in RAM and the file is simply an
        // orphan the join ignores.
        for entry in std::fs::read_dir(&dir).expect("read spill dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) == Some("slseg") {
                read_segment(&path).unwrap_or_else(|e| {
                    panic!(
                        "crash at op {at}: torn segment visible at {}: {e}",
                        path.display()
                    )
                });
            }
        }

        // Degrade, don't die: the join still sees every record.
        let ds =
            Dataset::join(sink).unwrap_or_else(|e| panic!("crash at op {at}: join failed: {e:?}"));
        let got = serde_json::to_string(&ds).expect("serialize");
        assert_eq!(
            got, want,
            "crash at op {at}: dataset diverges from reference"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// 4. The in-place seal writes what collect-sort-unzip wrote
// ---------------------------------------------------------------------------

/// The seal's sort as it was before it sorted in place: drain both arenas
/// into a `Vec` of pairs, sort it by key, unzip it. The reference the
/// in-place seal is held to.
fn collect_sort_unzip(
    player: &mut Vec<PlayerChunkRecord>,
    cdn: &mut Vec<CdnChunkRecord>,
) -> (Vec<PlayerChunkRecord>, Vec<CdnChunkRecord>) {
    let mut pairs: Vec<(PlayerChunkRecord, CdnChunkRecord)> =
        player.drain(..).zip(cdn.drain(..)).collect();
    pairs.sort_unstable_by_key(|a| (a.0.session, a.0.chunk));
    pairs.into_iter().unzip()
}

/// Engine-shaped emission order: each session's chunks ascend, and
/// `picks` chooses which in-flight session emits next, so sessions
/// interleave the way concurrent sessions do in one shard.
fn interleaved(chunks: &[u32], picks: &[usize]) -> Vec<(u64, u32)> {
    let mut next = vec![0u32; chunks.len()];
    let mut live: Vec<usize> = (0..chunks.len()).filter(|&s| chunks[s] > 0).collect();
    let mut keys = Vec::new();
    for &pick in picks.iter().cycle() {
        if live.is_empty() {
            break;
        }
        let at = pick % live.len();
        let s = live[at];
        keys.push((s as u64, next[s]));
        next[s] += 1;
        if next[s] == chunks[s] {
            live.remove(at);
        }
    }
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shuffled, engine-shaped arenas through a spilling sink at any
    /// threshold — below the row count, so cleared arenas are refilled
    /// and sealed again, or above it, so only the final seal fires. Every
    /// segment must be byte-identical to the one the reference sort's
    /// rows make, in the same order.
    #[test]
    fn in_place_seal_writes_the_collect_sort_unzip_rows(
        chunks in proptest::collection::vec(0u32..12, 1..24),
        picks in proptest::collection::vec(any::<usize>(), 1..64),
        tcp_lens in proptest::collection::vec(0usize..3, 1..16),
        threshold in 1usize..160,
    ) {
        let rows: Vec<(PlayerChunkRecord, CdnChunkRecord)> = interleaved(&chunks, &picks)
            .into_iter()
            .enumerate()
            .map(|(i, (id, c))| {
                let mut r = cdn(id, c);
                r.tcp.truncate(tcp_lens[i % tcp_lens.len()]);
                (player(id, c), r)
            })
            .collect();

        let dir = scratch();
        let mut sink = TelemetrySink::with_spill(
            chunks.len(),
            SpillSpec {
                dir: dir.join("sink"),
                threshold,
                shard: 0,
                storage: Storage::real(),
            },
        );
        std::fs::create_dir_all(dir.join("sink")).expect("sink dir");
        // The reference arenas fill in step with the sink's and are
        // sorted whenever the sink's flush condition holds.
        let (mut ref_player, mut ref_cdn) = (Vec::new(), Vec::new());
        let mut want = Vec::new();
        for (p, c) in &rows {
            sink.player_chunk(p.clone());
            sink.cdn_chunk(c.clone());
            ref_player.push(p.clone());
            ref_cdn.push(c.clone());
            if ref_player.len() >= threshold {
                want.push(collect_sort_unzip(&mut ref_player, &mut ref_cdn));
            }
        }
        sink.seal();
        if !ref_player.is_empty() {
            want.push(collect_sort_unzip(&mut ref_player, &mut ref_cdn));
        }

        prop_assert!(sink.spill_errors().is_empty(), "{:?}", sink.spill_errors());
        let sealed = sink.sealed_segments();
        prop_assert_eq!(sealed.len(), want.len());
        for (seq, (meta, (p, c))) in sealed.iter().zip(&want).enumerate() {
            let path = dir.join(format!("ref-{seq}.slseg"));
            let reference = write_segment(&Storage::real(), &path, 0, seq as u32, p, c)
                .expect("write reference segment");
            prop_assert_eq!(meta.seq, reference.seq);
            prop_assert_eq!(meta.rows, reference.rows);
            prop_assert_eq!(meta.fingerprint, reference.fingerprint);
            let got = std::fs::read(&meta.path).expect("read sealed segment");
            let expected = std::fs::read(&path).expect("read reference segment");
            prop_assert!(got == expected, "segment {} differs from the reference", seq);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
