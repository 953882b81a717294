//! Property-based tests of the beacon join: any *consistent* set of
//! streams joins totally; any inconsistency is rejected with the right
//! error.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use streamlab_net::TcpInfo;
use streamlab_sim::{SimDuration, SimTime};
use streamlab_supervisor::Storage;
use streamlab_telemetry::records::{
    CacheOutcome, CdnChunkRecord, ChunkTruth, PlayerChunkRecord, SessionMeta,
};
use streamlab_telemetry::{Dataset, JoinError, SpillSpec, TelemetrySink};
use streamlab_workload::{
    AccessClass, Browser, ChunkIndex, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId,
    SessionId, VideoId,
};

fn meta(id: u64, ua_mismatch: bool) -> SessionMeta {
    SessionMeta {
        session: SessionId(id),
        prefix: PrefixId(id % 5),
        video: VideoId(id % 3),
        video_secs: 60.0,
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
        pop: PopId(0),
        server: ServerId(1),
        distance_km: 30.0,
        // Spread arrivals over hours so the §3 volume signal (prefix
        // playing more video-minutes than wall-clock minutes) stays out
        // of the way; only the ua-mismatch signal is under test here.
        arrival: SimTime::from_secs(3_600 + id * 1_800),
        startup_delay_s: 1.0,
        proxied: ua_mismatch,
        ua_mismatch,
        gpu: true,
        visible: true,
    }
}

fn player(id: u64, c: u32) -> PlayerChunkRecord {
    PlayerChunkRecord {
        session: SessionId(id),
        chunk: ChunkIndex(c),
        bitrate_kbps: 1050,
        requested_at: SimTime::from_secs(id + u64::from(c) * 6),
        d_fb: SimDuration::from_millis(100),
        d_lb: SimDuration::from_millis(800),
        chunk_secs: 6.0,
        buf_count: 0,
        buf_dur: SimDuration::ZERO,
        visible: true,
        avg_fps: 30.0,
        dropped_frames: 0,
        frames: 180,
        truth: ChunkTruth::default(),
    }
}

fn cdn(id: u64, c: u32) -> CdnChunkRecord {
    CdnChunkRecord {
        session: SessionId(id),
        chunk: ChunkIndex(c),
        d_wait: SimDuration::from_micros(200),
        d_open: SimDuration::from_micros(200),
        d_read: SimDuration::from_millis(2),
        d_backend: SimDuration::ZERO,
        cache: CacheOutcome::RamHit,
        retry_fired: false,
        size_bytes: 787_500,
        served_at: SimTime::from_secs(id),
        segments: 540,
        retx_segments: 0,
        tcp: vec![TcpInfo {
            at: SimTime::from_secs(id),
            srtt: SimDuration::from_millis(40),
            rttvar: SimDuration::from_millis(4),
            cwnd: 50,
            retx_total: 0,
            segs_out_total: 1000,
            mss: 1460,
        }],
    }
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh spill directory per case so parallel cases never share
/// segment files.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "streamlab-join-props-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// How a shard's sink holds its records when the join takes it as a run:
/// `0` all in RAM; `1` spilling every 4 rows and sealed, so every row is
/// in a segment; `2` spilling every 4 rows but never sealed, so the rows
/// past the last flush stay in RAM.
fn shard_sink(mode: u8, dir: &std::path::Path, shard: u32) -> TelemetrySink {
    if mode == 0 {
        return TelemetrySink::new();
    }
    TelemetrySink::with_spill(
        0,
        SpillSpec {
            dir: dir.to_path_buf(),
            threshold: 4,
            shard,
            storage: Storage::real(),
        },
    )
}

/// Seal the shard sinks whose mode asks for it (see [`shard_sink`]).
fn seal(shards: &mut [TelemetrySink], modes: &[u8]) {
    for (sink, &mode) in shards.iter_mut().zip(modes) {
        if mode == 1 {
            sink.seal();
        }
    }
}

proptest! {
    #[test]
    fn consistent_streams_join_totally(
        sessions in proptest::collection::vec((1u32..20, any::<bool>()), 1..25),
        shuffle_seed in any::<u64>(),
    ) {
        // Build consistent streams, then shuffle record order — the join
        // must not depend on arrival order.
        let mut player_records = Vec::new();
        let mut cdn_records = Vec::new();
        let mut metas = Vec::new();
        for (id, (chunks, proxied)) in sessions.iter().enumerate() {
            let id = id as u64;
            metas.push(meta(id, *proxied));
            for c in 0..*chunks {
                player_records.push(player(id, c));
                cdn_records.push(cdn(id, c));
            }
        }
        // Deterministic pseudo-shuffle (generic so each stream type can
        // use it).
        fn mix<T>(v: &mut [T], seed: u64) {
            let n = v.len();
            for i in 0..n {
                let j = (seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i as u64)
                    % n as u64) as usize;
                v.swap(i, j);
            }
        }
        mix(&mut player_records, shuffle_seed);
        mix(&mut cdn_records, shuffle_seed);
        mix(&mut metas, shuffle_seed);

        let mut sink = TelemetrySink::new();
        for m in metas {
            sink.session(m);
        }
        for r in player_records {
            sink.player_chunk(r);
        }
        for r in cdn_records {
            sink.cdn_chunk(r);
        }
        let expected_chunks: usize = sessions.iter().map(|(c, _)| *c as usize).sum();
        let ds = Dataset::join(sink).expect("consistent streams must join");
        prop_assert_eq!(ds.sessions.len(), sessions.len());
        prop_assert_eq!(ds.chunk_count(), expected_chunks);
        // Sessions sorted by id, chunks contiguous from 0.
        for (i, s) in ds.sessions.iter().enumerate() {
            prop_assert_eq!(s.meta.session, SessionId(i as u64));
            for (j, c) in s.chunks.iter().enumerate() {
                prop_assert_eq!(c.chunk().raw() as usize, j);
            }
        }
        // Proxy filter drops exactly the ua-mismatch sessions.
        let proxied = sessions.iter().filter(|(_, p)| *p).count();
        let filtered = ds.filter_proxies();
        prop_assert_eq!(filtered.filtered_proxy_sessions, proxied);
        prop_assert_eq!(filtered.sessions.len(), sessions.len() - proxied);
    }

    #[test]
    fn dropping_any_cdn_record_fails_the_join(
        n_sessions in 1u64..6,
        chunks in 1u32..6,
        drop_session in 0u64..6,
        drop_chunk in 0u32..6,
    ) {
        let drop_session = drop_session % n_sessions;
        let drop_chunk = drop_chunk % chunks;
        let mut sink = TelemetrySink::new();
        for id in 0..n_sessions {
            sink.session(meta(id, false));
            for c in 0..chunks {
                sink.player_chunk(player(id, c));
                if !(id == drop_session && c == drop_chunk) {
                    sink.cdn_chunk(cdn(id, c));
                }
            }
        }
        let err = Dataset::join(sink).expect_err("orphan player record");
        prop_assert_eq!(
            err,
            JoinError::OrphanPlayerRecord(SessionId(drop_session), ChunkIndex(drop_chunk))
        );
    }

    #[test]
    fn duplicating_any_cdn_record_fails_the_join(
        n_sessions in 1u64..6,
        chunks in 1u32..6,
        dup_session in 0u64..6,
        dup_chunk in 0u32..6,
    ) {
        let dup_session = dup_session % n_sessions;
        let dup_chunk = dup_chunk % chunks;
        let mut sink = TelemetrySink::new();
        for id in 0..n_sessions {
            sink.session(meta(id, false));
            for c in 0..chunks {
                sink.player_chunk(player(id, c));
                sink.cdn_chunk(cdn(id, c));
                if id == dup_session && c == dup_chunk {
                    sink.cdn_chunk(cdn(id, c));
                }
            }
        }
        let err = Dataset::join(sink).expect_err("duplicate record");
        prop_assert_eq!(
            err,
            JoinError::DuplicateKey(SessionId(dup_session), ChunkIndex(dup_chunk))
        );
    }

    /// The invariant the sharded simulation engine rests on: splitting the
    /// session set into per-shard sinks (any assignment of sessions to
    /// shards, each held in RAM, sealed into segments, or partly both,
    /// taken as runs in either shard order) must reproduce the
    /// unpartitioned in-RAM join exactly — same dataset bytes, same
    /// per-session chunk ordering, same total request count.
    #[test]
    fn any_partition_of_sessions_joins_identically(
        sessions in proptest::collection::vec((1u32..12, 0u8..8), 1..30),
        modes in proptest::collection::vec(0u8..3, 8),
        reverse_merge in any::<bool>(),
    ) {
        let n_shards = 1 + sessions.iter().map(|&(_, s)| s).max().unwrap_or(0) as usize;
        let dir = scratch();

        // Unpartitioned reference: every record in one sink.
        let mut reference = TelemetrySink::new();
        // Partitioned: each session's records go to its assigned shard.
        let mut shards: Vec<TelemetrySink> = (0..n_shards)
            .map(|i| shard_sink(modes[i], &dir, i as u32))
            .collect();
        for (id, &(chunks, shard)) in sessions.iter().enumerate() {
            let id = id as u64;
            reference.session(meta(id, false));
            shards[shard as usize].session(meta(id, false));
            for c in 0..chunks {
                reference.player_chunk(player(id, c));
                reference.cdn_chunk(cdn(id, c));
                shards[shard as usize].player_chunk(player(id, c));
                shards[shard as usize].cdn_chunk(cdn(id, c));
            }
        }

        seal(&mut shards, &modes);
        if reverse_merge {
            shards.reverse();
        }

        let expected = Dataset::join(reference).expect("reference join");
        let got = Dataset::join_runs(shards).expect("run join");
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(
            serde_json::to_string(&got).expect("serialize"),
            serde_json::to_string(&expected).expect("serialize")
        );

        prop_assert_eq!(got.sessions.len(), expected.sessions.len());
        prop_assert_eq!(got.chunk_count(), expected.chunk_count());
        let total_requests: usize = sessions.iter().map(|&(c, _)| c as usize).sum();
        prop_assert_eq!(got.chunk_count(), total_requests);
        for (a, b) in got.sessions.iter().zip(&expected.sessions) {
            prop_assert_eq!(a.meta.session, b.meta.session);
            prop_assert_eq!(a.chunks.len(), b.chunks.len());
            // Chunk ordering within the session is preserved: contiguous
            // indices from zero, in the same order as the reference.
            for (j, (ca, cb)) in a.chunks.iter().zip(&b.chunks).enumerate() {
                prop_assert_eq!(ca.chunk().raw() as usize, j);
                prop_assert_eq!(ca.chunk(), cb.chunk());
                prop_assert_eq!(ca.player.requested_at, cb.player.requested_at);
            }
        }
    }

    /// A `(session, chunk)` key held by two runs is a duplicate record,
    /// however each run holds its rows: the run join must report
    /// `DuplicateKey` for it, as the reference join does on one sink
    /// holding every record.
    #[test]
    fn a_key_in_two_runs_is_a_duplicate(
        sessions in proptest::collection::vec(1u32..8, 1..12),
        dup_session in any::<u64>(),
        dup_chunk in any::<u32>(),
        modes in proptest::collection::vec(0u8..3, 2),
    ) {
        let s = (dup_session % sessions.len() as u64) as usize;
        let c = dup_chunk % sessions[s];
        let dir = scratch();
        let mut reference = TelemetrySink::new();
        let mut shards = vec![shard_sink(modes[0], &dir, 0), shard_sink(modes[1], &dir, 1)];
        for (id, &chunks) in sessions.iter().enumerate() {
            let id = id as u64;
            for sink in [&mut reference, &mut shards[0]] {
                sink.session(meta(id, false));
                for c in 0..chunks {
                    sink.player_chunk(player(id, c));
                    sink.cdn_chunk(cdn(id, c));
                }
            }
        }
        // The second run holds one more copy of a chunk the first has.
        for sink in [&mut reference, &mut shards[1]] {
            sink.player_chunk(player(s as u64, c));
            sink.cdn_chunk(cdn(s as u64, c));
        }
        seal(&mut shards, &modes);

        let want = JoinError::DuplicateKey(SessionId(s as u64), ChunkIndex(c));
        prop_assert_eq!(Dataset::join_reference(reference).expect_err("duplicate"), want.clone());
        prop_assert_eq!(Dataset::join_runs(shards).expect_err("duplicate"), want);
        std::fs::remove_dir_all(&dir).ok();
    }
}
