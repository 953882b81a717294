//! Property: the indexed fast-path join behind [`Dataset::join`] is
//! observationally identical to the naive hash-join reference
//! ([`Dataset::join_reference`]) on every input — well-formed engine
//! output, shuffled replays, aborted sessions, and malformed sinks alike.
//!
//! The fast path validates the engine's emission invariants (player/CDN
//! records aligned 1:1, per-session chunk ids contiguous from zero, dense
//! session ids) and silently falls back to the reference join when any
//! fails, so the equivalence must hold — Ok for Ok, same dataset bytes;
//! Err for Err, same [`JoinError`] — across the whole input space, not
//! just the happy path.

use proptest::prelude::*;
use streamlab_net::TcpInfo;
use streamlab_sim::{SimDuration, SimTime};
use streamlab_telemetry::records::{
    CacheOutcome, CdnChunkRecord, ChunkTruth, PlayerChunkRecord, SessionMeta,
};
use streamlab_telemetry::{Dataset, TelemetrySink};
use streamlab_workload::{
    AccessClass, Browser, ChunkIndex, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId,
    SessionId, VideoId,
};

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

/// Build two identical sinks from the same record streams: one for the
/// production `assemble`, one for the reference join.
fn twin_sinks(
    metas: &[SessionMeta],
    players: &[PlayerChunkRecord],
    cdns: &[CdnChunkRecord],
) -> (TelemetrySink, TelemetrySink) {
    let mut a = TelemetrySink::new();
    let mut b = TelemetrySink::new();
    for m in metas {
        a.session(m.clone());
        b.session(m.clone());
    }
    for p in players {
        a.player_chunk(p.clone());
        b.player_chunk(p.clone());
    }
    for c in cdns {
        a.cdn_chunk(c.clone());
        b.cdn_chunk(c.clone());
    }
    (a, b)
}

/// Assert `join` ≡ `join_reference` on identical sinks. Datasets are
/// compared via their serialized form (full structural equality, no
/// hand-picked fields); errors must match exactly.
fn assert_equivalent(
    metas: &[SessionMeta],
    players: &[PlayerChunkRecord],
    cdns: &[CdnChunkRecord],
) {
    let (fast_sink, ref_sink) = twin_sinks(metas, players, cdns);
    let fast = Dataset::join(fast_sink);
    let reference = Dataset::join_reference(ref_sink);
    match (fast, reference) {
        (Ok(f), Ok(r)) => {
            let fj = serde_json::to_string(&f).expect("serialize");
            let rj = serde_json::to_string(&r).expect("serialize");
            assert_eq!(fj, rj, "datasets diverge");
        }
        (Err(f), Err(r)) => assert_eq!(f, r, "errors diverge"),
        (f, r) => panic!(
            "outcomes diverge: join={:?} reference={:?}",
            f.map(|d| d.sessions.len()),
            r.map(|d| d.sessions.len())
        ),
    }
}

proptest! {
    /// Engine-shaped emission (adjacent player/CDN pushes, contiguous
    /// chunk ids, dense session ids) — the indexed fast path itself.
    /// Aborted sessions truncate the chunk stream mid-session, exactly
    /// like an abandoned player: still contiguous from zero, just short.
    #[test]
    fn engine_shaped_streams_match_reference(
        sessions in proptest::collection::vec((0u32..15, any::<bool>()), 1..30),
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
        assert_equivalent(&metas, &players, &cdns);
    }

    /// Out-of-order replays: the same records arriving shuffled (players
    /// and CDN streams shuffled independently) must still produce the
    /// identical dataset — the fast path rejects the shape and the
    /// fallback reorders.
    #[test]
    fn shuffled_streams_match_reference(
        sessions in proptest::collection::vec(1u32..10, 1..20),
        pseed in any::<u64>(),
        cseed in any::<u64>(),
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
        assert_equivalent(&metas, &players, &cdns);
    }

    /// Faulted sinks — dropped CDN records, dropped metadata, duplicated
    /// records, sparse session-id spaces — must fail (or degrade)
    /// identically through both paths.
    #[test]
    fn faulted_streams_match_reference(
        sessions in proptest::collection::vec(1u32..8, 1..12),
        fault in 0u8..5,
        pick in any::<u64>(),
        stride in 1u64..1000,
    ) {
        let mut metas = Vec::new();
        let mut players = Vec::new();
        let mut cdns = Vec::new();
        for (i, &chunks) in sessions.iter().enumerate() {
            // Fault 4: widen the id space so the density guard trips.
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
        assert_equivalent(&metas, &players, &cdns);
    }
}
