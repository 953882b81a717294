//! The CSV exports, byte for byte.
//!
//! `streamlab run` streams `chunks.csv` and `sessions.csv` through
//! `atomic_write_with`, whose writer buffers the staging file. The files
//! it publishes must hold exactly the bytes the exporters produce, across
//! the many buffer flushes a real export takes. And the exporters, whose
//! floats skip `format!`'s exact conversion where one product settles
//! them, must write exactly what the plain `writeln!` writers in
//! [`reference`] write: on simulated runs, and on hand-built records
//! that reach the values a run rarely prints (NaN, infinity, quoted
//! organization names).

use std::fs;
use std::sync::OnceLock;

use streamlab::net::TcpInfo;
use streamlab::sim::{SimDuration, SimTime};
use streamlab::supervisor::atomic_write_with;
use streamlab::telemetry::export;
use streamlab::telemetry::records::{
    CacheOutcome, CdnChunkRecord, ChunkTruth, PlayerChunkRecord, SessionMeta,
};
use streamlab::telemetry::{Dataset, TelemetrySink};
use streamlab::workload::{
    AccessClass, Browser, ChunkIndex, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId,
    SessionId, VideoId,
};
use streamlab::{RunOutput, Simulation, SimulationConfig};

/// The exporters with every float printed by `format!` itself: the
/// definition of the CSV bytes the exporters must reproduce.
mod reference {
    use std::io::{self, Write};
    use streamlab::telemetry::export::{CHUNK_CSV_HEADER, SESSION_CSV_HEADER};
    use streamlab::telemetry::records::CacheOutcome;
    use streamlab::telemetry::Dataset;

    fn csv_quote(s: &str) -> String {
        format!("\"{}\"", s.replace('"', "\"\""))
    }

    pub fn write_chunks_csv<W: Write>(ds: &Dataset, mut w: W) -> io::Result<()> {
        writeln!(w, "{CHUNK_CSV_HEADER}")?;
        for (_, c) in ds.chunks() {
            let p = &c.player;
            let d = &c.cdn;
            let tcp = d.last_tcp();
            writeln!(
                w,
                "{},{},{},{:.6},{:.3},{:.3},{:.3},{:.4},{},{:.3},{},{:.2},{},{},{:.3},{:.3},{:.3},{:.3},{},{},{},{},{},{:.3},{:.3},{},{:.3},{:.3},{}",
                p.session.raw(),
                p.chunk.raw(),
                p.bitrate_kbps,
                p.requested_at.as_secs_f64(),
                p.d_fb.as_millis_f64(),
                p.d_lb.as_millis_f64(),
                p.chunk_secs,
                p.perf_score(),
                p.buf_count,
                p.buf_dur.as_secs_f64(),
                p.visible,
                p.avg_fps,
                p.dropped_frames,
                p.frames,
                d.d_wait.as_millis_f64(),
                d.d_open.as_millis_f64(),
                d.d_read.as_millis_f64(),
                d.d_backend.as_millis_f64(),
                match d.cache {
                    CacheOutcome::RamHit => "ram",
                    CacheOutcome::DiskHit => "disk",
                    CacheOutcome::Miss => "miss",
                },
                d.retry_fired,
                d.size_bytes,
                d.segments,
                d.retx_segments,
                tcp.map(|t| t.srtt.as_millis_f64()).unwrap_or(f64::NAN),
                tcp.map(|t| t.rttvar.as_millis_f64()).unwrap_or(f64::NAN),
                tcp.map(|t| t.cwnd).unwrap_or(0),
                p.truth.dds.as_millis_f64(),
                p.truth.rtt0.as_millis_f64(),
                p.truth.transient_buffered,
            )?;
        }
        Ok(())
    }

    pub fn write_sessions_csv<W: Write>(ds: &Dataset, mut w: W) -> io::Result<()> {
        writeln!(w, "{SESSION_CSV_HEADER}")?;
        for s in &ds.sessions {
            let m = &s.meta;
            writeln!(
                w,
                "{},{},{},{:.1},{},{},{},{:?},{:?},{},{},{},{:.1},{:.3},{:.3},{},{:.0},{:.5},{},{:.3},{},{},{}",
                m.session.raw(),
                m.prefix.raw(),
                m.video.raw(),
                m.video_secs,
                m.os.label(),
                m.browser.label(),
                csv_quote(&m.org),
                m.org_kind,
                m.access,
                m.region.is_us(),
                m.pop.raw(),
                m.server.raw(),
                m.distance_km,
                m.arrival.as_secs_f64(),
                m.startup_delay_s,
                s.chunks.len(),
                s.avg_bitrate_kbps(),
                s.retx_rate(),
                s.loss_free(),
                s.rebuffer_rate_pct(),
                m.gpu,
                m.visible,
                m.proxied,
            )?;
        }
        Ok(())
    }
}

/// The tiny seed-7 run, shared by the tests of this binary.
fn tiny_run() -> &'static RunOutput {
    static OUT: OnceLock<RunOutput> = OnceLock::new();
    OUT.get_or_init(|| {
        Simulation::new(SimulationConfig::tiny(7))
            .run()
            .expect("tiny run")
    })
}

/// Both CSVs of `ds` from the exporters and from [`reference`], each
/// pair required to be byte-identical.
fn assert_matches_reference(ds: &Dataset, what: &str) -> (Vec<u8>, Vec<u8>) {
    let (mut chunks, mut want_chunks) = (Vec::new(), Vec::new());
    export::write_chunks_csv(ds, &mut chunks).expect("chunks into memory");
    reference::write_chunks_csv(ds, &mut want_chunks).expect("reference chunks");
    let (mut sessions, mut want_sessions) = (Vec::new(), Vec::new());
    export::write_sessions_csv(ds, &mut sessions).expect("sessions into memory");
    reference::write_sessions_csv(ds, &mut want_sessions).expect("reference sessions");
    for (name, got, want) in [
        ("chunks.csv", &chunks, &want_chunks),
        ("sessions.csv", &sessions, &want_sessions),
    ] {
        // Not `assert_eq!`: a failure would print megabytes. Name the
        // first differing line instead.
        if got != want {
            let got = String::from_utf8_lossy(got);
            let want = String::from_utf8_lossy(want);
            let (line, (g, w)) = got
                .lines()
                .zip(want.lines())
                .enumerate()
                .find(|(_, (g, w))| g != w)
                .unwrap_or((0, ("<length differs>", "")));
            panic!(
                "{what}: {name} line {} differs:\n  got  {g}\n  want {w}",
                line + 1
            );
        }
    }
    (chunks, sessions)
}

#[test]
fn csv_exports_through_atomic_writes_match_in_memory_exports() {
    let out = tiny_run();
    let dir = std::env::temp_dir().join(format!("streamlab-csv-export-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");

    let mut chunks = Vec::new();
    export::write_chunks_csv(&out.dataset, &mut chunks).expect("chunks into memory");
    let mut sessions = Vec::new();
    export::write_sessions_csv(&out.dataset, &mut sessions).expect("sessions into memory");
    // Tiny's chunk export spans many 64 KiB buffers.
    assert!(chunks.len() > 16 * 64 * 1024, "{} bytes", chunks.len());

    let chunks_path = dir.join("chunks.csv");
    atomic_write_with(&chunks_path, |w| export::write_chunks_csv(&out.dataset, w))
        .expect("chunks.csv");
    let sessions_path = dir.join("sessions.csv");
    atomic_write_with(&sessions_path, |w| {
        export::write_sessions_csv(&out.dataset, w)
    })
    .expect("sessions.csv");

    for (path, expected) in [(&chunks_path, &chunks), (&sessions_path, &sessions)] {
        // Not `assert_eq!`: a failure would print megabytes.
        assert!(
            fs::read(path).unwrap() == *expected,
            "{} differs",
            path.display()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn csv_exports_match_the_reference_writers_on_simulated_runs() {
    let (chunks, _) = assert_matches_reference(&tiny_run().dataset, "tiny seed 7");
    assert!(chunks.len() > 16 * 64 * 1024, "{} bytes", chunks.len());

    let small = Simulation::new(SimulationConfig::small(2))
        .run()
        .expect("small run");
    assert_matches_reference(&small.dataset, "small seed 2");
}

/// A session per combination of labels, with the values a simulated run
/// rarely or never prints: a chunk with no TCP snapshot (NaN `srtt_ms`
/// and `rttvar_ms`), an instant chunk (infinite `perf_score`), a NaN
/// startup delay, negative zero, exact decimal ties, and organization
/// names with quotes and commas.
fn edge_dataset() -> Dataset {
    const OSES: [Os; 3] = [Os::Windows, Os::MacOs, Os::Linux];
    const BROWSERS: [Browser; 9] = [
        Browser::Chrome,
        Browser::Firefox,
        Browser::InternetExplorer,
        Browser::Edge,
        Browser::Safari,
        Browser::Opera,
        Browser::Yandex,
        Browser::Vivaldi,
        Browser::SeaMonkey,
    ];
    const ACCESS: [AccessClass; 5] = [
        AccessClass::Cable,
        AccessClass::Fiber,
        AccessClass::Dsl,
        AccessClass::EnterpriseLan,
        AccessClass::International,
    ];
    const CACHE: [CacheOutcome; 3] = [
        CacheOutcome::RamHit,
        CacheOutcome::DiskHit,
        CacheOutcome::Miss,
    ];
    let startup = [
        0.8,
        f64::NAN,
        0.0005,
        2.5,
        -0.0,
        f64::INFINITY,
        1e-300,
        1.0625,
    ];
    let orgs = [
        "Org \"quoted\", Inc",
        "Comma, Commas, LLC",
        "\"\"",
        "",
        "plain",
    ];

    let mut sink = TelemetrySink::new();
    for id in 0..18u64 {
        let i = id as usize;
        sink.session(SessionMeta {
            session: SessionId(id),
            prefix: PrefixId(id * 7),
            video: VideoId(id % 4),
            video_secs: 60.25 + id as f64 * 0.05,
            os: OSES[i % OSES.len()],
            browser: BROWSERS[i % BROWSERS.len()],
            org: format!("{} {id}", orgs[i % orgs.len()]),
            org_kind: if id % 2 == 0 {
                OrgKind::Residential
            } else {
                OrgKind::Enterprise
            },
            access: ACCESS[i % ACCESS.len()],
            region: if id % 3 == 0 {
                Region::UnitedStates
            } else {
                Region::Europe
            },
            location: GeoPoint {
                lat: 40.0,
                lon: -75.0,
            },
            pop: PopId(id % 5),
            server: ServerId(id % 11),
            distance_km: 0.05 + id as f64 * 12.25,
            arrival: SimTime::from_nanos(id * 1_000_000_500),
            startup_delay_s: startup[i % startup.len()],
            proxied: id % 4 == 1,
            ua_mismatch: false,
            gpu: id % 2 == 1,
            visible: id % 5 != 0,
        });
        for chunk in 0..3u32 {
            let k = u64::from(chunk) + 3 * id;
            // Session 0 has an instant chunk: zero D_FB and D_LB.
            let instant = id == 0 && chunk == 1;
            sink.player_chunk(PlayerChunkRecord {
                session: SessionId(id),
                chunk: ChunkIndex(chunk),
                bitrate_kbps: 235 + 100 * chunk,
                requested_at: SimTime::from_nanos(k * 6_000_000_000 + 500),
                d_fb: SimDuration::from_nanos(if instant { 0 } else { 120_000_500 + k }),
                d_lb: SimDuration::from_nanos(if instant { 0 } else { 7_999_999 * k }),
                chunk_secs: if chunk == 2 { 0.0625 } else { 6.0 },
                buf_count: chunk,
                buf_dur: SimDuration::from_nanos(2_500_000 * u64::from(chunk)),
                visible: chunk != 1,
                avg_fps: [29.5, 0.125, 30.005][chunk as usize],
                dropped_frames: 3 * chunk,
                frames: 180,
                truth: ChunkTruth {
                    dds: SimDuration::from_nanos(1_500 * k),
                    rtt0: SimDuration::from_nanos(40_000_500),
                    transient_buffered: chunk == 2,
                },
            });
            // Every third session's first chunk has no TCP snapshot.
            let tcp = if id % 3 == 0 && chunk == 0 {
                vec![]
            } else {
                vec![TcpInfo {
                    at: SimTime::from_nanos(k),
                    srtt: SimDuration::from_nanos(31_250_000 + k * 500),
                    rttvar: SimDuration::from_nanos(4_000_500 * k),
                    cwnd: 10 + chunk,
                    retx_total: 0,
                    segs_out_total: 540,
                    mss: 1460,
                }]
            };
            sink.cdn_chunk(CdnChunkRecord {
                session: SessionId(id),
                chunk: ChunkIndex(chunk),
                d_wait: SimDuration::from_nanos(200_500 * k),
                d_open: SimDuration::from_nanos(150_000),
                d_read: SimDuration::from_nanos(2_000_000 + k),
                d_backend: SimDuration::from_nanos(if chunk == 1 { 80_000_500 } else { 0 }),
                cache: CACHE[(i + chunk as usize) % CACHE.len()],
                retry_fired: chunk == 1,
                size_bytes: 787_500 + k,
                served_at: SimTime::from_nanos(k),
                segments: 540,
                retx_segments: if id % 2 == 0 { 0 } else { chunk * 7 },
                tcp,
            });
        }
    }
    Dataset::join(sink).expect("join")
}

#[test]
fn csv_exports_match_the_reference_writers_on_edge_records() {
    let ds = edge_dataset();
    let (chunks, sessions) = assert_matches_reference(&ds, "hand-built records");
    let chunks = String::from_utf8(chunks).unwrap();
    let sessions = String::from_utf8(sessions).unwrap();
    // The edge values are really there.
    assert!(chunks.contains(",inf,"), "no infinite perf_score");
    assert!(
        chunks.contains(",NaN,NaN,0,"),
        "no chunk without a snapshot"
    );
    assert!(sessions.contains(",NaN,"), "no NaN startup delay");
    assert!(sessions.contains(",-0.000,"), "no negative zero");
    assert!(sessions.contains("\"Org \"\"quoted\"\", Inc 0\""));
    assert!(sessions.contains("\"Comma, Commas, LLC 1\""));
}
