//! Flat-file exporters: the joined dataset as CSV (one row per chunk or
//! per session) and JSON, for analysis outside Rust (pandas, R, gnuplot).
//!
//! CSV writing is implemented by hand — the fields are all numeric or
//! controlled identifiers, except the organization name, which is quoted
//! and escaped per RFC 4180. Every float is wrapped in `Fixed`, which
//! writes exactly the bytes `{:.p$}` writes for the precisions the files
//! use (`p` ≤ 6) but skips `format!`'s exact decimal conversion whenever
//! one `f64` product settles the digits (`fixed_digits` gives the
//! argument). Everything else (ties and near-ties, NaN, ±inf, −0.0,
//! negative and huge values) is written by `f64`'s own `Display`, so no
//! byte depends on which path a value took (DESIGN §13, "Exact
//! fixed-precision export").

use crate::dataset::Dataset;
use std::fmt;
use std::io::{self, Write};

/// `10^p` for the precisions [`Fixed`] settles itself, 0 to 6; exact in
/// `f64`.
const POW10: [f64; 7] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6];

/// Scaled values from 2^52 up are left to `format!`: there an `f64` has
/// no fraction left, and the product may have overflowed.
const SCALED_LIMIT: f64 = (1u64 << 52) as f64;

/// The integer whose digits `format!("{v:.prec$}")` prints (decimal point
/// `prec` digits from the right), when one `f64` product settles it.
///
/// `s = v·10^prec` is the exact product rounded once, so it lies within
/// half an ulp of it, and half an ulp of a normal `s` is at most `s·ε/2`
/// (a subnormal `s` lies far below the first half-integer). If `s` is
/// farther than `s·ε` from the half-integer nearest it, no rounding
/// boundary lies between `s` and the exact product, and both round to the
/// same integer. `None` sends the value to `format!`: ties and near-ties,
/// NaN, ±inf, −0.0, negative values and `s ≥ 2^52`.
fn fixed_digits(v: f64, prec: usize) -> Option<u64> {
    if !v.is_finite() || v.is_sign_negative() {
        return None;
    }
    let s = v * POW10[prec];
    if s >= SCALED_LIMIT {
        return None;
    }
    let whole = s.floor();
    let frac = s - whole;
    if (frac - 0.5).abs() <= s * f64::EPSILON {
        return None;
    }
    Some(whole as u64 + u64::from(frac > 0.5))
}

/// A float that prints exactly as the bare `f64` prints under a
/// `{:.p$}` spec: through [`fixed_digits`] when `p` ≤ 6 and the digits
/// are settled, and through `f64`'s `Display` otherwise. Only the
/// spec's precision is read; the exporters set no width or sign flag.
struct Fixed(f64);

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let settled = f
            .precision()
            .filter(|&p| p < POW10.len())
            .and_then(|p| fixed_digits(self.0, p).map(|n| (n, p)));
        let Some((mut n, point)) = settled else {
            return fmt::Display::fmt(&self.0, f);
        };
        // Filled from the right: at most 16 digits (n < 2^52) and the
        // point.
        let mut buf = [0u8; 24];
        let mut i = buf.len();
        for _ in 0..point {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        if point > 0 {
            i -= 1;
            buf[i] = b'.';
        }
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        f.write_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"))
    }
}

/// Quote a CSV field per RFC 4180 (always quoted; inner quotes doubled).
fn csv_quote(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}

/// Header of the per-chunk CSV.
pub const CHUNK_CSV_HEADER: &str = "session,chunk,bitrate_kbps,requested_at_s,d_fb_ms,d_lb_ms,\
chunk_secs,perf_score,buf_count,buf_dur_s,visible,avg_fps,dropped_frames,frames,\
d_wait_ms,d_open_ms,d_read_ms,d_backend_ms,cache,retry_fired,size_bytes,segments,retx,\
srtt_ms,rttvar_ms,cwnd,true_dds_ms,true_rtt0_ms,true_transient";

/// Write one row per chunk.
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
            Fixed(p.requested_at.as_secs_f64()),
            Fixed(p.d_fb.as_millis_f64()),
            Fixed(p.d_lb.as_millis_f64()),
            Fixed(p.chunk_secs),
            Fixed(p.perf_score()),
            p.buf_count,
            Fixed(p.buf_dur.as_secs_f64()),
            p.visible,
            Fixed(p.avg_fps),
            p.dropped_frames,
            p.frames,
            Fixed(d.d_wait.as_millis_f64()),
            Fixed(d.d_open.as_millis_f64()),
            Fixed(d.d_read.as_millis_f64()),
            Fixed(d.d_backend.as_millis_f64()),
            match d.cache {
                crate::records::CacheOutcome::RamHit => "ram",
                crate::records::CacheOutcome::DiskHit => "disk",
                crate::records::CacheOutcome::Miss => "miss",
            },
            d.retry_fired,
            d.size_bytes,
            d.segments,
            d.retx_segments,
            Fixed(tcp.map(|t| t.srtt.as_millis_f64()).unwrap_or(f64::NAN)),
            Fixed(tcp.map(|t| t.rttvar.as_millis_f64()).unwrap_or(f64::NAN)),
            tcp.map(|t| t.cwnd).unwrap_or(0),
            Fixed(p.truth.dds.as_millis_f64()),
            Fixed(p.truth.rtt0.as_millis_f64()),
            p.truth.transient_buffered,
        )?;
    }
    Ok(())
}

/// Header of the per-session CSV.
pub const SESSION_CSV_HEADER: &str = "session,prefix,video,video_secs,os,browser,org,org_kind,\
access,region_us,pop,server,distance_km,arrival_s,startup_s,chunks,avg_bitrate_kbps,\
retx_rate,loss_free,rebuffer_rate_pct,gpu,visible,proxied";

/// Write one row per session.
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
            Fixed(m.video_secs),
            m.os.label(),
            m.browser.label(),
            csv_quote(&m.org),
            m.org_kind,
            m.access,
            m.region.is_us(),
            m.pop.raw(),
            m.server.raw(),
            Fixed(m.distance_km),
            Fixed(m.arrival.as_secs_f64()),
            Fixed(m.startup_delay_s),
            s.chunks.len(),
            Fixed(s.avg_bitrate_kbps()),
            Fixed(s.retx_rate()),
            s.loss_free(),
            Fixed(s.rebuffer_rate_pct()),
            m.gpu,
            m.visible,
            m.proxied,
        )?;
    }
    Ok(())
}

/// Serialize the whole dataset as JSON (large; prefer the CSVs for bulk
/// work).
pub fn write_json<W: Write>(ds: &Dataset, w: W) -> serde_json::Result<()> {
    serde_json::to_writer(w, ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TelemetrySink;
    use crate::records::{
        CacheOutcome, CdnChunkRecord, ChunkTruth, PlayerChunkRecord, SessionMeta,
    };
    use streamlab_sim::{SimDuration, SimTime};
    use streamlab_workload::{
        AccessClass, Browser, ChunkIndex, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId,
        SessionId, VideoId,
    };

    fn tiny_dataset() -> Dataset {
        let mut sink = TelemetrySink::new();
        for id in 0..3u64 {
            sink.session(SessionMeta {
                session: SessionId(id),
                prefix: PrefixId(id),
                video: VideoId(1),
                video_secs: 60.0,
                os: Os::Windows,
                browser: Browser::Chrome,
                org: format!("Org \"quoted\", Inc {id}"),
                org_kind: OrgKind::Residential,
                access: AccessClass::Cable,
                region: Region::UnitedStates,
                location: GeoPoint {
                    lat: 40.0,
                    lon: -75.0,
                },
                pop: PopId(0),
                server: ServerId(2),
                distance_km: 42.0,
                arrival: SimTime::from_secs(10),
                startup_delay_s: 0.8,
                proxied: false,
                ua_mismatch: false,
                gpu: true,
                visible: true,
            });
            for chunk in 0..4u32 {
                sink.player_chunk(PlayerChunkRecord {
                    session: SessionId(id),
                    chunk: ChunkIndex(chunk),
                    bitrate_kbps: 1050,
                    requested_at: SimTime::from_secs(10 + u64::from(chunk) * 6),
                    d_fb: SimDuration::from_millis(120),
                    d_lb: SimDuration::from_millis(800),
                    chunk_secs: 6.0,
                    buf_count: 0,
                    buf_dur: SimDuration::ZERO,
                    visible: true,
                    avg_fps: 29.5,
                    dropped_frames: 3,
                    frames: 180,
                    truth: ChunkTruth::default(),
                });
                sink.cdn_chunk(CdnChunkRecord {
                    session: SessionId(id),
                    chunk: ChunkIndex(chunk),
                    d_wait: SimDuration::from_micros(200),
                    d_open: SimDuration::from_micros(150),
                    d_read: SimDuration::from_millis(2),
                    d_backend: SimDuration::ZERO,
                    cache: CacheOutcome::RamHit,
                    retry_fired: false,
                    size_bytes: 787_500,
                    served_at: SimTime::from_secs(10),
                    segments: 540,
                    retx_segments: 0,
                    tcp: vec![],
                });
            }
        }
        Dataset::join(sink).expect("join")
    }

    #[test]
    fn chunk_csv_has_one_row_per_chunk_plus_header() {
        let ds = tiny_dataset();
        let mut buf = Vec::new();
        write_chunks_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1 + ds.chunk_count());
        let header_cols = CHUNK_CSV_HEADER.split(',').count();
        for line in text.lines() {
            assert_eq!(line.split(',').count(), header_cols, "ragged row: {line}");
        }
    }

    #[test]
    fn session_csv_quotes_org_names() {
        let ds = tiny_dataset();
        let mut buf = Vec::new();
        write_sessions_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1 + ds.sessions.len());
        // RFC 4180: embedded quotes doubled, field quoted.
        assert!(text.contains("\"Org \"\"quoted\"\", Inc 0\""));
    }

    /// [`Fixed`] against `format!` on every input class the fast path
    /// must get right or refuse.
    #[test]
    fn fixed_matches_format_at_every_precision() {
        // SplitMix64: a fixed, dependency-free stream of test inputs.
        let mut state = 0x5EED_5EED_5EED_5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let below = |v: f64| f64::from_bits(v.to_bits() - 1);
        let above = |v: f64| f64::from_bits(v.to_bits() + 1);

        let mut shared = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -1.5,
            -1e-9,
            1.0,
            0.5,
        ];
        for _ in 0..20_000 {
            shared.push(f64::from_bits(next()));
        }
        // The shapes the exporters print: nanosecond counts as ms and s,
        // from sub-microsecond delays to a multi-day clock.
        for _ in 0..20_000 {
            let ns = next() % 10u64.pow(1 + (next() % 15) as u32);
            shared.push(ns as f64 / 1e6);
            shared.push(ns as f64 / 1e9);
        }
        let mut fast = 0usize;
        let mut checked = 0usize;
        let mut mismatches = Vec::new();
        for (prec, &scale) in POW10.iter().enumerate() {
            let mut values = shared.clone();
            for k in 0..2_000u64 {
                // Decimal near-ties (k + ½)/10^p and their neighbours.
                let near = (k as f64 + 0.5) / scale;
                values.extend([near, below(near), above(near)]);
                // Exact binary ties: odd multiples of 2^-(p+1) end in a 5
                // at decimal place p + 1.
                let exact = (2 * k + 1) as f64 / (1u64 << (prec + 1)) as f64;
                values.extend([exact, below(exact), above(exact)]);
                let big = (next() % (1 << 20)) as f64 + exact;
                values.extend([big, below(big), above(big)]);
            }
            // Where the fast path stops.
            let limit = SCALED_LIMIT / scale;
            values.extend([limit, below(limit), above(limit), 2.0 * limit, 1e300]);

            for &v in &values {
                let ours = format!("{:.prec$}", Fixed(v));
                let want = format!("{v:.prec$}");
                checked += 1;
                fast += usize::from(fixed_digits(v, prec).is_some());
                if ours != want {
                    mismatches.push((v, prec, ours, want));
                }
            }
        }
        assert!(
            mismatches.is_empty(),
            "{} of {checked} differ from format!, first: {:?}",
            mismatches.len(),
            &mismatches[..mismatches.len().min(5)]
        );
        // Most inputs must take the fast path, or the test proves nothing.
        assert!(fast * 2 > checked, "{fast} of {checked} on the fast path");
    }

    #[test]
    fn json_roundtrips() {
        let ds = tiny_dataset();
        let mut buf = Vec::new();
        write_json(&ds, &mut buf).unwrap();
        let back: Dataset = serde_json::from_slice(&buf).unwrap();
        assert_eq!(back.sessions.len(), ds.sessions.len());
        assert_eq!(back.chunk_count(), ds.chunk_count());
    }
}
