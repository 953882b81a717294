//! Engine wall time at one thread and several, plus the telemetry
//! assembly hot path.
//!
//! The contract under test elsewhere (tests/determinism.rs) is that
//! `threads` changes nothing but wall clock; this bench measures the wall
//! clock itself. Speedup is bounded by the number of PoPs and by how
//! evenly sessions land across them. The `tiny` scenario finishes in
//! hundreds of milliseconds, so at that size partition/merge bookkeeping
//! drowns the signal; the `small` scenario carries ≥10× the chunk volume
//! and is what thread-scaling claims (and the CI perf gate) are judged
//! against. `dataset/assemble` isolates the player↔CDN join from the
//! engine so join regressions are attributable.
//!
//! Unlike the other benches this one has a hand-written `main`: after the
//! timed runs it drains the criterion-compat record registry and writes
//! `BENCH_parallel.json` at the workspace root (override the path with
//! `STREAMLAB_BENCH_OUT`) so CI can track wall time per scenario without
//! scraping stdout. Each record carries a `chunks_per_sec` throughput
//! field — chunk records processed per wall second at the median sample —
//! which is the scale-free number to compare across scenarios. CI's
//! perf-gate job sets `STREAMLAB_BENCH_SAMPLES` to trade precision for
//! queue time; the committed baseline uses the default. The `observed`
//! group runs the same workload with the metrics subscriber attached,
//! which is what the "<2% uninstrumented overhead" budget in ISSUE.md is
//! judged against (`engine` group = no subscriber).

use criterion::{take_records, BatchSize, BenchmarkId, Criterion};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use streamlab::supervisor::Storage;
use streamlab::telemetry::records::CacheOutcome;
use streamlab::telemetry::{
    CdnChunkRecord, ChunkTruth, Dataset, PlayerChunkRecord, SessionMeta, SessionStream, SpillSpec,
    TelemetrySink,
};
use streamlab::{ObsOptions, Simulation, SimulationConfig, SpillConfig};

/// Current resident-set size of this process in bytes (`VmRSS` from
/// `/proc/self/status`); 0 on platforms without procfs.
fn current_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Background peak-RSS sampler: a thread polls `VmRSS` every ~10 ms and
/// keeps the running maximum. `begin()` resets the window to the current
/// RSS; `peak()` folds in one final sample and returns the window maximum.
///
/// Sampling `VmRSS` (instantaneous) instead of reading `VmHWM` matters:
/// the high-water mark is cumulative over the process, so a later spilled
/// scenario would inherit the peak of an earlier in-RAM one.
struct RssSampler {
    peak: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RssSampler {
    fn start() -> RssSampler {
        let peak = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (p, s) = (Arc::clone(&peak), Arc::clone(&stop));
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                p.fetch_max(current_rss_bytes(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        });
        RssSampler {
            peak,
            stop,
            handle: Some(handle),
        }
    }

    fn begin(&self) {
        self.peak.store(current_rss_bytes(), Ordering::Relaxed);
    }

    fn peak(&self) -> u64 {
        self.peak
            .fetch_max(current_rss_bytes(), Ordering::Relaxed)
            .max(current_rss_bytes())
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Timed samples per benchmark; CI lowers this via `STREAMLAB_BENCH_SAMPLES`.
fn sample_size() -> usize {
    std::env::var("STREAMLAB_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
}

fn tiny_cfg(threads: usize) -> SimulationConfig {
    let mut cfg = SimulationConfig::tiny(2016);
    cfg.threads = threads;
    cfg
}

/// The thread-scaling workload: the `small` preset widened to 10× tiny's
/// session count (~150k chunk records), so the event loop dominates the
/// partition/merge bookkeeping and per-thread deltas are measurable.
fn small_cfg(threads: usize) -> SimulationConfig {
    let mut cfg = SimulationConfig::small(2016);
    cfg.traffic.sessions = 6_000;
    cfg.threads = threads;
    cfg
}

/// The hot-PoP workload: `small` with 75% of prefixes pinned to one
/// metro, so one PoP carries the bulk of the sessions. Under per-PoP
/// shards claimed in id order this scenario flatlined past 2 threads (the
/// hot PoP was one indivisible shard); per-server shards claimed largest
/// first spread the hot PoP's servers over every worker, which is exactly
/// what this group exists to measure.
fn skewed_cfg(threads: usize) -> SimulationConfig {
    let mut cfg = SimulationConfig::small(2016);
    cfg.traffic.sessions = 6_000;
    cfg.population.focus_metro = "NewYork-NY".to_owned();
    cfg.population.focus_fraction = 0.75;
    cfg.threads = threads;
    cfg
}

/// Joined chunk records one iteration of `cfg` produces (untimed probe
/// run); the numerator of the `chunks_per_sec` field.
fn chunk_volume(cfg: SimulationConfig) -> u64 {
    Simulation::new(cfg)
        .run()
        .expect("probe run")
        .dataset
        .chunk_count() as u64
}

/// A scenario constructor: thread count in, ready-to-run config out.
type ScenarioFn = fn(usize) -> SimulationConfig;

fn bench_parallel(
    c: &mut Criterion,
    chunks_by_label: &mut HashMap<String, u64>,
    rss: &RssSampler,
    rss_by_label: &mut HashMap<String, u64>,
) {
    // `small/8` exists because CI's scaling gate judges near-linear speedup
    // through 4 threads and wants the curve past the knee on record;
    // `skewed` only needs enough points to show the largest-first claim
    // order absorbs the worst PoP imbalance.
    let scenarios: [(&str, ScenarioFn, &[usize]); 3] = [
        ("tiny", tiny_cfg, &[1, 2, 4]),
        ("small", small_cfg, &[1, 2, 4, 8]),
        ("skewed", skewed_cfg, &[1, 2, 4]),
    ];

    let mut group = c.benchmark_group("engine");
    group.sample_size(sample_size());
    for (name, make, thread_counts) in scenarios {
        let chunks = chunk_volume(make(1));
        for &threads in thread_counts {
            let label = format!("engine/{name}/{threads}");
            chunks_by_label.insert(label.clone(), chunks);
            rss.begin();
            group.bench_with_input(BenchmarkId::new(name, threads), &threads, |b, &threads| {
                b.iter(|| black_box(Simulation::new(make(threads)).run().expect("run")))
            });
            rss_by_label.insert(label, rss.peak());
        }
    }
    group.finish();

    let mut group = c.benchmark_group("engine-observed");
    group.sample_size(sample_size());
    let chunks = chunk_volume(tiny_cfg(1));
    for threads in [1usize, 2] {
        let label = format!("engine-observed/tiny/{threads}");
        chunks_by_label.insert(label.clone(), chunks);
        rss.begin();
        group.bench_with_input(
            BenchmarkId::new("tiny", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(
                        Simulation::new(tiny_cfg(threads))
                            .run_observed(ObsOptions::default())
                            .expect("run"),
                    )
                })
            },
        );
        rss_by_label.insert(label, rss.peak());
    }
    // `small/1` is the instrumentation-overhead gate's numerator: CI
    // compares its median against the no-subscriber `engine/small/1` via
    // perf_gate --overhead, so both must run in the same bench invocation.
    let chunks = chunk_volume(small_cfg(1));
    chunks_by_label.insert("engine-observed/small/1".to_owned(), chunks);
    rss.begin();
    group.bench_with_input(BenchmarkId::new("small", 1usize), &1usize, |b, _| {
        b.iter(|| {
            black_box(
                Simulation::new(small_cfg(1))
                    .run_observed(ObsOptions::default())
                    .expect("run"),
            )
        })
    });
    rss_by_label.insert("engine-observed/small/1".to_owned(), rss.peak());
    group.finish();
}

/// The out-of-core scenario: `small`'s world at ≥1M sessions, telemetry
/// spilled to columnar segments and the join consumed as a stream, so the
/// full dataset never materializes. Opt-in via `STREAMLAB_BENCH_LARGE=1`
/// (a single iteration runs for minutes); `STREAMLAB_BENCH_LARGE_SESSIONS`
/// overrides the session count (the RSS-flatness check runs it at 250k,
/// 500k and 1M and expects the same peak).
fn bench_large(
    c: &mut Criterion,
    chunks_by_label: &mut HashMap<String, u64>,
    rss: &RssSampler,
    rss_by_label: &mut HashMap<String, u64>,
) {
    if std::env::var("STREAMLAB_BENCH_LARGE").map(|v| v == "1") != Ok(true) {
        return;
    }
    let sessions: usize = std::env::var("STREAMLAB_BENCH_LARGE_SESSIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let samples: usize = std::env::var("STREAMLAB_BENCH_LARGE_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let threads = 8usize;
    let dir = std::env::temp_dir().join(format!("streamlab-bench-large-{}", std::process::id()));
    let make = || {
        let mut cfg = SimulationConfig::small(2016);
        cfg.traffic.sessions = sessions;
        cfg.threads = threads;
        cfg.spill = Some(SpillConfig {
            dir: dir.to_string_lossy().into_owned(),
            threshold: SpillConfig::DEFAULT_THRESHOLD,
        });
        cfg
    };

    let label = format!("engine/large/{threads}");
    let chunks = std::cell::Cell::new(0u64);
    let mut group = c.benchmark_group("engine");
    group.sample_size(samples);
    rss.begin();
    group.bench_with_input(BenchmarkId::new("large", threads), &threads, |b, _| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let out = Simulation::new(make()).run_streaming().expect("run");
            assert!(out.shard_errors.is_empty(), "large run lost shards");
            assert!(!out.segments.is_empty(), "large run never spilled");
            // Bounded-memory drain: the timed region covers the whole
            // streamed join, but only one session is ever held at once.
            let mut n = 0u64;
            for s in out.stream {
                n += s.expect("stream yields").chunks.len() as u64;
            }
            chunks.set(n);
            black_box(n)
        })
    });
    rss_by_label.insert(label.clone(), rss.peak());
    chunks_by_label.insert(label, chunks.get());
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sessions × chunks-per-session for the synthetic assembly workload.
const ASSEMBLE_SESSIONS: u64 = 2_000;
const ASSEMBLE_CHUNKS_EACH: u64 = 30;

/// A sink shaped exactly like engine output: per-session chunk records
/// contiguous and ascending, one player + one CDN record per chunk pushed
/// adjacently, one metadata beacon per session. Synthetic so the bench
/// needs no engine run and the record count is exact.
fn synth_sink() -> TelemetrySink {
    let total = (ASSEMBLE_SESSIONS * ASSEMBLE_CHUNKS_EACH) as usize;
    let mut sink = TelemetrySink::with_capacity(ASSEMBLE_SESSIONS as usize, total);
    fill_sink(&mut sink);
    sink
}

/// The same synthetic stream pushed through a spilling sink: segments
/// land in `dir` and the sink is sealed, ready for streaming assembly.
fn synth_spilled_sink(dir: &std::path::Path) -> TelemetrySink {
    let mut sink = TelemetrySink::with_spill(
        ASSEMBLE_SESSIONS as usize,
        SpillSpec {
            dir: dir.to_path_buf(),
            // ~8 segments over the 60k-pair workload.
            threshold: 8_192,
            shard: 0,
            storage: Storage::real(),
        },
    );
    fill_sink(&mut sink);
    sink.seal();
    assert!(
        sink.spill_errors().is_empty(),
        "spill failed: {:?}",
        sink.spill_errors()
    );
    sink
}

fn fill_sink(sink: &mut TelemetrySink) {
    use streamlab::sim::{SimDuration, SimTime};
    use streamlab::workload::{
        AccessClass, Browser, ChunkIndex, GeoPoint, OrgKind, Os, PopId, PrefixId, Region, ServerId,
        SessionId, VideoId,
    };

    for s in 0..ASSEMBLE_SESSIONS {
        let session = SessionId(s);
        for k in 0..ASSEMBLE_CHUNKS_EACH {
            let at = SimTime::from_nanos(s * 1_000_000 + k * 4_000_000_000);
            sink.player_chunk(PlayerChunkRecord {
                session,
                chunk: ChunkIndex(k as u32),
                bitrate_kbps: 3_000,
                requested_at: at,
                d_fb: SimDuration::from_nanos(40_000_000),
                d_lb: SimDuration::from_nanos(900_000_000),
                chunk_secs: 4.0,
                buf_count: 0,
                buf_dur: SimDuration::ZERO,
                visible: true,
                avg_fps: 30.0,
                dropped_frames: 0,
                frames: 120,
                truth: ChunkTruth {
                    dds: SimDuration::from_nanos(850_000_000),
                    rtt0: SimDuration::from_nanos(30_000_000),
                    transient_buffered: false,
                },
            });
            sink.cdn_chunk(CdnChunkRecord {
                session,
                chunk: ChunkIndex(k as u32),
                d_wait: SimDuration::from_nanos(1_000_000),
                d_open: SimDuration::from_nanos(2_000_000),
                d_read: SimDuration::from_nanos(5_000_000),
                d_backend: SimDuration::ZERO,
                cache: CacheOutcome::RamHit,
                retry_fired: false,
                size_bytes: 1_500_000,
                served_at: at,
                segments: 1_000,
                retx_segments: 3,
                tcp: Vec::new(),
            });
        }
        sink.session(SessionMeta {
            session,
            prefix: PrefixId(s % 64),
            video: VideoId(s % 128),
            video_secs: 600.0,
            os: Os::Windows,
            browser: Browser::Chrome,
            org: String::new(),
            org_kind: OrgKind::Residential,
            access: AccessClass::Cable,
            region: Region::UnitedStates,
            location: GeoPoint { lat: 0.0, lon: 0.0 },
            pop: PopId(s % 8),
            server: ServerId(s % 40),
            distance_km: 100.0,
            arrival: SimTime::from_nanos(s * 1_000_000),
            startup_delay_s: 0.8,
            proxied: false,
            ua_mismatch: false,
            gpu: true,
            visible: true,
        });
    }
}

fn bench_assemble(
    c: &mut Criterion,
    chunks_by_label: &mut HashMap<String, u64>,
    rss: &RssSampler,
    rss_by_label: &mut HashMap<String, u64>,
) {
    let total = ASSEMBLE_SESSIONS * ASSEMBLE_CHUNKS_EACH;
    let label = format!("dataset/assemble/{total}");
    chunks_by_label.insert(label.clone(), total);

    let mut group = c.benchmark_group("dataset");
    group.sample_size(sample_size());
    rss.begin();
    group.bench_with_input(BenchmarkId::new("assemble", total), &total, |b, _| {
        b.iter_batched(
            synth_sink,
            |sink| black_box(Dataset::join(sink).expect("assemble")),
            BatchSize::LargeInput,
        )
    });
    rss_by_label.insert(label, rss.peak());

    // The streaming twin: identical record volume, but read back from
    // sealed columnar segments through the k-way merge. Segment writes
    // happen in the untimed setup; the timed region is open + merge +
    // per-session assembly — the direct comparison against the in-RAM
    // `assemble` above.
    let label = format!("dataset/assemble-streaming/{total}");
    chunks_by_label.insert(label.clone(), total);
    let dir = std::env::temp_dir().join(format!("streamlab-bench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("spill dir");
    rss.begin();
    group.bench_with_input(
        BenchmarkId::new("assemble-streaming", total),
        &total,
        |b, _| {
            b.iter_batched(
                || synth_spilled_sink(&dir),
                |sink| {
                    let mut chunks = 0usize;
                    for s in SessionStream::new(vec![sink]) {
                        chunks += s.expect("stream yields").chunks.len();
                    }
                    black_box(chunks)
                },
                BatchSize::LargeInput,
            )
        },
    );
    rss_by_label.insert(label, rss.peak());
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

/// Serialize drained [`criterion::BenchRecord`]s as a JSON array.
///
/// Labels only ever contain `[A-Za-z0-9/_-]`, so no string escaping is
/// needed; floats are emitted with enough precision for CI diffing.
/// `chunks_per_sec` is the scenario's chunk-record volume divided by the
/// median sample (0.0 when the volume is unknown for a label);
/// `peak_rss_bytes` is the sampled peak resident-set size over that
/// label's timed window (0 when unsampled), which `perf-gate --memory`
/// turns into a CI memory ceiling.
fn records_to_json(
    records: &[criterion::BenchRecord],
    chunks: &HashMap<String, u64>,
    rss_by_label: &HashMap<String, u64>,
) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let cps = match chunks.get(&r.label) {
            Some(&n) if r.median_ns > 0.0 => n as f64 / (r.median_ns / 1.0e9),
            _ => 0.0,
        };
        let rss = rss_by_label.get(&r.label).copied().unwrap_or(0);
        out.push_str(&format!(
            "  {{\"label\": \"{}\", \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \
             \"min_ns\": {:.1}, \"samples\": {}, \"chunks_per_sec\": {:.1}, \
             \"peak_rss_bytes\": {}}}",
            r.label, r.mean_ns, r.median_ns, r.min_ns, r.samples, cps, rss
        ));
    }
    out.push_str("\n]\n");
    out
}

fn main() {
    let mut c = Criterion::default();
    let mut chunks_by_label = HashMap::new();
    let mut rss_by_label = HashMap::new();
    let rss = RssSampler::start();
    // `STREAMLAB_BENCH_ONLY=large` runs just the out-of-core scenario in a
    // clean process — CI's memory gate uses it so earlier scenarios'
    // retained allocations don't pollute the sampled RSS floor.
    let only_large = std::env::var("STREAMLAB_BENCH_ONLY").map(|v| v == "large") == Ok(true);
    if !only_large {
        bench_parallel(&mut c, &mut chunks_by_label, &rss, &mut rss_by_label);
    }
    bench_large(&mut c, &mut chunks_by_label, &rss, &mut rss_by_label);
    if !only_large {
        bench_assemble(&mut c, &mut chunks_by_label, &rss, &mut rss_by_label);
    }
    c.final_summary();
    drop(rss);

    let records = take_records();
    let json = records_to_json(&records, &chunks_by_label, &rss_by_label);
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    let path = std::env::var("STREAMLAB_BENCH_OUT").unwrap_or_else(|_| default_path.to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {} ({} records)", path, records.len()),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
