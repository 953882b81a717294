//! Structured what-if comparisons: run the same world under configuration
//! variants and report the QoE/caching deltas the paper's take-aways
//! predict.
//!
//! Because the world (catalog, population, fleet wiring, traffic) is a
//! pure function of the master seed, two variants differ *only* in the
//! switched mechanism — a paired experiment, not two noisy samples.

use crate::config::SimulationConfig;
use crate::simulate::{load_latency_correlation, RunOutput, ServerReport, SimError, Simulation};
use serde::{Deserialize, Serialize};
use streamlab_analysis::stats::{BinnedSeries, Cdf};
use streamlab_supervisor::DatasetFacts;
use streamlab_telemetry::records::CacheOutcome;
use streamlab_telemetry::{proxy_keep_mask, ProxySignals, SessionData};

/// The summary metrics an ablation compares.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AblationMetrics {
    /// Overall cache-miss rate.
    pub miss_rate: f64,
    /// RAM-hit rate.
    pub ram_hit_rate: f64,
    /// Median server latency over hits, ms.
    pub hit_median_ms: f64,
    /// Mean per-session miss ratio among sessions with ≥1 miss.
    pub miss_session_ratio: f64,
    /// Share of sessions with no retransmissions.
    pub loss_free_share: f64,
    /// Mean retransmission rate on the first chunk, percent.
    pub first_chunk_retx_pct: f64,
    /// Mean session rebuffering rate, percent.
    pub mean_rebuffer_pct: f64,
    /// Mean session bitrate, kbps.
    pub mean_bitrate_kbps: f64,
    /// Median startup delay, seconds.
    pub startup_median_s: f64,
    /// Request-count vs mean-latency correlation across servers.
    pub load_latency_corr: f64,
}

impl AblationMetrics {
    /// Extract the metrics from a run.
    pub fn from_run(out: &RunOutput) -> Self {
        RunFold::over(&out.dataset.sessions).metrics(&out.servers)
    }
}

/// The last chunk index Fig. 15 bins; the first-chunk retransmission rate
/// is the mean of its first non-empty bin.
const FIG15_MAX_CHUNK: u32 = 5;

/// One session reduced to what [`AblationMetrics`] and the audit's
/// [`DatasetFacts`] read of it.
#[derive(Debug, Clone, Copy)]
struct SessionSummary {
    session: u64,
    chunks: u32,
    misses: u32,
    ram_hits: u32,
    /// How many entries of [`RunFold::hit_ms`] are this session's.
    hits: u32,
    /// Share of the session's chunks that missed, if any did.
    miss_ratio: Option<f64>,
    loss_free: bool,
    /// The session's lowest chunk index up to [`FIG15_MAX_CHUNK`] and that
    /// chunk's retransmission rate, %: the only point it can add to the
    /// first non-empty bin of Fig. 15.
    first_retx: Option<(u32, f64)>,
    rebuffer_pct: f64,
    bitrate_kbps: f64,
    startup_s: f64,
    monotone: bool,
    contiguous: bool,
}

/// The one implementation of a run's [`AblationMetrics`] and of the
/// [`DatasetFacts`] its audit checks: sessions are folded one at a time
/// into small per-session summaries. Each hit chunk's server latency is
/// kept for the median.
///
/// A materialized run's dataset is joined and proxy-filtered already
/// ([`RunFold::over`]). A sweep seed never builds one: each shard folds
/// its sessions as they end ([`crate::Simulation`]'s folded run), the
/// shards' parts merge in ascending session id ([`RunFold::merge`]), and
/// §3's filter runs over the summaries ([`RunFold::filter_proxies`])
/// before they are reduced. Medians and bins go through the same [`Cdf`]
/// and [`BinnedSeries`] the figures use, and sums run in session order,
/// so the numbers are bit-identical to computing them on the filtered
/// [`streamlab_telemetry::Dataset`].
#[derive(Debug, Default)]
pub(crate) struct RunFold {
    sessions: Vec<SessionSummary>,
    /// §3's inputs, one per entry of `sessions`.
    signals: Vec<ProxySignals>,
    /// Server latency (ms) of every hit chunk, session by session.
    hit_ms: Vec<f64>,
}

impl RunFold {
    /// Fold already-joined sessions, in order.
    pub(crate) fn over(sessions: &[SessionData]) -> RunFold {
        let mut fold = RunFold::default();
        for s in sessions {
            fold.push(s);
        }
        fold
    }

    /// An empty fold with room for `sessions` sessions.
    pub(crate) fn with_capacity(sessions: usize) -> RunFold {
        RunFold {
            sessions: Vec::with_capacity(sessions),
            signals: Vec::with_capacity(sessions),
            hit_ms: Vec::new(),
        }
    }

    /// Fold one session. The reductions need a run's sessions in
    /// ascending id order: fold them in that order, or fold parts and
    /// [`RunFold::merge`] them.
    pub(crate) fn push(&mut self, s: &SessionData) {
        let (mut misses, mut ram_hits, mut hits) = (0u32, 0u32, 0u32);
        for c in &s.chunks {
            match c.cdn.cache {
                CacheOutcome::Miss => {
                    misses += 1;
                    continue;
                }
                CacheOutcome::RamHit => ram_hits += 1,
                CacheOutcome::DiskHit => {}
            }
            hits += 1;
            self.hit_ms.push(c.cdn.server_total().as_millis_f64());
        }
        let n = s.chunks.len();
        self.sessions.push(SessionSummary {
            session: s.meta.session.raw(),
            chunks: u32::try_from(n).expect("a session has fewer than 2^32 chunks"),
            misses,
            ram_hits,
            hits,
            miss_ratio: (misses > 0).then(|| f64::from(misses) / n.max(1) as f64),
            loss_free: s.loss_free(),
            first_retx: s
                .chunks
                .iter()
                .filter(|c| c.chunk().raw() <= FIG15_MAX_CHUNK)
                .map(|c| (c.chunk().raw(), 100.0 * c.cdn.retx_rate()))
                .filter(|(_, pct)| pct.is_finite())
                .min_by_key(|&(i, _)| i),
            rebuffer_pct: s.rebuffer_rate_pct(),
            bitrate_kbps: s.avg_bitrate_kbps(),
            startup_s: s.meta.startup_delay_s,
            monotone: s
                .chunks
                .windows(2)
                .all(|w| w[0].player.requested_at <= w[1].player.requested_at),
            contiguous: s
                .chunks
                .iter()
                .enumerate()
                .all(|(i, c)| c.player.chunk.0 as usize == i && c.cdn.chunk == c.player.chunk),
        });
        self.signals.push(ProxySignals::of(s));
    }

    /// Merge parts — shards' folds, each in the order its sessions ended —
    /// into one fold in ascending session id, the order the join yields.
    /// Each session's hit latencies move with it. Session ids are unique
    /// across parts.
    pub(crate) fn merge(parts: Vec<RunFold>) -> RunFold {
        // (session id, part, index in the part, its first hit in the part)
        let mut order: Vec<(u64, u32, u32, usize)> =
            Vec::with_capacity(parts.iter().map(|p| p.sessions.len()).sum());
        let index = |i: usize| u32::try_from(i).expect("fewer than 2^32 shards and sessions");
        for (p, part) in parts.iter().enumerate() {
            let mut hit = 0;
            for (i, s) in part.sessions.iter().enumerate() {
                order.push((s.session, index(p), index(i), hit));
                hit += s.hits as usize;
            }
        }
        order.sort_unstable_by_key(|&(session, ..)| session);
        let mut merged = RunFold::with_capacity(order.len());
        merged
            .hit_ms
            .reserve_exact(parts.iter().map(|p| p.hit_ms.len()).sum());
        for (_, p, i, hit) in order {
            let (part, i) = (&parts[p as usize], i as usize);
            let s = part.sessions[i];
            merged
                .hit_ms
                .extend_from_slice(&part.hit_ms[hit..hit + s.hits as usize]);
            merged.sessions.push(s);
            merged.signals.push(part.signals[i]);
        }
        merged
    }

    /// Sessions folded (and kept, after [`RunFold::filter_proxies`]).
    pub(crate) fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// §3 preprocessing over the folded sessions: drop the ones
    /// [`proxy_keep_mask`] rejects, as [`streamlab_telemetry::Dataset::filter_proxies`]
    /// does to a dataset.
    pub(crate) fn filter_proxies(mut self) -> RunFold {
        let keep = proxy_keep_mask(&self.signals);
        // Kept sessions' hit latencies move down over the dropped ones'.
        let (mut read, mut write) = (0, 0);
        for (s, &k) in self.sessions.iter().zip(&keep) {
            let hits = s.hits as usize;
            if k {
                self.hit_ms.copy_within(read..read + hits, write);
                write += hits;
            }
            read += hits;
        }
        self.hit_ms.truncate(write);
        retain_flagged(&mut self.sessions, &keep);
        retain_flagged(&mut self.signals, &keep);
        self
    }

    /// The audit's facts about the folded sessions. `raw_sessions` counts
    /// the join before proxy filtering.
    pub(crate) fn facts(&self, raw_sessions: usize, shard_errors: usize) -> DatasetFacts {
        let ids = |flagged: fn(&SessionSummary) -> bool| -> Vec<u64> {
            self.sessions
                .iter()
                .filter(|s| flagged(s))
                .map(|s| s.session)
                .collect()
        };
        DatasetFacts {
            raw_sessions: raw_sessions as u64,
            dataset_sessions: self.sessions.len() as u64,
            dataset_chunks: self.sessions.iter().map(|s| u64::from(s.chunks)).sum(),
            nonmonotonic_sessions: ids(|s| !s.monotone),
            noncontiguous_sessions: ids(|s| !s.contiguous),
            shard_errors: shard_errors as u64,
        }
    }

    /// Reduce the folded sessions to the run's metrics.
    pub(crate) fn metrics(self, servers: &[ServerReport]) -> AblationMetrics {
        let RunFold {
            sessions, hit_ms, ..
        } = self;
        let n = sessions.len().max(1) as f64;
        let chunks = sessions.iter().map(|s| s.chunks as usize).sum::<usize>();
        let misses = sessions.iter().map(|s| s.misses as usize).sum::<usize>();
        let ram_hits = sessions.iter().map(|s| s.ram_hits as usize).sum::<usize>();
        let miss_sessions = sessions.iter().filter(|s| s.miss_ratio.is_some()).count();
        let first_retx: Vec<(usize, f64)> = sessions
            .iter()
            .filter_map(|s| s.first_retx)
            .map(|(i, pct)| (i as usize, pct))
            .collect();
        let mut startups: Vec<f64> = sessions
            .iter()
            .map(|s| s.startup_s)
            .filter(|x| x.is_finite())
            .collect();
        startups.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite startup delays"));
        AblationMetrics {
            miss_rate: misses as f64 / chunks.max(1) as f64,
            ram_hit_rate: ram_hits as f64 / chunks.max(1) as f64,
            hit_median_ms: Cdf::new(hit_ms).median(),
            miss_session_ratio: if miss_sessions == 0 {
                0.0
            } else {
                sessions.iter().filter_map(|s| s.miss_ratio).sum::<f64>() / miss_sessions as f64
            },
            loss_free_share: sessions.iter().filter(|s| s.loss_free).count() as f64 / n,
            first_chunk_retx_pct: BinnedSeries::by_integer(&first_retx, FIG15_MAX_CHUNK as usize)
                .bins
                .first()
                .map_or(0.0, |b| b.mean),
            mean_rebuffer_pct: sessions.iter().map(|s| s.rebuffer_pct).sum::<f64>() / n,
            mean_bitrate_kbps: sessions.iter().map(|s| s.bitrate_kbps).sum::<f64>() / n,
            startup_median_s: startups
                .get(startups.len() / 2)
                .copied()
                .unwrap_or(f64::NAN),
            load_latency_corr: load_latency_correlation(servers),
        }
    }
}

/// Keep the elements of `v` whose flag in `keep` (one per element) is set.
fn retain_flagged<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    v.retain(|_| *flags.next().expect("one flag per element"));
}

/// One variant's outcome in a comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationResult {
    /// Variant label.
    pub name: String,
    /// Its metrics.
    pub metrics: AblationMetrics,
}

/// Run a named set of config variants against the same base world.
///
/// The first entry conventionally is the baseline; each tweak receives a
/// fresh clone of `base`.
pub fn compare<F>(
    base: &SimulationConfig,
    variants: &[(&str, F)],
) -> Result<Vec<AblationResult>, SimError>
where
    F: Fn(&mut SimulationConfig),
{
    let mut results = Vec::with_capacity(variants.len());
    for (name, tweak) in variants {
        let mut cfg = base.clone();
        tweak(&mut cfg);
        let out = Simulation::new(cfg).run()?;
        results.push(AblationResult {
            name: (*name).to_owned(),
            metrics: AblationMetrics::from_run(&out),
        });
    }
    Ok(results)
}

/// Render a comparison as an aligned text table.
pub fn render(results: &[AblationResult]) -> String {
    let mut t = crate::report::TextTable::new(&[
        "variant",
        "miss %",
        "RAM-hit %",
        "hit med ms",
        "miss-sess %",
        "loss-free %",
        "c0 retx %",
        "rebuf %",
        "kbps",
        "startup s",
        "load corr",
    ]);
    for r in results {
        let m = &r.metrics;
        t.row(vec![
            r.name.clone(),
            format!("{:.2}", 100.0 * m.miss_rate),
            format!("{:.1}", 100.0 * m.ram_hit_rate),
            format!("{:.2}", m.hit_median_ms),
            format!("{:.0}", 100.0 * m.miss_session_ratio),
            format!("{:.1}", 100.0 * m.loss_free_share),
            format!("{:.3}", m.first_chunk_retx_pct),
            format!("{:.2}", m.mean_rebuffer_pct),
            format!("{:.0}", m.mean_bitrate_kbps),
            format!("{:.2}", m.startup_median_s),
            format!("{:+.2}", m.load_latency_corr),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlab_cdn::PrefetchPolicy;

    #[test]
    fn prefetch_collapses_persistent_misses() {
        // §4.1.2: "the persistence of cache misses could be addressed by
        // pre-fetching the subsequent chunks of a video session after the
        // first miss."
        let base = SimulationConfig::tiny(41);
        let results = compare(
            &base,
            &[
                ("baseline", (|_| {}) as fn(&mut SimulationConfig)),
                ("prefetch", |c| {
                    c.fleet_mut().prefetch = PrefetchPolicy::NextChunksOnMiss(8);
                }),
            ],
        )
        .expect("ablation");
        let baseline = &results[0].metrics;
        let prefetch = &results[1].metrics;
        assert!(
            prefetch.miss_rate < 0.6 * baseline.miss_rate,
            "prefetch miss {} vs baseline {}",
            prefetch.miss_rate,
            baseline.miss_rate
        );
        assert!(
            prefetch.miss_session_ratio < baseline.miss_session_ratio,
            "{} vs {}",
            prefetch.miss_session_ratio,
            baseline.miss_session_ratio
        );
    }

    #[test]
    fn pacing_reduces_first_chunk_retx() {
        // §4.2.3: "We suggest server-side pacing solutions to work around
        // this issue" (the slow-start burst on the first chunk).
        let base = SimulationConfig::tiny(42);
        let results = compare(
            &base,
            &[
                ("baseline", (|_| {}) as fn(&mut SimulationConfig)),
                ("pacing", |c| {
                    c.tcp.pacing = true;
                }),
            ],
        )
        .expect("ablation");
        let baseline = &results[0].metrics;
        let pacing = &results[1].metrics;
        assert!(
            pacing.first_chunk_retx_pct < 0.7 * baseline.first_chunk_retx_pct,
            "pacing {} vs baseline {}",
            pacing.first_chunk_retx_pct,
            baseline.first_chunk_retx_pct
        );
    }

    #[test]
    fn partitioning_flattens_load_latency_relationship() {
        // §4.1.3: distributing the popular head across servers balances
        // load, weakening the cache-affinity-induced correlation.
        let base = SimulationConfig::tiny(43);
        let results = compare(
            &base,
            &[
                ("baseline", (|_| {}) as fn(&mut SimulationConfig)),
                ("partition", |c| {
                    c.fleet_mut().partition_popular = true;
                }),
            ],
        )
        .expect("ablation");
        // Request spread across servers must be more even under
        // partitioning; we check via the correlation not strengthening
        // negatively (it should move toward zero or positive).
        let b = results[0].metrics.load_latency_corr;
        let p = results[1].metrics.load_latency_corr;
        assert!(
            p >= b - 0.1,
            "partitioning made the paradox worse: {b} -> {p}"
        );
    }

    #[test]
    fn render_produces_one_row_per_variant() {
        let base = SimulationConfig::tiny(44);
        let results = compare(&base, &[("only", (|_| {}) as fn(&mut SimulationConfig))]).unwrap();
        let table = render(&results);
        assert_eq!(table.lines().count(), 3); // header + rule + 1 row
        assert!(table.contains("only"));
    }
}
