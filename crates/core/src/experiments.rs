//! The experiment registry: every paper exhibit, runnable by ID.
//!
//! Each [`ExperimentId`] maps to one figure or table of the paper; running
//! it against a [`RunOutput`] produces an [`ExperimentResult`] carrying
//! both a human-readable text block and a JSON value with the raw rows,
//! so the bench harness and the examples render the same numbers.

use crate::controlled;
use crate::report::{binned_table, ccdf_line, cdf_line, TextTable};
use crate::simulate::RunOutput;
use serde::{Deserialize, Serialize};
use serde_json::json;
use streamlab_analysis::figures::{cdn, client, localization, network};

/// Identifier of one paper exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ExperimentId {
    Fig03a,
    Fig03b,
    Fig04,
    Fig05,
    Fig06,
    Fig07,
    Fig08,
    Fig09,
    Fig10,
    Tab04,
    Fig11,
    Fig12,
    Fig13,
    Fig14,
    Fig15,
    Fig16,
    Fig17,
    Fig18,
    Fig19,
    Fig20,
    Fig21,
    Fig22,
    Tab05,
    Loc,
    Stats,
}

impl ExperimentId {
    /// Every exhibit, in paper order.
    pub fn all() -> &'static [ExperimentId] {
        use ExperimentId::*;
        &[
            Fig03a, Fig03b, Fig04, Fig05, Fig06, Fig07, Fig08, Fig09, Fig10, Tab04, Fig11, Fig12,
            Fig13, Fig14, Fig15, Fig16, Fig17, Fig18, Fig19, Fig20, Fig21, Fig22, Tab05, Loc,
            Stats,
        ]
    }

    /// What the exhibit shows, as captioned in the paper.
    pub fn title(self) -> &'static str {
        use ExperimentId::*;
        match self {
            Fig03a => "Fig 3a: CCDF of video lengths",
            Fig03b => "Fig 3b: video rank vs popularity",
            Fig04 => "Fig 4: startup time vs server latency",
            Fig05 => "Fig 5: CDN latency breakdown (wait/open/read, hit vs miss)",
            Fig06 => "Fig 6: cache miss rate and server delay vs video rank",
            Fig07 => "Fig 7: startup delay vs first-chunk SRTT",
            Fig08 => "Fig 8: CDF of srtt_min and sigma_srtt across sessions",
            Fig09 => "Fig 9: distance of US tail-latency prefixes",
            Fig10 => "Fig 10: CV of latency per (prefix, PoP) path",
            Tab04 => "Table 4: organizations with most CV>1 sessions",
            Fig11 => "Fig 11: session length/bitrate/rebuffering, loss vs no loss",
            Fig12 => "Fig 12: rebuffering vs retransmission rate",
            Fig13 => "Fig 13: early-loss vs late-loss case study",
            Fig14 => "Fig 14: P(rebuffering at chunk X), also given loss",
            Fig15 => "Fig 15: average retransmission rate per chunk ID",
            Fig16 => "Fig 16: latency share / D_FB / D_LB by performance score",
            Fig17 => "Fig 17: download-stack transient buffering (Eq. 4)",
            Fig18 => "Fig 18: D_FB of first vs other chunks (equivalent set)",
            Fig19 => "Fig 19: dropped frames vs chunk download rate",
            Fig20 => "Fig 20: dropped frames vs CPU load (controlled)",
            Fig21 => "Fig 21: browser share and rendering quality per platform",
            Fig22 => "Fig 22: dropped frames of unpopular browsers",
            Tab05 => "Table 5: OS/browser with highest download-stack latency",
            Loc => "Localization: sessions and rebuffers attributed per problem class",
            Stats => "Headline statistics (Sections 3 and 4)",
        }
    }
}

/// The output of running one exhibit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Which exhibit.
    pub id: ExperimentId,
    /// Its title.
    pub title: String,
    /// Human-readable rendering.
    pub text: String,
    /// Raw rows as JSON.
    pub json: serde_json::Value,
}

/// Run one exhibit against a completed simulation.
pub fn run_experiment(id: ExperimentId, out: &RunOutput) -> ExperimentResult {
    let ds = &out.dataset;
    let points = 200;
    let (text, json) = match id {
        ExperimentId::Fig03a => {
            let s = cdn::fig03a(&out.catalog, points);
            (ccdf_line(&s), json!(s))
        }
        ExperimentId::Fig03b => {
            let rows = cdn::fig03b(ds);
            let head = rows
                .iter()
                .take(5)
                .map(|(r, f)| format!("rank={r:.4} freq={f:.4}"))
                .collect::<Vec<_>>()
                .join("\n");
            (head, json!(rows))
        }
        ExperimentId::Fig04 => {
            let s = cdn::fig04(ds);
            (binned_table(&s, "server_ms"), json!(s))
        }
        ExperimentId::Fig05 => {
            let series = cdn::fig05(ds, points);
            let text = series.iter().map(cdf_line).collect::<Vec<_>>().join("\n");
            (text, json!(series))
        }
        ExperimentId::Fig06 => {
            let rows = cdn::fig06(ds, out.catalog.len(), 12);
            let mut t = TextTable::new(&["rank>=x", "miss %", "median hit server ms", "chunks"]);
            for r in &rows {
                t.row(vec![
                    r.min_rank.to_string(),
                    format!("{:.2}", r.miss_pct),
                    format!("{:.2}", r.median_hit_server_ms),
                    r.chunks.to_string(),
                ]);
            }
            (t.render(), json!(rows))
        }
        ExperimentId::Fig07 => {
            let s = network::fig07(ds);
            (binned_table(&s, "srtt_ms"), json!(s))
        }
        ExperimentId::Fig08 => {
            let (mins, sigmas) = network::fig08(ds, points);
            (
                format!("{}\n{}", cdf_line(&mins), cdf_line(&sigmas)),
                json!({ "srtt_min": mins, "sigma_srtt": sigmas }),
            )
        }
        ExperimentId::Fig09 => {
            let f = network::fig09(ds, 100.0, points);
            let text = format!(
                "{}\ntail prefixes: {} (non-US share {:.1}%)\nclose (<400 km) US tail prefixes that are enterprise: {:.1}%",
                cdf_line(&f.distance_cdf),
                f.tail_prefixes,
                100.0 * f.non_us_share,
                100.0 * f.close_enterprise_share
            );
            (text, json!(f))
        }
        ExperimentId::Fig10 => {
            let s = network::fig10(ds, 2, points);
            (cdf_line(&s), json!(s))
        }
        ExperimentId::Tab04 => {
            // The paper requires >= 50 sessions per organization; scale the
            // threshold down with the dataset.
            let min_sessions = if ds.sessions.len() >= 10_000 { 50 } else { 15 };
            let t4 = network::tab04(ds, min_sessions, 5);
            let mut t = TextTable::new(&["org", "CV>1 sessions", "all sessions", "pct"]);
            for o in &t4.top {
                t.row(vec![
                    o.org.clone(),
                    o.high_cv_sessions.to_string(),
                    o.sessions.to_string(),
                    format!("{:.1}%", o.pct()),
                ]);
            }
            let text = format!(
                "{}\nresidential ISPs pooled: {:.1}%",
                t.render(),
                t4.residential_pct
            );
            (text, json!(t4))
        }
        ExperimentId::Fig11 => {
            let f = network::fig11(ds, points);
            let text = format!(
                "loss-free sessions: {:.1}% | sessions under 10% retx: {:.1}%\n{}\n{}\n{}\n{}\n{}\n{}",
                100.0 * f.loss_free_share,
                100.0 * f.below_10pct_share,
                cdf_line(&f.len_no_loss),
                cdf_line(&f.len_loss),
                cdf_line(&f.bitrate_no_loss),
                cdf_line(&f.bitrate_loss),
                ccdf_line(&f.rebuf_no_loss),
                ccdf_line(&f.rebuf_loss),
            );
            (text, json!(f))
        }
        ExperimentId::Fig12 => {
            let s = network::fig12(ds);
            (binned_table(&s, "retx_%"), json!(s))
        }
        ExperimentId::Fig13 => match network::fig13(ds) {
            Some(f) => {
                let fmt = |v: &[f64]| {
                    v.iter()
                        .map(|x| format!("{x:.1}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                let text = format!(
                    "case1 (early loss, rebuffers): retx={:.2}% rebuf={:.2}%\n  per-chunk loss%: {}\ncase2 (late loss, clean): retx={:.2}% rebuf={:.2}%\n  per-chunk loss%: {}",
                    f.early_retx_pct,
                    f.early_rebuffer_pct,
                    fmt(&f.early_loss_session),
                    f.late_retx_pct,
                    f.late_rebuffer_pct,
                    fmt(&f.late_loss_session),
                );
                (text, json!(f))
            }
            None => (
                "no matching case pair found at this scale".into(),
                json!(null),
            ),
        },
        ExperimentId::Fig14 => {
            let rows = network::fig14(ds, 19);
            let mut t = TextTable::new(&["chunk", "P(rebuf) %", "P(rebuf|loss) %", "n"]);
            for r in &rows {
                t.row(vec![
                    r.chunk.to_string(),
                    format!("{:.2}", r.p_rebuf),
                    format!("{:.2}", r.p_rebuf_given_loss),
                    r.n.to_string(),
                ]);
            }
            (t.render(), json!(rows))
        }
        ExperimentId::Fig15 => {
            let s = network::fig15(ds, 19);
            (binned_table(&s, "chunk_id"), json!(s))
        }
        ExperimentId::Fig16 => {
            let f = network::fig16(ds, points);
            let text = format!(
                "bad chunks (score<1): {:.2}%\nlatency share:\n{}\n{}\nD_FB (ms):\n{}\n{}\nD_LB (ms):\n{}\n{}",
                100.0 * f.bad_share,
                cdf_line(&f.share_good),
                cdf_line(&f.share_bad),
                cdf_line(&f.dfb_good),
                cdf_line(&f.dfb_bad),
                cdf_line(&f.dlb_good),
                cdf_line(&f.dlb_bad),
            );
            (text, json!(f))
        }
        ExperimentId::Fig17 => {
            let f = client::fig17(ds);
            let text = format!(
                "flagged chunks: {} / {} ({:.3}%)\naffected sessions: {} / {} ({:.2}%)\ndetector precision={:.2} recall={:.2}\nexample session: {}",
                f.flagged_chunks,
                f.total_chunks,
                100.0 * f.flagged_chunks as f64 / f.total_chunks.max(1) as f64,
                f.affected_sessions,
                f.total_sessions,
                100.0 * f.affected_sessions as f64 / f.total_sessions.max(1) as f64,
                f.precision,
                f.recall,
                f.example
                    .as_ref()
                    .map(|e| format!("flagged chunk #{}", e.flagged_chunk))
                    .unwrap_or_else(|| "none".into()),
            );
            (text, json!(f))
        }
        ExperimentId::Fig18 => {
            let f = client::fig18(ds, (40.0, 90.0), points);
            let text = format!(
                "{}\n{}\nmedian gap: {:.1} ms",
                cdf_line(&f.first),
                cdf_line(&f.other),
                f.median_gap_ms
            );
            (text, json!(f))
        }
        ExperimentId::Fig19 => {
            let f = client::fig19(ds);
            let text = format!(
                "hardware rendering mean drop: {:.2}%\n{}",
                f.hardware_mean_pct,
                binned_table(&f.by_rate, "rate_s/s")
            );
            (text, json!(f))
        }
        ExperimentId::Fig20 => {
            let rows = controlled::fig20(7, 400);
            let mut t = TextTable::new(&["loaded cores", "mode", "dropped %"]);
            for r in &rows {
                t.row(vec![
                    r.loaded_cores.to_string(),
                    if r.hardware { "gpu" } else { "software" }.into(),
                    format!("{:.2}", r.dropped_pct),
                ]);
            }
            (t.render(), json!(rows))
        }
        ExperimentId::Fig21 => {
            let rows = client::fig21(ds);
            let mut t = TextTable::new(&["platform", "browser", "% chunks", "% dropped"]);
            for r in &rows {
                t.row(vec![
                    r.os.label().into(),
                    r.browser.label().into(),
                    format!("{:.1}", r.chunk_share_pct),
                    format!("{:.2}", r.dropped_pct),
                ]);
            }
            (t.render(), json!(rows))
        }
        ExperimentId::Fig22 => {
            let f = client::fig22(ds, 50);
            let mut t = TextTable::new(&["browser,os", "dropped %", "chunks"]);
            for r in &f.rows {
                t.row(vec![
                    r.label.clone(),
                    format!("{:.2}", r.dropped_pct),
                    r.chunks.to_string(),
                ]);
            }
            let text = format!(
                "{}\naverage in the rest: {:.2}%",
                t.render(),
                f.rest_avg_pct
            );
            (text, json!(f))
        }
        ExperimentId::Tab05 => {
            let f = client::tab05(ds, 50);
            let mut t = TextTable::new(&["os", "browser", "mean D_DS ms", "nonzero chunks"]);
            for r in f.rows.iter().take(8) {
                t.row(vec![
                    r.os.label().into(),
                    r.browser.label().into(),
                    format!("{:.0}", r.mean_ds_ms),
                    r.nonzero_chunks.to_string(),
                ]);
            }
            let buckets = client::dds_vs_rebuffering(ds);
            let text = format!(
                "{}\nchunks with non-zero D_DS bound: {:.1}%\nD_DS by rebuffering bucket (none / <=10% / >10%):\n  Eq.5 estimate: {:.0} / {:.0} / {:.0} ms   (what production sees; the paper reports <100 / 250 / >500)\n  ground truth:  {:.0} / {:.0} / {:.0} ms   (the estimator's network sensitivity supplies part of the paper's association)",
                t.render(),
                100.0 * f.nonzero_fraction,
                buckets.est_no_rebuffer_ms,
                buckets.est_some_rebuffer_ms,
                buckets.est_heavy_rebuffer_ms,
                buckets.no_rebuffer_ms,
                buckets.some_rebuffer_ms,
                buckets.heavy_rebuffer_ms,
            );
            (text, json!({ "table": f, "dds_vs_rebuffering": buckets }))
        }
        ExperimentId::Loc => {
            let t = localization::localization(ds);
            (t.render(), json!(t))
        }
        ExperimentId::Stats => {
            let s = cdn::headline_stats(ds);
            let corr = out.load_latency_correlation();
            let trends = network::trend_strengths(ds);
            let qoe = streamlab_analysis::qoe::summarize(ds);
            let text = format!(
                "sessions={} chunks={} retention={:.1}%\nmiss rate={:.2}% ram hit={:.1}% retry timer fired={:.1}%\nhit median={:.2} ms miss median={:.2} ms\ntop-decile play share={:.1}%\npersistence: miss ratio in miss-sessions={:.0}% | slow-read ratio in slow-sessions={:.0}%\nsessions with first-chunk server problem={:.1}%\nload vs latency correlation across servers={:.2}\ntrends (spearman): startup~server={:.2} startup~srtt={:.2} rebuf~retx={:.2} drops~rate={:.2}\nQoE: startup p50={:.2}s p90={:.2}s | rebuffered sessions={:.1}% | acceptable QoE={:.1}%",
                s.sessions,
                s.chunks,
                100.0 * s.retention,
                100.0 * s.miss_rate,
                100.0 * s.ram_hit_rate,
                100.0 * s.retry_fraction,
                s.hit_median_ms,
                s.miss_median_ms,
                100.0 * s.top_decile_play_share,
                100.0 * s.mean_miss_ratio_in_miss_sessions,
                100.0 * s.mean_slow_ratio_in_slow_sessions,
                100.0 * s.sessions_with_server_problem,
                corr,
                trends.startup_vs_server,
                trends.startup_vs_srtt,
                trends.rebuffer_vs_retx,
                trends.drops_vs_rate,
                qoe.startup_s.p50,
                qoe.startup_s.p90,
                100.0 * qoe.any_rebuffer_share,
                100.0 * qoe.acceptable_share,
            );
            (
                text,
                json!({ "stats": s, "load_latency_correlation": corr, "trends": trends, "qoe": qoe }),
            )
        }
    };
    ExperimentResult {
        id,
        title: id.title().to_owned(),
        text,
        json,
    }
}

/// Run every exhibit, in paper order.
pub fn run_all(out: &RunOutput) -> Vec<ExperimentResult> {
    ExperimentId::all()
        .iter()
        .map(|&id| run_experiment(id, out))
        .collect()
}

/// Render exhibit results as one combined report.
pub fn render_report(results: &[ExperimentResult]) -> String {
    let mut s = String::new();
    for r in results {
        s.push_str(&format!("== {} ==\n{}\n\n", r.title, r.text));
    }
    s
}

/// Run every exhibit and render one combined report.
pub fn full_report(out: &RunOutput) -> String {
    render_report(&run_all(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimulationConfig;
    use crate::simulate::Simulation;

    #[test]
    fn every_experiment_runs_on_a_tiny_dataset() {
        let out = Simulation::new(SimulationConfig::tiny(11))
            .run()
            .expect("run");
        for &id in ExperimentId::all() {
            let r = run_experiment(id, &out);
            assert!(!r.text.is_empty(), "{id:?} produced empty text");
            assert!(!r.title.is_empty());
            // JSON must be serializable back to a string.
            let _ = serde_json::to_string(&r.json).expect("json");
        }
    }

    #[test]
    fn full_report_mentions_every_title() {
        let out = Simulation::new(SimulationConfig::tiny(12))
            .run()
            .expect("run");
        let report = full_report(&out);
        for &id in ExperimentId::all() {
            assert!(report.contains(id.title()), "missing {id:?}");
        }
    }
}
