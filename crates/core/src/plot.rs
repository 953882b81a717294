//! Gnuplot emitters: turn experiment results into `.dat` + `.gp` files so
//! every figure can be rendered visually with stock gnuplot
//! (`gnuplot figNN.gp` → `figNN.png`).
//!
//! The emitters use the same figure functions as the experiment registry,
//! but [`emit_all`] calls them again rather than reading the exhibits'
//! results: each of its figures is recomputed from the run, and its CDFs
//! are sampled at 300 points where the exhibits use 200.

use crate::simulate::RunOutput;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use streamlab_analysis::figures::{cdn, client, network, CdfSeries};
use streamlab_analysis::stats::BinnedSeries;
use streamlab_supervisor::atomic_write;

/// All plot files go through the atomic temp-file + rename path: a crash
/// mid-emission never leaves a torn `.dat`/`.gp` for gnuplot to choke on.
fn write_file(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    atomic_write(path.as_ref(), contents.as_ref())
}

/// Write `series` as a two-column `.dat` file.
fn write_xy(path: &Path, points: &[(f64, f64)]) -> io::Result<()> {
    let mut s = String::new();
    for (x, y) in points {
        let _ = writeln!(s, "{x} {y}");
    }
    write_file(path, s)
}

/// Write a binned series as `x mean median q25 q75`.
fn write_binned(path: &Path, series: &BinnedSeries) -> io::Result<()> {
    let mut s = String::from("# x mean median q25 q75 n\n");
    for b in &series.bins {
        let _ = writeln!(
            s,
            "{} {} {} {} {} {}",
            b.x_center, b.mean, b.median, b.q25, b.q75, b.count
        );
    }
    write_file(path, s)
}

/// A gnuplot script plotting one or more curves from `.dat` files.
fn gp_script(
    out_png: &str,
    title: &str,
    xlabel: &str,
    ylabel: &str,
    logx: bool,
    plots: &[(String, String)],
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "set terminal pngcairo size 800,560");
    let _ = writeln!(s, "set output '{out_png}'");
    let _ = writeln!(s, "set title '{title}'");
    let _ = writeln!(s, "set xlabel '{xlabel}'");
    let _ = writeln!(s, "set ylabel '{ylabel}'");
    let _ = writeln!(s, "set key bottom right");
    let _ = writeln!(s, "set grid");
    if logx {
        let _ = writeln!(s, "set logscale x");
    }
    let specs: Vec<String> = plots
        .iter()
        .map(|(file, label)| format!("'{file}' using 1:2 with lines lw 2 title '{label}'"))
        .collect();
    let _ = writeln!(s, "plot {}", specs.join(", \\\n     "));
    s
}

fn cdf_plot(
    dir: &Path,
    stem: &str,
    title: &str,
    xlabel: &str,
    logx: bool,
    series: &[&CdfSeries],
) -> io::Result<()> {
    let mut plots = Vec::new();
    for (i, s) in series.iter().enumerate() {
        let dat = format!("{stem}_{i}.dat");
        write_xy(&dir.join(&dat), &s.points)?;
        plots.push((dat, s.label.clone()));
    }
    let script = gp_script(&format!("{stem}.png"), title, xlabel, "CDF", logx, &plots);
    write_file(dir.join(format!("{stem}.gp")), script)
}

fn binned_plot(
    dir: &Path,
    stem: &str,
    title: &str,
    xlabel: &str,
    ylabel: &str,
    series: &BinnedSeries,
) -> io::Result<()> {
    let dat = format!("{stem}.dat");
    write_binned(&dir.join(&dat), series)?;
    let mut s = String::new();
    let _ = writeln!(s, "set terminal pngcairo size 800,560");
    let _ = writeln!(s, "set output '{stem}.png'");
    let _ = writeln!(s, "set title '{title}'");
    let _ = writeln!(s, "set xlabel '{xlabel}'");
    let _ = writeln!(s, "set ylabel '{ylabel}'");
    let _ = writeln!(s, "set grid");
    let _ = writeln!(
        s,
        "plot '{dat}' using 1:2 with linespoints lw 2 title 'mean', \\\n     '{dat}' using 1:3:4:5 with yerrorbars title 'median (IQR)'"
    );
    write_file(dir.join(format!("{stem}.gp")), s)
}

/// Emit `.dat` + `.gp` files for every plottable exhibit into `dir`.
/// Returns the number of gnuplot scripts written.
pub fn emit_all(out: &RunOutput, dir: &Path) -> io::Result<usize> {
    fs::create_dir_all(dir)?;
    let ds = &out.dataset;
    let points = 300;
    let mut n = 0;

    let f3a = cdn::fig03a(&out.catalog, points);
    cdf_plot(
        dir,
        "fig03a",
        "CCDF of video lengths",
        "video length (s)",
        true,
        &[&f3a],
    )?;
    n += 1;

    let f3b = cdn::fig03b(ds);
    write_xy(&dir.join("fig03b.dat"), &f3b)?;
    write_file(
        dir.join("fig03b.gp"),
        gp_script(
            "fig03b.png",
            "Rank vs popularity",
            "normalized rank",
            "normalized frequency",
            true,
            &[("fig03b.dat".into(), "plays".into())],
        )
        .replace("set logscale x", "set logscale xy"),
    )?;
    n += 1;

    binned_plot(
        dir,
        "fig04",
        "Startup time vs server latency",
        "server latency (ms)",
        "startup (s)",
        &cdn::fig04(ds),
    )?;
    n += 1;

    let f5 = cdn::fig05(ds, points);
    let refs: Vec<&CdfSeries> = f5.iter().collect();
    cdf_plot(
        dir,
        "fig05",
        "CDN latency breakdown",
        "latency (ms)",
        true,
        &refs,
    )?;
    n += 1;

    binned_plot(
        dir,
        "fig07",
        "Startup vs first-chunk SRTT",
        "srtt (ms)",
        "startup (s)",
        &network::fig07(ds),
    )?;
    n += 1;

    let (mins, sigmas) = network::fig08(ds, points);
    cdf_plot(
        dir,
        "fig08",
        "Session latency: baseline and variation",
        "latency (ms)",
        true,
        &[&mins, &sigmas],
    )?;
    n += 1;

    let f9 = network::fig09(ds, 100.0, points);
    cdf_plot(
        dir,
        "fig09",
        "Distance of US tail-latency prefixes",
        "distance (km)",
        false,
        &[&f9.distance_cdf],
    )?;
    n += 1;

    let f10 = network::fig10(ds, 2, points);
    cdf_plot(
        dir,
        "fig10",
        "CV of latency per (prefix, PoP)",
        "CV(srtt)",
        false,
        &[&f10],
    )?;
    n += 1;

    let f11 = network::fig11(ds, points);
    cdf_plot(
        dir,
        "fig11a",
        "Session length, loss vs no loss",
        "#chunks",
        false,
        &[&f11.len_no_loss, &f11.len_loss],
    )?;
    cdf_plot(
        dir,
        "fig11b",
        "Average bitrate, loss vs no loss",
        "kbps",
        true,
        &[&f11.bitrate_no_loss, &f11.bitrate_loss],
    )?;
    cdf_plot(
        dir,
        "fig11c",
        "Rebuffering CCDF, loss vs no loss",
        "rebuffering rate (%)",
        true,
        &[&f11.rebuf_no_loss, &f11.rebuf_loss],
    )?;
    n += 3;

    binned_plot(
        dir,
        "fig12",
        "Rebuffering vs retransmission rate",
        "retx (%)",
        "rebuffering (%)",
        &network::fig12(ds),
    )?;

    // Fig. 14: unconditional and loss-conditioned rebuffering per chunk.
    let f14 = network::fig14(ds, 19);
    let mut dat = String::from(
        "# chunk p_rebuf p_rebuf_given_loss
",
    );
    for r in &f14 {
        let _ = writeln!(dat, "{} {} {}", r.chunk, r.p_rebuf, r.p_rebuf_given_loss);
    }
    write_file(dir.join("fig14.dat"), dat)?;
    write_file(
        dir.join("fig14.gp"),
        "set terminal pngcairo size 800,560
set output 'fig14.png'
         set title 'Rebuffering frequency per chunk ID'
         set xlabel 'chunk ID'
set ylabel '%'
set grid
         plot 'fig14.dat' using 1:2 with linespoints lw 2 title 'P(rebuf at X)', \
                   'fig14.dat' using 1:3 with linespoints lw 2 title 'P(rebuf at X | loss at X)'
",
    )?;

    binned_plot(
        dir,
        "fig15",
        "Retransmission rate per chunk ID",
        "chunk ID",
        "retx (%)",
        &network::fig15(ds, 19),
    )?;
    n += 3;

    let f16 = network::fig16(ds, points);
    cdf_plot(
        dir,
        "fig16a",
        "Latency share by perf score",
        "D_FB/(D_FB+D_LB)",
        false,
        &[&f16.share_good, &f16.share_bad],
    )?;
    cdf_plot(
        dir,
        "fig16b",
        "D_FB by perf score",
        "D_FB (ms)",
        true,
        &[&f16.dfb_good, &f16.dfb_bad],
    )?;
    cdf_plot(
        dir,
        "fig16c",
        "D_LB by perf score",
        "D_LB (ms)",
        true,
        &[&f16.dlb_good, &f16.dlb_bad],
    )?;
    n += 3;

    let f18 = client::fig18(ds, (40.0, 90.0), points);
    cdf_plot(
        dir,
        "fig18",
        "D_FB: first vs other chunks (equivalent set)",
        "D_FB (ms)",
        true,
        &[&f18.first, &f18.other],
    )?;
    n += 1;

    binned_plot(
        dir,
        "fig19",
        "Dropped frames vs download rate",
        "download rate (s/s)",
        "dropped (%)",
        &client::fig19(ds).by_rate,
    )?;
    n += 1;

    // Fig. 20 (controlled) as an impulse plot.
    let rows = crate::controlled::fig20(7, 400);
    let mut dat = String::from("# loaded_cores dropped_pct\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(dat, "{} {}", i, r.dropped_pct);
    }
    write_file(dir.join("fig20.dat"), dat)?;
    write_file(
        dir.join("fig20.gp"),
        "set terminal pngcairo size 800,560\nset output 'fig20.png'\n\
         set title 'Dropped frames vs CPU load (controlled)'\n\
         set xlabel 'configuration (gpu, then 0-8 loaded cores)'\nset ylabel 'dropped (%)'\n\
         set boxwidth 0.6\nset style fill solid\nplot 'fig20.dat' using 1:2 with boxes title 'dropped %'\n",
    )?;
    n += 1;

    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimulationConfig;
    use crate::simulate::Simulation;

    #[test]
    fn emits_plots_for_a_tiny_run() {
        let out = Simulation::new(SimulationConfig::tiny(61)).run().unwrap();
        let dir = std::env::temp_dir().join("streamlab-plot-test");
        let _ = fs::remove_dir_all(&dir);
        let n = emit_all(&out, &dir).expect("emit");
        assert!(n >= 15, "only {n} scripts");
        // Every script references dat files that exist next to it.
        for entry in fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().map(|e| e == "gp").unwrap_or(false) {
                let script = fs::read_to_string(&p).unwrap();
                for token in script.split('\'') {
                    if token.ends_with(".dat") {
                        assert!(
                            dir.join(token).exists(),
                            "{} references missing {token}",
                            p.display()
                        );
                    }
                }
            }
        }
        // Dat files are non-empty, numeric, two+ columns.
        let sample = fs::read_to_string(dir.join("fig05_0.dat")).unwrap();
        let line = sample.lines().next().unwrap();
        assert!(line.split_whitespace().count() >= 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
