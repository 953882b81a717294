//! The traced replay must write exactly what the CLI writes: on a tiny
//! configuration, its outputs are compared byte for byte with the ones
//! the library's own engine and the CLI's output calls produce.

use perfbench_tracer::replay::{self, Workload};
use perfbench_tracer::trace::Layer;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use streamlab::experiments::{full_report, run_experiment, ExperimentId};
use streamlab::supervisor::{atomic_write, atomic_write_with};
use streamlab::telemetry::export;
use streamlab::{ObsOptions, Simulation};

/// A fresh directory per call: tests run in parallel threads of one
/// process, and some build the same configuration.
fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("perfbench-{}-{n}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Every file under `dir`, relative path → bytes, sorted.
fn tree(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                out.push((rel, fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// What `streamlab run` writes, produced by the library's engine.
fn cli_run_outputs(w: &Workload, dir: &Path) {
    let out = Simulation::new(w.config().unwrap())
        .run_observed(ObsOptions::default())
        .unwrap();
    atomic_write(&dir.join("report.txt"), full_report(&out).as_bytes()).unwrap();
    let mut all = serde_json::Map::new();
    for &id in ExperimentId::all() {
        all.insert(format!("{id:?}"), run_experiment(id, &out).json);
    }
    let figures = serde_json::to_string_pretty(&all).unwrap();
    atomic_write(&dir.join("figures.json"), figures.as_bytes()).unwrap();
    atomic_write_with(&dir.join("chunks.csv"), |f| {
        export::write_chunks_csv(&out.dataset, f)
    })
    .unwrap();
    atomic_write_with(&dir.join("sessions.csv"), |f| {
        export::write_sessions_csv(&out.dataset, f)
    })
    .unwrap();
    streamlab::plot::emit_all(&out, &dir.join("plots")).unwrap();
}

#[test]
fn run_replay_matches_the_cli_outputs_byte_for_byte() {
    let base = scratch("run");
    let replayed = base.join("replay");
    let w = Workload::from_cli_args(&args(&[
        "run",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--threads",
        "1",
        "--out",
        replayed.to_str().unwrap(),
    ]))
    .unwrap();
    let r = replay::replay(&w, 1024).unwrap();
    let expected = base.join("cli");
    fs::create_dir_all(&expected).unwrap();
    cli_run_outputs(&w, &expected);

    let (a, b) = (tree(&replayed), tree(&expected));
    assert!(a.len() > 5, "replay wrote {} files", a.len());
    assert_eq!(
        a.iter().map(|x| &x.0).collect::<Vec<_>>(),
        b.iter().map(|x| &x.0).collect::<Vec<_>>()
    );
    for ((name, x), (_, y)) in a.iter().zip(&b) {
        assert!(x == y, "{name} differs");
    }

    // Every chunk went through each per-chunk layer exactly once.
    let chunks = r.counters.chunks;
    assert!(chunks > 0);
    for layer in [Layer::ClientAbr, Layer::ClientStack, Layer::ClientRender] {
        assert_eq!(r.tracer.totals(layer).calls, chunks, "{}", layer.name());
    }
    let export = r.tracer.totals(Layer::TelemetryExport);
    assert_eq!(export.calls, 2);
    assert!(r.counters.export_write_calls > chunks);
    let self_ns: u64 = Layer::ALL.iter().map(|&l| r.tracer.totals(l).self_ns).sum();
    assert_eq!(self_ns + r.unattributed_ns, r.wall_ns);
    let _ = fs::remove_dir_all(&base);
}

fn sweep_json(spill: bool) -> (Vec<u8>, Vec<u8>, u64) {
    let base = scratch(if spill { "sweep-spill" } else { "sweep" });
    let replayed = base.join("replay");
    let mut list = vec![
        "sweep",
        "--scale",
        "tiny",
        "--seeds",
        "1",
        "--seed",
        "11",
        "--threads",
        "2",
    ];
    let spill_dir = base.join("spill");
    if spill {
        // A low threshold seals several segments even on a tiny run.
        list.extend(["--spill-dir", spill_dir.to_str().unwrap()]);
        list.extend(["--spill-threshold", "500"]);
    }
    list.extend(["--out", replayed.to_str().unwrap()]);
    let w = Workload::from_cli_args(&args(&list)).unwrap();
    let cfg = w.config().unwrap();
    let r = replay::replay(&w, 1024).unwrap();
    if spill {
        // Appends that filled the arena plus the engine's final seal().
        let segments = r.counters.sealed_segments;
        let seals = r.tracer.totals(Layer::TelemetrySeal).calls;
        assert!(segments > 1);
        assert!(seals == segments || seals == segments + 1);
    }
    let replay_bytes = fs::read(replayed.join("sweep.json")).unwrap();

    // What `streamlab sweep` writes, produced by the library's sweep.
    let expected = base.join("cli");
    let result = streamlab::sweep::run_seeds_checkpointed(&cfg, &[11], &expected, false).unwrap();
    let json = serde_json::to_string_pretty(&result.summary).unwrap() + "\n";
    let _ = fs::remove_dir_all(&base);
    (replay_bytes, json.into_bytes(), r.counters.chunks)
}

#[test]
fn sweep_replay_matches_the_cli_sweep_json() {
    let (replayed, expected, chunks) = sweep_json(false);
    assert!(chunks > 0);
    assert_eq!(replayed, expected);
}

#[test]
fn spilled_sweep_replay_matches_the_in_ram_sweep_json() {
    let (spilled, expected, _) = sweep_json(true);
    let (in_ram, _, _) = sweep_json(false);
    assert_eq!(spilled, expected);
    assert_eq!(spilled, in_ram);
}

#[test]
fn reference_counts_the_chunks_the_replay_simulates() {
    let base = scratch("reference");
    let out = base.join("out");
    let w = Workload::from_cli_args(&args(&[
        "run",
        "--scale",
        "tiny",
        "--seed",
        "5",
        "--out",
        out.to_str().unwrap(),
    ]))
    .unwrap();
    let reference = replay::reference(&w).unwrap();
    let r = replay::replay(&w, 1024).unwrap();
    assert_eq!(reference.chunks, r.counters.chunks);
    assert!(reference.sweep_json.is_none());
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn sizing_holds_the_chunk_count_near_its_target() {
    for seed in [1u64, 6] {
        let mut w = Workload::from_cli_args(&args(&[
            "run",
            "--scale",
            "tiny",
            "--seed",
            &seed.to_string(),
        ]))
        .unwrap();
        let target = 20_000;
        w.sessions = Some(replay::sessions_for(&w, target).unwrap());
        let chunks = replay::reference(&w).unwrap().chunks as f64;
        let off = (chunks - target as f64).abs() / target as f64;
        assert!(
            off < 0.1,
            "seed {seed}: {chunks} chunks for target {target}"
        );
    }
}

#[test]
fn unknown_cli_flags_are_refused() {
    assert!(Workload::from_cli_args(&args(&["run", "--faults", "x.json"])).is_err());
    assert!(Workload::from_cli_args(&args(&["sweep", "--seeds", "3"])).is_err());
    assert!(Workload::from_cli_args(&args(&["serve"])).is_err());
}
