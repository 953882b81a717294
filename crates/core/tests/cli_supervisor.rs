//! End-to-end CLI coverage for the crash-safe supervisor layer: a
//! SIGKILL-equivalent abort mid-sweep resumes to byte-identical output at
//! any thread count, the shard watchdog turns a wedged shard into partial
//! results instead of a hang, a sweep that loses a shard says so per seed,
//! `--audit` verifies a finished run (faulted ones too), and the removed
//! `sweep --days` alias fails fast pointing at `--seeds`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_streamlab")
}

fn repo_example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("streamlab-cli-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn streamlab")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn killed_sweep_resumes_to_byte_identical_output_at_any_thread_count() {
    let kill_faults = repo_example("faults_kill_after.json");
    let kill_faults = kill_faults.to_str().unwrap();

    for threads in ["1", "2", "8"] {
        let dir_kill = scratch(&format!("kill-{threads}"));
        let dir_clean = scratch(&format!("clean-{threads}"));
        let base = [
            "sweep",
            "--scale",
            "tiny",
            "--seeds",
            "4",
            "--seed",
            "42",
            "--threads",
            threads,
        ];

        // The kill_after fault aborts the process after 2 seed records hit
        // disk — the harness's stand-in for the machine dying mid-sweep.
        let killed = run(&[
            &base[..],
            &["--out", dir_kill.to_str().unwrap(), "--faults", kill_faults],
        ]
        .concat());
        assert!(
            !killed.status.success(),
            "threads={threads}: kill_after run should die, stderr:\n{}",
            stderr_of(&killed)
        );
        let records = fs::read_dir(dir_kill.join("seeds"))
            .expect("seeds dir")
            .count();
        assert!(
            (1..4).contains(&records),
            "threads={threads}: expected a partial checkpoint, found {records} records"
        );

        let resumed = run(&["sweep", "--resume", dir_kill.to_str().unwrap()]);
        assert!(
            resumed.status.success(),
            "threads={threads}: resume failed:\n{}",
            stderr_of(&resumed)
        );
        assert!(
            stderr_of(&resumed).contains("resumed"),
            "threads={threads}: resume should report recovered seeds"
        );

        let clean = run(&[&base[..], &["--out", dir_clean.to_str().unwrap()]].concat());
        assert!(clean.status.success());

        assert_eq!(
            resumed.stdout, clean.stdout,
            "threads={threads}: resumed table differs from an uninterrupted run"
        );
        let merged = fs::read(dir_kill.join("sweep.json")).expect("resumed sweep.json");
        let reference = fs::read(dir_clean.join("sweep.json")).expect("clean sweep.json");
        assert_eq!(
            merged, reference,
            "threads={threads}: resumed sweep.json differs from an uninterrupted run"
        );

        let _ = fs::remove_dir_all(&dir_kill);
        let _ = fs::remove_dir_all(&dir_clean);
    }
}

#[test]
fn sweep_days_alias_is_gone_and_points_at_seeds() {
    // The alias shipped a deprecation warning for several releases and has
    // now been removed: it must fail fast, name the replacement, and not
    // run anything.
    let dir = scratch("days");
    let out = run(&[
        "sweep",
        "--scale",
        "tiny",
        "--days",
        "1",
        "--seed",
        "7",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "`sweep --days` must be an error now");
    let err = stderr_of(&out);
    assert!(
        err.contains("removed"),
        "stderr should say it was removed:\n{err}"
    );
    assert!(
        err.contains("--seeds"),
        "error should name the replacement:\n{err}"
    );
    assert!(
        !dir.exists(),
        "a rejected sweep must not create its out dir"
    );

    // The blessed spelling works and stays quiet.
    let dir2 = scratch("seeds");
    let out = run(&[
        "sweep",
        "--scale",
        "tiny",
        "--seeds",
        "1",
        "--seed",
        "7",
        "--out",
        dir2.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr:\n{}", stderr_of(&out));
    assert!(
        !stderr_of(&out).contains("deprecated"),
        "--seeds must not warn"
    );

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}

#[test]
fn stalled_shard_is_cancelled_and_the_run_finishes_with_partial_results() {
    let dir = scratch("watchdog");
    let faults = repo_example("faults_stalled_shard.json");
    let out = run(&[
        "run",
        "--scale",
        "tiny",
        "--threads",
        "2",
        "--faults",
        faults.to_str().unwrap(),
        "--shard-deadline",
        "0.3",
        "--out",
        dir.to_str().unwrap(),
    ]);
    // The wedged shard is abandoned, not fatal: the run completes with the
    // surviving PoPs and says so.
    assert!(out.status.success(), "stderr:\n{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("stalled"), "stderr:\n{err}");
    assert!(err.contains("cancelled by the watchdog"), "stderr:\n{err}");
    assert!(err.contains("partial results"), "stderr:\n{err}");
    assert!(dir.join("report.txt").is_file(), "report still emitted");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweep_with_a_lost_shard_warns_naming_the_seed() {
    let dir = scratch("sweep-shard-panic");
    let faults = repo_example("faults_shard_panic.json");
    let out = run(&[
        "sweep",
        "--scale",
        "tiny",
        "--seeds",
        "2",
        "--threads",
        "2",
        "--seed",
        "7",
        "--faults",
        faults.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    // Like `run`, the sweep keeps each seed's surviving shards, and says
    // which seed lost what.
    assert!(out.status.success(), "stderr:\n{}", stderr_of(&out));
    let err = stderr_of(&out);
    for seed in [7, 8] {
        assert!(
            err.contains(&format!(
                "warning: partial results — seed {seed}: shard for PoP 0 panicked"
            )),
            "stderr:\n{err}"
        );
        assert!(
            err.contains(&format!(
                "warning: seed {seed}: 1 shard(s) lost; the dataset covers the surviving shards' servers only"
            )),
            "stderr:\n{err}"
        );
    }
    assert!(dir.join("sweep.json").is_file(), "summary still written");
    let _ = fs::remove_dir_all(&dir);
}

/// The outage scenario aborts sessions before their first chunk. Such a
/// session still sends its beacon, but every join drops sessions with no
/// chunks, so the audited population may fall short of the started one
/// by at most the aborts — and the repository's own scenario must pass.
#[test]
fn audit_passes_on_the_outage_scenario_with_early_aborts() {
    let faults = repo_example("faults_outage_restart.json");
    let dir = scratch("audit-outage");
    for (cmd, extra) in [("run", &[][..]), ("sweep", &["--seeds", "2"][..])] {
        let out_dir = dir.join(cmd);
        let args = [
            &[
                cmd,
                "--scale",
                "tiny",
                "--seed",
                "7",
                "--audit",
                "--faults",
                faults.to_str().unwrap(),
                "--out",
                out_dir.to_str().unwrap(),
            ][..],
            extra,
        ]
        .concat();
        let out = run(&args);
        assert!(out.status.success(), "{cmd}: stderr:\n{}", stderr_of(&out));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn audited_run_reports_all_invariants_hold() {
    let dir = scratch("audit");
    let out = run(&[
        "run",
        "--scale",
        "tiny",
        "--threads",
        "2",
        "--audit",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr:\n{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("invariants checked, all hold"),
        "stderr:\n{err}"
    );
    let _ = fs::remove_dir_all(&dir);
}
