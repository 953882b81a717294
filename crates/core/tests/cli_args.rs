//! The CLI's argument checks: `--help`/`-h` print the usage and run
//! nothing; an unknown option, a stray positional argument or a zero
//! `--seeds` is an error (exit 1, with the usage) and runs nothing
//! either.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// An empty working directory for one invocation, so a command that ran
/// anyway would leave its default `streamlab-out` there.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("streamlab-args-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_in(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_streamlab"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn streamlab")
}

/// `args` print the usage on stdout, exit 0 and create nothing.
fn prints_usage(name: &str, args: &[&str]) {
    let dir = scratch(name);
    let out = run_in(&dir, args);
    assert!(out.status.success(), "{args:?}: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: streamlab"), "{args:?}: {stdout}");
    assert_eq!(
        fs::read_dir(&dir).unwrap().count(),
        0,
        "{args:?} wrote files"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `args` fail with exit 1, an error naming `culprit` and the usage, and
/// create nothing.
fn rejected(name: &str, args: &[&str], culprit: &str) {
    let dir = scratch(name);
    let out = run_in(&dir, args);
    assert_eq!(out.status.code(), Some(1), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with(&format!("error: {culprit}\n")),
        "{args:?}: {stderr}"
    );
    assert!(stderr.contains("usage: streamlab"), "{args:?}: {stderr}");
    assert_eq!(
        fs::read_dir(&dir).unwrap().count(),
        0,
        "{args:?} wrote files"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn long_help_prints_usage_and_runs_nothing() {
    prints_usage("long-help", &["run", "--help"]);
    prints_usage("bare-help", &["--help"]);
}

#[test]
fn short_help_prints_usage_and_runs_nothing() {
    prints_usage("short-help", &["sweep", "--scale", "tiny", "-h"]);
    prints_usage("bare-short-help", &["-h"]);
}

#[test]
fn unknown_option_is_rejected() {
    rejected(
        "unknown-option",
        &["sweep", "--scale", "tiny", "--seeds", "1", "--thread", "2"],
        "unknown option '--thread'",
    );
    rejected("unknown-short", &["run", "-x"], "unknown option '-x'");
}

#[test]
fn stray_positional_argument_is_rejected() {
    rejected(
        "stray-run",
        &["run", "--scale", "tiny", "extra"],
        "unexpected argument 'extra'",
    );
    rejected(
        "stray-experiment",
        &["experiment", "Fig05", "Fig06"],
        "unexpected argument 'Fig06'",
    );
}

#[test]
fn zero_seeds_is_rejected() {
    rejected(
        "zero-seeds-sweep",
        &["sweep", "--scale", "tiny", "--seeds", "0"],
        "--seeds must be at least 1",
    );
    rejected(
        "zero-seeds-submit",
        &["submit", "--scale", "tiny", "--seeds", "0"],
        "--seeds must be at least 1",
    );
}
