//! The control socket parses requests from whoever can connect to it, so
//! a hostile request line, header list or body must cost the sender a
//! `400`, never the daemon its life or unbounded memory.

use serde::Value;
use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use streamlab_service::{
    Daemon, JobCost, JobError, JobRunner, JobSpec, SeedContext, ServiceConfig,
};

/// A runner no test job reaches: every body here is rejected before it
/// becomes a job.
struct NoJobs;

impl JobRunner for NoJobs {
    fn prepare(&self, _spec: &JobSpec) -> Result<JobCost, JobError> {
        Err(JobError::new("config", "no jobs in this test"))
    }

    fn run_seed(
        &self,
        _spec: &JobSpec,
        _seed: u64,
        _ctx: &SeedContext<'_>,
    ) -> Result<Value, JobError> {
        Err(JobError::new("sim", "no jobs in this test"))
    }

    fn summarize(&self, _spec: &JobSpec, _per_seed: &[(u64, Value)]) -> Result<String, JobError> {
        Err(JobError::new("summarize", "no jobs in this test"))
    }
}

fn start(name: &str) -> (Daemon, PathBuf) {
    let state =
        std::env::temp_dir().join(format!("streamlab-hostile-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&state);
    let daemon = Daemon::start(
        ServiceConfig {
            state_dir: state.clone(),
            workers: 1,
            ..Default::default()
        },
        Arc::new(NoJobs),
    )
    .expect("daemon starts");
    (daemon, state)
}

fn stop(daemon: Daemon, state: PathBuf) {
    let health = daemon
        .client()
        .healthz()
        .expect("the daemon is still serving");
    assert_eq!(health.status, 200);
    daemon.shutdown();
    let _ = fs::remove_dir_all(&state);
}

/// Send `request` as raw bytes and return the reply's status code. The
/// daemon may answer and close before it has read everything sent, so
/// write errors and a reset after the reply are not failures; a daemon
/// still waiting for more input fails the test after 10 s.
fn raw_status(daemon: &Daemon, request: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set a read timeout");
    let _ = stream.write_all(request);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    let reply = String::from_utf8_lossy(&reply);
    reply
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {reply:?}"))
}

#[test]
fn deeply_nested_job_body_is_a_bad_request_and_the_daemon_survives() {
    let (daemon, state) = start("nested");
    let client = daemon.client();

    // 100 kB of `[`: one nesting level per byte.
    let body = "[".repeat(100_000);
    let reply = client
        .request("POST", "/jobs", Some(&body))
        .expect("the daemon answers");
    assert_eq!(reply.status, 400, "body: {:?}", reply.body);
    let error = reply
        .body
        .get("error")
        .and_then(|e| e.as_str())
        .unwrap_or("");
    assert!(error.contains("nest deeper"), "error: {error}");
    stop(daemon, state);
}

#[test]
fn oversized_or_endless_request_heads_are_bad_requests_and_the_daemon_survives() {
    let (daemon, state) = start("long-head");
    // Each is far past a bound (8 KiB per line, 100 header lines) yet
    // small enough that the whole request is sent before the reply is
    // read.
    let filler = "a".repeat(64 << 10);
    for request in [
        format!("GET /{filler}"),
        format!("GET /healthz HTTP/1.1\r\nX-Filler: {filler}"),
        format!(
            "GET /healthz HTTP/1.1\r\n{}",
            "X-Filler: 1\r\n".repeat(5_000)
        ),
    ] {
        assert_eq!(raw_status(&daemon, request.as_bytes()), 400);
    }
    stop(daemon, state);
}

#[test]
fn requests_at_the_limits_are_served() {
    let (daemon, state) = start("at-limits");
    // A request line of exactly 8 KiB, terminator included: routed, not
    // rejected.
    let head = "GET /";
    let tail = " HTTP/1.1\r\n\r\n";
    let line = format!(
        "{head}{}{tail}",
        "a".repeat((8 << 10) - head.len() - tail.len() + 2)
    );
    assert_eq!(line.split("\r\n").next().unwrap().len() + 2, 8 << 10);
    assert_eq!(raw_status(&daemon, line.as_bytes()), 404);
    // Exactly 100 header lines.
    let request = format!(
        "GET /healthz HTTP/1.1\r\n{}\r\n",
        "X-Filler: 1\r\n".repeat(100)
    );
    assert_eq!(raw_status(&daemon, request.as_bytes()), 200);
    stop(daemon, state);
}
