//! The control socket parses request bodies from whoever can connect to
//! it, so a hostile body must cost the sender a `400`, never the daemon
//! its life.

use serde::Value;
use std::fs;
use std::sync::Arc;
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

#[test]
fn deeply_nested_job_body_is_a_bad_request_and_the_daemon_survives() {
    let state = std::env::temp_dir().join(format!("streamlab-hostile-{}", std::process::id()));
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

    let health = client.healthz().expect("the daemon is still serving");
    assert_eq!(health.status, 200);
    daemon.shutdown();
    let _ = fs::remove_dir_all(&state);
}
