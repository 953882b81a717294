//! Fleet-service glue: the simulator's [`JobRunner`] implementation for
//! the `streamlab serve` daemon.
//!
//! The service crate (`streamlab-service`) owns the queue, the workers,
//! admission control, and crash recovery; this module owns everything
//! simulator-shaped:
//!
//! * [`SweepRunner`] executes one sweep seed per [`JobRunner::run_seed`]
//!   call, recording the same bit-exact payload the CLI's checkpointed
//!   sweep writes ([`crate::sweep`]), and assembles the same
//!   `sweep.json` summary — so a daemon-run sweep's output is
//!   byte-identical to `streamlab sweep` with the same configuration,
//!   killed or not, at any thread count.
//! * [`sweep_spec`] builds the submission a client sends: the simulation
//!   config normalized exactly like the sweep checkpoint manifest
//!   (per-seed `seed` zeroed, the driver-level kill fault stripped).
//!
//! Failure containment is the point of the split: a seed whose shards
//! stall (watchdog) or panic fails *its job* with a structured error
//! carrying the shard diagnostics — the daemon and every other queued job
//! keep running.

use crate::config::SimulationConfig;
use crate::simulate::{ShardError, SimError};
use crate::sweep::{manifest_config, payload_metrics, run_seed, seed_payload, SweepSummary};
use serde::{Deserialize, Serialize, Value};
use serde_json::json;
use streamlab_service::{JobCost, JobError, JobRunner, JobSpec, SeedContext};

/// The one job kind the daemon runs today.
pub const SWEEP_KIND: &str = "sweep";

/// Build the [`JobSpec`] for a seed-robustness sweep of `base` over
/// `seeds`. The embedded config is normalized the same way the sweep
/// checkpoint manifest is, so the job's identity (and its checkpoints)
/// do not depend on which seed or kill-fault the submitting CLI happened
/// to carry.
pub fn sweep_spec(
    label: &str,
    base: &SimulationConfig,
    seeds: Vec<u64>,
    priority: i64,
    audit: bool,
) -> JobSpec {
    JobSpec {
        label: label.to_owned(),
        kind: SWEEP_KIND.to_owned(),
        config: manifest_config(base),
        seeds,
        threads: base.threads,
        priority,
        audit,
    }
}

/// The simulator-side job runner: validates sweep specs, runs seeds,
/// and summarizes byte-identically to the `sweep` subcommand.
pub struct SweepRunner;

impl SweepRunner {
    fn parse_config(spec: &JobSpec) -> Result<SimulationConfig, JobError> {
        if spec.kind != SWEEP_KIND {
            return Err(JobError::new(
                "config",
                format!(
                    "unknown job kind '{}' (this runner serves '{SWEEP_KIND}')",
                    spec.kind
                ),
            ));
        }
        if spec.seeds.is_empty() {
            return Err(JobError::new("config", "job plans no seeds"));
        }
        SimulationConfig::from_value(&spec.config)
            .map_err(|e| JobError::new("config", format!("config does not deserialize: {e}")))
    }
}

/// Turn the first shard error of a run into the job's structured failure.
fn shard_failure(seed: u64, errors: &[ShardError]) -> JobError {
    let first = &errors[0];
    let kind = match first {
        ShardError::Stalled { .. } => "shard_stalled",
        ShardError::Panicked { .. } => "shard_panicked",
    };
    JobError::with_detail(
        kind,
        format!("seed {seed}: {first}"),
        json!({
            "seed": seed,
            "shard_index": first.shard_index() as u64,
            "pop_index": first.pop_index() as u64,
            "servers": first.servers().iter().map(|&s| s as u64).collect::<Vec<u64>>(),
            "shard_errors": errors.len() as u64
        }),
    )
}

impl JobRunner for SweepRunner {
    fn prepare(&self, spec: &JobSpec) -> Result<JobCost, JobError> {
        let cfg = Self::parse_config(spec)?;
        Ok(JobCost {
            sessions: cfg.traffic.sessions as u64 * spec.seeds.len() as u64,
            threads: spec.threads,
        })
    }

    fn run_seed(
        &self,
        spec: &JobSpec,
        seed: u64,
        ctx: &SeedContext<'_>,
    ) -> Result<Value, JobError> {
        if ctx.cancelled() {
            return Err(JobError::new(
                "cancelled",
                "job cancelled before the seed started",
            ));
        }
        let mut cfg = Self::parse_config(spec)?;
        cfg.seed = seed;
        cfg.threads = spec.threads.max(1);
        // Belt and braces: the spec config is normalized at submission,
        // but a driver-level kill fault smuggled into a served job would
        // kill the daemon, not the job. Never honor it here.
        cfg.faults.kill_after_seeds = 0;

        let run = run_seed(cfg, spec.audit).map_err(|e| {
            let kind = match e {
                SimError::Audit(_) => "audit",
                _ => "sim",
            };
            JobError::new(kind, format!("seed {seed}: {e}"))
        })?;
        // A served job never ships partial results: the CLI warns and
        // keeps going, but a queued sweep's contract is byte-identity
        // with an uninterrupted run, so a lost shard is a job failure
        // with the shard diagnostics attached.
        if !run.shard_errors.is_empty() {
            return Err(shard_failure(seed, &run.shard_errors));
        }
        Ok(seed_payload(&run.metrics))
    }

    fn summarize(&self, _spec: &JobSpec, per_seed: &[(u64, Value)]) -> Result<String, JobError> {
        let mut metrics = Vec::with_capacity(per_seed.len());
        for (seed, payload) in per_seed {
            metrics.push(payload_metrics(payload).ok_or_else(|| {
                JobError::new(
                    "summarize",
                    format!("seed {seed}: checkpoint payload does not decode"),
                )
            })?);
        }
        let seeds: Vec<u64> = per_seed.iter().map(|(s, _)| *s).collect();
        let summary = SweepSummary::from_per_seed(seeds, metrics);
        // Byte-for-byte the file `streamlab sweep` writes.
        Ok(summary.to_value().to_json_pretty() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn tiny() -> SimulationConfig {
        let mut cfg = SimulationConfig::tiny(0);
        cfg.traffic.sessions = 250;
        cfg
    }

    fn ctx_never_cancelled() -> &'static AtomicBool {
        static FLAG: AtomicBool = AtomicBool::new(false);
        &FLAG
    }

    #[test]
    fn served_sweep_summary_matches_the_cli_sweep_byte_for_byte() {
        let base = tiny();
        let seeds = vec![11u64, 12];
        let spec = sweep_spec("t", &base, seeds.clone(), 0, false);
        let runner = SweepRunner;
        runner.prepare(&spec).expect("prepare");
        let ctx = SeedContext::new(ctx_never_cancelled());
        let per_seed: Vec<(u64, Value)> = seeds
            .iter()
            .map(|&s| (s, runner.run_seed(&spec, s, &ctx).expect("seed")))
            .collect();
        let served = runner.summarize(&spec, &per_seed).expect("summary");

        let direct = crate::sweep::run_seeds(&base, &seeds).expect("sweep");
        let expect = direct.to_value().to_json_pretty() + "\n";
        assert_eq!(served, expect, "served summary must byte-equal the CLI's");
    }

    #[test]
    fn bad_kind_and_empty_seeds_are_config_errors() {
        let base = tiny();
        let runner = SweepRunner;
        let mut spec = sweep_spec("t", &base, vec![1], 0, false);
        spec.kind = "nonsense".into();
        assert_eq!(runner.prepare(&spec).unwrap_err().kind, "config");
        let empty = sweep_spec("t", &base, vec![], 0, false);
        assert_eq!(runner.prepare(&empty).unwrap_err().kind, "config");
    }

    #[test]
    fn cost_scales_with_sessions_and_seed_count() {
        let base = tiny();
        let spec = sweep_spec("t", &base, vec![1, 2, 3], 0, false);
        let cost = SweepRunner.prepare(&spec).unwrap();
        assert_eq!(cost.sessions, 250 * 3);
    }
}
