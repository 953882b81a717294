//! The persisted job registry: the on-disk half of the daemon's queue.
//!
//! Layout under the daemon's state directory:
//!
//! ```text
//! <state>/jobs/job-000001/job.json    # JobManifest, atomically rewritten
//! <state>/jobs/job-000001/run/        # supervisor RunDir (sweep checkpoints)
//! <state>/jobs/job-000001/sweep.json  # final summary, written on completion
//! <state>/quarantine/job-000001/      # corrupted job dirs, moved aside
//! <state>/quarantine/job-000001.diagnostic.json
//! ```
//!
//! Restart recovery ([`Registry::recover`]) scans `jobs/`, re-reads every
//! manifest, and **quarantines instead of crashing**: a manifest that
//! fails to read, parse, or fingerprint-verify moves its whole job
//! directory into `quarantine/` next to a structured diagnostic naming
//! the failing stage, file, and error — recovery then continues with the
//! surviving jobs. A corrupted *sweep checkpoint* manifest inside an
//! otherwise-healthy job is quarantined the same way
//! ([`Registry::quarantine_run_dir`]) and the job simply recomputes its
//! seeds, which is byte-identical to never having checkpointed.
//!
//! Every persistence operation routes through a supervisor [`Storage`]
//! handle, so a `--storage-faults` plan can fail any of them
//! deterministically. [`Registry::probe_disk`] runs a full atomic write
//! through that handle to classify the state directory as healthy or
//! degraded ([`DiskHealth`]), and recovery sweeps out orphaned staging
//! files whose pid-stamped names would otherwise leak forever.

use crate::job::{JobManifest, JobState};
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use streamlab_supervisor::{ambient_storage, atomic_write_in, sweep_stale_staging_in, Storage};

/// File name of the per-job manifest inside its job directory.
pub const MANIFEST_FILE: &str = "job.json";
/// Subdirectory holding the job's sweep checkpoints (a supervisor
/// `RunDir`).
pub const RUN_SUBDIR: &str = "run";
/// File name of the job's final summary inside its job directory.
pub const SUMMARY_FILE: &str = "sweep.json";

/// Why (and where) a piece of persisted state was quarantined. Written
/// next to the quarantined directory as `<name>.diagnostic.json` and
/// reported through recovery.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuarantineDiagnostic {
    /// The directory (relative to the state dir) that was moved aside.
    pub job_dir: String,
    /// The recovery stage that failed: `read`, `parse`, `validate`.
    pub stage: String,
    /// The offending file.
    pub path: String,
    /// The underlying error text.
    pub error: String,
    /// Where the directory now lives (relative to the state dir).
    pub quarantined_to: String,
}

impl std::fmt::Display for QuarantineDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "quarantined {} -> {} ({} stage, {}): {}",
            self.job_dir, self.quarantined_to, self.stage, self.path, self.error
        )
    }
}

/// What a restart recovered: the usable manifests, the quarantined
/// wreckage, and the next free submission sequence number.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Every manifest that read, parsed, and verified cleanly, in
    /// `submit_seq` order. Terminal jobs are kept for status queries;
    /// `Queued`/`Running` jobs are the recovered queue.
    pub jobs: Vec<JobManifest>,
    /// One entry per quarantined directory.
    pub quarantined: Vec<QuarantineDiagnostic>,
    /// `max(submit_seq) + 1` over recovered jobs (1 on a fresh state
    /// dir), so new submissions never collide with recovered ones.
    pub next_seq: u64,
    /// Orphaned atomic-write staging files removed from the state dir
    /// and the job directories: their names embed a dead writer's pid,
    /// so nothing else would ever reclaim them.
    pub stale_staging: Vec<String>,
}

/// A structured state-directory failure: the shed `reason` the daemon
/// degrades with, plus the underlying error text. `disk_full` maps from
/// `ENOSPC`; every other write failure is `state_dir_unwritable`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageFailure {
    /// Machine-readable shed reason: `disk_full` or
    /// `state_dir_unwritable`.
    pub reason: &'static str,
    /// Human-readable context plus the underlying I/O error.
    pub message: String,
}

impl StorageFailure {
    /// Classify an I/O failure on the state directory.
    pub fn from_io(context: &str, e: &io::Error) -> StorageFailure {
        let reason = if e.kind() == io::ErrorKind::StorageFull {
            "disk_full"
        } else {
            "state_dir_unwritable"
        };
        StorageFailure {
            reason,
            message: format!("{context}: {e}"),
        }
    }
}

impl std::fmt::Display for StorageFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.reason, self.message)
    }
}

/// Outcome of a state-directory health probe.
#[derive(Debug, Clone)]
pub enum DiskHealth {
    /// The state directory accepts durable writes.
    Ok,
    /// The state directory refused a probe write; the daemon should
    /// shed with the contained reason until a later probe succeeds.
    Degraded(StorageFailure),
}

/// The daemon's state directory.
#[derive(Debug, Clone)]
pub struct Registry {
    root: PathBuf,
    storage: Storage,
}

impl Registry {
    /// Open (creating if absent) a state directory, via the ambient
    /// [`Storage`].
    pub fn open(root: &Path) -> Result<Registry, String> {
        Registry::open_in(ambient_storage(), root)
    }

    /// Open (creating if absent) a state directory, routing every
    /// persistence operation through `storage`.
    pub fn open_in(storage: Storage, root: &Path) -> Result<Registry, String> {
        for sub in ["jobs", "quarantine"] {
            let dir = root.join(sub);
            fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        Ok(Registry {
            root: root.to_owned(),
            storage,
        })
    }

    /// The state directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The storage handle all registry persistence goes through.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Probe whether the state directory accepts durable writes, by
    /// running a tiny atomic write through the full staging → fsync →
    /// rename → dir-fsync protocol. Cheap enough to run on every
    /// submission while degraded.
    pub fn probe_disk(&self) -> DiskHealth {
        let probe = self.root.join(".disk-probe");
        match atomic_write_in(&self.storage, &probe, b"{\"probe\":true}\n") {
            Ok(()) => {
                let _ = self.storage.remove_file(&probe);
                DiskHealth::Ok
            }
            Err(e) => DiskHealth::Degraded(StorageFailure::from_io("disk-health probe", &e)),
        }
    }

    /// Directory of job `id`.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join("jobs").join(id)
    }

    /// The job's sweep-checkpoint directory (a supervisor `RunDir`).
    pub fn run_dir(&self, id: &str) -> PathBuf {
        self.job_dir(id).join(RUN_SUBDIR)
    }

    /// The job's final summary path.
    pub fn summary_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join(SUMMARY_FILE)
    }

    /// Durably (re)write a job's manifest. Atomic: a kill mid-call
    /// leaves either the old manifest or the new one. Failures come
    /// back classified ([`StorageFailure`]) so the daemon can degrade
    /// with the right shed reason.
    pub fn save_manifest(&self, manifest: &JobManifest) -> Result<(), StorageFailure> {
        let dir = self.job_dir(&manifest.id);
        fs::create_dir_all(&dir)
            .map_err(|e| StorageFailure::from_io(&format!("creating {}", dir.display()), &e))?;
        let path = dir.join(MANIFEST_FILE);
        let json = manifest.to_value().to_json_pretty() + "\n";
        atomic_write_in(&self.storage, &path, json.as_bytes())
            .map_err(|e| StorageFailure::from_io("persisting job manifest", &e))
    }

    /// Move `dir` (under the state root) into `quarantine/`, write the
    /// structured diagnostic next to it, and return the diagnostic.
    /// Never fails recovery: if even the move fails, the diagnostic says
    /// so and the directory is left in place (recovery skips it).
    fn quarantine(
        &self,
        dir: &Path,
        stage: &str,
        path: &Path,
        error: String,
    ) -> QuarantineDiagnostic {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed".to_owned());
        // Find a free slot: job-000001, job-000001.2, job-000001.3, ...
        let qdir = self.root.join("quarantine");
        let mut dest = qdir.join(&name);
        let mut n = 1;
        while dest.exists() {
            n += 1;
            dest = qdir.join(format!("{name}.{n}"));
        }
        let moved = self.storage.rename(dir, &dest);
        let quarantined_to = match moved {
            Ok(()) => format!("quarantine/{}", dest.file_name().unwrap().to_string_lossy()),
            Err(e) => format!("(move failed: {e}; left in place)"),
        };
        let rel = |p: &Path| {
            p.strip_prefix(&self.root)
                .unwrap_or(p)
                .to_string_lossy()
                .into_owned()
        };
        let diag = QuarantineDiagnostic {
            job_dir: rel(dir),
            stage: stage.to_owned(),
            path: rel(path),
            error,
            quarantined_to,
        };
        let diag_path = dest.with_extension("diagnostic.json");
        let json = diag.to_value().to_json_pretty() + "\n";
        let _ = atomic_write_in(&self.storage, &diag_path, json.as_bytes());
        diag
    }

    /// Quarantine a job's *sweep checkpoint* directory (corrupt RunDir
    /// manifest) without touching the job itself: the job re-runs its
    /// seeds from scratch, byte-identical to never having checkpointed.
    pub fn quarantine_run_dir(&self, id: &str, error: String) -> QuarantineDiagnostic {
        let run = self.run_dir(id);
        // Quarantined run dirs are named after their job so several
        // corrupt checkpoints from one job's lifetime stay attributable.
        let tagged = self.job_dir(id).join(format!("{id}-run"));
        let dir = if self.storage.rename(&run, &tagged).is_ok() {
            tagged
        } else {
            run.clone()
        };
        self.quarantine(&dir, "validate", &run.join("manifest.json"), error)
    }

    /// Scan `jobs/` and rebuild the registry, quarantining anything that
    /// cannot be trusted. Never panics, never aborts on a bad entry.
    /// Orphaned atomic-write staging files (from writers that died
    /// between create and rename) are swept out of the state root and
    /// every job directory and reported in the diagnostics.
    pub fn recover(&self) -> RecoveryReport {
        let mut report = RecoveryReport {
            next_seq: 1,
            ..RecoveryReport::default()
        };
        let jobs_dir = self.root.join("jobs");
        report.stale_staging = sweep_stale_staging_in(&self.storage, &self.root);
        report
            .stale_staging
            .extend(sweep_stale_staging_in(&self.storage, &jobs_dir));
        let entries = match fs::read_dir(&jobs_dir) {
            Ok(e) => e,
            Err(_) => return report,
        };
        for entry in entries.flatten() {
            let dir = entry.path();
            if !dir.is_dir() {
                continue; // stray files are not ours to judge
            }
            report
                .stale_staging
                .extend(sweep_stale_staging_in(&self.storage, &dir));
            let manifest_path = dir.join(MANIFEST_FILE);
            let text = match self.storage.read_to_string(&manifest_path) {
                Ok(t) => t,
                Err(e) => {
                    report.quarantined.push(self.quarantine(
                        &dir,
                        "read",
                        &manifest_path,
                        e.to_string(),
                    ));
                    continue;
                }
            };
            let manifest = Value::parse_json(&text)
                .map_err(|e| e.to_string())
                .and_then(|v| JobManifest::from_value(&v).map_err(|e| e.to_string()));
            let manifest = match manifest {
                Ok(m) => m,
                Err(e) => {
                    report
                        .quarantined
                        .push(self.quarantine(&dir, "parse", &manifest_path, e));
                    continue;
                }
            };
            if let Err(e) = manifest.verify() {
                report
                    .quarantined
                    .push(self.quarantine(&dir, "validate", &manifest_path, e));
                continue;
            }
            report.next_seq = report.next_seq.max(manifest.submit_seq + 1);
            report.jobs.push(manifest);
        }
        report.jobs.sort_by_key(|m| m.submit_seq);
        report
    }
}

/// Recovery policy for one recovered manifest: what state it re-enters
/// the daemon in. `Running` jobs were interrupted mid-execution and go
/// back to `Queued` (their completed seeds are recovered from the run
/// directory's checkpoints, so no work repeats).
pub fn recovered_state(m: &JobManifest) -> JobState {
    match m.state {
        JobState::Running => JobState::Queued,
        s => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use serde_json::json;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("streamlab-registry-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(n: u64) -> JobSpec {
        JobSpec {
            label: format!("job {n}"),
            kind: "sweep".into(),
            config: json!({ "sessions": n }),
            seeds: vec![n],
            threads: 1,
            priority: 0,
            audit: false,
        }
    }

    fn manifest(seq: u64) -> JobManifest {
        JobManifest::new(format!("job-{seq:06}"), seq, spec(seq), None)
    }

    #[test]
    fn save_recover_roundtrip_orders_by_seq() {
        let root = scratch("roundtrip");
        let reg = Registry::open(&root).unwrap();
        for seq in [3, 1, 2] {
            reg.save_manifest(&manifest(seq)).unwrap();
        }
        let report = reg.recover();
        assert!(report.quarantined.is_empty());
        assert_eq!(
            report.jobs.iter().map(|m| m.submit_seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(report.next_seq, 4);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_manifest_is_quarantined_and_recovery_continues() {
        let root = scratch("corrupt");
        let reg = Registry::open(&root).unwrap();
        reg.save_manifest(&manifest(1)).unwrap();
        reg.save_manifest(&manifest(2)).unwrap();
        // Truncate job 1's manifest mid-token.
        let bad = reg.job_dir("job-000001").join(MANIFEST_FILE);
        fs::write(&bad, b"{\"version\": 1, \"finger").unwrap();

        let report = reg.recover();
        assert_eq!(report.jobs.len(), 1, "survivor must be recovered");
        assert_eq!(report.jobs[0].id, "job-000002");
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.stage, "parse");
        assert!(q.path.contains("job.json"), "{q:?}");
        // The wreck moved into quarantine/ with a diagnostic beside it.
        assert!(!reg.job_dir("job-000001").exists());
        assert!(root.join("quarantine").join("job-000001").exists());
        assert!(root
            .join("quarantine")
            .join("job-000001.diagnostic.json")
            .exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fingerprint_mismatch_is_quarantined_at_validate() {
        let root = scratch("finger");
        let reg = Registry::open(&root).unwrap();
        let mut m = manifest(1);
        m.fingerprint ^= 1; // corrupt identity, structurally valid JSON
        reg.save_manifest(&m).unwrap();
        let report = reg.recover();
        assert!(report.jobs.is_empty());
        assert_eq!(report.quarantined[0].stage, "validate");
        assert!(report.quarantined[0].error.contains("fingerprint"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn quarantine_slots_never_collide() {
        let root = scratch("slots");
        let reg = Registry::open(&root).unwrap();
        for _ in 0..3 {
            let mut m = manifest(1);
            m.fingerprint ^= 1;
            reg.save_manifest(&m).unwrap();
            let report = reg.recover();
            assert_eq!(report.quarantined.len(), 1);
        }
        let slots: Vec<_> = fs::read_dir(root.join("quarantine"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| !n.ends_with(".diagnostic.json"))
            .collect();
        assert_eq!(slots.len(), 3, "{slots:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_sweeps_orphaned_staging_files() {
        let root = scratch("staging");
        let reg = Registry::open(&root).unwrap();
        reg.save_manifest(&manifest(1)).unwrap();
        // Orphans at every level the daemon writes to.
        fs::write(root.join(".endpoint.json.tmp.4242"), b"orphan").unwrap();
        fs::write(root.join("jobs").join(".x.json.tmp.4242"), b"orphan").unwrap();
        fs::write(
            reg.job_dir("job-000001").join(".job.json.tmp.4242"),
            b"orphan",
        )
        .unwrap();
        let report = reg.recover();
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.stale_staging.len(), 3, "{:?}", report.stale_staging);
        assert!(!root.join(".endpoint.json.tmp.4242").exists());
        assert!(!reg
            .job_dir("job-000001")
            .join(".job.json.tmp.4242")
            .exists());
        // A second recovery finds nothing left to sweep.
        assert!(reg.recover().stale_staging.is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn probe_disk_reports_classified_failures() {
        use streamlab_supervisor::{Storage, StorageFaultPlan};
        let root = scratch("probe");
        let healthy = Registry::open(&root).unwrap();
        assert!(matches!(healthy.probe_disk(), DiskHealth::Ok));
        // The probe file is cleaned up after a successful probe.
        assert!(!root.join(".disk-probe").exists());

        let full_plan =
            StorageFaultPlan::from_json_str(r#"{ "rules": [ { "kind": "enospc", "count": 0 } ] }"#)
                .unwrap();
        let full = Registry::open_in(Storage::faulty_soft(full_plan), &root).unwrap();
        match full.probe_disk() {
            DiskHealth::Degraded(f) => {
                assert_eq!(f.reason, "disk_full");
                assert!(f.message.contains("probe"), "{f}");
            }
            DiskHealth::Ok => panic!("ENOSPC-saturated storage probed healthy"),
        }

        let eio_plan =
            StorageFaultPlan::from_json_str(r#"{ "rules": [ { "kind": "eio", "count": 0 } ] }"#)
                .unwrap();
        let broken = Registry::open_in(Storage::faulty_soft(eio_plan), &root).unwrap();
        match broken.probe_disk() {
            DiskHealth::Degraded(f) => assert_eq!(f.reason, "state_dir_unwritable"),
            DiskHealth::Ok => panic!("EIO-saturated storage probed healthy"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn save_manifest_failures_carry_shed_reasons() {
        use streamlab_supervisor::{Storage, StorageFaultPlan};
        let root = scratch("savefail");
        let plan = StorageFaultPlan::from_json_str(
            r#"{ "rules": [ { "op": "write", "path_contains": "jobs/", "kind": "enospc", "count": 0 } ] }"#,
        )
        .unwrap();
        let reg = Registry::open_in(Storage::faulty_soft(plan), &root).unwrap();
        let err = reg.save_manifest(&manifest(1)).unwrap_err();
        assert_eq!(err.reason, "disk_full");
        assert!(err.message.contains("manifest"), "{err}");
        // The fault plan matches only jobs/: the probe path is healthy.
        assert!(matches!(reg.probe_disk(), DiskHealth::Ok));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn running_jobs_recover_as_queued() {
        let mut m = manifest(1);
        m.state = JobState::Running;
        assert_eq!(recovered_state(&m), JobState::Queued);
        m.state = JobState::Done;
        assert_eq!(recovered_state(&m), JobState::Done);
    }
}
