//! Atomic, durable file emission.
//!
//! Every file the harness writes goes through [`atomic_write`] /
//! [`atomic_write_with`]: the bytes land in a same-directory temp file,
//! the file is fsynced, and the temp file is renamed over the target.
//! Streamed writes reach the temp file through one fixed-capacity buffer
//! owned by this module, so callers format field by field without paying
//! a syscall per field, and never buffer the staging file themselves.
//! POSIX rename is atomic within a filesystem, so a reader (or a resumed
//! run) sees either the old complete file or the new complete file —
//! never a truncated one, no matter when the process is killed. After the
//! rename the parent directory is fsynced too, so the rename itself
//! survives a power cut, not just a process kill.
//!
//! Transient I/O failures (an interrupted syscall, a briefly-full disk
//! while a log rotates) are retried with bounded backoff before giving
//! up; a write that still fails surfaces as a structured
//! [`AtomicWriteError`] naming the target path, the protocol stage that
//! failed, and the attempt count — so a daemon's job log says *what*
//! could not be written and *where it died*, not just "No space left on
//! device".
//!
//! Every stage is routed through a [`Storage`] handle (the
//! [`crate::failpoint`] seam): [`atomic_write`] uses the process-wide
//! ambient storage (real unless `--storage-faults` installed a fault
//! plan), while the `*_in` variants take an explicit handle so tests can
//! inject faults without sharing global state.

use crate::failpoint::{ambient_storage, Storage, StorageOps};
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Stage of the atomic-write protocol at which an error occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStage {
    /// Creating the same-directory staging file.
    Create,
    /// Running the caller's writer over the staging file.
    Write,
    /// Fsyncing the staging file's contents.
    Sync,
    /// Renaming the staging file over the target.
    Rename,
    /// Fsyncing the parent directory after the rename, making the
    /// rename itself durable across power loss.
    SyncDir,
}

impl std::fmt::Display for WriteStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WriteStage::Create => "create-staging",
            WriteStage::Write => "write",
            WriteStage::Sync => "fsync",
            WriteStage::Rename => "rename",
            WriteStage::SyncDir => "fsync-dir",
        })
    }
}

/// A failed atomic write, with enough context to act on: the target
/// path, the protocol stage that failed, and how many attempts were
/// made before giving up. Carried inside the returned [`io::Error`]
/// (same `ErrorKind` as the underlying failure); recover it with
/// `err.get_ref().and_then(|e| e.downcast_ref::<AtomicWriteError>())`.
#[derive(Debug)]
pub struct AtomicWriteError {
    /// The file that could not be (re)placed.
    pub path: PathBuf,
    /// Which stage of the staging→fsync→rename protocol failed.
    pub stage: WriteStage,
    /// Attempts made at that stage (1 = no retry was applicable).
    pub attempts: u32,
    /// The last underlying I/O error.
    pub source: io::Error,
}

impl std::fmt::Display for AtomicWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "atomic write of {} failed at the {} stage after {} attempt(s): {}",
            self.path.display(),
            self.stage,
            self.attempts,
            self.source
        )
    }
}

impl std::error::Error for AtomicWriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl AtomicWriteError {
    fn into_io(self) -> io::Error {
        io::Error::new(self.source.kind(), self)
    }
}

/// Capacity of the buffer between a streamed writer and its staging
/// file: a CSV export's per-field writes reach the file as one syscall
/// per 64 KiB, and one buffer per in-flight write is noise in peak
/// memory.
const WRITE_BUFFER_BYTES: usize = 64 * 1024;

/// Maximum attempts per retryable stage (first try included).
const MAX_ATTEMPTS: u32 = 4;
/// Backoff before retry `n` (n = 1, 2, 3), in milliseconds. Interrupted
/// syscalls retry immediately; only resource-pressure errors sleep.
const BACKOFF_MS: [u64; 3] = [1, 8, 64];

/// Whether retrying `e` can plausibly succeed: interrupted syscalls
/// always, resource-pressure conditions (full disk mid-rotation, a
/// transiently unavailable file) after a short backoff.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::StorageFull
    )
}

/// Run `op` up to [`MAX_ATTEMPTS`] times, backing off on transient
/// errors. Returns the result plus the number of attempts made.
fn with_retry<T>(mut op: impl FnMut() -> io::Result<T>) -> (io::Result<T>, u32) {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match op() {
            Ok(v) => return (Ok(v), attempts),
            Err(e) if attempts < MAX_ATTEMPTS && is_transient(&e) => {
                if e.kind() != io::ErrorKind::Interrupted {
                    std::thread::sleep(Duration::from_millis(
                        BACKOFF_MS[(attempts - 1) as usize % BACKOFF_MS.len()],
                    ));
                }
            }
            Err(e) => return (Err(e), attempts),
        }
    }
}

/// Name of the temp file used for an in-flight write of `name`. Includes
/// the pid so concurrent writers (parallel sweep workers recording
/// different seeds, or two runs pointed at the same directory) never
/// clobber each other's staging file.
fn staging_name(name: &str) -> String {
    format!(".{name}.tmp.{}", std::process::id())
}

/// Atomically replace `path` with `bytes`, via the ambient [`Storage`].
///
/// See [`atomic_write_with_in`] for the mechanism and guarantees.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_in(&ambient_storage(), path, bytes)
}

/// Atomically replace `path` with whatever `write` produces, via the
/// ambient [`Storage`]. See [`atomic_write_with_in`].
pub fn atomic_write_with<F>(path: &Path, write: F) -> io::Result<()>
where
    F: FnOnce(&mut dyn Write) -> io::Result<()>,
{
    atomic_write_with_in(&ambient_storage(), path, write)
}

/// Atomically replace `path` with `bytes`, routing every stage through
/// `storage`. See [`atomic_write_with_in`].
pub fn atomic_write_in(storage: &Storage, path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with_in(storage, path, |f| f.write_all(bytes))
}

/// Atomically replace `path` with whatever `write` produces.
///
/// The closure receives a writer over the staging file behind one 64 KiB
/// buffer, which is flushed inside the [`StorageOps::write`] stage: a
/// flush error is a [`WriteStage::Write`] failure, and torn-write faults
/// and the fsync see every byte. On success the file is fsynced and
/// renamed over `path`, and the parent directory is fsynced so the
/// rename survives power loss. On any pre-rename error the staging file
/// is removed and `path` is untouched. Staging-file
/// creation, the fsyncs, and the rename are retried with bounded backoff
/// on transient failures (EINTR, ENOSPC); the caller's closure runs at
/// most once. A write that still fails returns an [`io::Error`] wrapping
/// an [`AtomicWriteError`] that names the path and the failed stage —
/// including [`WriteStage::SyncDir`], where the new content *is* visible
/// but its durability across power loss is not established.
///
/// Every filesystem touch goes through `storage`, so a
/// [`crate::failpoint::StorageFaultPlan`] can fail any stage
/// deterministically.
pub fn atomic_write_with_in<F>(storage: &Storage, path: &Path, write: F) -> io::Result<()>
where
    F: FnOnce(&mut dyn Write) -> io::Result<()>,
{
    let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("atomic_write: {} has no usable file name", path.display()),
        )
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let tmp = dir.join(staging_name(name));

    let structured = |stage, attempts, source| AtomicWriteError {
        path: path.to_owned(),
        stage,
        attempts,
        source,
    };
    let mut write = Some(write);
    let result: Result<(), AtomicWriteError> = (|| {
        let (created, attempts) = with_retry(|| storage.create(path, &tmp));
        let mut f = created.map_err(|e| structured(WriteStage::Create, attempts, e))?;
        storage
            .write(path, &mut f, &mut |f| {
                let mut buffered = BufWriter::with_capacity(WRITE_BUFFER_BYTES, f);
                let written = (write.take().expect("writer runs at most once"))(&mut buffered)
                    .and_then(|()| buffered.flush());
                // After a failure the staging file is discarded: drop the
                // unflushed tail rather than let `BufWriter`'s drop write it.
                let _ = buffered.into_parts();
                written
            })
            .map_err(|e| structured(WriteStage::Write, 1, e))?;
        let (synced, attempts) = with_retry(|| storage.sync_file(path, &f));
        synced.map_err(|e| structured(WriteStage::Sync, attempts, e))?;
        drop(f);
        let (renamed, attempts) = with_retry(|| storage.rename(&tmp, path));
        renamed.map_err(|e| structured(WriteStage::Rename, attempts, e))
    })();
    if let Err(e) = result {
        let _ = storage.remove_file(&tmp);
        return Err(e.into_io());
    }
    // Make the rename itself durable: without this barrier a committed
    // file can vanish on power loss even though the rename returned.
    let (synced, attempts) = with_retry(|| storage.sync_dir(dir));
    synced.map_err(|e| structured(WriteStage::SyncDir, attempts, e).into_io())
}

/// Whether `name` looks like an atomic-write staging file
/// (`.{target}.tmp.{pid}`).
pub fn is_staging_name(name: &str) -> bool {
    let Some(rest) = name.strip_prefix('.') else {
        return false;
    };
    match rest.rsplit_once(".tmp.") {
        Some((target, pid)) => {
            !target.is_empty() && !pid.is_empty() && pid.bytes().all(|b| b.is_ascii_digit())
        }
        None => false,
    }
}

/// Remove every atomic-write staging file in `dir`, returning the names
/// removed (sorted), via the ambient [`Storage`]. See
/// [`sweep_stale_staging_in`].
pub fn sweep_stale_staging(dir: &Path) -> Vec<String> {
    sweep_stale_staging_in(&ambient_storage(), dir)
}

/// Remove every atomic-write staging file in `dir`, returning the names
/// removed (sorted).
///
/// Staging names embed the writer's pid, so a crash between create and
/// rename would leak `.*.tmp.*` files forever — no later process ever
/// generates the same name again. Callers invoke this when (re)opening a
/// directory for exclusive use: any staging file present at that point
/// has lost its writer, because live writers only exist *after* the
/// directory is opened. Removal failures are ignored (the files are
/// invisible to every reader anyway); unreadable directories yield an
/// empty list.
pub fn sweep_stale_staging_in(storage: &Storage, dir: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut removed = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if is_staging_name(name) && storage.remove_file(&entry.path()).is_ok() {
            removed.push(name.to_string());
        }
    }
    removed.sort();
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("streamlab-atomic-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn structured(e: &io::Error) -> &AtomicWriteError {
        e.get_ref()
            .and_then(|inner| inner.downcast_ref::<AtomicWriteError>())
            .expect("error carries AtomicWriteError")
    }

    #[test]
    fn writes_and_overwrites_without_leftovers() {
        let dir = scratch("basic");
        let path = dir.join("out.json");
        atomic_write(&path, b"{\"v\":1}\n").expect("first write");
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":1}\n");
        atomic_write(&path, b"{\"v\":2}\n").expect("overwrite");
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":2}\n");
        // No staging files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with('.'))
            .collect();
        assert!(
            leftovers.is_empty(),
            "leftover staging files: {leftovers:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_target_intact() {
        let dir = scratch("fail");
        let path = dir.join("out.txt");
        atomic_write(&path, b"original").expect("seed file");
        let err = atomic_write_with(&path, |_| Err(io::Error::other("injected failure")));
        assert!(err.is_err());
        assert_eq!(fs::read(&path).unwrap(), b"original");
        // The staging file was cleaned up.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_writer_variant_works() {
        let dir = scratch("stream");
        let path = dir.join("rows.csv");
        atomic_write_with(&path, |f| {
            writeln!(f, "a,b")?;
            writeln!(f, "1,2")
        })
        .expect("streamed write");
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Thousands of small formatted writes totalling several buffer
    /// capacities: the shape of a CSV export.
    fn many_small_rows(w: &mut dyn Write) -> io::Result<()> {
        for i in 0..20_000u32 {
            writeln!(w, "{i},{},{:.3}", i * 7, f64::from(i) / 3.0)?;
        }
        Ok(())
    }

    fn many_small_rows_bytes() -> Vec<u8> {
        let mut expected = Vec::new();
        many_small_rows(&mut expected).unwrap();
        assert!(expected.len() > 4 * WRITE_BUFFER_BYTES);
        expected
    }

    #[test]
    fn small_writes_spanning_many_buffers_land_byte_identical() {
        let dir = scratch("buffered");
        let path = dir.join("rows.csv");
        atomic_write_with(&path, many_small_rows).expect("buffered write");
        assert_eq!(fs::read(&path).unwrap(), many_small_rows_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_cuts_the_flushed_file_at_keep_bytes() {
        use crate::failpoint::{Storage, StorageFaultPlan};
        let dir = scratch("torn-buffered");
        let path = dir.join("rows.csv");
        // The truncation runs when the Write stage returns; the buffer's
        // last bytes must already be in the file by then, or they land
        // after the cut and the file is longer than `keep_bytes`.
        let plan = StorageFaultPlan::from_json_str(
            r#"{ "rules": [ { "op": "write", "kind": "torn_write", "keep_bytes": 1000 } ] }"#,
        )
        .unwrap();
        atomic_write_with_in(&Storage::faulty_soft(plan), &path, many_small_rows)
            .expect("a torn write reports success");
        assert_eq!(fs::read(&path).unwrap(), &many_small_rows_bytes()[..1000]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_failing_after_several_buffers_leaves_target_intact() {
        let dir = scratch("fail-buffered");
        let path = dir.join("rows.csv");
        atomic_write(&path, b"original").expect("seed file");
        let err = atomic_write_with(&path, |w| {
            many_small_rows(w)?;
            Err(io::Error::other("injected failure"))
        })
        .unwrap_err();
        assert_eq!(structured(&err).stage, WriteStage::Write);
        assert_eq!(fs::read(&path).unwrap(), b"original");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "staging file left");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bare_file_name_writes_into_cwd() {
        // `path.parent()` is empty for a bare name; the staging file must
        // land next to it (the cwd), not error out.
        let name = format!("streamlab-atomic-cwd-{}.tmp-target", std::process::id());
        let path = PathBuf::from(&name);
        atomic_write(&path, b"x").expect("cwd write");
        assert_eq!(fs::read(&path).unwrap(), b"x");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn create_failure_names_path_and_stage() {
        let dir = scratch("nostage");
        let path = dir.join("missing-subdir").join("out.json");
        let err = atomic_write(&path, b"x").unwrap_err();
        let s = structured(&err);
        assert_eq!(s.stage, WriteStage::Create);
        assert_eq!(s.path, path);
        let msg = err.to_string();
        assert!(msg.contains("create-staging"), "{msg}");
        assert!(msg.contains("out.json"), "{msg}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_failure_names_the_write_stage_and_keeps_the_kind() {
        let dir = scratch("writerr");
        let path = dir.join("out.txt");
        let err = atomic_write_with(&path, |_| {
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        })
        .unwrap_err();
        // The wrapper preserves the underlying kind so callers matching on
        // ErrorKind keep working.
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let s = structured(&err);
        assert_eq!(s.stage, WriteStage::Write);
        assert_eq!(s.attempts, 1, "the caller's closure must not be re-run");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let mut left = 3u32; // 3 failures, then success: fits in MAX_ATTEMPTS
        let (result, attempts) = with_retry(|| {
            if left > 0 {
                left -= 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
        assert_eq!(attempts, 4);
    }

    #[test]
    fn transient_errors_exhaust_the_attempt_budget() {
        let mut calls = 0u32;
        let (result, attempts) = with_retry::<()>(|| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::StorageFull, "ENOSPC"))
        });
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::StorageFull);
        assert_eq!(attempts, MAX_ATTEMPTS);
        assert_eq!(calls, MAX_ATTEMPTS);
    }

    #[test]
    fn staging_names_are_recognized() {
        assert!(is_staging_name(&staging_name("manifest.json")));
        assert!(is_staging_name(".x.tmp.1"));
        for not_staging in [
            "manifest.json",
            ".hidden",
            ".x.tmp.", // no pid
            ".x.tmp.12a",
            "..tmp.12", // no target
            "x.tmp.12", // no leading dot
        ] {
            assert!(!is_staging_name(not_staging), "{not_staging}");
        }
    }

    #[test]
    fn sweep_removes_only_stale_staging_files() {
        let dir = scratch("sweep");
        atomic_write(&dir.join("real.json"), b"{}").unwrap();
        fs::write(dir.join(".old.json.tmp.99999"), b"orphan").unwrap();
        fs::write(dir.join(".older.json.tmp.1"), b"orphan").unwrap();
        fs::write(dir.join(".not-staging"), b"keep").unwrap();
        let removed = sweep_stale_staging(&dir);
        assert_eq!(
            removed,
            vec![
                ".old.json.tmp.99999".to_string(),
                ".older.json.tmp.1".to_string()
            ]
        );
        assert!(dir.join("real.json").exists());
        assert!(dir.join(".not-staging").exists());
        assert!(!dir.join(".old.json.tmp.99999").exists());
        // Unreadable directory: no panic, nothing removed.
        assert!(sweep_stale_staging(&dir.join("missing")).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_dir_sync_failure_names_the_sync_dir_stage() {
        use crate::failpoint::{Storage, StorageFaultPlan};
        let dir = scratch("syncdir");
        let path = dir.join("out.json");
        let plan = StorageFaultPlan::from_json_str(
            r#"{ "rules": [ { "op": "sync_dir", "kind": "eio" } ] }"#,
        )
        .unwrap();
        let err = atomic_write_in(&Storage::faulty_soft(plan), &path, b"payload").unwrap_err();
        let s = structured(&err);
        assert_eq!(s.stage, WriteStage::SyncDir);
        assert!(err.to_string().contains("fsync-dir"), "{err}");
        // The content is visible (the rename committed) — only its
        // durability is unestablished.
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_transient_enospc_is_absorbed_by_retry() {
        use crate::failpoint::{Storage, StorageFaultPlan};
        let dir = scratch("transient");
        let path = dir.join("out.json");
        // Two ENOSPC hits on sync, then clean: with_retry's four-attempt
        // budget rides through without surfacing an error.
        let plan = StorageFaultPlan::from_json_str(
            r#"{ "rules": [ { "op": "sync", "kind": "enospc", "count": 2 } ] }"#,
        )
        .unwrap();
        let storage = Storage::faulty_soft(plan);
        atomic_write_in(&storage, &path, b"payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        assert_eq!(storage.fault_snapshot().enospc, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn permanent_errors_fail_on_the_first_attempt() {
        let mut calls = 0u32;
        let (result, attempts) = with_retry::<()>(|| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "EACCES"))
        });
        assert!(result.is_err());
        assert_eq!(attempts, 1);
        assert_eq!(calls, 1);
    }
}
