//! Versioned, crash-safe run directories for multi-seed sweeps.
//!
//! Layout of a run directory:
//!
//! ```text
//! <dir>/manifest.json           # version, fingerprint, seeds, config
//! <dir>/seeds/seed-<seed>.json  # one durable record per completed seed
//! ```
//!
//! The manifest is written once, atomically, when the sweep starts; each
//! seed's result record is written atomically **as the seed completes**.
//! A `SIGKILL` at any instant therefore leaves only complete files behind,
//! and a resumed sweep ([`RunDir::completed_seeds`]) can trust every
//! record it can parse. Records carry the run fingerprint (config +
//! format version, see [`crate::fingerprint`]); a record whose
//! fingerprint does not match the manifest is ignored, so editing the
//! configuration between runs re-computes rather than silently merging
//! incompatible results.

use crate::atomic::{atomic_write_in, sweep_stale_staging_in};
use crate::failpoint::{ambient_storage, Storage};
use crate::fingerprint::fingerprint_config;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Checkpoint format version. Bumping it invalidates every existing run
/// directory (the fingerprint covers it).
pub const FORMAT_VERSION: u32 = 1;

/// The run manifest: everything needed to resume the sweep from nothing
/// but the directory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Checkpoint format version ([`FORMAT_VERSION`] at creation).
    pub version: u32,
    /// Fingerprint over `config` + `version`; every record must match.
    pub fingerprint: u64,
    /// What produced the directory (e.g. `"sweep"`), for humans.
    pub label: String,
    /// The full planned seed list, in output order.
    pub seeds: Vec<u64>,
    /// The complete serialized configuration the sweep runs under.
    pub config: Value,
}

impl Manifest {
    /// Build a manifest for `label` over `seeds` under `config`
    /// (serialized configuration). Computes the fingerprint.
    pub fn new(label: &str, seeds: Vec<u64>, config: Value) -> Manifest {
        let fingerprint = fingerprint_config(&config.to_json_string(), FORMAT_VERSION);
        Manifest {
            version: FORMAT_VERSION,
            fingerprint,
            label: label.to_owned(),
            seeds,
            config,
        }
    }

    /// Recompute the fingerprint from the embedded config and check it
    /// against the stored one (detects a hand-edited manifest).
    pub fn verify(&self) -> Result<(), String> {
        let expect = fingerprint_config(&self.config.to_json_string(), self.version);
        if expect != self.fingerprint {
            return Err(format!(
                "manifest fingerprint {:#018x} does not match its config (expected {:#018x}); \
                 the manifest was edited or corrupted",
                self.fingerprint, expect
            ));
        }
        Ok(())
    }
}

/// One durable per-seed record: the envelope ties the payload to the run
/// it belongs to.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SeedRecord {
    version: u32,
    fingerprint: u64,
    seed: u64,
    payload: Value,
}

/// An open run directory.
#[derive(Debug)]
pub struct RunDir {
    root: PathBuf,
    manifest: Manifest,
    storage: Storage,
    stale_staging: Vec<String>,
}

impl RunDir {
    /// Create a fresh run directory at `root` via the ambient
    /// [`Storage`]. See [`RunDir::create_in`].
    pub fn create(root: &Path, manifest: Manifest) -> Result<RunDir, String> {
        RunDir::create_in(ambient_storage(), root, manifest)
    }

    /// Open an existing run directory via the ambient [`Storage`]. See
    /// [`RunDir::open_in`].
    pub fn open(root: &Path) -> Result<RunDir, String> {
        RunDir::open_in(ambient_storage(), root)
    }

    /// Create a fresh run directory at `root` and durably write its
    /// manifest, routing all writes through `storage`. Any previous
    /// checkpoint state under `root` (manifest and seed records — only
    /// files this module owns) is removed first, so a fresh sweep never
    /// silently inherits stale records; orphaned staging files from a
    /// crashed earlier writer are swept too ([`RunDir::stale_staging`]).
    pub fn create_in(storage: Storage, root: &Path, manifest: Manifest) -> Result<RunDir, String> {
        fs::create_dir_all(root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        let seeds_dir = root.join("seeds");
        if seeds_dir.exists() {
            fs::remove_dir_all(&seeds_dir)
                .map_err(|e| format!("clearing {}: {e}", seeds_dir.display()))?;
        }
        fs::create_dir_all(&seeds_dir)
            .map_err(|e| format!("creating {}: {e}", seeds_dir.display()))?;
        let stale_staging = sweep_stale_staging_in(&storage, root);
        let json = manifest.to_value().to_json_string() + "\n";
        atomic_write_in(&storage, &root.join("manifest.json"), json.as_bytes())
            .map_err(|e| format!("writing manifest: {e}"))?;
        Ok(RunDir {
            root: root.to_owned(),
            manifest,
            storage,
            stale_staging,
        })
    }

    /// Open an existing run directory for resumption, routing all reads
    /// and writes through `storage`. Stale staging files left by a
    /// crashed earlier writer are removed ([`RunDir::stale_staging`]):
    /// their names embed the dead process's pid, so nothing else would
    /// ever reclaim them.
    pub fn open_in(storage: Storage, root: &Path) -> Result<RunDir, String> {
        let path = root.join("manifest.json");
        let text = storage
            .read_to_string(&path)
            .map_err(|e| format!("reading {}: {e} (not a run directory?)", path.display()))?;
        let v = Value::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let manifest = Manifest::from_value(&v).map_err(|e| format!("{}: {e}", path.display()))?;
        if manifest.version != FORMAT_VERSION {
            return Err(format!(
                "{}: checkpoint format v{} is not supported (this build reads v{})",
                path.display(),
                manifest.version,
                FORMAT_VERSION
            ));
        }
        manifest
            .verify()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut stale_staging = sweep_stale_staging_in(&storage, root);
        stale_staging.extend(sweep_stale_staging_in(&storage, &root.join("seeds")));
        Ok(RunDir {
            root: root.to_owned(),
            manifest,
            storage,
            stale_staging,
        })
    }

    /// The manifest this directory was created with.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Orphaned staging file names removed when the directory was
    /// opened or created (recovery diagnostics).
    pub fn stale_staging(&self) -> &[String] {
        &self.stale_staging
    }

    fn seed_path(&self, seed: u64) -> PathBuf {
        self.root
            .join("seeds")
            .join(format!("seed-{seed:020}.json"))
    }

    /// Durably record one completed seed's payload. Atomic: a kill during
    /// the call leaves either no record or a complete one.
    pub fn record_seed(&self, seed: u64, payload: Value) -> Result<(), String> {
        let rec = SeedRecord {
            version: self.manifest.version,
            fingerprint: self.manifest.fingerprint,
            seed,
            payload,
        };
        let json = rec.to_value().to_json_string() + "\n";
        let path = self.seed_path(seed);
        atomic_write_in(&self.storage, &path, json.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Load every valid completed-seed record. Records that fail to
    /// parse, carry the wrong fingerprint/version, or belong to a seed
    /// outside the manifest are skipped (the seed just re-runs);
    /// the skipped file names are returned for reporting.
    pub fn completed_seeds(&self) -> (BTreeMap<u64, Value>, Vec<String>) {
        let mut done = BTreeMap::new();
        let mut skipped = Vec::new();
        let seeds_dir = self.root.join("seeds");
        let entries = match fs::read_dir(&seeds_dir) {
            Ok(e) => e,
            Err(_) => return (done, skipped),
        };
        let planned: std::collections::BTreeSet<u64> =
            self.manifest.seeds.iter().copied().collect();
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.starts_with("seed-") || !name.ends_with(".json") {
                continue; // staging files and strangers
            }
            let valid = self
                .storage
                .read_to_string(&entry.path())
                .ok()
                .and_then(|text| Value::parse_json(&text).ok())
                .and_then(|v| SeedRecord::from_value(&v).ok())
                .filter(|r| {
                    r.version == self.manifest.version
                        && r.fingerprint == self.manifest.fingerprint
                        && planned.contains(&r.seed)
                });
            match valid {
                Some(rec) => {
                    done.insert(rec.seed, rec.payload);
                }
                None => skipped.push(name),
            }
        }
        (done, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Map;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("streamlab-ckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> Value {
        let mut m = Map::new();
        m.insert("sessions".into(), 600u64.to_value());
        Value::Object(m)
    }

    fn payload(x: u64) -> Value {
        let mut m = Map::new();
        m.insert("metric".into(), x.to_value());
        Value::Object(m)
    }

    #[test]
    fn create_record_reopen_roundtrip() {
        let root = scratch("roundtrip");
        let dir = RunDir::create(&root, Manifest::new("sweep", vec![7, 8, 9], config())).unwrap();
        dir.record_seed(7, payload(70)).unwrap();
        dir.record_seed(9, payload(90)).unwrap();

        let reopened = RunDir::open(&root).unwrap();
        assert_eq!(reopened.manifest().seeds, vec![7, 8, 9]);
        let (done, skipped) = reopened.completed_seeds();
        assert!(skipped.is_empty());
        assert_eq!(done.len(), 2);
        assert_eq!(done[&7], payload(70));
        assert_eq!(done[&9], payload(90));
        assert!(!done.contains_key(&8));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fingerprint_mismatch_hides_stale_records() {
        let root = scratch("stale");
        let dir = RunDir::create(&root, Manifest::new("sweep", vec![1], config())).unwrap();
        dir.record_seed(1, payload(1)).unwrap();
        // Re-create with a different config: the old record must vanish.
        let mut other = Map::new();
        other.insert("sessions".into(), 601u64.to_value());
        let dir2 =
            RunDir::create(&root, Manifest::new("sweep", vec![1], Value::Object(other))).unwrap();
        let (done, _) = dir2.completed_seeds();
        assert!(done.is_empty(), "stale record survived a config change");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_or_foreign_records_are_skipped_not_fatal() {
        let root = scratch("torn");
        let dir = RunDir::create(&root, Manifest::new("sweep", vec![1, 2], config())).unwrap();
        dir.record_seed(1, payload(1)).unwrap();
        // A truncated record (can't happen through atomic_write, but be
        // lenient) and a record for an unplanned seed.
        fs::write(
            root.join("seeds").join("seed-00000000000000000002.json"),
            b"{\"ver",
        )
        .unwrap();
        let mut rec = Map::new();
        rec.insert("version".into(), 1u64.to_value());
        rec.insert("fingerprint".into(), dir.manifest().fingerprint.to_value());
        rec.insert("seed".into(), 42u64.to_value());
        rec.insert("payload".into(), payload(42));
        fs::write(
            root.join("seeds").join("seed-00000000000000000042.json"),
            Value::Object(rec).to_json_string(),
        )
        .unwrap();

        let (done, skipped) = dir.completed_seeds();
        assert_eq!(done.len(), 1);
        assert!(done.contains_key(&1));
        assert_eq!(skipped.len(), 2, "both bad records reported: {skipped:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopening_sweeps_orphaned_staging_files() {
        let root = scratch("staging");
        let dir = RunDir::create(&root, Manifest::new("sweep", vec![1], config())).unwrap();
        dir.record_seed(1, payload(1)).unwrap();
        // A crashed writer's staging files: pid-stamped names nothing
        // would ever reclaim without the sweep.
        fs::write(root.join(".manifest.json.tmp.4242"), b"orphan").unwrap();
        fs::write(root.join("seeds").join(".seed-x.json.tmp.4242"), b"orphan").unwrap();
        let reopened = RunDir::open(&root).unwrap();
        assert_eq!(
            reopened.stale_staging().len(),
            2,
            "{:?}",
            reopened.stale_staging()
        );
        assert!(!root.join(".manifest.json.tmp.4242").exists());
        assert!(!root.join("seeds").join(".seed-x.json.tmp.4242").exists());
        let (done, skipped) = reopened.completed_seeds();
        assert_eq!(done.len(), 1);
        assert!(skipped.is_empty(), "{skipped:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn edited_manifest_is_rejected_on_open() {
        let root = scratch("edited");
        RunDir::create(&root, Manifest::new("sweep", vec![1], config())).unwrap();
        let path = root.join("manifest.json");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("600", "999")).unwrap();
        let err = RunDir::open(&root).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_missing_dir_is_a_clear_error() {
        let err = RunDir::open(Path::new("/nonexistent/streamlab-run")).unwrap_err();
        assert!(err.contains("not a run directory"), "{err}");
    }
}
