//! Crash-safe snapshot file I/O through one handle.
//!
//! [`Storage::atomic_write`] never leaves a half-written file at its
//! target path: it writes a sibling temp file, fsyncs it, and atomically
//! renames it over the target (then fsyncs the directory so the rename
//! itself survives a power cut).  A reader therefore sees
//! either the previous complete file or the new complete file,
//! never a torn one — and [`Storage::read_snapshot`] verifies the
//! checksum anyway, so even out-of-band corruption surfaces as a typed
//! error.
//!
//! Every file operation flows through a [`Storage`] handle: an injected
//! [`StorageBackend`] (the OS, or a fault-injecting test double) wrapped
//! with a [`RetryPolicy`] that re-executes transient failures under
//! bounded exponential backoff, timed by an injected
//! [`Clock`] — never ambient time.  [`Storage::os`] is the production
//! handle; [`Storage::with_obs`] makes its snapshot reads and writes
//! record metrics and its exhausted retries land in a journal.

use crate::backend::{OsBackend, StorageBackend};
use crate::error::StoreError;
use crate::obs::StoreObs;
use crate::retry::RetryPolicy;
use crate::snapshot::Snapshot;
use mdrr_obs::{Clock, EventKind, NullClock};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Extension of the sibling temp file an atomic write goes through.
const TMP_SUFFIX: &str = "tmp";

/// The sibling temp path an atomic write of `path` goes through
/// (`x.mdrrsnap` → `x.mdrrsnap.tmp`).
fn tmp_sibling(path: &Path) -> PathBuf {
    match path.extension() {
        Some(ext) => {
            let mut ext = ext.to_os_string();
            ext.push(".");
            ext.push(TMP_SUFFIX);
            path.with_extension(ext)
        }
        None => path.with_extension(TMP_SUFFIX),
    }
}

/// A storage handle: a [`StorageBackend`] plus the [`RetryPolicy`] and
/// injected [`Clock`] that govern transient-failure retries, and
/// optional [`StoreObs`] instruments for snapshot reads and writes,
/// whose journal records `retry_exhausted` and `salvage_completed`
/// events.
///
/// [`Storage::os`] is the production default (real filesystem, default
/// retry bounds, no waiting clock — transient retries re-execute
/// immediately); tests and the chaos harness inject a
/// [`crate::FaultyBackend`] and a real or manual clock instead.
///
/// ```
/// use mdrr_store::Storage;
/// let dir = std::env::temp_dir().join(format!("mdrr-doc-storage-{}", std::process::id()));
/// let storage = Storage::os();
/// storage.atomic_write(&dir.join("a.txt"), b"payload")?;
/// assert_eq!(storage.read(&dir.join("a.txt"))?, b"payload");
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), mdrr_store::StoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Storage {
    backend: Arc<dyn StorageBackend>,
    retry: RetryPolicy,
    clock: Arc<dyn Clock>,
    obs: Option<StoreObs>,
}

impl Storage {
    /// The production storage: [`OsBackend`], default [`RetryPolicy`],
    /// and a disabled clock — transient failures are still retried up to
    /// the attempt bound, just without waiting in between.  Callers that
    /// want real backoff pacing inject a real clock via
    /// [`Storage::new`].
    pub fn os() -> Self {
        Storage::new(
            Arc::new(OsBackend),
            RetryPolicy::default(),
            Arc::new(NullClock),
        )
    }

    /// A storage handle over an explicit backend, retry policy and clock.
    pub fn new(
        backend: Arc<dyn StorageBackend>,
        retry: RetryPolicy,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Storage {
            backend,
            retry,
            clock,
            obs: None,
        }
    }

    /// Attaches store instruments: every [`Storage::write_snapshot`]
    /// then records the write count, serialized byte count and wall
    /// time, and every [`Storage::read_snapshot`] the read count, file
    /// byte count, wall time and, separately, the CRC-64 verification
    /// time (the checksum is hashed once, inside decoding).  Every
    /// exhausted retry loop records a `retry_exhausted` event, with the
    /// attempts spent, in the instruments' journal.  The file operations
    /// are identical; under a disabled clock only the counters move.
    ///
    /// ```
    /// use mdrr_data::{Attribute, Schema};
    /// use mdrr_obs::{Journal, MonotonicClock, Registry};
    /// use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    /// use mdrr_store::{Snapshot, Storage, StoreObs};
    /// use std::sync::Arc;
    ///
    /// let dir = std::env::temp_dir().join(format!("mdrr-doc-obs-{}", std::process::id()));
    /// let path = dir.join("obs.mdrrsnap");
    /// let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
    /// let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    /// let snapshot = Snapshot::new(schema, spec, vec![vec![2, 2]], 4)?;
    /// let registry = Registry::new();
    /// let journal = Arc::new(Journal::new(16));
    /// let obs = StoreObs::new(Arc::new(MonotonicClock::new()), &registry, journal);
    /// let storage = Storage::os().with_obs(obs);
    /// let bytes = storage.write_snapshot(&path, &snapshot)?;
    /// let metrics = registry.snapshot();
    /// assert_eq!(metrics.counter_value("store_snapshot_writes_total", &[]), Some(1));
    /// assert_eq!(metrics.counter_value("store_bytes_written_total", &[]), Some(bytes));
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn with_obs(mut self, obs: StoreObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Records `kind` in the attached instruments' journal (a no-op
    /// without instruments).
    pub(crate) fn record_event(&self, kind: EventKind) {
        if let Some(obs) = &self.obs {
            obs.record_event(kind);
        }
    }

    /// Runs one backend operation under the retry policy, journalling a
    /// `retry_exhausted` event when every attempt failed transiently.
    fn attempt<T>(&self, op: impl FnMut() -> Result<T, StoreError>) -> Result<T, StoreError> {
        let (result, attempts) = self.retry.run(self.clock.as_ref(), op);
        if let Err(e) = &result {
            if e.is_transient() {
                self.record_event(EventKind::RetryExhausted {
                    attempts: u64::from(attempts),
                });
            }
        }
        result
    }

    /// Atomically replaces `path` with `bytes`: create the parent
    /// directory, write a sibling `*.tmp` file, fsync it, rename it over
    /// `path`, fsync the directory.  This is the write discipline of
    /// every durable artifact in the store (snapshots and the checkpoint
    /// manifests built on top of them); a crash at any point leaves
    /// either the old complete file or the new complete file at `path`,
    /// never a torn one.  Each step retries transient failures under the
    /// policy.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] naming the failing step.
    pub fn atomic_write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            self.attempt(|| self.backend.create_dir_all(parent))?;
        }
        let tmp = tmp_sibling(path);
        self.attempt(|| self.backend.write(&tmp, bytes))?;
        self.attempt(|| self.backend.sync(&tmp))?;
        self.attempt(|| self.backend.rename(&tmp, path))?;
        // Persist the rename itself; the backend treats filesystems that
        // cannot fsync a directory as success.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            self.attempt(|| self.backend.sync_dir(parent))?;
        }
        Ok(())
    }

    /// Moves `spare`, a file whose contents are no longer needed, onto
    /// the `*.tmp` sibling that the next [`Storage::atomic_write`] of
    /// `path` writes through.  That write then overwrites the spare's
    /// blocks in place instead of creating a new file, and no block is
    /// freed.  The rename retries transient failures under the policy.
    ///
    /// ```
    /// use mdrr_store::Storage;
    /// let dir = std::env::temp_dir().join(format!("mdrr-doc-recycle-{}", std::process::id()));
    /// let storage = Storage::os();
    /// storage.atomic_write(&dir.join("old.bin"), b"superseded")?;
    /// storage.recycle(&dir.join("old.bin"), &dir.join("new.bin"))?;
    /// storage.atomic_write(&dir.join("new.bin"), b"fresh")?;
    /// assert_eq!(storage.list_dir(&dir)?, vec!["new.bin".to_string()]);
    /// assert_eq!(storage.read(&dir.join("new.bin"))?, b"fresh");
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), mdrr_store::StoreError>(())
    /// ```
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the rename fails; `spare` then
    /// stays where it was, and the atomic write creates a fresh file.
    pub fn recycle(&self, spare: &Path, path: &Path) -> Result<(), StoreError> {
        let tmp = tmp_sibling(path);
        self.attempt(|| self.backend.rename(spare, &tmp))
    }

    /// Reads the full contents of `path` (with transient-failure
    /// retries).
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the file cannot be read.
    pub fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        self.attempt(|| self.backend.read(path))
    }

    /// Serializes `snapshot` and atomically writes it to `path`,
    /// returning the serialized byte count.  Recorded in the attached
    /// [`StoreObs`], if any.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] for filesystem failures and the
    /// serialization errors of [`Snapshot::to_bytes`].
    pub fn write_snapshot(&self, path: &Path, snapshot: &Snapshot) -> Result<u64, StoreError> {
        let start = self.obs.as_ref().and_then(StoreObs::start);
        let bytes = snapshot.to_bytes()?;
        self.atomic_write(path, &bytes)?;
        let n = bytes.len() as u64;
        if let Some(obs) = &self.obs {
            obs.elapsed(&obs.write_nanos, start);
            obs.writes.inc();
            obs.bytes_written.add(n);
        }
        Ok(n)
    }

    /// Reads and fully validates (magic, version, structure, checksum,
    /// header, counting invariants) the snapshot at `path` through this
    /// handle's backend.  Recorded in the attached [`StoreObs`], if any.
    ///
    /// ```
    /// use mdrr_data::{Attribute, Schema};
    /// use mdrr_obs::{Journal, MonotonicClock, Registry};
    /// use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    /// use mdrr_store::{Snapshot, Storage, StoreObs};
    /// use std::sync::Arc;
    ///
    /// let dir = std::env::temp_dir().join(format!("mdrr-doc-read-{}", std::process::id()));
    /// let path = dir.join("read.mdrrsnap");
    /// let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
    /// let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    /// let snapshot = Snapshot::new(schema, spec, vec![vec![2, 2]], 4)?;
    /// let bytes = Storage::os().write_snapshot(&path, &snapshot)?;
    /// let registry = Registry::new();
    /// let journal = Arc::new(Journal::new(16));
    /// let obs = StoreObs::new(Arc::new(MonotonicClock::new()), &registry, journal);
    /// let storage = Storage::os().with_obs(obs);
    /// assert_eq!(storage.read_snapshot(&path)?, snapshot);
    /// let metrics = registry.snapshot();
    /// assert_eq!(metrics.counter_value("store_snapshot_reads_total", &[]), Some(1));
    /// assert_eq!(metrics.counter_value("store_bytes_read_total", &[]), Some(bytes));
    /// assert_eq!(metrics.histogram_snapshot("store_crc_nanos", &[]).unwrap().count, 1);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] for filesystem failures and the typed
    /// validation errors of [`Snapshot::from_bytes`].
    pub fn read_snapshot(&self, path: &Path) -> Result<Snapshot, StoreError> {
        let start = self.obs.as_ref().and_then(StoreObs::start);
        let bytes = self.read(path)?;
        let clock = self.obs.as_ref().map(|obs| obs.clock().as_ref());
        let (snapshot, crc_nanos) = crate::format::decode_timed(&bytes, clock)?;
        if let Some(obs) = &self.obs {
            if start.is_some() {
                obs.elapsed(&obs.read_nanos, start);
                obs.crc_nanos.record(crc_nanos);
            }
            obs.reads.inc();
            obs.bytes_read.add(bytes.len() as u64);
        }
        Ok(snapshot)
    }

    /// Creates `path` and every missing ancestor directory (with
    /// transient-failure retries).
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when creation fails.
    pub fn create_dir_all(&self, path: &Path) -> Result<(), StoreError> {
        self.attempt(|| self.backend.create_dir_all(path))
    }

    /// The file names in `dir`, sorted; a missing directory lists as
    /// empty.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the directory cannot be listed.
    pub fn list_dir(&self, dir: &Path) -> Result<Vec<String>, StoreError> {
        self.attempt(|| self.backend.list_dir(dir))
    }

    /// Removes the file at `path` (with transient-failure retries).
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when removal fails.
    pub fn remove_file(&self, path: &Path) -> Result<(), StoreError> {
        self.attempt(|| self.backend.remove_file(path))
    }

    /// Sweeps orphaned `*.tmp` debris from `dir` — the stranded siblings
    /// of atomic writes that faulted between create and rename.  Only
    /// names ending in `.tmp` are touched; committed snapshots and
    /// manifests never match.  Best-effort by design (a sweep must never
    /// fail the checkpoint that requested it): unreadable directories
    /// sweep nothing, unremovable files are skipped.  Returns the number
    /// of files removed.
    pub fn sweep_tmp(&self, dir: &Path) -> usize {
        let Ok(names) = self.list_dir(dir) else {
            return 0;
        };
        let mut swept = 0;
        for name in names {
            if name.ends_with(".tmp") && self.remove_file(&dir.join(&name)).is_ok() {
                swept += 1;
            }
        }
        swept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::{Attribute, Schema};
    use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    use std::fs;

    fn sample() -> Snapshot {
        let schema = Schema::new(vec![
            Attribute::indexed("A", 3).unwrap(),
            Attribute::indexed("B", 2).unwrap(),
        ])
        .unwrap();
        let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
        Snapshot::new(schema, spec, vec![vec![5, 3, 2], vec![6, 4]], 10).unwrap()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mdrr-store-io-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_read_round_trip_and_replacement() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("nested/deeper/shard.mdrrsnap");
        let storage = Storage::os();
        let snapshot = sample();
        storage.write_snapshot(&path, &snapshot).unwrap();
        assert_eq!(storage.read_snapshot(&path).unwrap(), snapshot);
        // No temp residue.
        assert!(!path.with_extension("mdrrsnap.tmp").exists());
        // A second write atomically replaces the first.
        let mut second = snapshot.clone();
        second.set_app_state(Some("v2".to_string()));
        storage.write_snapshot(&path, &second).unwrap();
        assert_eq!(
            storage.read_snapshot(&path).unwrap().app_state(),
            Some("v2")
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reading_missing_or_corrupt_files_is_typed() {
        let dir = scratch_dir("corrupt");
        let storage = Storage::os();
        assert!(matches!(
            storage.read_snapshot(&dir.join("absent.mdrrsnap")),
            Err(StoreError::Io { .. })
        ));
        // A truncated file (simulating a non-atomic partial write from a
        // foreign writer) is caught structurally.
        let path = dir.join("torn.mdrrsnap");
        let bytes = sample().to_bytes().unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(storage.read_snapshot(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
