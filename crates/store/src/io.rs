//! Crash-safe snapshot file I/O.
//!
//! [`SnapshotWriter`] never leaves a half-written snapshot at its target
//! path: it serializes to a sibling temp file, fsyncs it, and atomically
//! renames it over the target (then fsyncs the directory so the rename
//! itself survives a power cut).  A reader therefore sees
//! either the previous complete snapshot or the new complete snapshot,
//! never a torn one — and [`SnapshotReader`] verifies the checksum anyway,
//! so even out-of-band corruption surfaces as a typed error.
//!
//! Every file operation flows through a [`Storage`] handle: an injected
//! [`StorageBackend`] (the OS, or a fault-injecting test double) wrapped
//! with a [`RetryPolicy`] that re-executes transient failures under
//! bounded exponential backoff, timed by an injected
//! [`Clock`] — never ambient time.  The plain entry points
//! ([`atomic_write`], [`SnapshotWriter::write`], …) run on
//! [`Storage::os`], so existing callers keep today's behavior.

use crate::backend::{OsBackend, StorageBackend};
use crate::error::StoreError;
use crate::retry::RetryPolicy;
use crate::snapshot::Snapshot;
use mdrr_obs::{Clock, EventKind, Journal, NullClock};
use std::fs;
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

/// Atomically replaces `path` with `bytes`: write to a sibling `*.tmp`
/// file, fsync, rename over the target, fsync the directory.
/// Parent directories are created as needed.  This is the write
/// discipline of every durable artifact in the store (snapshots and the
/// checkpoint manifests built on top of them); a crash at any point
/// leaves either the old complete file or the new complete file at
/// `path`, never a torn one.
///
/// Runs on [`Storage::os`]; inject a [`Storage`] yourself (fault
/// backends, real backoff clocks) via [`Storage::atomic_write`].
///
/// ```
/// let dir = std::env::temp_dir().join(format!("mdrr-doc-aw-{}", std::process::id()));
/// let path = dir.join("note.txt");
/// mdrr_store::atomic_write(&path, b"first")?;
/// mdrr_store::atomic_write(&path, b"second")?;
/// assert_eq!(std::fs::read(&path)?, b"second");
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
/// Returns [`StoreError::Io`] naming the failing step (create, write,
/// sync, rename or directory sync).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    Storage::os().atomic_write(path, bytes)
}

/// A storage handle: a [`StorageBackend`] plus the [`RetryPolicy`] and
/// injected [`Clock`] that govern transient-failure retries, and an
/// optional [`Journal`] that records `retry_exhausted` events.
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
    journal: Option<Arc<Journal>>,
}

impl Storage {
    /// The production storage: [`OsBackend`], default [`RetryPolicy`],
    /// and a disabled clock — transient failures are still retried up to
    /// the attempt bound, just without waiting in between.  Callers that
    /// want real backoff pacing inject a real clock via
    /// [`Storage::new`].
    pub fn os() -> Self {
        Storage {
            backend: Arc::new(OsBackend),
            retry: RetryPolicy::default(),
            clock: Arc::new(NullClock),
            journal: None,
        }
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
            journal: None,
        }
    }

    /// Attaches a journal: every exhausted retry loop records a
    /// `retry_exhausted` event with the attempts spent.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The backend operations execute against.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// The retry policy governing transient failures.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The clock that paces retry backoff.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Records `kind` in the attached journal (a no-op without one).
    pub(crate) fn record_event(&self, kind: EventKind) {
        if let Some(journal) = &self.journal {
            journal.record(self.clock.now_nanos(), kind);
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

    /// [`atomic_write`] through this handle's backend, retry policy and
    /// clock: create the parent directory, write a sibling `*.tmp` file,
    /// fsync it, rename it over `path`, fsync the directory.  Each step
    /// retries transient failures under the policy.
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
    /// returning the serialized byte count.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] for filesystem failures and the
    /// serialization errors of [`Snapshot::to_bytes`].
    pub fn write_snapshot(&self, path: &Path, snapshot: &Snapshot) -> Result<u64, StoreError> {
        let bytes = snapshot.to_bytes()?;
        self.atomic_write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// [`Storage::write_snapshot`], instrumented like
    /// [`SnapshotWriter::write_observed`]: records the write count,
    /// serialized byte count and wall time in `obs`.
    ///
    /// # Errors
    /// Same as [`Storage::write_snapshot`].
    pub fn write_snapshot_observed(
        &self,
        path: &Path,
        snapshot: &Snapshot,
        obs: &crate::StoreObs,
    ) -> Result<u64, StoreError> {
        let clock = obs.clock();
        let start = clock.enabled().then(|| clock.now_nanos());
        let n = self.write_snapshot(path, snapshot)?;
        if let Some(start) = start {
            obs.write_nanos
                .record(clock.now_nanos().saturating_sub(start));
        }
        obs.writes.inc();
        obs.bytes_written.add(n);
        Ok(n)
    }

    /// Reads and fully validates the snapshot at `path` through this
    /// handle's backend.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] for filesystem failures and the typed
    /// validation errors of [`Snapshot::from_bytes`].
    pub fn read_snapshot(&self, path: &Path) -> Result<Snapshot, StoreError> {
        let bytes = self.read(path)?;
        Snapshot::from_bytes(&bytes)
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

    /// Whether a file or directory exists at `path`.
    pub fn exists(&self, path: &Path) -> bool {
        self.backend.exists(path)
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

/// Writes snapshots to a fixed path with atomic temp-file-and-rename
/// semantics.
///
/// ```
/// use mdrr_data::{Attribute, Schema};
/// use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
/// use mdrr_store::{Snapshot, SnapshotReader, SnapshotWriter};
///
/// let dir = std::env::temp_dir().join(format!("mdrr-doc-{}", std::process::id()));
/// let path = dir.join("shard-00000.mdrrsnap");
/// let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
/// let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
/// let snapshot = Snapshot::new(schema, spec, vec![vec![3, 1]], 4)?;
///
/// SnapshotWriter::new(&path).write(&snapshot)?;
/// assert_eq!(SnapshotReader::read(&path)?, snapshot);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotWriter {
    path: PathBuf,
}

impl SnapshotWriter {
    /// A writer targeting `path`.  Parent directories are created on the
    /// first write; nothing touches the filesystem until then.
    ///
    /// ```
    /// let writer = mdrr_store::SnapshotWriter::new("/tmp/never-written.mdrrsnap");
    /// assert_eq!(writer.path().file_name().unwrap(), "never-written.mdrrsnap");
    /// ```
    pub fn new(path: impl Into<PathBuf>) -> Self {
        SnapshotWriter { path: path.into() }
    }

    /// The target path of this writer.
    ///
    /// ```
    /// let writer = mdrr_store::SnapshotWriter::new("a/b.mdrrsnap");
    /// assert!(writer.path().ends_with("b.mdrrsnap"));
    /// ```
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically replaces the target path with `snapshot`: serialize,
    /// write to a sibling `*.tmp` file, fsync, rename over the target,
    /// fsync the directory.  A crash at any point leaves
    /// either the old complete file or the new complete file.
    ///
    /// ```
    /// # use mdrr_data::{Attribute, Schema};
    /// # use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    /// # use mdrr_store::{Snapshot, SnapshotReader, SnapshotWriter};
    /// # let dir = std::env::temp_dir().join(format!("mdrr-doc-w-{}", std::process::id()));
    /// # let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
    /// # let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    /// let writer = SnapshotWriter::new(dir.join("state.mdrrsnap"));
    /// writer.write(&Snapshot::new(schema.clone(), spec.clone(), vec![vec![1, 0]], 1)?)?;
    /// writer.write(&Snapshot::new(schema, spec, vec![vec![1, 1]], 2)?)?; // replaces
    /// assert_eq!(SnapshotReader::read(writer.path())?.n_reports(), 2);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] for filesystem failures and the
    /// serialization errors of [`Snapshot::to_bytes`].
    pub fn write(&self, snapshot: &Snapshot) -> Result<(), StoreError> {
        atomic_write(&self.path, &snapshot.to_bytes()?)
    }

    /// [`SnapshotWriter::write`], instrumented: records the write count,
    /// serialized byte count and wall time in `obs`, and returns the
    /// number of bytes written.  Identical filesystem behavior; under a
    /// disabled clock only the counters move.
    ///
    /// ```
    /// # use mdrr_data::{Attribute, Schema};
    /// # use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    /// # use mdrr_store::{Snapshot, SnapshotWriter, StoreObs};
    /// # use mdrr_obs::{MonotonicClock, Registry};
    /// # use std::sync::Arc;
    /// # let dir = std::env::temp_dir().join(format!("mdrr-doc-wo-{}", std::process::id()));
    /// # let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
    /// # let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    /// let registry = Registry::new();
    /// let obs = StoreObs::new(Arc::new(MonotonicClock::new()), &registry);
    /// let writer = SnapshotWriter::new(dir.join("obs.mdrrsnap"));
    /// let bytes = writer.write_observed(&Snapshot::new(schema, spec, vec![vec![1, 0]], 1)?, &obs)?;
    /// let snap = registry.snapshot();
    /// assert_eq!(snap.counter_value("store_snapshot_writes_total", &[]), Some(1));
    /// assert_eq!(snap.counter_value("store_bytes_written_total", &[]), Some(bytes));
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    /// Same as [`SnapshotWriter::write`].
    pub fn write_observed(
        &self,
        snapshot: &Snapshot,
        obs: &crate::StoreObs,
    ) -> Result<u64, StoreError> {
        let clock = obs.clock();
        let start = clock.enabled().then(|| clock.now_nanos());
        let bytes = snapshot.to_bytes()?;
        atomic_write(&self.path, &bytes)?;
        if let Some(start) = start {
            obs.write_nanos
                .record(clock.now_nanos().saturating_sub(start));
        }
        obs.writes.inc();
        let n = bytes.len() as u64;
        obs.bytes_written.add(n);
        Ok(n)
    }
}

/// Reads and fully validates snapshot files (magic, version, structure,
/// checksum, header, counting invariants).
///
/// ```
/// use mdrr_store::{SnapshotReader, StoreError};
///
/// // Reading a missing file is a typed I/O error, not a panic.
/// match SnapshotReader::read("/nonexistent/missing.mdrrsnap") {
///     Err(StoreError::Io { .. }) => {}
///     other => panic!("expected Io, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SnapshotReader;

impl SnapshotReader {
    /// Reads the snapshot at `path`, validating everything the format
    /// promises before returning it.
    ///
    /// ```
    /// # use mdrr_data::{Attribute, Schema};
    /// # use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    /// # use mdrr_store::{Snapshot, SnapshotReader, SnapshotWriter};
    /// # let dir = std::env::temp_dir().join(format!("mdrr-doc-r-{}", std::process::id()));
    /// # let path = dir.join("x.mdrrsnap");
    /// # let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
    /// # let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    /// # let snapshot = Snapshot::new(schema, spec, vec![vec![2, 2]], 4)?;
    /// SnapshotWriter::new(&path).write(&snapshot)?;
    /// let restored = SnapshotReader::read(&path)?;
    /// assert_eq!(restored.counts(), snapshot.counts());
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] for filesystem failures and the typed
    /// validation errors of [`Snapshot::from_bytes`] for malformed
    /// contents.
    pub fn read(path: impl AsRef<Path>) -> Result<Snapshot, StoreError> {
        let path = path.as_ref();
        let bytes = fs::read(path)
            .map_err(|e| StoreError::io(format!("read snapshot {}", path.display()), e))?;
        Snapshot::from_bytes(&bytes)
    }

    /// [`SnapshotReader::read`], instrumented: records the read count,
    /// file byte count, wall time and — separately — the CRC-64
    /// verification time in `obs`.  The checksum is hashed once (inside
    /// decoding), not re-hashed for measurement.
    ///
    /// ```
    /// # use mdrr_data::{Attribute, Schema};
    /// # use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    /// # use mdrr_store::{Snapshot, SnapshotReader, SnapshotWriter, StoreObs};
    /// # use mdrr_obs::{MonotonicClock, Registry};
    /// # use std::sync::Arc;
    /// # let dir = std::env::temp_dir().join(format!("mdrr-doc-ro-{}", std::process::id()));
    /// # let path = dir.join("obs.mdrrsnap");
    /// # let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
    /// # let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    /// # let snapshot = Snapshot::new(schema, spec, vec![vec![2, 2]], 4)?;
    /// SnapshotWriter::new(&path).write(&snapshot)?;
    /// let registry = Registry::new();
    /// let obs = StoreObs::new(Arc::new(MonotonicClock::new()), &registry);
    /// assert_eq!(SnapshotReader::read_observed(&path, &obs)?, snapshot);
    /// let snap = registry.snapshot();
    /// assert_eq!(snap.counter_value("store_snapshot_reads_total", &[]), Some(1));
    /// assert_eq!(snap.histogram_snapshot("store_crc_nanos", &[]).unwrap().count, 1);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    /// Same as [`SnapshotReader::read`].
    pub fn read_observed(
        path: impl AsRef<Path>,
        obs: &crate::StoreObs,
    ) -> Result<Snapshot, StoreError> {
        let path = path.as_ref();
        let clock = obs.clock();
        let start = clock.enabled().then(|| clock.now_nanos());
        let bytes = fs::read(path)
            .map_err(|e| StoreError::io(format!("read snapshot {}", path.display()), e))?;
        let (snapshot, crc_nanos) = crate::format::decode_timed(&bytes, Some(clock.as_ref()))?;
        if let Some(start) = start {
            obs.read_nanos
                .record(clock.now_nanos().saturating_sub(start));
            obs.crc_nanos.record(crc_nanos);
        }
        obs.reads.inc();
        obs.bytes_read.add(bytes.len() as u64);
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::{Attribute, Schema};
    use mdrr_protocols::{ProtocolSpec, RandomizationLevel};

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
        let writer = SnapshotWriter::new(&path);
        let snapshot = sample();
        writer.write(&snapshot).unwrap();
        assert_eq!(SnapshotReader::read(&path).unwrap(), snapshot);
        // No temp residue.
        assert!(!path.with_extension("mdrrsnap.tmp").exists());
        // A second write atomically replaces the first.
        let mut second = snapshot.clone();
        second.set_app_state(Some("v2".to_string()));
        writer.write(&second).unwrap();
        assert_eq!(SnapshotReader::read(&path).unwrap().app_state(), Some("v2"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reading_missing_or_corrupt_files_is_typed() {
        let dir = scratch_dir("corrupt");
        assert!(matches!(
            SnapshotReader::read(dir.join("absent.mdrrsnap")),
            Err(StoreError::Io { .. })
        ));
        // A truncated file (simulating a non-atomic partial write from a
        // foreign writer) is caught structurally.
        let path = dir.join("torn.mdrrsnap");
        let bytes = sample().to_bytes().unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(SnapshotReader::read(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
