//! The storage backend boundary: every file operation the store performs,
//! behind one trait.
//!
//! [`StorageBackend`] is the seam between the store's durability logic
//! (atomic temp-file-and-rename writes, checkpoint commits, salvage) and
//! the filesystem that executes it.  [`OsBackend`] is the production
//! implementation, and [`FaultyBackend`] executes the same operations against
//! the real filesystem while injecting a scripted [`FaultPlan`]: fail
//! operation *N* transiently or permanently, tear a write after *K*
//! bytes, acknowledge a sync without honouring it, or cut the power
//! entirely.  Because the plan is indexed by a deterministic global
//! operation counter, a crash-consistency harness can enumerate *every*
//! fault point of a multi-file protocol exhaustively (fail at op 0, op 1,
//! …) instead of sampling a few.
//!
//! Fault semantics worth knowing:
//!
//! * [`FaultKind::Crash`] and [`FaultKind::TornWrite`] model a power cut:
//!   the backend truncates every written-but-not-fsynced file back to its
//!   last synced length (what a real disk would lose) and every later
//!   operation fails permanently.
//! * [`FaultKind::LyingSync`] models firmware that acknowledges a flush
//!   without performing it: the sync returns `Ok`, but the file stays in
//!   the not-yet-durable set, so a later `Crash` discards the data the
//!   caller believed safe.  This deliberately breaks the old-or-new
//!   guarantee of atomic writes — it is the scenario
//!   [`crate::salvage_checkpoint`] exists for.
//! * [`FaultKind::Transient`] failures are re-executable: the faulted
//!   call performs nothing, and a retry (a fresh call, hence a fresh
//!   operation index) succeeds unless the plan scripts another fault.

use crate::error::StoreError;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The file operations the store is allowed to perform, each returning a
/// typed [`StoreError`].  Implementations must be safe to share across
/// the collector's ingest/checkpoint threads.
pub trait StorageBackend: Debug + Send + Sync {
    /// Creates `path` and every missing ancestor directory.
    fn create_dir_all(&self, path: &Path) -> Result<(), StoreError>;

    /// Makes the file at `path` hold exactly `bytes`, creating it if it
    /// is missing.  An existing file is overwritten in place and then cut
    /// to `bytes.len()`, so its blocks are reused rather than freed first
    /// (freeing synced blocks can stall for tens of milliseconds on a
    /// filesystem mounted with `discard`).  The data is *not* durable
    /// until [`StorageBackend::sync`] succeeds.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError>;

    /// Flushes the file at `path` to stable storage (fsync).
    fn sync(&self, path: &Path) -> Result<(), StoreError>;

    /// Atomically renames `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError>;

    /// Flushes the directory entry table at `dir` so a preceding rename
    /// survives a power cut.  Platforms and filesystems that cannot fsync
    /// a directory handle at all count as success; any other failure is
    /// an error, because the rename may not survive.
    fn sync_dir(&self, dir: &Path) -> Result<(), StoreError>;

    /// Reads the full contents of the file at `path`.
    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError>;

    /// The file names (not full paths) of the entries in `dir`,
    /// in sorted order.  A missing directory reads as empty.
    fn list_dir(&self, dir: &Path) -> Result<Vec<String>, StoreError>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> Result<(), StoreError>;

    /// Whether a file or directory exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// The production backend: plain `std::fs`.  Writes overwrite in place
/// (see [`StorageBackend::write`]), and a directory fsync fails only on
/// a real I/O error, not on a filesystem that cannot fsync directories.
///
/// ```
/// use mdrr_store::{OsBackend, StorageBackend};
/// let dir = std::env::temp_dir().join(format!("mdrr-osb-doc-{}", std::process::id()));
/// let backend = OsBackend;
/// backend.create_dir_all(&dir)?;
/// backend.write(&dir.join("a.bin"), b"payload")?;
/// backend.sync(&dir.join("a.bin"))?;
/// assert_eq!(backend.read(&dir.join("a.bin"))?, b"payload");
/// assert_eq!(backend.list_dir(&dir)?, vec!["a.bin".to_string()]);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), mdrr_store::StoreError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OsBackend;

impl StorageBackend for OsBackend {
    fn create_dir_all(&self, path: &Path) -> Result<(), StoreError> {
        fs::create_dir_all(path)
            .map_err(|e| StoreError::io(format!("create directory {}", path.display()), e))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StoreError::io(format!("open for write {}", path.display()), e))?;
        file.write_all(bytes)
            .and_then(|()| file.set_len(bytes.len() as u64))
            .map_err(|e| StoreError::io(format!("write file {}", path.display()), e))
    }

    fn sync(&self, path: &Path) -> Result<(), StoreError> {
        let file = File::open(path)
            .map_err(|e| StoreError::io(format!("open for sync {}", path.display()), e))?;
        file.sync_all()
            .map_err(|e| StoreError::io(format!("sync file {}", path.display()), e))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        fs::rename(from, to).map_err(|e| {
            StoreError::io(
                format!("rename {} over {}", from.display(), to.display()),
                e,
            )
        })
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), StoreError> {
        // A platform that cannot open a directory handle cannot fsync one.
        let Ok(handle) = File::open(dir) else {
            return Ok(());
        };
        match handle.sync_all() {
            Err(e) if !dir_sync_unsupported(&e) => Err(StoreError::io(
                format!("sync directory {}", dir.display()),
                e,
            )),
            _ => Ok(()),
        }
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        fs::read(path).map_err(|e| StoreError::io(format!("read file {}", path.display()), e))
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<String>, StoreError> {
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => {
                return Err(StoreError::io(
                    format!("list directory {}", dir.display()),
                    e,
                ))
            }
        };
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| StoreError::io(format!("list directory {}", dir.display()), e))?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    fn remove_file(&self, path: &Path) -> Result<(), StoreError> {
        fs::remove_file(path)
            .map_err(|e| StoreError::io(format!("remove file {}", path.display()), e))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// Whether a failed directory fsync means the filesystem cannot fsync
/// a directory at all (EINVAL and the like), as opposed to a real I/O
/// failure such as EIO that the caller must hear about.
fn dir_sync_unsupported(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::InvalidInput | io::ErrorKind::Unsupported
    )
}

/// What a scripted fault does to the operation it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with a transient I/O error and performs
    /// nothing; a retry re-executes it (at a fresh operation index).
    Transient,
    /// The operation fails with a permanent I/O error and performs
    /// nothing; retrying is pointless.
    Permanent,
    /// Power cut mid-write: only the first `keep_bytes` bytes reach the
    /// file, the backend crashes, and every later operation fails.  On a
    /// non-write operation this degrades to [`FaultKind::Crash`].
    TornWrite {
        /// Bytes of the attempted write that survive.
        keep_bytes: usize,
    },
    /// Power cut before the operation: nothing is performed, files
    /// written but not fsynced are truncated to their last synced length
    /// (what a real disk loses), and every later operation fails.
    Crash,
    /// The sync reports success without flushing: the file stays
    /// non-durable, so a later [`FaultKind::Crash`] discards it.  On a
    /// non-sync operation the fault is inert.
    LyingSync,
}

/// One scripted fault: fire `kind` when the backend executes its
/// `at_op`-th operation (0-based, counted across all operation types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Global operation index the fault fires at.
    pub at_op: u64,
    /// What happens at that operation.
    pub kind: FaultKind,
}

/// A deterministic fault script for a [`FaultyBackend`].
///
/// ```
/// use mdrr_store::{FaultKind, FaultPlan};
/// let plan = FaultPlan::fail_at(3, FaultKind::Crash);
/// assert_eq!(plan.faults().len(), 1);
/// // Seeded plans are reproducible.
/// assert_eq!(FaultPlan::random(7, 100, 4), FaultPlan::random(7, 100, 4));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults (the backend behaves like [`OsBackend`] with
    /// an operation counter).
    pub fn none() -> Self {
        FaultPlan { faults: Vec::new() }
    }

    /// A plan containing exactly the given faults.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// A single fault: `kind` at operation `at_op`.
    pub fn fail_at(at_op: u64, kind: FaultKind) -> Self {
        FaultPlan {
            faults: vec![Fault { at_op, kind }],
        }
    }

    /// A reproducible pseudo-random plan of `n_faults` faults at distinct
    /// operation indices below `op_bound`, derived from `seed` with a
    /// SplitMix64 stream (no ambient randomness).  Crash-class faults are
    /// excluded — random soak plans exercise transients, torn writes and
    /// lying syncs, while crashes are scripted deliberately.
    pub fn random(seed: u64, op_bound: u64, n_faults: usize) -> Self {
        let bound = op_bound.max(1);
        let mut state = seed;
        let mut next = move || {
            // SplitMix64: the workspace's stock seeded generator for
            // test-infrastructure streams.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut faults = Vec::with_capacity(n_faults);
        let mut used = Vec::new();
        while faults.len() < n_faults && used.len() < bound as usize {
            let at_op = next() % bound;
            if used.contains(&at_op) {
                continue;
            }
            used.push(at_op);
            let kind = match next() % 3 {
                0 => FaultKind::Transient,
                1 => FaultKind::TornWrite {
                    keep_bytes: (next() % 64) as usize,
                },
                _ => FaultKind::LyingSync,
            };
            faults.push(Fault { at_op, kind });
        }
        faults.sort_by_key(|f| f.at_op);
        FaultPlan { faults }
    }

    /// The scripted faults, in the order given.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The fault scripted for operation `at_op`, if any (first match
    /// wins).
    fn fault_at(&self, at_op: u64) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.at_op == at_op)
            .map(|f| f.kind)
    }
}

/// Mutable fault state behind the [`FaultyBackend`] mutex.
#[derive(Debug, Default)]
struct FaultState {
    /// Operations executed so far (the index the next operation gets).
    ops: u64,
    /// Faults actually fired.
    injected: u64,
    /// Whether a crash-class fault has fired: all later operations fail.
    crashed: bool,
    /// Written-but-not-durably-synced files: path → last synced length.
    /// A crash truncates each to that length (removing files never
    /// synced at all).
    dirty: BTreeMap<PathBuf, u64>,
}

/// A [`StorageBackend`] that executes real filesystem operations through
/// an [`OsBackend`] while injecting the faults of a scripted
/// [`FaultPlan`] — the deterministic disk-failure simulator behind the
/// crash-consistency torture harness and `stream_sim --chaos`.
///
/// ```
/// use mdrr_store::{FaultKind, FaultPlan, FaultyBackend, StorageBackend};
/// let dir = std::env::temp_dir().join(format!("mdrr-fb-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let backend = FaultyBackend::new(FaultPlan::fail_at(1, FaultKind::Permanent));
/// backend.write(&dir.join("ok.bin"), b"first")?;        // op 0: fine
/// assert!(backend.write(&dir.join("no.bin"), b"second").is_err()); // op 1: faulted
/// assert_eq!(backend.ops_executed(), 2);
/// assert_eq!(backend.injected(), 1);
/// assert!(!backend.crashed());
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FaultyBackend {
    inner: OsBackend,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

/// The outcome of consulting the fault plan for one operation.
enum Injection {
    /// Execute the operation normally.
    Proceed,
    /// Fail the operation with this error, performing nothing.
    Fail(StoreError),
    /// Tear the write after this many bytes (write operations only).
    Tear(usize),
    /// Acknowledge the sync without performing it (sync operations only).
    Lie,
}

impl FaultyBackend {
    /// A faulty backend executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultyBackend {
            inner: OsBackend,
            plan,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Operations executed (including faulted ones) so far.  Running a
    /// workload against `FaultPlan::none()` and reading this is how the
    /// torture harness learns the exhaustive fault-point range.
    pub fn ops_executed(&self) -> u64 {
        self.lock().ops
    }

    /// Faults actually fired so far.
    pub fn injected(&self) -> u64 {
        self.lock().injected
    }

    /// Whether a crash-class fault has fired (all later operations fail).
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Cuts the power immediately, outside the scripted plan: every file
    /// written but not *honestly* synced is truncated to its last durable
    /// length, and all later operations fail.  The torture harness calls
    /// this after a workload to make lying syncs observable even when no
    /// crash fault was scripted.
    pub fn power_cut(&self) {
        let mut state = self.lock();
        state.crashed = true;
        Self::lose_unsynced(&mut state);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // A poisoned mutex only means a panic elsewhere mid-operation;
        // the fault state stays structurally valid, so keep serving it.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Claims the next operation index, fires any scripted fault, and
    /// reports how the operation should proceed.  `is_write` / `is_sync`
    /// select which fault kinds apply.
    fn admit(&self, what: &str, path: &Path, is_write: bool, is_sync: bool) -> Injection {
        let mut state = self.lock();
        let op = state.ops;
        state.ops = state.ops.wrapping_add(1);
        if state.crashed {
            return Injection::Fail(StoreError::io_permanent(
                format!("{what} {} after simulated power cut", path.display()),
                io::Error::other("backend crashed"),
            ));
        }
        let Some(kind) = self.plan.fault_at(op) else {
            return Injection::Proceed;
        };
        match kind {
            FaultKind::Transient => {
                state.injected += 1;
                Injection::Fail(StoreError::io_transient(
                    format!("{what} {} (injected at op {op})", path.display()),
                    io::Error::new(io::ErrorKind::Interrupted, "injected transient fault"),
                ))
            }
            FaultKind::Permanent => {
                state.injected += 1;
                Injection::Fail(StoreError::io_permanent(
                    format!("{what} {} (injected at op {op})", path.display()),
                    io::Error::other("injected permanent fault"),
                ))
            }
            FaultKind::TornWrite { keep_bytes } if is_write => {
                state.injected += 1;
                state.crashed = true;
                Self::lose_unsynced(&mut state);
                Injection::Tear(keep_bytes)
            }
            FaultKind::TornWrite { .. } | FaultKind::Crash => {
                state.injected += 1;
                state.crashed = true;
                Self::lose_unsynced(&mut state);
                Injection::Fail(StoreError::io_permanent(
                    format!("{what} {} (simulated power cut at op {op})", path.display()),
                    io::Error::other("injected crash"),
                ))
            }
            FaultKind::LyingSync if is_sync => {
                state.injected += 1;
                Injection::Lie
            }
            FaultKind::LyingSync => Injection::Proceed,
        }
    }

    /// Applies the crash's data loss: every dirty file is truncated back
    /// to its last synced length (files never synced are removed), the
    /// way a real power cut discards unflushed page-cache contents.
    fn lose_unsynced(state: &mut FaultState) {
        for (path, synced_len) in std::mem::take(&mut state.dirty) {
            if synced_len == 0 {
                let _ = fs::remove_file(&path);
            } else if let Ok(file) = OpenOptions::new().write(true).open(&path) {
                let _ = file.set_len(synced_len);
            }
        }
    }
}

impl StorageBackend for FaultyBackend {
    fn create_dir_all(&self, path: &Path) -> Result<(), StoreError> {
        match self.admit("create directory", path, false, false) {
            Injection::Fail(e) => Err(e),
            _ => self.inner.create_dir_all(path),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        match self.admit("write file", path, true, false) {
            Injection::Fail(e) => Err(e),
            Injection::Tear(keep_bytes) => {
                let keep = keep_bytes.min(bytes.len());
                let _ = self.inner.write(path, bytes.get(..keep).unwrap_or(bytes));
                Err(StoreError::io_permanent(
                    format!(
                        "write file {} (torn after {keep} of {} bytes)",
                        path.display(),
                        bytes.len()
                    ),
                    io::Error::other("injected torn write"),
                ))
            }
            _ => {
                self.inner.write(path, bytes)?;
                // Freshly (re)written contents are not durable until a
                // sync succeeds honestly.
                self.lock().dirty.insert(path.to_path_buf(), 0);
                Ok(())
            }
        }
    }

    fn sync(&self, path: &Path) -> Result<(), StoreError> {
        match self.admit("sync file", path, false, true) {
            Injection::Fail(e) => Err(e),
            Injection::Lie => Ok(()), // acknowledged, not performed
            _ => {
                self.inner.sync(path)?;
                self.lock().dirty.remove(path);
                Ok(())
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        match self.admit("rename", from, false, false) {
            Injection::Fail(e) => Err(e),
            _ => {
                self.inner.rename(from, to)?;
                // Unsynced contents stay unsynced under the new name.
                let mut state = self.lock();
                if let Some(synced_len) = state.dirty.remove(from) {
                    state.dirty.insert(to.to_path_buf(), synced_len);
                }
                Ok(())
            }
        }
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), StoreError> {
        match self.admit("sync directory", dir, false, true) {
            Injection::Fail(e) => Err(e),
            Injection::Lie => Ok(()),
            _ => self.inner.sync_dir(dir),
        }
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        match self.admit("read file", path, false, false) {
            Injection::Fail(e) => Err(e),
            _ => self.inner.read(path),
        }
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<String>, StoreError> {
        match self.admit("list directory", dir, false, false) {
            Injection::Fail(e) => Err(e),
            _ => self.inner.list_dir(dir),
        }
    }

    fn remove_file(&self, path: &Path) -> Result<(), StoreError> {
        match self.admit("remove file", path, false, false) {
            Injection::Fail(e) => Err(e),
            _ => self.inner.remove_file(path),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        // Existence checks are free of I/O side effects and not part of
        // the fault-point enumeration.
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mdrr-backend-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn os_backend_round_trips_and_lists() {
        let dir = scratch_dir("os");
        let backend = OsBackend;
        backend.write(&dir.join("b.bin"), b"bb").unwrap();
        backend.write(&dir.join("a.bin"), b"aa").unwrap();
        backend.sync(&dir.join("a.bin")).unwrap();
        backend.sync_dir(&dir).unwrap();
        assert_eq!(backend.read(&dir.join("a.bin")).unwrap(), b"aa");
        assert_eq!(backend.list_dir(&dir).unwrap(), vec!["a.bin", "b.bin"]);
        backend
            .rename(&dir.join("a.bin"), &dir.join("c.bin"))
            .unwrap();
        assert!(backend.exists(&dir.join("c.bin")));
        assert!(!backend.exists(&dir.join("a.bin")));
        backend.remove_file(&dir.join("c.bin")).unwrap();
        // A missing directory lists as empty, not as an error.
        assert!(backend.list_dir(&dir.join("absent")).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn os_backend_write_overwrites_in_place_to_the_exact_bytes() {
        let dir = scratch_dir("inplace");
        let path = dir.join("w.bin");
        let backend = OsBackend;
        backend.write(&path, b"a longer first payload").unwrap();
        backend.write(&path, b"short").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"short");
        backend.write(&path, b"grown past the short one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"grown past the short one");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn only_unsupported_directory_fsyncs_are_swallowed() {
        // EINVAL: the filesystem cannot fsync a directory handle.
        assert!(dir_sync_unsupported(&io::Error::from_raw_os_error(22)));
        assert!(dir_sync_unsupported(&io::Error::from(
            io::ErrorKind::Unsupported
        )));
        // EIO: the rename may be lost, so the caller must see it.
        assert!(!dir_sync_unsupported(&io::Error::from_raw_os_error(5)));
    }

    #[test]
    fn transient_fault_fires_once_then_the_retry_succeeds() {
        let dir = scratch_dir("transient");
        let backend = FaultyBackend::new(FaultPlan::fail_at(0, FaultKind::Transient));
        let err = backend.write(&dir.join("x.bin"), b"x").unwrap_err();
        assert!(err.is_transient());
        // The retry is a fresh op (index 1): no fault scripted there.
        backend.write(&dir.join("x.bin"), b"x").unwrap();
        assert_eq!(backend.ops_executed(), 2);
        assert_eq!(backend.injected(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_keeps_a_prefix_and_crashes_the_backend() {
        let dir = scratch_dir("torn");
        let backend = FaultyBackend::new(FaultPlan::fail_at(
            0,
            FaultKind::TornWrite { keep_bytes: 3 },
        ));
        let err = backend
            .write(&dir.join("t.bin"), b"0123456789")
            .unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(fs::read(dir.join("t.bin")).unwrap(), b"012");
        assert!(backend.crashed());
        // Everything after the power cut fails.
        assert!(backend.read(&dir.join("t.bin")).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lying_sync_loses_the_file_at_the_next_crash() {
        let dir = scratch_dir("liar");
        let backend = FaultyBackend::new(FaultPlan::new(vec![
            Fault {
                at_op: 1,
                kind: FaultKind::LyingSync,
            },
            Fault {
                at_op: 3,
                kind: FaultKind::Crash,
            },
        ]));
        backend.write(&dir.join("l.bin"), b"precious").unwrap(); // op 0
        backend.sync(&dir.join("l.bin")).unwrap(); // op 1: acknowledged, not flushed
        backend
            .rename(&dir.join("l.bin"), &dir.join("m.bin"))
            .unwrap(); // op 2: dirtiness follows the rename
        assert!(backend.read(&dir.join("m.bin")).is_err()); // op 3: power cut
                                                            // The never-really-synced file is gone, as on a real disk.
        assert!(!dir.join("m.bin").exists());
        assert!(!dir.join("l.bin").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn honest_sync_survives_a_crash() {
        let dir = scratch_dir("honest");
        let backend = FaultyBackend::new(FaultPlan::fail_at(2, FaultKind::Crash));
        backend.write(&dir.join("h.bin"), b"durable").unwrap(); // op 0
        backend.sync(&dir.join("h.bin")).unwrap(); // op 1: honest
        assert!(backend.read(&dir.join("h.bin")).is_err()); // op 2: power cut
        assert_eq!(fs::read(dir.join("h.bin")).unwrap(), b"durable");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn random_plans_are_reproducible_and_crash_free() {
        let a = FaultPlan::random(9, 50, 6);
        let b = FaultPlan::random(9, 50, 6);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 6);
        for fault in a.faults() {
            assert!(fault.at_op < 50);
            assert!(!matches!(fault.kind, FaultKind::Crash));
        }
        assert_ne!(FaultPlan::random(10, 50, 6), a);
    }
}
