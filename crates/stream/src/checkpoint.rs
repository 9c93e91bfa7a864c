//! Durable checkpoints of a [`ShardedCollector`].
//!
//! A checkpoint is a directory: one *generation-named* `mdrr-store`
//! snapshot file per shard (`shard-00000.g00000003.mdrrsnap` is shard 0
//! of checkpoint generation 3) plus a `MANIFEST.json` written *last* and
//! atomically — the manifest is the commit point.  Each checkpoint writes
//! a complete new generation of shard files *beside* the committed one
//! and then commits the manifest naming the new files — so a crash at
//! any single file operation leaves either the old complete checkpoint
//! or the new complete one, never a manifest pointing at half-replaced
//! shard files (the crash-consistency torture suite sweeps every crash
//! point to prove it).  The generation the new manifest supersedes stays
//! on disk as *spares*: the next checkpoint renames each spare onto its
//! new file's temp path and overwrites it in place, so in steady state
//! the shard files cycle through two sets of inodes and no checkpoint
//! frees a block.  Each shard file is
//! self-describing (it embeds the schema and the declarative
//! [`ProtocolSpec`]), so [`ShardedCollector::restore`] rebuilds the
//! protocol and the accumulators from the directory alone, and shard
//! files from different machines can be pooled with
//! [`mdrr_store::merge_snapshot_files`] with no process alive that ever
//! held the original collector.
//!
//! All file operations flow through an [`mdrr_store::Storage`] handle:
//! [`ShardedCollector::checkpoint`] and [`ShardedCollector::restore`] run
//! on the production OS backend, [`ShardedCollector::checkpoint_with`]
//! accepts an injected storage (fault backends, retry clocks) for
//! torture tests and the chaos harness, and restore reads the directory
//! with [`mdrr_store::read_checkpoint`].  If a torn directory ever does
//! arise — out-of-band damage, a lying disk —
//! [`mdrr_store::salvage_checkpoint`] rebuilds a manifest from the
//! surviving shard files.

// Restore inherits the store's promise: a corrupt checkpoint is a typed
// error, never a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use crate::accumulator::Accumulator;
use crate::collector::ShardedCollector;
use crate::error::MdrrError;
use crate::instrument::StreamObs;
use mdrr_obs::{Clock, EventKind, NullClock};
use mdrr_protocols::{Protocol, ProtocolSpec};
use mdrr_store::{
    next_generation, parse_shard_file_name, read_checkpoint, read_manifest, shard_file_name,
    Snapshot, Storage, MANIFEST_VERSION,
};
use std::path::Path;
use std::sync::Arc;

pub use mdrr_store::{CheckpointManifest, MANIFEST_FILE};

/// Everything [`ShardedCollector::restore`] recovers from a checkpoint
/// directory.
#[derive(Debug)]
pub struct RestoredCheckpoint {
    /// The collector, with every shard accumulator exactly as persisted.
    pub collector: ShardedCollector,
    /// The declarative spec the shards were collected under (pass it back
    /// to [`ShardedCollector::checkpoint`] for the next checkpoint).
    pub spec: ProtocolSpec,
    /// The opaque application resume state stored in the manifest.
    pub app_state: Option<String>,
}

impl ShardedCollector {
    /// Persists every shard's accumulator into `dir` as `mdrr-store`
    /// snapshot files and commits the set with an atomically written
    /// [`CheckpointManifest`].  `spec` must be the declarative spec of
    /// the collector's protocol (it is embedded in every shard file so
    /// the checkpoint is self-describing); `app_state` is an opaque
    /// string stored in the manifest for the caller's own resume logic.
    ///
    /// Checkpointing is crash-safe at three levels: each file write is
    /// atomic (temp + rename), the new generation of shard files is
    /// written *beside* the old one, and the manifest is written last —
    /// so an interrupted checkpoint leaves the previous manifest pointing
    /// at the previous, still-intact shard files.  Shard files that the
    /// committed manifest does not list are spares: each new shard file
    /// is written over its shard's spare (renamed onto the temp path)
    /// rather than into a fresh file.  After the new manifest commits,
    /// the generation it supersedes is kept as the next checkpoint's
    /// spares, and only shard files that neither manifest lists are
    /// deleted (best-effort).  Stale `*.tmp` debris from earlier faulted
    /// attempts is swept on entry.
    ///
    /// ```
    /// use mdrr_data::{Attribute, Schema};
    /// use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    /// use mdrr_stream::ShardedCollector;
    ///
    /// let dir = std::env::temp_dir().join(format!("mdrr-ckpt-doc-{}", std::process::id()));
    /// let schema = Schema::new(vec![Attribute::indexed("A", 3)?])?;
    /// let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    /// let mut collector = ShardedCollector::new(spec.build_arc(&schema)?, 2)?;
    /// collector.ingest_records(&[vec![0], vec![1], vec![2]], 42)?;
    ///
    /// let manifest = collector.checkpoint(&spec, &dir, Some("round 1"))?;
    /// assert_eq!(manifest.n_shards, 2);
    /// assert_eq!(manifest.total_reports, 3);
    ///
    /// let restored = ShardedCollector::restore(&dir)?;
    /// assert_eq!(restored.collector.shards(), collector.shards());
    /// assert_eq!(restored.app_state.as_deref(), Some("round 1"));
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if `spec` does not
    /// describe this collector's protocol (name or channel topology
    /// differ), and wrapped [`mdrr_store::StoreError`]s for I/O or
    /// serialization failures.
    pub fn checkpoint(
        &self,
        spec: &ProtocolSpec,
        dir: &Path,
        app_state: Option<&str>,
    ) -> Result<CheckpointManifest, MdrrError> {
        self.checkpoint_with(spec, dir, app_state, &Storage::os())
    }

    /// [`ShardedCollector::checkpoint`] through an injected
    /// [`Storage`] handle — the seam the crash-consistency torture suite
    /// and the `stream_sim --chaos` harness drive fault plans through
    /// (production callers use [`ShardedCollector::checkpoint`], which
    /// runs on [`Storage::os`]).  Identical on-disk layout and commit
    /// protocol; every file operation (tmp sweep, manifest read, spare
    /// recycling, shard writes, manifest commit, cleanup) executes
    /// against `storage`'s backend under its retry policy and clock.
    ///
    /// # Errors
    /// Same contract as [`ShardedCollector::checkpoint`].
    pub fn checkpoint_with(
        &self,
        spec: &ProtocolSpec,
        dir: &Path,
        app_state: Option<&str>,
        storage: &Storage,
    ) -> Result<CheckpointManifest, MdrrError> {
        let schema = self.protocol().schema().clone();
        // The spec is about to be persisted as the authoritative
        // description of these counts: verify it actually rebuilds this
        // protocol before writing anything.
        let rebuilt = spec.build(&schema)?;
        if rebuilt.name() != self.protocol().name()
            || rebuilt.channel_sizes() != self.protocol().channel_sizes()
        {
            return Err(MdrrError::config(format!(
                "checkpoint spec describes {} with channels {:?}, but the collector runs {} \
                 with channels {:?}",
                rebuilt.name(),
                rebuilt.channel_sizes(),
                self.protocol().name(),
                self.protocol().channel_sizes()
            )));
        }
        let obs = self.instrumentation();
        // The collector records its shard writes through its own copy of
        // the handle.
        let storage = &storage.clone().with_obs(obs.store().clone());
        let start = obs.start();
        obs.record_event(EventKind::CheckpointBegin {
            shards: self.n_shards() as u64,
        });
        storage.create_dir_all(dir)?;
        storage.sweep_tmp(dir);
        // The files before this checkpoint: their highest generation
        // decides ours.
        let existing = storage.list_dir(dir)?;
        let generation = next_generation(existing.iter().cloned());
        // The committed manifest names the files a crash must leave
        // intact; every other shard file is a spare.  Spares are chosen
        // by name, never by generation number: a salvaged manifest mixes
        // generations.  Without a readable manifest nothing is provably
        // superseded, and salvage may need every file, so nothing is
        // recycled.
        let committed: Option<Vec<String>> =
            read_manifest(dir, storage).ok().map(|m| m.shard_files);
        let mut spares: Vec<(usize, &String)> = match &committed {
            Some(listed) => existing
                .iter()
                .filter(|name| !listed.contains(name))
                .filter_map(|name| parse_shard_file_name(name).map(|(k, _)| (k, name)))
                .collect(),
            None => Vec::new(),
        };
        let mut recycled = Vec::new();
        let mut shard_files = Vec::with_capacity(self.n_shards());
        let mut bytes_written = 0u64;
        for (k, shard) in self.shards().iter().enumerate() {
            let name = shard_file_name(k, generation);
            let path = dir.join(&name);
            // A spare is only reused for its own shard, so a disk that
            // drops the overwrite leaves that shard's older counts under
            // the new name, never another shard's.  Best-effort: if the
            // rename fails, the write below creates a fresh file.
            if let Some(i) = spares.iter().position(|&(shard, _)| shard == k) {
                let (_, spare) = spares.swap_remove(i);
                if storage.recycle(&dir.join(spare), &path).is_ok() {
                    recycled.push(spare);
                }
            }
            let snapshot = Snapshot::new(
                schema.clone(),
                spec.clone(),
                shard.counts().to_vec(),
                shard.n_reports(),
            )?;
            bytes_written = bytes_written.saturating_add(storage.write_snapshot(&path, &snapshot)?);
            shard_files.push(name);
        }
        let manifest = CheckpointManifest {
            manifest_version: MANIFEST_VERSION,
            n_shards: self.n_shards(),
            total_reports: self.total_reports(),
            shard_files,
            app_state: app_state.map(str::to_string),
        };
        let json = manifest.to_json().map_err(MdrrError::from)?;
        storage.atomic_write(&dir.join(MANIFEST_FILE), json.as_bytes())?;
        // The manifest has committed.  The files it superseded stay as
        // the next checkpoint's spares; retire only shard files that
        // neither manifest lists (the new one lists only the new
        // generation, which `existing` predates).  Best-effort — a failed
        // delete leaves harmless extra files that restore never reads and
        // the next checkpoint retries.
        let listed = committed.unwrap_or_default();
        for name in &existing {
            if parse_shard_file_name(name).is_some()
                && !listed.contains(name)
                && !recycled.contains(&name)
            {
                let _ = storage.remove_file(&dir.join(name));
            }
        }
        bytes_written = bytes_written.saturating_add(json.len() as u64);
        let nanos = obs.elapsed(&obs.checkpoint_nanos, start);
        obs.checkpoints_total.inc();
        obs.checkpoint_bytes.add(bytes_written);
        obs.record_event(EventKind::CheckpointCommit {
            shards: manifest.n_shards as u64,
            total_reports: manifest.total_reports,
            bytes: bytes_written,
            nanos,
        });
        Ok(manifest)
    }

    /// Rebuilds a collector from a checkpoint directory written by
    /// [`ShardedCollector::checkpoint`]: reads the manifest, reads and
    /// validates every shard snapshot (checksums, spec compatibility
    /// across shards, counts-vs-spec channel topology), rebuilds the
    /// protocol from the embedded spec and schema, and restores every
    /// shard accumulator exactly.  It is
    /// [`ShardedCollector::restore_observed`] on a disabled clock: the
    /// restored collector's instruments have counted the restore and its
    /// shard reads, untimed.
    ///
    /// ```
    /// use mdrr_data::{Attribute, Schema};
    /// use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    /// use mdrr_stream::ShardedCollector;
    ///
    /// let dir = std::env::temp_dir().join(format!("mdrr-restore-doc-{}", std::process::id()));
    /// let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
    /// let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.6));
    /// let mut collector = ShardedCollector::new(spec.build_arc(&schema)?, 3)?;
    /// collector.ingest_records(&[vec![0], vec![1], vec![0], vec![1]], 9)?;
    /// collector.checkpoint(&spec, &dir, None)?;
    ///
    /// // A fresh process — no protocol object, no schema — restores it all.
    /// let restored = ShardedCollector::restore(&dir)?;
    /// assert_eq!(restored.collector.total_reports(), 4);
    /// assert_eq!(restored.collector.protocol().name(), "RR-Independent");
    /// assert_eq!(restored.spec, spec);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for a missing or
    /// malformed manifest, shard files that disagree on spec or schema, a
    /// torn checkpoint (shard totals no longer matching the manifest),
    /// and wrapped [`mdrr_store::StoreError`]s for unreadable or corrupt
    /// shard files.
    pub fn restore(dir: &Path) -> Result<RestoredCheckpoint, MdrrError> {
        Self::restore_observed(dir, Arc::new(NullClock))
    }

    /// [`ShardedCollector::restore`] on `clock`: builds a [`StreamObs`]
    /// sized for the checkpoint's shard count on `clock`, reads every
    /// shard file through a storage handle carrying its store
    /// instruments (so reads and bytes are counted and, under an enabled
    /// clock, read durations and CRC time are recorded), attaches the
    /// instrumentation to the restored collector, and journals a
    /// `Restore` event with the total restore wall time (0 under a
    /// disabled clock).
    ///
    /// ```
    /// use mdrr_data::{Attribute, Schema};
    /// use mdrr_obs::MonotonicClock;
    /// use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    /// use mdrr_stream::ShardedCollector;
    /// use std::sync::Arc;
    ///
    /// let dir = std::env::temp_dir().join(format!("mdrr-restobs-doc-{}", std::process::id()));
    /// let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
    /// let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.6));
    /// let mut collector = ShardedCollector::new(spec.build_arc(&schema)?, 2)?;
    /// collector.ingest_records(&[vec![0], vec![1]], 9)?;
    /// collector.checkpoint(&spec, &dir, None)?;
    ///
    /// let restored = ShardedCollector::restore_observed(&dir, Arc::new(MonotonicClock::new()))?;
    /// assert_eq!(restored.collector.total_reports(), 2);
    /// let snapshot = restored.collector.instrumentation().registry().snapshot();
    /// assert_eq!(snapshot.counter_value("store_restores_total", &[]), Some(1));
    /// assert_eq!(snapshot.counter_value("store_snapshot_reads_total", &[]), Some(2));
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    /// Same contract as [`ShardedCollector::restore`].
    pub fn restore_observed(
        dir: &Path,
        clock: Arc<dyn Clock>,
    ) -> Result<RestoredCheckpoint, MdrrError> {
        let start = clock.enabled().then(|| clock.now_nanos());
        // The manifest sizes the instruments, which then observe the
        // checkpoint's own read.
        let n_shards = read_manifest(dir, &Storage::os())?.n_shards;
        let obs = StreamObs::new(Arc::clone(&clock), n_shards);
        let storage = Storage::os().with_obs(obs.store().clone());
        let (manifest, snapshots) = read_checkpoint(dir, &storage)?;
        let first = snapshots.first().ok_or_else(|| {
            MdrrError::config("manifest lists no shard files; the checkpoint is empty")
        })?;
        // Builds the protocol and verifies counts-vs-spec channel
        // topology in one step.
        let protocol: Arc<dyn Protocol> = Arc::from(first.build_protocol()?);
        let spec = first.spec().clone();
        let shards = snapshots
            .into_iter()
            .map(|s| {
                let n = s.n_reports();
                Accumulator::from_counts(s.counts().to_vec(), n)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut collector = ShardedCollector::from_parts(protocol, shards);
        collector.instrument(Arc::clone(&obs))?;
        let nanos = obs.elapsed(&obs.restore_nanos, start);
        obs.restores_total.inc();
        obs.record_event(EventKind::Restore {
            shards: collector.n_shards() as u64,
            total_reports: collector.total_reports(),
            nanos,
        });
        Ok(RestoredCheckpoint {
            collector,
            spec,
            app_state: manifest.app_state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::{Attribute, Schema};
    use mdrr_protocols::RandomizationLevel;
    use mdrr_store::{OsBackend, RetryPolicy, StorageBackend, StoreError};
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::indexed("A", 3).unwrap(),
            Attribute::indexed("B", 2).unwrap(),
        ])
        .unwrap()
    }

    fn spec() -> ProtocolSpec {
        ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7))
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mdrr-ckpt-test-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn loaded_collector(n_shards: usize) -> ShardedCollector {
        let mut c = ShardedCollector::new(spec().build_arc(&schema()).unwrap(), n_shards).unwrap();
        let records: Vec<Vec<u32>> = (0..500)
            .map(|i| vec![(i % 3) as u32, (i % 2) as u32])
            .collect();
        c.ingest_records(&records, 7).unwrap();
        c
    }

    #[test]
    fn checkpoint_restore_round_trip_is_exact() {
        let dir = scratch_dir("roundtrip");
        let collector = loaded_collector(4);
        let manifest = collector
            .checkpoint(&spec(), &dir, Some("app state"))
            .unwrap();
        assert_eq!(manifest.n_shards, 4);
        assert_eq!(manifest.total_reports, 500);
        assert_eq!(manifest.shard_files.len(), 4);

        let restored = ShardedCollector::restore(&dir).unwrap();
        assert_eq!(restored.collector.shards(), collector.shards());
        assert_eq!(restored.collector.protocol().name(), "RR-Independent");
        assert_eq!(restored.spec, spec());
        assert_eq!(restored.app_state.as_deref(), Some("app state"));
        // The restored collector keeps ingesting and snapshotting.
        let mut resumed = restored.collector;
        resumed.ingest_records(&[vec![0, 0]], 8).unwrap();
        assert_eq!(resumed.total_reports(), 501);
        assert!(resumed.snapshot().is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Delegates to [`OsBackend`], counting `remove_file` calls.
    #[derive(Debug, Default)]
    struct CountingRemovals {
        removals: AtomicUsize,
    }

    impl StorageBackend for CountingRemovals {
        fn create_dir_all(&self, path: &Path) -> Result<(), StoreError> {
            OsBackend.create_dir_all(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
            OsBackend.write(path, bytes)
        }
        fn sync(&self, path: &Path) -> Result<(), StoreError> {
            OsBackend.sync(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
            OsBackend.rename(from, to)
        }
        fn sync_dir(&self, dir: &Path) -> Result<(), StoreError> {
            OsBackend.sync_dir(dir)
        }
        fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
            OsBackend.read(path)
        }
        fn list_dir(&self, dir: &Path) -> Result<Vec<String>, StoreError> {
            OsBackend.list_dir(dir)
        }
        fn remove_file(&self, path: &Path) -> Result<(), StoreError> {
            self.removals.fetch_add(1, Ordering::Relaxed);
            OsBackend.remove_file(path)
        }
        fn exists(&self, path: &Path) -> bool {
            OsBackend.exists(path)
        }
    }

    #[test]
    fn steady_state_checkpoints_recycle_two_generations_and_unlink_nothing() {
        let dir = scratch_dir("steady");
        let n_shards = 3;
        let mut collector = loaded_collector(n_shards);
        collector.checkpoint(&spec(), &dir, None).unwrap();
        collector.ingest_records(&vec![vec![1, 0]; 40], 11).unwrap();
        collector.checkpoint(&spec(), &dir, None).unwrap();

        let backend = Arc::new(CountingRemovals::default());
        let storage = Storage::new(
            Arc::clone(&backend) as Arc<dyn StorageBackend>,
            RetryPolicy::default(),
            Arc::new(mdrr_obs::NullClock),
        );
        for generation in 3..=6u64 {
            collector
                .ingest_records(&vec![vec![2, 1]; 25], 100 + generation)
                .unwrap();
            collector
                .checkpoint_with(&spec(), &dir, None, &storage)
                .unwrap();
            let mut expected: Vec<String> = (0..n_shards)
                .flat_map(|k| {
                    [
                        shard_file_name(k, generation - 1),
                        shard_file_name(k, generation),
                    ]
                })
                .collect();
            expected.push(MANIFEST_FILE.to_string());
            expected.sort();
            assert_eq!(
                storage.list_dir(&dir).unwrap(),
                expected,
                "layout after checkpoint {generation}"
            );
            let restored = ShardedCollector::restore(&dir).unwrap();
            assert_eq!(restored.collector.shards(), collector.shards());
        }
        assert_eq!(
            backend.removals.load(Ordering::Relaxed),
            0,
            "steady-state checkpoints must not unlink"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rejects_a_mismatched_spec() {
        let dir = scratch_dir("speccheck");
        let collector = loaded_collector(2);
        // A joint spec does not describe a per-attribute collector.
        let wrong = ProtocolSpec::Joint {
            level: RandomizationLevel::KeepProbability(0.7),
            max_domain: None,
            equivalent_risk: false,
        };
        assert!(collector.checkpoint(&wrong, &dir, None).is_err());
        // Nothing was committed.
        assert!(!dir.join(MANIFEST_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_detects_missing_and_torn_state() {
        let dir = scratch_dir("torn");
        // No manifest at all.
        assert!(ShardedCollector::restore(&dir).is_err());
        let collector = loaded_collector(2);
        let manifest = collector.checkpoint(&spec(), &dir, None).unwrap();
        // Simulate out-of-band damage: one committed shard file replaced
        // with a newer state the manifest never blessed.
        let mut advanced = collector.clone();
        advanced.ingest_records(&vec![vec![1, 1]; 10], 9).unwrap();
        let snapshot = Snapshot::new(
            schema(),
            spec(),
            advanced.shards()[0].counts().to_vec(),
            advanced.shards()[0].n_reports(),
        )
        .unwrap();
        Storage::os()
            .write_snapshot(&dir.join(&manifest.shard_files[0]), &snapshot)
            .unwrap();
        let err = ShardedCollector::restore(&dir).unwrap_err();
        assert!(err.to_string().contains("torn checkpoint"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_rejects_corrupt_shard_files_and_bad_manifests() {
        let dir = scratch_dir("corrupt");
        let collector = loaded_collector(2);
        let manifest = collector.checkpoint(&spec(), &dir, None).unwrap();
        // Flip one byte in the middle of a shard file.
        let path = dir.join(&manifest.shard_files[1]);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(ShardedCollector::restore(&dir).is_err());
        // A malformed manifest is a typed error too.
        fs::write(dir.join(MANIFEST_FILE), b"{not json").unwrap();
        assert!(ShardedCollector::restore(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
