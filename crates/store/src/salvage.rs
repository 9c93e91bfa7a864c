//! Salvage: rebuilding a usable checkpoint from a damaged directory.
//!
//! The checkpoint discipline (generation-named shard files, manifest
//! written last) guarantees old-complete-or-new-complete against a crash
//! at any single operation — but not against everything.  A storage
//! device that *lies about fsync* can lose an already-renamed file at the
//! next power cut, and out-of-band damage (operators, bit rot) can
//! corrupt committed snapshots.  [`salvage_checkpoint`] is the recovery
//! path for those cases: it scans a checkpoint directory, keeps every
//! shard snapshot that still passes full validation (CRC-64 and all
//! structural checks), prefers the newest generation per shard, drops
//! anything torn or inconsistent, and commits a fresh manifest over
//! exactly the surviving set.
//!
//! Salvage is deliberately lossy-but-honest: the [`SalvageReport`] names
//! every shard index that was dropped so the caller can re-collect those
//! shards (deterministically, from the shard's seed) and merge them back
//! — `mdrr-stream`'s degraded-mode tests prove the merged result matches
//! an uninterrupted run exactly.

use crate::io::Storage;
use crate::manifest::{parse_shard_file_name, CheckpointManifest, MANIFEST_FILE, MANIFEST_VERSION};
use crate::snapshot::Snapshot;
use crate::StoreError;
use mdrr_obs::EventKind;
use std::collections::BTreeMap;
use std::path::Path;

/// What [`salvage_checkpoint`] recovered and what it had to drop.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvageReport {
    /// Shard indices whose snapshots were recovered, ascending.
    pub recovered: Vec<usize>,
    /// Shard indices present in the directory but unrecoverable (every
    /// candidate file torn, corrupt or inconsistent), ascending.  These
    /// are the shards the caller must re-collect.
    pub dropped: Vec<usize>,
    /// The generation each recovered shard was salvaged from, parallel to
    /// `recovered`.
    pub generations: Vec<u64>,
    /// Whether every recovered shard came from the same generation — a
    /// single-generation salvage is a consistent point-in-time cut, a
    /// mixed one splices surviving files from different checkpoints.
    pub consistent_generation: bool,
    /// Total reports across the recovered snapshots.
    pub total_reports: u64,
    /// Orphaned `*.tmp` files removed before scanning.
    pub swept_tmp: usize,
    /// The manifest committed over the surviving set.
    pub manifest: CheckpointManifest,
}

/// Rebuilds a usable checkpoint from the damaged directory `dir`.
///
/// Sweeps `*.tmp` debris, scans every shard snapshot candidate
/// (generation-named and legacy), validates each fully (the CRC-64 check
/// and every structural invariant of the format), keeps the newest valid
/// generation per shard index, drops shards whose candidates all fail or
/// whose schema/spec/channel layout disagrees with the other survivors,
/// and atomically commits a fresh [`MANIFEST_FILE`] naming exactly the
/// surviving files.  Committed snapshot files are never modified or
/// deleted — salvage only removes `*.tmp` debris and rewrites the
/// manifest.  Records a `salvage_completed` journal event when the
/// storage handle carries [`crate::StoreObs`].
///
/// The directory restores cleanly afterwards (with `n_shards` equal to
/// the number of survivors); re-collect the `dropped` shard indices and
/// merge to recover the full estimate.
///
/// # Errors
/// Returns [`StoreError::InvalidLayout`] when no shard snapshot survives
/// validation (there is nothing to rebuild a checkpoint from), and
/// propagates [`StoreError::Io`] from listing or the manifest commit.
pub fn salvage_checkpoint(dir: &Path, storage: &Storage) -> Result<SalvageReport, StoreError> {
    let swept_tmp = storage.sweep_tmp(dir);
    let names = storage.list_dir(dir)?;

    // Every candidate file per shard index, newest generation first.
    let mut candidates: BTreeMap<usize, Vec<(u64, String)>> = BTreeMap::new();
    for name in names {
        if let Some((shard, generation)) = parse_shard_file_name(&name) {
            candidates
                .entry(shard)
                .or_default()
                .push((generation, name));
        }
    }
    for versions in candidates.values_mut() {
        versions.sort_by_key(|&(generation, _)| std::cmp::Reverse(generation));
    }

    let mut recovered: Vec<usize> = Vec::new();
    let mut generations: Vec<u64> = Vec::new();
    let mut shard_files: Vec<String> = Vec::new();
    let mut snapshots: Vec<Snapshot> = Vec::new();
    let mut dropped: Vec<usize> = Vec::new();

    for (&shard, versions) in &candidates {
        let mut found = None;
        for (generation, name) in versions {
            match storage.read_snapshot(&dir.join(name)) {
                Ok(snapshot) => {
                    found = Some((*generation, name.clone(), snapshot));
                    break;
                }
                Err(_) => continue,
            }
        }
        let Some((generation, name, snapshot)) = found else {
            dropped.push(shard);
            continue;
        };
        // A survivor must agree with the other survivors on what it is a
        // snapshot *of*; a foreign or stale-schema file is dropped rather
        // than spliced into an unmergeable set.
        if let Some(first) = snapshots.first() {
            if snapshot.schema() != first.schema()
                || snapshot.spec() != first.spec()
                || snapshot.channel_sizes() != first.channel_sizes()
            {
                dropped.push(shard);
                continue;
            }
        }
        recovered.push(shard);
        generations.push(generation);
        shard_files.push(name);
        snapshots.push(snapshot);
    }

    if recovered.is_empty() {
        return Err(StoreError::layout(format!(
            "salvage of {} found no valid shard snapshot",
            dir.display()
        )));
    }

    let mut total_reports: u64 = 0;
    for snapshot in &snapshots {
        total_reports = total_reports
            .checked_add(snapshot.n_reports())
            .ok_or(StoreError::CountOverflow { channel: None })?;
    }

    let manifest = CheckpointManifest {
        manifest_version: MANIFEST_VERSION,
        n_shards: recovered.len(),
        total_reports,
        shard_files: shard_files.clone(),
        app_state: None,
    };
    storage.atomic_write(&dir.join(MANIFEST_FILE), manifest.to_json()?.as_bytes())?;

    let consistent_generation = match generations.first() {
        Some(first) => generations.iter().all(|g| g == first),
        None => true,
    };
    storage.record_event(EventKind::SalvageCompleted {
        recovered: recovered.len() as u64,
        dropped: dropped.len() as u64,
    });

    Ok(SalvageReport {
        recovered,
        dropped,
        generations,
        consistent_generation,
        total_reports,
        swept_tmp,
        manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::shard_file_name;
    use mdrr_data::{Attribute, Schema};
    use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    use std::fs;
    use std::path::PathBuf;

    fn snapshot(counts: Vec<Vec<u64>>, n_reports: u64) -> Snapshot {
        let schema = Schema::new(vec![Attribute::indexed("A", 2).unwrap()]).unwrap();
        let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
        Snapshot::new(schema, spec, counts, n_reports).unwrap()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mdrr-salvage-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn salvage_keeps_valid_shards_and_drops_torn_ones() {
        let dir = scratch_dir("basic");
        let storage = Storage::os();
        let good = snapshot(vec![vec![3, 1]], 4);
        storage
            .write_snapshot(&dir.join(shard_file_name(0, 2)), &good)
            .unwrap();
        storage
            .write_snapshot(
                &dir.join(shard_file_name(1, 2)),
                &snapshot(vec![vec![2, 2]], 4),
            )
            .unwrap();
        // Shard 2: every candidate is torn.
        let torn = good.to_bytes().unwrap();
        fs::write(dir.join(shard_file_name(2, 2)), &torn[..torn.len() / 2]).unwrap();
        // Plus debris that a faulted checkpoint stranded.
        fs::write(dir.join("shard-00007.g00000003.mdrrsnap.tmp"), b"junk").unwrap();

        let report = salvage_checkpoint(&dir, &storage).unwrap();
        assert_eq!(report.recovered, vec![0, 1]);
        assert_eq!(report.dropped, vec![2]);
        assert_eq!(report.generations, vec![2, 2]);
        assert!(report.consistent_generation);
        assert_eq!(report.total_reports, 8);
        assert_eq!(report.swept_tmp, 1);
        // The committed manifest names exactly the survivors.
        let manifest = crate::read_manifest(&dir, &storage).unwrap();
        assert_eq!(manifest, report.manifest);
        assert_eq!(manifest.n_shards, 2);
        assert_eq!(manifest.total_reports, 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_prefers_the_newest_valid_generation() {
        let dir = scratch_dir("gens");
        let storage = Storage::os();
        let old = snapshot(vec![vec![1, 0]], 1);
        let new = snapshot(vec![vec![5, 5]], 10);
        storage
            .write_snapshot(&dir.join(shard_file_name(0, 1)), &old)
            .unwrap();
        storage
            .write_snapshot(&dir.join(shard_file_name(0, 2)), &new)
            .unwrap();
        // A torn generation 3 falls back to the valid generation 2.
        let bytes = new.to_bytes().unwrap();
        fs::write(dir.join(shard_file_name(0, 3)), &bytes[..bytes.len() / 3]).unwrap();

        let report = salvage_checkpoint(&dir, &storage).unwrap();
        assert_eq!(report.recovered, vec![0]);
        assert_eq!(report.generations, vec![2]);
        assert_eq!(report.total_reports, 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn salvage_with_nothing_valid_is_a_typed_error() {
        let dir = scratch_dir("empty");
        fs::write(dir.join(shard_file_name(0, 1)), b"not a snapshot").unwrap();
        assert!(matches!(
            salvage_checkpoint(&dir, &Storage::os()),
            Err(StoreError::InvalidLayout { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
