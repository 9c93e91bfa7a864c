//! Exact cross-process snapshot merging.
//!
//! Counts are sufficient statistics and sums, so pooling the shards of any
//! number of collector processes is exact: merging snapshots adds their
//! per-channel count vectors cell by cell (checked, never wrapping) and
//! their record counts.  The only requirement is *spec compatibility* —
//! every snapshot must have been collected under the same schema and the
//! same protocol spec, with identical channel layouts — which
//! [`merge_snapshots`] verifies before touching any number.  The merged
//! release is numerically identical to a single process having ingested
//! every report itself.

use crate::error::StoreError;
use crate::io::Storage;
use crate::snapshot::Snapshot;
use std::path::Path;

/// Merges any number of in-memory snapshots into one, verifying spec
/// compatibility and summing counts exactly.
///
/// The merged snapshot keeps the shared schema and spec and carries no
/// application state (per-process state does not pool).
///
/// ```
/// use mdrr_data::{Attribute, Schema};
/// use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
/// use mdrr_store::{merge_snapshots, Snapshot};
///
/// let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
/// let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
/// let machine_a = Snapshot::new(schema.clone(), spec.clone(), vec![vec![3, 1]], 4)?;
/// let machine_b = Snapshot::new(schema, spec, vec![vec![2, 4]], 6)?;
///
/// let pooled = merge_snapshots([&machine_a, &machine_b])?;
/// assert_eq!(pooled.counts(), &[vec![5, 5]]);
/// assert_eq!(pooled.n_reports(), 10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
/// Returns [`StoreError::SpecMismatch`] when schemas, specs or channel
/// layouts differ, [`StoreError::CountOverflow`] when a summed count or
/// the record total would overflow `u64`, and
/// [`StoreError::InvalidLayout`] for an empty input.
pub fn merge_snapshots<'a, I>(snapshots: I) -> Result<Snapshot, StoreError>
where
    I: IntoIterator<Item = &'a Snapshot>,
{
    let mut iter = snapshots.into_iter();
    let first = iter
        .next()
        .ok_or_else(|| StoreError::layout("cannot merge zero snapshots"))?;
    let mut counts = first.counts().to_vec();
    let mut n_reports = first.n_reports();
    for (i, snapshot) in iter.enumerate() {
        if snapshot.schema() != first.schema() {
            return Err(StoreError::spec_mismatch(format!(
                "snapshot {} was collected under a different schema",
                i + 1
            )));
        }
        if snapshot.spec() != first.spec() {
            return Err(StoreError::spec_mismatch(format!(
                "snapshot {} was collected under spec {} but the first under {}",
                i + 1,
                snapshot.spec().label(),
                first.spec().label()
            )));
        }
        if snapshot.channel_sizes() != first.channel_sizes() {
            return Err(StoreError::spec_mismatch(format!(
                "snapshot {} has channel sizes {:?} but the first has {:?}",
                i + 1,
                snapshot.channel_sizes(),
                first.channel_sizes()
            )));
        }
        for (k, (mine, theirs)) in counts.iter_mut().zip(snapshot.counts()).enumerate() {
            for (a, &b) in mine.iter_mut().zip(theirs.iter()) {
                *a = a
                    .checked_add(b)
                    .ok_or(StoreError::CountOverflow { channel: Some(k) })?;
            }
        }
        n_reports = n_reports
            .checked_add(snapshot.n_reports())
            .ok_or(StoreError::CountOverflow { channel: None })?;
    }
    Snapshot::new(
        first.schema().clone(),
        first.spec().clone(),
        counts,
        n_reports,
    )
}

/// Reads every path as a snapshot file and merges them with
/// [`merge_snapshots`] — the one-call pooling of shards checkpointed by
/// any number of machines.
///
/// ```
/// use mdrr_data::{Attribute, Schema};
/// use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
/// use mdrr_store::{merge_snapshot_files, Snapshot, Storage};
///
/// let dir = std::env::temp_dir().join(format!("mdrr-doc-m-{}", std::process::id()));
/// let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
/// let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
/// let paths = [dir.join("a.mdrrsnap"), dir.join("b.mdrrsnap")];
/// let storage = Storage::os();
/// storage.write_snapshot(&paths[0], &Snapshot::new(schema.clone(), spec.clone(), vec![vec![3, 1]], 4)?)?;
/// storage.write_snapshot(&paths[1], &Snapshot::new(schema, spec, vec![vec![0, 6]], 6)?)?;
///
/// let pooled = merge_snapshot_files(&paths)?;
/// assert_eq!(pooled.counts(), &[vec![3, 7]]);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
/// Propagates [`Storage::read_snapshot`] errors for each file (read
/// through [`Storage::os`]) plus the compatibility errors of
/// [`merge_snapshots`].
pub fn merge_snapshot_files<P: AsRef<Path>>(paths: &[P]) -> Result<Snapshot, StoreError> {
    let storage = Storage::os();
    let snapshots = paths
        .iter()
        .map(|path| storage.read_snapshot(path.as_ref()))
        .collect::<Result<Vec<_>, _>>()?;
    merge_snapshots(&snapshots)
}

/// [`merge_snapshots`], instrumented: records the merge count and wall
/// time in `obs`.  The merge itself is byte-identical to the unobserved
/// path.
///
/// ```
/// use mdrr_data::{Attribute, Schema};
/// use mdrr_obs::{Journal, MonotonicClock, Registry};
/// use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
/// use mdrr_store::{merge_snapshots, merge_snapshots_observed, Snapshot, StoreObs};
/// use std::sync::Arc;
///
/// let schema = Schema::new(vec![Attribute::indexed("A", 2)?])?;
/// let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
/// let a = Snapshot::new(schema.clone(), spec.clone(), vec![vec![3, 1]], 4)?;
/// let b = Snapshot::new(schema, spec, vec![vec![2, 4]], 6)?;
///
/// let registry = Registry::new();
/// let obs = StoreObs::new(Arc::new(MonotonicClock::new()), &registry, Arc::new(Journal::new(16)));
/// let pooled = merge_snapshots_observed([&a, &b], &obs)?;
/// assert_eq!(pooled, merge_snapshots([&a, &b])?);
/// assert_eq!(registry.snapshot().counter_value("store_merges_total", &[]), Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
/// Same as [`merge_snapshots`].
pub fn merge_snapshots_observed<'a, I>(
    snapshots: I,
    obs: &crate::StoreObs,
) -> Result<Snapshot, StoreError>
where
    I: IntoIterator<Item = &'a Snapshot>,
{
    let clock = obs.clock();
    let start = clock.enabled().then(|| clock.now_nanos());
    let merged = merge_snapshots(snapshots)?;
    if let Some(start) = start {
        obs.merge_nanos
            .record(clock.now_nanos().saturating_sub(start));
    }
    obs.merges.inc();
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::{Attribute, Schema};
    use mdrr_protocols::{ProtocolSpec, RandomizationLevel};

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

    fn snapshot(counts: Vec<Vec<u64>>, n: u64) -> Snapshot {
        Snapshot::new(schema(), spec(), counts, n).unwrap()
    }

    #[test]
    fn merge_sums_counts_exactly_in_any_order() {
        let a = snapshot(vec![vec![1, 2, 0], vec![2, 1]], 3);
        let b = snapshot(vec![vec![0, 0, 4], vec![1, 3]], 4);
        let c = snapshot(vec![vec![1, 0, 0], vec![0, 1]], 1);
        let abc = merge_snapshots([&a, &b, &c]).unwrap();
        let cba = merge_snapshots([&c, &b, &a]).unwrap();
        assert_eq!(abc, cba);
        assert_eq!(abc.counts(), &[vec![2, 2, 4], vec![3, 5]]);
        assert_eq!(abc.n_reports(), 8);
        assert_eq!(abc.app_state(), None);
    }

    #[test]
    fn merge_rejects_incompatible_snapshots() {
        let a = snapshot(vec![vec![1, 2, 0], vec![2, 1]], 3);
        // Different spec (different keep probability).
        let other_spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.5));
        let b = Snapshot::new(schema(), other_spec, vec![vec![1, 0, 0], vec![1, 0]], 1).unwrap();
        assert!(matches!(
            merge_snapshots([&a, &b]),
            Err(StoreError::SpecMismatch { .. })
        ));
        // Different schema.
        let narrow = Schema::new(vec![Attribute::indexed("A", 3).unwrap()]).unwrap();
        let c = Snapshot::new(narrow, spec(), vec![vec![1, 0, 0]], 1).unwrap();
        assert!(matches!(
            merge_snapshots([&a, &c]),
            Err(StoreError::SpecMismatch { .. })
        ));
        // Empty input.
        let none: [&Snapshot; 0] = [];
        assert!(matches!(
            merge_snapshots(none),
            Err(StoreError::InvalidLayout { .. })
        ));
    }

    #[test]
    fn merge_overflow_is_typed() {
        let a = snapshot(
            vec![vec![u64::MAX - 1, 0, 0], vec![u64::MAX - 1, 0]],
            u64::MAX - 1,
        );
        let b = snapshot(vec![vec![2, 0, 0], vec![2, 0]], 2);
        assert!(matches!(
            merge_snapshots([&a, &b]),
            Err(StoreError::CountOverflow { .. })
        ));
    }
}
