//! Crash-consistency torture tests for the storage backend seam.
//!
//! The exhaustive sweep is the heart of it: count how many backend
//! operations a clean atomic write performs, then re-run the identical
//! workload once per operation index with a simulated power cut scripted
//! exactly there, and assert the target file is bytewise the old complete
//! contents or the new complete contents — at *every* fault point, not a
//! sampled few.  Random fault plans (transients, torn writes, lying
//! syncs) then soak the same invariants via proptest, and salvage is
//! proven to recover whatever the plan left valid.

use mdrr_obs::{Clock, EventKind, Journal, ManualClock, NullClock, Registry};
use mdrr_store::{
    salvage_checkpoint, shard_file_name, CheckpointManifest, Fault, FaultKind, FaultPlan,
    FaultyBackend, RetryPolicy, Snapshot, Storage, StoreObs, MANIFEST_FILE, MANIFEST_VERSION,
};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mdrr-torture-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn faulty_storage(plan: FaultPlan, retry: RetryPolicy) -> (Storage, Arc<FaultyBackend>) {
    let backend = Arc::new(FaultyBackend::new(plan));
    let storage = Storage::new(backend.clone(), retry, Arc::new(NullClock));
    (storage, backend)
}

const OLD: &[u8] = b"old-complete-contents-old-complete-contents";
const NEW: &[u8] = b"NEW-COMPLETE-CONTENTS-different-length-on-purpose!";

/// Exhaustive op-index sweep over `atomic_write`: a power cut at every
/// single backend operation leaves the target bytewise old or bytewise
/// new — never torn, never absent.
#[test]
fn atomic_write_is_old_or_new_at_every_crash_point() {
    // Pass 1: count the operations of a clean replacement write.
    let dir = scratch_dir("aw-count");
    let target = dir.join("state.bin");
    fs::write(&target, OLD).unwrap();
    let (storage, backend) = faulty_storage(FaultPlan::none(), RetryPolicy::none());
    storage.atomic_write(&target, NEW).unwrap();
    let total_ops = backend.ops_executed();
    assert!(
        total_ops >= 4,
        "expected a multi-op protocol, got {total_ops}"
    );
    fs::remove_dir_all(&dir).unwrap();

    // Pass 2: crash at every op index i and check the invariant.
    for i in 0..total_ops {
        let dir = scratch_dir(&format!("aw-crash-{i}"));
        let target = dir.join("state.bin");
        fs::write(&target, OLD).unwrap();
        let (storage, backend) =
            faulty_storage(FaultPlan::fail_at(i, FaultKind::Crash), RetryPolicy::none());
        let result = storage.atomic_write(&target, NEW);
        assert!(backend.crashed(), "op {i}: the scripted crash must fire");
        let found = fs::read(&target).unwrap_or_default();
        assert!(
            found == OLD || found == NEW,
            "op {i}: target is torn ({} bytes, result {result:?})",
            found.len()
        );
        // Sweeping debris never disturbs the committed target.
        Storage::os().sweep_tmp(&dir);
        let after_sweep = fs::read(&target).unwrap_or_default();
        assert_eq!(found, after_sweep, "op {i}: sweep changed the target");
        assert!(
            !dir.join("state.bin.tmp").exists(),
            "op {i}: tmp debris survived the sweep"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Torn writes (a crash mid-`write(2)`) are just as safe: the tear hits
/// the sibling temp file, never the committed target.
#[test]
fn atomic_write_survives_torn_writes_at_every_crash_point() {
    let dir = scratch_dir("tear-count");
    let target = dir.join("state.bin");
    fs::write(&target, OLD).unwrap();
    let (storage, backend) = faulty_storage(FaultPlan::none(), RetryPolicy::none());
    storage.atomic_write(&target, NEW).unwrap();
    let total_ops = backend.ops_executed();
    fs::remove_dir_all(&dir).unwrap();

    for i in 0..total_ops {
        for keep in [0usize, 1, NEW.len() / 2, NEW.len().saturating_sub(1)] {
            let dir = scratch_dir(&format!("tear-{i}-{keep}"));
            let target = dir.join("state.bin");
            fs::write(&target, OLD).unwrap();
            let (storage, _backend) = faulty_storage(
                FaultPlan::fail_at(i, FaultKind::TornWrite { keep_bytes: keep }),
                RetryPolicy::none(),
            );
            let _ = storage.atomic_write(&target, NEW);
            let found = fs::read(&target).unwrap_or_default();
            assert!(
                found == OLD || found == NEW,
                "op {i} keep {keep}: target is torn ({} bytes)",
                found.len()
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Transient faults inside the write protocol are absorbed by the retry
/// layer: the write succeeds, the backoff runs on the injected clock,
/// and nothing ambient is consulted.
#[test]
fn transient_faults_are_retried_through_the_injected_clock() {
    let dir = scratch_dir("retry");
    let target = dir.join("state.bin");
    fs::write(&target, OLD).unwrap();
    // Ops: 0 create_dir, 1 write, 2+3 its retries, 4 sync, 5 rename, …
    let plan = FaultPlan::new(vec![
        Fault {
            at_op: 1,
            kind: FaultKind::Transient,
        },
        Fault {
            at_op: 2,
            kind: FaultKind::Transient,
        },
    ]);
    let backend = Arc::new(FaultyBackend::new(plan));
    let clock = Arc::new(ManualClock::new());
    let storage = Storage::new(backend.clone(), RetryPolicy::default(), clock.clone());
    storage.atomic_write(&target, NEW).unwrap();
    assert_eq!(fs::read(&target).unwrap(), NEW);
    assert_eq!(backend.injected(), 2);
    // Two retries of the same step: 1ms + 2ms of scripted backoff.
    assert_eq!(clock.now_nanos(), 3_000_000);
    fs::remove_dir_all(&dir).unwrap();
}

/// When every attempt fails transiently, the error surfaces as transient
/// and the journal records the exhausted retry loop.
#[test]
fn exhausted_retries_surface_and_are_journalled() {
    let dir = scratch_dir("exhaust");
    let target = dir.join("state.bin");
    fs::write(&target, OLD).unwrap();
    // Fault the write op and every one of its retries.
    let faults = (1..=4)
        .map(|at_op| Fault {
            at_op,
            kind: FaultKind::Transient,
        })
        .collect();
    let journal = Arc::new(Journal::new(16));
    let (storage, backend) = faulty_storage(FaultPlan::new(faults), RetryPolicy::default());
    let obs = StoreObs::new(Arc::new(NullClock), &Registry::new(), journal.clone());
    let storage = storage.with_obs(obs);
    let err = storage.atomic_write(&target, NEW).unwrap_err();
    assert!(err.is_transient(), "{err}");
    assert_eq!(backend.injected(), 4);
    assert_eq!(fs::read(&target).unwrap(), OLD, "the target is untouched");
    let events = journal.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RetryExhausted { attempts: 4 })),
        "journal should record the exhausted loop, got {events:?}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

fn sample_snapshot(seed: u64) -> Snapshot {
    use mdrr_data::{Attribute, Schema};
    use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
    let schema = Schema::new(vec![Attribute::indexed("A", 3).unwrap()]).unwrap();
    let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    let counts = vec![vec![seed % 97, (seed / 97) % 89, 7]];
    let n: u64 = counts[0].iter().sum();
    Snapshot::new(schema, spec, counts, n).unwrap()
}

/// The checkpoint-shaped workload the random-plan soaks run: write two
/// generation-2 shard snapshots, then commit a manifest naming them.
fn write_generation_two(storage: &Storage, dir: &Path) -> Result<(), mdrr_store::StoreError> {
    let names = [shard_file_name(0, 2), shard_file_name(1, 2)];
    let snaps = [sample_snapshot(11), sample_snapshot(23)];
    let mut total = 0;
    for (name, snap) in names.iter().zip(&snaps) {
        storage.write_snapshot(&dir.join(name), snap)?;
        total += snap.n_reports();
    }
    let manifest = CheckpointManifest {
        manifest_version: MANIFEST_VERSION,
        n_shards: 2,
        total_reports: total,
        shard_files: names.to_vec(),
        app_state: None,
    };
    storage.atomic_write(&dir.join(MANIFEST_FILE), manifest.to_json()?.as_bytes())
}

/// Commits a clean generation-1 checkpoint directly on the OS.
fn commit_generation_one(dir: &Path) -> u64 {
    let storage = Storage::os();
    let names = [shard_file_name(0, 1), shard_file_name(1, 1)];
    let snaps = [sample_snapshot(5), sample_snapshot(17)];
    let mut total = 0;
    for (name, snap) in names.iter().zip(&snaps) {
        storage.write_snapshot(&dir.join(name), snap).unwrap();
        total += snap.n_reports();
    }
    let manifest = CheckpointManifest {
        manifest_version: MANIFEST_VERSION,
        n_shards: 2,
        total_reports: total,
        shard_files: names.to_vec(),
        app_state: None,
    };
    storage
        .atomic_write(
            &dir.join(MANIFEST_FILE),
            manifest.to_json().unwrap().as_bytes(),
        )
        .unwrap();
    total
}

/// Whether the directory restores cleanly: the manifest parses and every
/// shard file it names reads back as a fully valid snapshot summing to
/// its recorded total.
fn restores_cleanly(dir: &Path) -> bool {
    let storage = Storage::os();
    let Ok(bytes) = storage.read(&dir.join(MANIFEST_FILE)) else {
        return false;
    };
    let Ok(text) = String::from_utf8(bytes) else {
        return false;
    };
    let Ok(manifest) = CheckpointManifest::from_json(&text) else {
        return false;
    };
    let mut total = 0u64;
    for name in &manifest.shard_files {
        match storage.read_snapshot(&dir.join(name)) {
            Ok(snap) => total += snap.n_reports(),
            Err(_) => return false,
        }
    }
    manifest.n_shards == manifest.shard_files.len() && total == manifest.total_reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fault plans (transients, torn writes, lying syncs) against
    /// the checkpoint-shaped workload: afterwards the directory either
    /// restores cleanly or salvage rebuilds a checkpoint from exactly the
    /// still-valid shard snapshots — the durably committed generation 1
    /// guarantees there is always something to salvage.
    #[test]
    fn random_fault_plans_leave_a_restorable_or_salvageable_directory(
        seed in 0u64..1_000_000,
        n_faults in 1usize..5,
    ) {
        let dir = scratch_dir(&format!("soak-{seed}-{n_faults}"));
        commit_generation_one(&dir);
        let plan = FaultPlan::random(seed, 24, n_faults);
        let (storage, backend) = faulty_storage(plan, RetryPolicy::default());
        let _ = write_generation_two(&storage, &dir);
        // A lying sync followed by no crash loses nothing; only a power
        // cut redeems the lie, so always cut the power after the run.
        backend.power_cut();
        let clean = restores_cleanly(&dir);
        if !clean {
            let report = salvage_checkpoint(&dir, &Storage::os()).unwrap();
            prop_assert!(!report.recovered.is_empty());
            // Everything the salvage manifest names is fully valid.
            prop_assert!(restores_cleanly(&dir));
            // Generation 1 was durable before the faults: both shards
            // must come back, from generation 1 or newer.
            prop_assert_eq!(report.recovered.clone(), vec![0, 1]);
            for generation in &report.generations {
                prop_assert!(*generation >= 1);
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Transient-only plans under the default retry budget never surface
    /// an error at all: the workload completes and the directory holds
    /// complete generation-2 state.
    #[test]
    fn transient_only_plans_are_fully_absorbed(seed in 0u64..1_000_000) {
        let dir = scratch_dir(&format!("transients-{seed}"));
        commit_generation_one(&dir);
        // Scatter three single transients far enough apart that each op's
        // retry budget (4 attempts) cannot be exhausted.
        let mut state = seed;
        let mut faults = Vec::new();
        for slot in 0..3u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            faults.push(Fault { at_op: slot * 8 + state % 4, kind: FaultKind::Transient });
        }
        let (storage, _backend) = faulty_storage(FaultPlan::new(faults), RetryPolicy::default());
        write_generation_two(&storage, &dir).unwrap();
        prop_assert!(restores_cleanly(&dir));
        // No `*.tmp` debris after a successful, if bumpy, checkpoint.
        for name in Storage::os().list_dir(&dir).unwrap() {
            prop_assert!(!name.ends_with(".tmp"), "debris: {name}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
