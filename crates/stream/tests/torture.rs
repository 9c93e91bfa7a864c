//! Crash-consistency torture and degraded-mode recovery, end to end.
//!
//! The claims under test, stream-level siblings of the `mdrr-store`
//! backend torture suite:
//!
//! 1. **Old-or-new, exhaustively.**  A checkpoint interrupted by a
//!    simulated power cut at *every single* backend operation index —
//!    not a sample — leaves a directory that restores to exactly the
//!    previous committed collector state or exactly the new one: never a
//!    torn mixture, never a wrong report count.  This holds for a
//!    checkpoint that recycles the spares of the generation before, and
//!    for one over a salvaged manifest that mixes generations.  Into a
//!    directory without a manifest, a checkpoint never overwrites a
//!    pre-existing shard file, so salvage still finds them all.
//! 2. **Transients are absorbed.**  Scripted transient faults anywhere
//!    in the checkpoint are retried away invisibly, and a faulted
//!    attempt followed by a successful one leaves no `*.tmp` debris.
//! 3. **Salvage + deterministic re-collection is exact.**  For random
//!    fault plans (torn writes, lying syncs, transients) followed by a
//!    power cut, the directory either restores cleanly or
//!    `salvage_checkpoint` recovers the CRC-valid shard set — and
//!    re-running exactly the lost shards' record ranges under their
//!    original per-shard seeds, then merging, reproduces the
//!    uninterrupted collector bit-for-bit (so estimates agree at 1e-12
//!    trivially).
//! 4. **A panicking shard worker is contained.**  The panic surfaces as
//!    a typed `MdrrError::ShardFailed`, the other shards' work survives
//!    bit-identically, ingestion continues on the healthy shards, and
//!    the quarantined shard is rehabilitated by deterministic
//!    re-collection.

use mdrr_data::{Attribute, Dataset, Schema};
use mdrr_obs::MonotonicClock;
use mdrr_protocols::{Protocol, ProtocolSpec, RandomizationLevel};
use mdrr_store::{
    salvage_checkpoint, FaultKind, FaultPlan, FaultyBackend, RetryPolicy, Storage, StorageBackend,
};
use mdrr_stream::{offset_base_seed, FaultyProtocol, MdrrError, ShardedCollector, StreamObs};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const N_SHARDS: usize = 3;
const SEED_1: u64 = 101;
const SEED_2: u64 = 202;

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

fn protocol() -> Arc<dyn Protocol> {
    spec().build_arc(&schema()).unwrap()
}

fn records(n: usize, salt: u32) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| vec![(i as u32 + salt) % 3, (i as u32) % 2])
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mdrr-stream-torture-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn faulty_storage(plan: FaultPlan, retry: RetryPolicy) -> (Storage, Arc<FaultyBackend>) {
    let backend = Arc::new(FaultyBackend::new(plan));
    let storage = Storage::new(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        retry,
        Arc::new(mdrr_obs::NullClock),
    );
    (storage, backend)
}

/// A collector holding `batch1`, checkpointed cleanly into `dir` as the
/// "old" committed state, plus its "new" sibling that also ingested
/// `batch2` but has not checkpointed yet.
fn committed_old_and_pending_new(dir: &Path) -> (ShardedCollector, ShardedCollector) {
    let mut old = ShardedCollector::new(protocol(), N_SHARDS).unwrap();
    old.ingest_records(&records(300, 0), SEED_1).unwrap();
    old.checkpoint(&spec(), dir, Some("old")).unwrap();
    let mut new = old.clone();
    new.ingest_records(&records(140, 5), SEED_2).unwrap();
    (old, new)
}

/// The exhaustive sweep: crash (or tear) at every backend operation of
/// the generation-2 checkpoint and demand old-complete or new-complete.
fn sweep_checkpoint_faults(make_fault: impl Fn(u64) -> FaultKind) {
    let template = scratch_dir("sweep-template");
    let (old, new) = committed_old_and_pending_new(&template);

    // Probe run: count the checkpoint's backend operations against a
    // fault-free plan, on a copy of the committed directory.
    let probe = scratch_dir("sweep-probe");
    copy_dir(&template, &probe);
    let (storage, backend) = faulty_storage(FaultPlan::none(), RetryPolicy::none());
    new.checkpoint_with(&spec(), &probe, Some("new"), &storage)
        .unwrap();
    let total_ops = backend.ops_executed();
    assert!(total_ops > 10, "expected a multi-operation checkpoint");
    let restored = ShardedCollector::restore(&probe).unwrap();
    assert_eq!(restored.collector.shards(), new.shards());
    std::fs::remove_dir_all(&probe).ok();

    for at_op in 0..total_ops {
        let dir = scratch_dir("sweep-case");
        copy_dir(&template, &dir);
        let (storage, _backend) = faulty_storage(
            FaultPlan::fail_at(at_op, make_fault(at_op)),
            RetryPolicy::none(),
        );
        let result = new.checkpoint_with(&spec(), &dir, Some("new"), &storage);

        let restored = ShardedCollector::restore(&dir)
            .unwrap_or_else(|e| panic!("restore after fault at op {at_op} failed: {e}"));
        let is_old = restored.collector.shards() == old.shards();
        let is_new = restored.collector.shards() == new.shards();
        assert!(
            is_old || is_new,
            "fault at op {at_op}: restored state is neither old nor new"
        );
        let expected_total = if is_new {
            new.total_reports()
        } else {
            old.total_reports()
        };
        assert_eq!(
            restored.collector.total_reports(),
            expected_total,
            "fault at op {at_op}: wrong report count"
        );
        assert_eq!(
            restored.app_state.as_deref(),
            Some(if is_new { "new" } else { "old" }),
            "fault at op {at_op}: app state does not match the restored generation"
        );
        // A checkpoint that reported success must actually be the
        // committed state.
        if result.is_ok() {
            assert!(is_new, "fault at op {at_op}: Ok(_) but old state restored");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&template).ok();
}

#[test]
fn checkpoint_crash_at_every_operation_restores_old_or_new() {
    sweep_checkpoint_faults(|_| FaultKind::Crash);
}

#[test]
fn checkpoint_torn_write_at_every_operation_restores_old_or_new() {
    // Vary the tear point with the op index so short and long prefixes
    // are both exercised across the sweep.
    sweep_checkpoint_faults(|at_op| FaultKind::TornWrite {
        keep_bytes: (at_op as usize % 3) * 7,
    });
}

/// Runs `new`'s checkpoint into a fresh copy of `template` once per
/// backend operation index, with `make_fault(at_op)` scripted at that
/// index, and hands `check` each case's op index, directory and whether
/// the checkpoint reported success.  A fault-free probe run first counts
/// the operations and checks that the checkpoint restores to `new`.
fn for_each_fault_point(
    template: &Path,
    new: &ShardedCollector,
    make_fault: fn(u64) -> FaultKind,
    mut check: impl FnMut(u64, &Path, bool),
) {
    let probe = scratch_dir("points-probe");
    copy_dir(template, &probe);
    let (storage, backend) = faulty_storage(FaultPlan::none(), RetryPolicy::none());
    new.checkpoint_with(&spec(), &probe, Some("new"), &storage)
        .unwrap();
    let total_ops = backend.ops_executed();
    assert!(total_ops > 10, "expected a multi-operation checkpoint");
    let restored = ShardedCollector::restore(&probe).unwrap();
    assert_eq!(restored.collector.shards(), new.shards());
    std::fs::remove_dir_all(&probe).ok();

    for at_op in 0..total_ops {
        let dir = scratch_dir("points-case");
        copy_dir(template, &dir);
        let (storage, _backend) = faulty_storage(
            FaultPlan::fail_at(at_op, make_fault(at_op)),
            RetryPolicy::none(),
        );
        let result = new.checkpoint_with(&spec(), &dir, Some("new"), &storage);
        check(at_op, &dir, result.is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Demands that `dir` restores to exactly `old` (with app state
/// `old_app`) or exactly `new`, and to `new` if the checkpoint said so.
fn assert_old_or_new(
    at_op: u64,
    dir: &Path,
    committed: bool,
    old: &ShardedCollector,
    old_app: Option<&str>,
    new: &ShardedCollector,
) {
    let restored = ShardedCollector::restore(dir)
        .unwrap_or_else(|e| panic!("restore after fault at op {at_op} failed: {e}"));
    let is_new = restored.collector.shards() == new.shards();
    let is_old = restored.collector.shards() == old.shards();
    assert!(
        is_old || is_new,
        "fault at op {at_op}: restored state is neither old nor new"
    );
    let (total, app) = if is_new {
        (new.total_reports(), Some("new"))
    } else {
        (old.total_reports(), old_app)
    };
    assert_eq!(restored.collector.total_reports(), total, "op {at_op}");
    assert_eq!(restored.app_state.as_deref(), app, "op {at_op}");
    if committed {
        assert!(is_new, "fault at op {at_op}: Ok(_) but old state restored");
    }
}

fn crash(_at_op: u64) -> FaultKind {
    FaultKind::Crash
}

/// A torn write whose tear point varies with the op index, so short and
/// long prefixes are both exercised across a sweep.
fn tear(at_op: u64) -> FaultKind {
    FaultKind::TornWrite {
        keep_bytes: (at_op as usize % 3) * 7,
    }
}

/// The fault kinds the recycling sweeps run at every op index.
const CRASH_AND_TEAR: [fn(u64) -> FaultKind; 2] = [crash, tear];

/// Two clean checkpoints into `dir` (generations 1 and 2), so the next
/// one has a spare per shard to recycle.  Returns the committed
/// generation-2 collector and its pending successor.
fn two_generations_and_pending_new(dir: &Path) -> (ShardedCollector, ShardedCollector) {
    let mut old = ShardedCollector::new(protocol(), N_SHARDS).unwrap();
    old.ingest_records(&records(200, 0), SEED_1).unwrap();
    old.checkpoint(&spec(), dir, Some("first")).unwrap();
    old.ingest_records(&records(100, 2), SEED_2).unwrap();
    old.checkpoint(&spec(), dir, Some("old")).unwrap();
    let mut new = old.clone();
    new.ingest_records(&records(140, 5), 303).unwrap();
    (old, new)
}

#[test]
fn recycling_checkpoint_fault_at_every_operation_restores_old_or_new() {
    let template = scratch_dir("recycle-template");
    let (old, new) = two_generations_and_pending_new(&template);
    for make_fault in CRASH_AND_TEAR {
        for_each_fault_point(&template, &new, make_fault, |at_op, dir, ok| {
            assert_old_or_new(at_op, dir, ok, &old, Some("old"), &new);
        });
    }
    std::fs::remove_dir_all(&template).ok();
}

#[test]
fn checkpoint_over_a_mixed_generation_salvaged_manifest_restores_old_or_new() {
    let template = scratch_dir("mixed-template");
    two_generations_and_pending_new(&template);
    // Damage shard 1's generation-2 file, so salvage commits a manifest
    // that takes shard 1 from generation 1 and the others from 2.
    let damaged = template.join(mdrr_store::shard_file_name(1, 2));
    let mut bytes = std::fs::read(&damaged).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&damaged, &bytes).unwrap();
    let report = salvage_checkpoint(&template, &Storage::os()).unwrap();
    assert_eq!(report.generations, vec![2, 1, 2]);
    assert!(!report.consistent_generation);

    let old = ShardedCollector::restore(&template).unwrap().collector;
    let mut new = old.clone();
    new.ingest_records(&records(90, 7), 404).unwrap();
    for make_fault in CRASH_AND_TEAR {
        for_each_fault_point(&template, &new, make_fault, |at_op, dir, ok| {
            assert_old_or_new(at_op, dir, ok, &old, None, &new);
        });
    }
    std::fs::remove_dir_all(&template).ok();
}

#[test]
fn checkpoint_without_a_manifest_leaves_the_salvageable_files_intact() {
    let template = scratch_dir("nomanifest-template");
    let (old, new) = two_generations_and_pending_new(&template);
    std::fs::remove_file(template.join(mdrr_stream::MANIFEST_FILE)).unwrap();
    let before: Vec<(String, Vec<u8>)> = Storage::os()
        .list_dir(&template)
        .unwrap()
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(template.join(&name)).unwrap();
            (name, bytes)
        })
        .collect();
    assert_eq!(before.len(), 2 * N_SHARDS);

    for make_fault in CRASH_AND_TEAR {
        for_each_fault_point(&template, &new, make_fault, |at_op, dir, ok| {
            // No pre-existing shard file is ever overwritten.
            for (name, bytes) in &before {
                if let Ok(now) = std::fs::read(dir.join(name)) {
                    assert_eq!(&now, bytes, "fault at op {at_op}: {name} was modified");
                }
            }
            if let Ok(restored) = ShardedCollector::restore(dir) {
                assert_eq!(restored.collector.shards(), new.shards(), "op {at_op}");
                return;
            }
            assert!(!ok, "fault at op {at_op}: Ok(_) but nothing restores");
            // Uncommitted: every pre-existing file is still there, and
            // salvage recovers each shard as its old or its new state.
            for (name, _) in &before {
                assert!(dir.join(name).exists(), "fault at op {at_op}: {name} lost");
            }
            let report = salvage_checkpoint(dir, &Storage::os()).unwrap();
            assert_eq!(report.recovered, (0..N_SHARDS).collect::<Vec<_>>());
            let salvaged = ShardedCollector::restore(dir).unwrap().collector;
            for (k, shard) in salvaged.shards().iter().enumerate() {
                assert!(
                    *shard == old.shards()[k] || *shard == new.shards()[k],
                    "fault at op {at_op}: salvaged shard {k} is neither old nor new"
                );
            }
        });
    }
    std::fs::remove_dir_all(&template).ok();
}

#[test]
fn transient_faults_are_retried_away_and_leave_no_tmp_debris() {
    let dir = scratch_dir("transient");
    let (_old, new) = committed_old_and_pending_new(&dir);

    // A transient fault at every 4th operation: each one fails once and
    // succeeds on retry, so the checkpoint commits as if nothing
    // happened.
    let plan = FaultPlan::new(
        (0..60)
            .step_by(4)
            .map(|at_op| mdrr_store::Fault {
                at_op,
                kind: FaultKind::Transient,
            })
            .collect(),
    );
    let (storage, backend) = faulty_storage(plan, RetryPolicy::default());
    new.checkpoint_with(&spec(), &dir, Some("new"), &storage)
        .unwrap();
    assert!(backend.injected() > 0, "plan never fired");

    let restored = ShardedCollector::restore(&dir).unwrap();
    assert_eq!(restored.collector.shards(), new.shards());
    let debris: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(debris.is_empty(), "tmp debris left behind: {debris:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_faulted_then_successful_checkpoint_sweeps_its_tmp_debris() {
    // Find a permanent-fault point that strands a `*.tmp` sibling (a
    // fault on the rename step of an atomic write), instead of
    // hardcoding the operation layout.
    let mut found_debris = false;
    for at_op in 0..40u64 {
        let dir = scratch_dir("debris");
        let (old, new) = committed_old_and_pending_new(&dir);
        let (storage, _backend) = faulty_storage(
            FaultPlan::fail_at(at_op, FaultKind::Permanent),
            RetryPolicy::none(),
        );
        let result = new.checkpoint_with(&spec(), &dir, Some("new"), &storage);
        let has_debris = std::fs::read_dir(&dir)
            .unwrap()
            .any(|e| e.unwrap().file_name().to_string_lossy().ends_with(".tmp"));
        if !(result.is_err() && has_debris) {
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        found_debris = true;
        // The committed old state is untouched by the failed attempt.
        let restored = ShardedCollector::restore(&dir).unwrap();
        assert_eq!(restored.collector.shards(), old.shards());
        // The next (successful) checkpoint sweeps the debris on entry.
        new.checkpoint(&spec(), &dir, Some("new")).unwrap();
        let debris: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(debris.is_empty(), "debris survived the sweep: {debris:?}");
        let restored = ShardedCollector::restore(&dir).unwrap();
        assert_eq!(restored.collector.shards(), new.shards());
        std::fs::remove_dir_all(&dir).ok();
        break;
    }
    assert!(
        found_debris,
        "no fault point stranded tmp debris; the sweep test is vacuous"
    );
}

#[test]
fn a_panicked_shard_is_quarantined_and_recovered_exactly() {
    let batch1 = records(240, 0);
    let batch2 = records(180, 3);
    let batch3 = records(90, 9);

    // Uninterrupted reference on the plain protocol.
    let mut reference = ShardedCollector::new(protocol(), N_SHARDS).unwrap();
    reference.ingest_records(&batch1, SEED_1).unwrap();
    reference.ingest_records(&batch2, SEED_2).unwrap();

    // Victim: same inner protocol behind the fault wrapper, armed for
    // batch2 to kill shard 1's worker — a shard other than 0, so a
    // recovery that drops the shard's seed offset cannot pass.
    let inner = protocol();
    let chaos = Arc::new(FaultyProtocol::new(Arc::clone(&inner)));
    let mut victim = ShardedCollector::new(chaos.clone(), N_SHARDS).unwrap();
    let obs = StreamObs::new(Arc::new(MonotonicClock::new()), N_SHARDS);
    victim.instrument(Arc::clone(&obs)).unwrap();
    victim.ingest_records(&batch1, SEED_1).unwrap();

    // The failure: typed, naming the dead shard; not a process abort.
    let ranges = victim.shard_ranges(batch2.len());
    let batch2_columns = Dataset::from_records(schema(), &batch2).unwrap();
    let batch2_view = batch2_columns.view();
    let (_, target_range) = ranges[1].clone();
    chaos.arm(batch2_view.slice(target_range).unwrap().column(0).unwrap());
    let err = victim.ingest_view(&batch2_view, SEED_2).unwrap_err();
    let failed = match &err {
        MdrrError::ShardFailed { shard, .. } => *shard,
        other => panic!("expected ShardFailed, got {other}"),
    };
    assert_eq!(failed, 1, "the armed shard died");
    assert!(err.to_string().contains("injected shard worker failure"));
    assert_eq!(victim.quarantined_shards(), vec![failed]);

    // Health is observable: gauge dropped, failure counted, journalled.
    let metrics = obs.registry().snapshot();
    let failed_label = failed.to_string();
    let label = [("shard", failed_label.as_str())];
    assert_eq!(metrics.gauge_value("stream_shard_healthy", &label), Some(0));
    assert_eq!(
        metrics.counter_value("stream_shard_failures_total", &[]),
        Some(1)
    );

    // Every healthy shard's batch2 work survived bit-identically, and
    // the failed shard never half-committed (it still holds exactly its
    // batch1 state).
    for k in (0..N_SHARDS).filter(|&k| k != failed) {
        assert_eq!(victim.shards()[k], reference.shards()[k], "shard {k}");
    }
    let mut old_only = ShardedCollector::new(protocol(), N_SHARDS).unwrap();
    old_only.ingest_records(&batch1, SEED_1).unwrap();
    assert_eq!(victim.shards()[failed], old_only.shards()[failed]);

    // Degraded collection continues on the healthy shards…
    let before = victim.total_reports();
    victim.ingest_records(&batch3, 777).unwrap();
    assert_eq!(victim.total_reports(), before + batch3.len() as u64);
    // …while the quarantined shard rejects routed traffic.
    assert!(victim
        .ingest_batch(failed, &mdrr_stream::ReportBatch::for_protocol(&*inner))
        .is_err());

    // Recovery: re-run exactly the lost range under the shard's original
    // seed in a one-shard collector, merge into the pre-failure state,
    // rehabilitate.  The rebuilt shard equals the uninterrupted one
    // bit-for-bit.
    let (_, lost) = ranges
        .iter()
        .find(|(k, _)| *k == failed)
        .cloned()
        .expect("the failed shard had a range");
    let mut rerun = ShardedCollector::new(Arc::clone(&inner), 1).unwrap();
    rerun
        .ingest_records(&batch2[lost], offset_base_seed(SEED_2, failed))
        .unwrap();
    let mut replacement = victim.shards()[failed].clone();
    replacement.merge(&rerun.shards()[0]).unwrap();
    victim.rehabilitate(failed, replacement).unwrap();
    assert!(victim.quarantined_shards().is_empty());
    assert_eq!(victim.shards()[failed], reference.shards()[failed]);

    // With every shard whole again, nothing collected along the way was
    // lost: batch1, batch2 (recovered) and the degraded batch3 all count.
    assert_eq!(
        victim.total_reports(),
        (batch1.len() + batch2.len() + batch3.len()) as u64
    );
}

#[test]
fn a_fully_quarantined_collector_refuses_ingestion_with_a_typed_error() {
    // One shard, and its worker dies: the collector is fully degraded.
    let inner = protocol();
    let chaos = Arc::new(FaultyProtocol::new(Arc::clone(&inner)));
    let mut victim = ShardedCollector::new(chaos.clone(), 1).unwrap();
    let batch = Dataset::from_records(schema(), &records(50, 0)).unwrap();
    chaos.arm(batch.view().column(0).unwrap());
    let err = victim.ingest_view(&batch.view(), SEED_1).unwrap_err();
    assert!(matches!(err, MdrrError::ShardFailed { shard: 0, .. }));
    let err = victim.ingest_records(&records(50, 0), SEED_1).unwrap_err();
    assert!(
        err.to_string().contains("every shard is quarantined"),
        "{err}"
    );
    // Rehabilitation restores service.
    let mut rerun = ShardedCollector::new(inner, 1).unwrap();
    rerun.ingest_records(&records(50, 0), SEED_1).unwrap();
    victim.rehabilitate(0, rerun.shards()[0].clone()).unwrap();
    assert_eq!(victim.ingest_records(&records(10, 0), 5).unwrap(), 10);
}

/// Rebuilds the full per-shard state after a crash: whatever the
/// directory restored or salvaged, topped up by deterministic re-runs of
/// the lost ranges, must equal `new`'s shards exactly.
fn recover_to_new(
    dir: &Path,
    old: &ShardedCollector,
    new: &ShardedCollector,
    batch1: &[Vec<u32>],
    batch2: &[Vec<u32>],
) -> Vec<mdrr_stream::Accumulator> {
    // What survived on disk, tagged with original shard indices.
    let disk: Vec<(usize, mdrr_stream::Accumulator)> = match ShardedCollector::restore(dir) {
        Ok(restored) => restored
            .collector
            .shards()
            .iter()
            .cloned()
            .enumerate()
            .collect(),
        Err(_) => match salvage_checkpoint(dir, &Storage::os()) {
            Ok(report) => {
                let restored =
                    ShardedCollector::restore(dir).expect("a salvaged directory must restore");
                report
                    .recovered
                    .iter()
                    .copied()
                    .zip(restored.collector.shards().iter().cloned())
                    .collect()
            }
            // Nothing salvageable at all: rebuild every shard from
            // scratch below.
            Err(_) => Vec::new(),
        },
    };
    let ranges1 = old.shard_ranges(batch1.len());
    let ranges2 = old.shard_ranges(batch2.len());
    let range_of = |ranges: &[(usize, std::ops::Range<usize>)], k: usize| {
        ranges
            .iter()
            .find(|(shard, _)| *shard == k)
            .map(|(_, r)| r.clone())
            .unwrap_or(0..0)
    };
    let mut rebuilt = Vec::with_capacity(N_SHARDS);
    for k in 0..N_SHARDS {
        let on_disk = disk
            .iter()
            .find(|(shard, _)| *shard == k)
            .map(|(_, acc)| acc.clone());
        let shard_state = match on_disk {
            // New-complete: nothing to do.
            Some(acc) if acc == new.shards()[k] => acc,
            // Old-complete: re-run this shard's batch2 range under its
            // original seed and merge.
            Some(acc) => {
                assert_eq!(acc, old.shards()[k], "shard {k} is neither old nor new");
                let mut rerun = ShardedCollector::new(protocol(), 1).unwrap();
                rerun
                    .ingest_records(&batch2[range_of(&ranges2, k)], offset_base_seed(SEED_2, k))
                    .unwrap();
                let mut merged = acc;
                merged.merge(&rerun.shards()[0]).unwrap();
                merged
            }
            // Dropped entirely: re-run both ranges from scratch.
            None => {
                let mut rerun = ShardedCollector::new(protocol(), 1).unwrap();
                rerun
                    .ingest_records(&batch1[range_of(&ranges1, k)], offset_base_seed(SEED_1, k))
                    .unwrap();
                rerun
                    .ingest_records(&batch2[range_of(&ranges2, k)], offset_base_seed(SEED_2, k))
                    .unwrap();
                rerun.shards()[0].clone()
            }
        };
        rebuilt.push(shard_state);
    }
    rebuilt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every random fault plan (and, via prefixes of the op range,
    /// every partial execution of it): the crashed directory either
    /// restores cleanly or salvages, and salvage + deterministic re-run
    /// of the lost shards reproduces the uninterrupted collector exactly
    /// — counts bit-identical, hence estimates equal at 1e-12.
    #[test]
    fn salvage_plus_rerun_reproduces_the_uninterrupted_run(
        seed in any::<u64>(),
        n_faults in 1usize..5,
    ) {
        let batch1 = records(210, 0);
        let batch2 = records(150, 4);
        let dir = scratch_dir("salvage");

        let mut old = ShardedCollector::new(protocol(), N_SHARDS).unwrap();
        old.ingest_records(&batch1, SEED_1).unwrap();
        old.checkpoint(&spec(), &dir, Some("old")).unwrap();
        let mut new = old.clone();
        new.ingest_records(&batch2, SEED_2).unwrap();

        // Attempt the generation-2 checkpoint under a random fault plan
        // (transients, torn writes, lying syncs), then cut the power so
        // even lied-about syncs lose their data.
        let (storage, backend) =
            faulty_storage(FaultPlan::random(seed, 40, n_faults), RetryPolicy::default());
        let _ = new.checkpoint_with(&spec(), &dir, Some("new"), &storage);
        backend.power_cut();

        let rebuilt = recover_to_new(&dir, &old, &new, &batch1, &batch2);
        for (k, acc) in rebuilt.iter().enumerate() {
            prop_assert_eq!(acc, &new.shards()[k], "shard {} not recovered exactly", k);
        }

        // The pooled release over the recovered shards equals the
        // uninterrupted snapshot at 1e-12 (exactly, in fact).
        let mut pooled = rebuilt[0].clone();
        for acc in &rebuilt[1..] {
            pooled.merge(acc).unwrap();
        }
        let from_recovery = new
            .protocol()
            .release_from_counts(pooled.counts(), pooled.n_reports() as usize)
            .unwrap();
        let uninterrupted = new.snapshot().unwrap();
        for j in 0..schema().len() {
            let a = from_recovery.marginal(j).unwrap();
            let b = uninterrupted.marginal(j).unwrap();
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert!((x - y).abs() <= 1e-12);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
