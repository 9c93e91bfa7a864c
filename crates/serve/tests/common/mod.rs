//! Shared fixtures for the serve integration suites.
#![allow(dead_code, reason = "each suite uses its own subset of these fixtures")]

use mdrr_data::{Attribute, Schema};
use mdrr_obs::MonotonicClock;
use mdrr_protocols::{AdjustmentConfig, Clustering, ProtocolSpec, RandomizationLevel};
use mdrr_serve::{CollectorServer, ServeConfig, ServeObs};
use mdrr_stream::{Report, ReportBatch};
use std::path::PathBuf;
use std::sync::Arc;

/// The suites' 3-attribute schema (cardinalities 3 × 4 × 2).
pub fn schema() -> Schema {
    Schema::new(vec![
        Attribute::indexed("A", 3).unwrap(),
        Attribute::indexed("B", 4).unwrap(),
        Attribute::indexed("C", 2).unwrap(),
    ])
    .unwrap()
}

/// All four `ProtocolSpec` shapes over [`schema`].
pub fn all_specs() -> Vec<ProtocolSpec> {
    let level = RandomizationLevel::KeepProbability(0.7);
    vec![
        ProtocolSpec::independent(level.clone()),
        ProtocolSpec::joint(level.clone()),
        ProtocolSpec::clusters(
            level.clone(),
            Clustering::new(vec![vec![0, 1], vec![2]], 3).unwrap(),
        ),
        ProtocolSpec::independent(level).adjusted(AdjustmentConfig::default()),
    ]
}

/// A deterministic batch: codes are a fixed function of `(seed, report,
/// channel)` and always in range for `channel_sizes`, so the same seed
/// yields the same batch on every run and on both sides of a socket.
pub fn deterministic_batch(channel_sizes: &[usize], seed: u64, n_reports: usize) -> ReportBatch {
    let mut batch = ReportBatch::new(channel_sizes.len()).unwrap();
    for i in 0..n_reports {
        let codes: Vec<u32> = channel_sizes
            .iter()
            .enumerate()
            .map(|(c, &size)| {
                let mix = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64).wrapping_mul(31))
                    .wrapping_add((c as u64).wrapping_mul(17));
                (mix % size as u64) as u32
            })
            .collect();
        batch.push(&Report::new(codes)).unwrap();
    }
    batch
}

/// Binds an instrumented server on an ephemeral loopback port.
pub fn start_server(
    schema: &Schema,
    spec: &ProtocolSpec,
    config: ServeConfig,
) -> (CollectorServer, Arc<ServeObs>) {
    let clock = Arc::new(MonotonicClock::new());
    let obs = ServeObs::new(clock.clone());
    let server = CollectorServer::bind(
        "127.0.0.1:0",
        schema,
        spec,
        config,
        clock,
        Some(obs.clone()),
    )
    .unwrap();
    (server, obs)
}

/// A fresh scratch directory under the system temp root, unique per
/// process and per call.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("mdrr-serve-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Spin-waits (real time) until `predicate` holds or ~5 s elapse.
pub fn wait_until(mut predicate: impl FnMut() -> bool) -> bool {
    for _ in 0..500 {
        if predicate() {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    predicate()
}
