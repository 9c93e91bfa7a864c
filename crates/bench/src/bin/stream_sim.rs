//! `stream_sim` — drives the streaming subsystem at million-client scale,
//! with durable checkpoints, crash-resume and cross-process merging.
//!
//! Simulates `--clients` respondents of the synthetic Adult population:
//! each client locally randomizes her record into a compact report, the
//! sharded collector ingests the reports across `--shards` scoped-thread
//! workers, and after every round the collector is snapshotted mid-stream
//! to report estimation error over time.
//!
//! ```text
//! cargo run -p mdrr-bench --release --bin stream_sim
//! cargo run -p mdrr-bench --release --bin stream_sim -- --clients 2000000 --shards 16
//! cargo run -p mdrr-bench --release --bin stream_sim -- --quick --out /tmp/stream.json
//! # durability: checkpoint every round, die, resume the exact stream
//! cargo run -p mdrr-bench --release --bin stream_sim -- --quick --checkpoint-dir /tmp/ckpt
//! cargo run -p mdrr-bench --release --bin stream_sim -- --resume /tmp/ckpt
//! # pool the persisted shards of any number of runs/machines
//! cargo run -p mdrr-bench --release --bin stream_sim -- --merge /tmp/ckptA --merge /tmp/ckptB
//! # chaos soak: scripted shard panics + faulted checkpoints, zero loss
//! cargo run -p mdrr-bench --release --bin stream_sim -- --chaos --quick --out chaos_soak.json
//! ```
//!
//! Flags: `--clients N` (default 1 000 000), `--shards K` (default 8),
//! `--rounds R` (default 10), `--protocol independent|joint|clusters`
//! (default independent), `--spec PATH` (a serde `ProtocolSpec` JSON file,
//! overriding `--protocol`), `--seed N`, `--quick` (50 000 clients, 4
//! shards, 5 rounds), `--out PATH`.  Every round ingests through the
//! columnar batch path ([`ShardedCollector::ingest_view`]).
//!
//! Durability flags: `--checkpoint-dir DIR` persists every shard's count
//! vectors (plus the simulator's exact RNG position and ground-truth
//! counters) into an `mdrr-store` checkpoint directory after each round;
//! `--resume DIR` restores the collector and the generator RNG from such a
//! directory and continues the *exact* draw stream — a killed-and-resumed
//! run produces byte-identical checkpoints to an uninterrupted one;
//! `--kill-after N` exits right after the round-`N` checkpoint (a scripted
//! crash, used by the CI smoke test); `--merge PATH` (repeatable) pools
//! checkpoint directories and/or single snapshot files from any number of
//! runs or machines into one exact merged estimate, and `--merged-out
//! PATH` writes the pooled snapshot itself.
//!
//! Chaos flags: `--chaos` runs the same rounds as a fault-injection soak
//! (see `Chaos`): every third round `mdrr_stream::FaultyProtocol` kills
//! the worker of shard `round % shards`, and every checkpoint runs
//! through a seeded `FaultyBackend`.  Each failure is recovered on the
//! spot, and the run ends with a zero-report-loss verdict.  The soak
//! checkpoints into a per-process scratch directory that it deletes at
//! exit, so it rejects `--checkpoint-dir`.  `--out chaos_soak.json`
//! persists the evidence (the CI chaos job asserts `report_loss == 0`).
//!
//! Observability: the collector always runs instrumented on the run's
//! one injected monotonic clock (per-shard report/batch counters, ingest
//! latency histograms, checkpoint/restore durations and byte counts, an
//! imbalance gauge and a bounded event journal), and merge mode always
//! observes its snapshot reads and the merge.  `--metrics-out PATH`
//! decides only whether the full metrics + event JSON is written at exit
//! and whether each round also prints ingest latency percentiles, so a
//! plain run's stdout carries no timings.  Performance numbers come from
//! `collectbench`, not from this binary.
//!
//! The snapshot estimates are numerically identical to the batch-path
//! estimates on the same randomized codes; that equivalence is pinned by
//! `crates/stream/tests/proptest_stream.rs` and the `mdrr-eval`
//! streamed-vs-batch experiment.

use mdrr_bench::maybe_write_json;
use mdrr_data::{adult_schema, AdultSynthesizer, RecordsBuffer, RecordsView, Schema};
use mdrr_obs::{Clock, HistogramSnapshot, Journal, MonotonicClock, Registry};
use mdrr_protocols::{
    Clustering, FrequencyEstimator, MdrrError, Protocol, ProtocolSpec, RandomizationLevel,
};
use mdrr_store::{
    merge_snapshots_observed, read_checkpoint, salvage_checkpoint, FaultPlan, FaultyBackend,
    RetryPolicy, Snapshot, Storage, StorageBackend, StoreObs,
};
use mdrr_stream::{offset_base_seed, FaultyProtocol, ShardedCollector, StreamObs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Keep probability used for every protocol variant.
const KEEP_PROBABILITY: f64 = 0.7;

/// Attributes the RR-Joint variant is restricted to (the full Adult joint
/// domain exceeds the protocol's cap).
const JOINT_ATTRIBUTES: [usize; 3] = [0, 1, 2];

#[derive(Debug, Clone)]
struct Options {
    clients: usize,
    shards: usize,
    rounds: usize,
    protocol: String,
    spec: Option<PathBuf>,
    seed: u64,
    output: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    resume: Option<PathBuf>,
    kill_after: Option<usize>,
    merge: Vec<PathBuf>,
    merged_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    chaos: bool,
}

impl Options {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut options = Options {
            clients: 1_000_000,
            shards: 8,
            rounds: 10,
            protocol: "independent".to_string(),
            spec: None,
            seed: 42,
            output: None,
            checkpoint_dir: None,
            resume: None,
            kill_after: None,
            merge: Vec::new(),
            merged_out: None,
            metrics_out: None,
            chaos: false,
        };
        let mut quick = false;
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = |flag: &str| {
                iter.next()
                    .ok_or_else(|| format!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--clients" => options.clients = parse(&flag, value(&flag)?)?,
                "--shards" => options.shards = parse(&flag, value(&flag)?)?,
                "--rounds" => options.rounds = parse(&flag, value(&flag)?)?,
                "--seed" => options.seed = parse(&flag, value(&flag)?)?,
                "--protocol" => options.protocol = value(&flag)?,
                "--spec" => options.spec = Some(PathBuf::from(value(&flag)?)),
                "--out" => options.output = Some(PathBuf::from(value(&flag)?)),
                "--checkpoint-dir" => options.checkpoint_dir = Some(PathBuf::from(value(&flag)?)),
                "--resume" => options.resume = Some(PathBuf::from(value(&flag)?)),
                "--kill-after" => options.kill_after = Some(parse(&flag, value(&flag)?)?),
                "--merge" => options.merge.push(PathBuf::from(value(&flag)?)),
                "--merged-out" => options.merged_out = Some(PathBuf::from(value(&flag)?)),
                "--metrics-out" => options.metrics_out = Some(PathBuf::from(value(&flag)?)),
                "--chaos" => options.chaos = true,
                "--quick" => quick = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if quick {
            options.clients = options.clients.min(50_000);
            options.shards = options.shards.min(4);
            options.rounds = options.rounds.min(5);
        }
        if !options.merge.is_empty() {
            if options.resume.is_some() || options.checkpoint_dir.is_some() {
                return Err("--merge is a standalone mode; drop --resume/--checkpoint-dir".into());
            }
            if options.chaos {
                return Err("--chaos is a standalone mode; drop --merge".into());
            }
            return Ok(options);
        }
        if options.chaos
            && (options.resume.is_some()
                || options.kill_after.is_some()
                || options.spec.is_some()
                || options.checkpoint_dir.is_some())
        {
            return Err(
                "--chaos injects its own failures into a scratch directory; drop \
                 --resume/--kill-after/--spec/--checkpoint-dir"
                    .into(),
            );
        }
        if options.clients == 0 || options.shards == 0 || options.rounds == 0 {
            return Err("--clients, --shards and --rounds must be positive".to_string());
        }
        if options.kill_after.is_some()
            && options.checkpoint_dir.is_none()
            && options.resume.is_none()
        {
            // A resumed run implicitly keeps checkpointing into the
            // resume directory, so --kill-after is meaningful there too.
            return Err("--kill-after requires --checkpoint-dir (nothing would survive)".into());
        }
        if options.resume.is_some() && options.spec.is_some() {
            return Err("--resume restores the protocol from the checkpoint; drop --spec".into());
        }
        // Every round must ingest at least one client, or its snapshot
        // would have nothing to estimate from.
        options.rounds = options.rounds.min(options.clients);
        Ok(options)
    }
}

fn parse<T: std::str::FromStr>(flag: &str, raw: String) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("invalid value `{raw}` for {flag}"))
}

fn die(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// One mid-stream snapshot measurement.
#[derive(Debug, Clone, Serialize)]
struct RoundReport {
    round: usize,
    total_reports: u64,
    /// Max absolute deviation of the snapshot's attribute marginals from
    /// the true empirical marginals of the generated clients so far.
    max_marginal_abs_error: f64,
}

/// The simulation result written by `--out`.
#[derive(Debug, Clone, Serialize)]
struct SimulationResult {
    protocol: String,
    clients: usize,
    shards: usize,
    /// First round this process ran (`> 1` when resumed from a
    /// checkpoint; earlier rounds ran in the killed process).
    first_round: usize,
    rounds: Vec<RoundReport>,
    /// Reports held by each shard at the end of the run — the ground truth
    /// the `--metrics-out` per-shard counters must equal exactly (the CI
    /// smoke test asserts it).
    shard_reports: Vec<u64>,
}

/// The simulator's own resume state, persisted as the opaque `app_state`
/// string of every checkpoint: the run's targets, how far it got, the
/// generator RNG's exact position and the ground-truth counters.  With
/// this plus the per-shard count vectors, `--resume` continues the exact
/// draw stream — a killed-and-resumed run is byte-identical to an
/// uninterrupted one.  Older checkpoints also carry a `path` key naming
/// the ingestion path; deserialization ignores it, and every run resumes
/// on the batch path, whose shard counts equal encoding each record with
/// `encode_record` under the same seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ResumeState {
    seed: u64,
    clients: usize,
    shards: usize,
    rounds: usize,
    protocol: String,
    rounds_done: usize,
    clients_done: usize,
    /// Raw xoshiro256++ state of the client-record generator RNG.
    generator_rng: [u64; 4],
    /// True per-attribute counts of every client generated so far (the
    /// simulator's ground truth for the error column).
    true_counts: Vec<Vec<u64>>,
}

/// The named protocol presets, as declarative specs — exactly what a
/// `--spec` JSON file would contain.
fn preset_spec(name: &str) -> Result<ProtocolSpec, String> {
    let level = RandomizationLevel::KeepProbability(KEEP_PROBABILITY);
    match name {
        "independent" => Ok(ProtocolSpec::independent(level)),
        "joint" => Ok(ProtocolSpec::Joint {
            level,
            max_domain: None,
            equivalent_risk: false,
        }),
        "clusters" => {
            let m = adult_schema().len();
            let clustering =
                Clustering::new((0..m / 2).map(|k| vec![2 * k, 2 * k + 1]).collect(), m)
                    .map_err(|e| e.to_string())?;
            Ok(ProtocolSpec::Clusters {
                level,
                clustering,
                equivalent_risk: false,
            })
        }
        other => Err(format!(
            "unknown protocol `{other}` (expected independent, joint or clusters)"
        )),
    }
}

/// Resolves the simulated protocol's declarative spec and schema: either
/// from a `--spec` JSON file (over the full Adult schema, exactly as
/// written) or from a named preset.  Only the RR-Joint *preset* is
/// projected onto the first [`JOINT_ATTRIBUTES`] of Adult (the full joint
/// domain exceeds the cap); a user-supplied spec is never silently
/// reshaped.
fn build_spec(options: &Options) -> Result<(ProtocolSpec, Schema), String> {
    let mut schema = adult_schema();
    let spec = match &options.spec {
        Some(path) => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            serde_json::from_str(&json)
                .map_err(|e| format!("invalid ProtocolSpec in {}: {e}", path.display()))?
        }
        None => {
            let preset = preset_spec(&options.protocol)?;
            if matches!(preset, ProtocolSpec::Joint { .. }) {
                schema = schema
                    .project(&JOINT_ATTRIBUTES)
                    .map_err(|e| e.to_string())?;
            }
            preset
        }
    };
    // The simulator estimates from streamed count vectors, which
    // RR-Adjustment cannot do (Algorithm 2 needs the randomized
    // microdata) — fail before ingesting anything rather than at the
    // first snapshot.
    if matches!(spec, ProtocolSpec::Adjusted { .. }) {
        return Err(
            "RR-Adjustment cannot estimate from streamed counts; use its base protocol spec"
                .to_string(),
        );
    }
    Ok((spec, schema))
}

/// Expands a `--merge` operand into snapshots: a checkpoint directory
/// contributes the shard files its manifest committed, checked by
/// [`read_checkpoint`] exactly as `restore` checks them (so a torn
/// checkpoint, with shard files newer than the manifest, is rejected
/// here too), and a plain file contributes itself.
fn merge_operand_snapshots(path: &Path, storage: &Storage) -> Result<Vec<Snapshot>, String> {
    if path.is_dir() {
        read_checkpoint(path, storage)
            .map(|(_, snapshots)| snapshots)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))
    } else {
        storage
            .read_snapshot(path)
            .map(|snapshot| vec![snapshot])
            .map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))
    }
}

/// The merge-mode result written by `--out`.
#[derive(Debug, Clone, Serialize)]
struct MergeReport {
    inputs: Vec<String>,
    snapshots_merged: usize,
    protocol: String,
    total_reports: u64,
    merged_out: Option<String>,
    /// Estimated attribute marginals of the pooled release (`None` when
    /// the embedded protocol cannot estimate from counts).
    marginals: Option<Vec<Vec<f64>>>,
}

/// `--merge` mode: pool persisted shard snapshots from any number of
/// checkpoint directories (or loose snapshot files), verify spec
/// compatibility, sum counts exactly, and estimate from the pooled
/// sufficient statistics.
fn run_merge(options: &Options) {
    // Merge mode observes the store paths: snapshot reads (durations,
    // bytes, CRC time) and the merge itself.
    let registry = Registry::new();
    let journal = Arc::new(Journal::new(mdrr_stream::DEFAULT_JOURNAL_CAPACITY));
    let obs = StoreObs::new(
        Arc::new(MonotonicClock::new()),
        &registry,
        Arc::clone(&journal),
    );
    let storage = Storage::os().with_obs(obs.clone());
    let mut snapshots = Vec::new();
    for operand in &options.merge {
        snapshots.extend(merge_operand_snapshots(operand, &storage).unwrap_or_else(|e| die(e)));
    }
    let merged = merge_snapshots_observed(&snapshots, &obs)
        .unwrap_or_else(|e| die(format!("merging {} snapshots: {e}", snapshots.len())));
    println!("{}", "=".repeat(72));
    println!(
        "stream_sim --merge: pooled {} snapshot files from {} operands",
        snapshots.len(),
        options.merge.len()
    );
    println!("{}", "=".repeat(72));
    println!(
        "protocol {}  |  {} attributes  |  {} channels  |  {} pooled reports",
        merged.spec().label(),
        merged.schema().len(),
        merged.counts().len(),
        merged.n_reports()
    );
    if let Some(out) = &options.merged_out {
        Storage::os()
            .write_snapshot(out, &merged)
            .unwrap_or_else(|e| die(format!("writing merged snapshot: {e}")));
        println!("merged snapshot written to {}", out.display());
    }
    let marginals = match merged.release() {
        Ok(release) => {
            let m = merged.schema().len();
            let mut all = Vec::with_capacity(m);
            for j in 0..m {
                let marginal = release
                    .marginal(j)
                    .unwrap_or_else(|e| die(format!("marginal query failed: {e}")));
                let name = merged.schema().attribute(j).map(|a| a.name().to_string());
                println!(
                    "  marginal {:>12}: {}",
                    name.unwrap_or_else(|_| format!("#{j}")),
                    marginal
                        .iter()
                        .map(|p| format!("{p:.4}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                all.push(marginal);
            }
            Some(all)
        }
        Err(e) => {
            println!("pooled counts cannot be estimated by this protocol: {e}");
            None
        }
    };
    let report = MergeReport {
        inputs: options
            .merge
            .iter()
            .map(|p| p.display().to_string())
            .collect(),
        snapshots_merged: snapshots.len(),
        protocol: merged.spec().label(),
        total_reports: merged.n_reports(),
        merged_out: options.merged_out.as_ref().map(|p| p.display().to_string()),
        marginals,
    };
    if let Some(path) = &options.metrics_out {
        std::fs::write(
            path,
            mdrr_obs::to_json(&registry.snapshot(), &journal.events()),
        )
        .unwrap_or_else(|e| die(format!("cannot write {}: {e}", path.display())));
        println!("metrics written to {}", path.display());
    }
    let cli = mdrr_bench::CliOptions {
        output: options.output.clone(),
        ..Default::default()
    };
    maybe_write_json(&cli, &report);
}

/// Order statistics of the chaos run's recovery latencies (shard
/// re-collections and checkpoint salvage/re-commit cycles pooled).
#[derive(Debug, Clone, Default, Serialize)]
struct LatencySummary {
    count: usize,
    p50_secs: f64,
    p95_secs: f64,
    max_secs: f64,
}

impl LatencySummary {
    fn of(latencies: &mut [f64]) -> Self {
        latencies.sort_by(f64::total_cmp);
        let last = latencies.len().saturating_sub(1) as f64;
        let pick = |q: f64| *latencies.get((last * q).round() as usize).unwrap_or(&0.0);
        LatencySummary {
            count: latencies.len(),
            p50_secs: pick(0.5),
            p95_secs: pick(0.95),
            max_secs: pick(1.0),
        }
    }
}

/// The chaos-mode result written by `--out` (`chaos_soak.json` in CI).
#[derive(Debug, Clone, Default, Serialize)]
struct ChaosReport {
    protocol: String,
    clients: usize,
    shards: usize,
    rounds: usize,
    /// Scripted shard-worker panics that fired (each one quarantined,
    /// re-collected and rehabilitated).
    shard_panics: usize,
    /// Backend faults the per-round random plans actually injected.
    checkpoint_faults_injected: u64,
    /// Checkpoint attempts that failed and went through crash recovery.
    checkpoint_failures: usize,
    /// Recoveries that needed `salvage_checkpoint` (restore alone failed).
    salvages: usize,
    recovery_latency: LatencySummary,
    /// Clients generated — every one of them must be counted at the end.
    expected_reports: u64,
    /// Reports held by the live collector after the last round.
    final_reports: u64,
    /// Reports held by the checkpoint directory, restored from disk.
    restored_reports: u64,
    /// `expected - restored` — the headline number; the run dies unless 0.
    report_loss: u64,
    /// Max absolute deviation of the final snapshot's marginals from the
    /// generated ground truth (sanity: chaos must not distort estimates).
    final_max_marginal_abs_error: f64,
}

/// What `--chaos` adds to a run: every third round one shard worker dies
/// (the victim rotates over the shards) and every checkpoint runs through
/// a seeded `FaultyBackend` with a random fault plan.  Every failure is
/// recovered on the spot — quarantine + deterministic re-collection for
/// dead shards, salvage + re-commit for crashed checkpoints — and the run
/// ends by proving zero report loss, recording every recovery's latency.
struct Chaos {
    /// The protocol the collector runs: the simulated one behind the
    /// fault wrapper.
    protocol: Arc<FaultyProtocol>,
    /// The soak's durability target: a temporary directory of its own (see
    /// [`Chaos::soak_dir`]), so clearing it at start can never erase a
    /// real checkpoint or another soak's.
    dir: PathBuf,
    clock: Arc<dyn Clock>,
    /// One faulty backend per "disk epoch": it persists across rounds (a
    /// lying sync in round N can surface as lost data at round N+2's
    /// crash, exactly like a real fsync lie) and is replaced, under the
    /// next plan seed, after each simulated power cut — the reboot onto a
    /// new disk view.
    backend: Arc<FaultyBackend>,
    plan_seed: u64,
    recoveries: Vec<f64>,
    /// The counts so far; `checkpoint_faults_injected` holds the finished
    /// epochs' faults.
    report: ChaosReport,
}

impl Chaos {
    fn new(inner: Arc<dyn Protocol>, options: &Options, clock: Arc<dyn Clock>) -> Self {
        let dir = Self::soak_dir();
        std::fs::remove_dir_all(&dir).ok();
        Chaos {
            report: ChaosReport {
                protocol: inner.name(),
                clients: options.clients,
                shards: options.shards,
                rounds: options.rounds,
                ..ChaosReport::default()
            },
            protocol: Arc::new(FaultyProtocol::new(inner)),
            dir,
            clock,
            backend: Self::backend(options.seed),
            plan_seed: options.seed,
            recoveries: Vec::new(),
        }
    }

    /// A temporary directory no other soak uses: the process id tells
    /// processes apart, and a process-wide counter the soaks of one
    /// process.
    fn soak_dir() -> PathBuf {
        static SOAKS: AtomicU64 = AtomicU64::new(0);
        let soak = SOAKS.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("mdrr-chaos-{}-{soak}", std::process::id()))
    }

    fn backend(plan_seed: u64) -> Arc<FaultyBackend> {
        Arc::new(FaultyBackend::new(FaultPlan::random(plan_seed, 64, 3)))
    }

    /// Ingests a round.  Every third round the worker of shard
    /// `round % shards` dies, unless the round gives it no clients; its
    /// lost range is re-run under the shard's derived seed, merged into
    /// its pre-failure state, and the shard is rehabilitated.
    fn ingest(
        &mut self,
        collector: &mut ShardedCollector,
        records: &RecordsView<'_>,
        seed: u64,
        round: usize,
    ) {
        // The victim's range, taken before ingesting, is the
        // re-collection's work order.
        let victim = (round % 3 == 2).then_some(round % self.report.shards);
        let lost = (collector.shard_ranges(records.n_records()).into_iter())
            .find(|&(k, _)| Some(k) == victim)
            .map(|(_, range)| records.slice(range).unwrap_or_else(|e| die(e)));
        if let Some(lost) = &lost {
            self.protocol.arm(lost.column(0).unwrap_or_else(|e| die(e)));
        }
        let (shard, lost) = match (collector.ingest_view(records, seed), lost) {
            (Ok(_), _) => return,
            (Err(MdrrError::ShardFailed { shard, .. }), Some(lost)) => (shard, lost),
            (Err(e), _) => die(format!("chaos ingest failed unrecoverably: {e}")),
        };
        self.report.shard_panics += 1;
        let t0 = self.clock.now_nanos();
        // The wrapper disarmed itself when it fired.
        let mut rerun = ShardedCollector::new(Arc::clone(&self.protocol) as Arc<dyn Protocol>, 1)
            .unwrap_or_else(|e| die(e));
        rerun
            .ingest_view(&lost, offset_base_seed(seed, shard))
            .unwrap_or_else(|e| die(format!("re-collection failed: {e}")));
        let mut replacement = collector.shards()[shard].clone();
        replacement
            .merge(&rerun.shards()[0])
            .unwrap_or_else(|e| die(format!("re-collection merge failed: {e}")));
        collector
            .rehabilitate(shard, replacement)
            .unwrap_or_else(|e| die(format!("rehabilitation failed: {e}")));
        let secs = self.clock.now_nanos().saturating_sub(t0) as f64 / 1e9;
        self.recoveries.push(secs);
        println!(
            "round {round:>3}: shard {shard} worker died — re-collected its \
             {} lost reports and rehabilitated in {secs:.4}s",
            lost.n_records()
        );
    }

    /// Checkpoints `round` through the epoch's faulty backend.
    /// Transients are retried away; a torn write crashes the attempt and
    /// every later operation, leaving a possibly-torn directory (possibly
    /// missing files an earlier round's lying sync never made durable).
    /// A crash is recovered on the spot: power cut, salvage if restore
    /// fails, then a clean re-commit from the live collector.
    fn checkpoint(&mut self, collector: &ShardedCollector, spec: &ProtocolSpec, round: usize) {
        let app_state = format!("chaos round {round}");
        let storage = Storage::new(
            Arc::clone(&self.backend) as Arc<dyn StorageBackend>,
            RetryPolicy::default(),
            Arc::clone(&self.clock),
        );
        let Err(error) = collector.checkpoint_with(spec, &self.dir, Some(&app_state), &storage)
        else {
            return;
        };
        self.report.checkpoint_failures += 1;
        // Finish the crash: whatever the backend never durably synced is
        // gone, exactly as after a real power cut.
        self.backend.power_cut();
        self.report.checkpoint_faults_injected += self.backend.injected();
        self.plan_seed = self.plan_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.backend = Self::backend(self.plan_seed);
        let t0 = self.clock.now_nanos();
        if ShardedCollector::restore(&self.dir).is_err() {
            let storage = Storage::os().with_obs(collector.instrumentation().store().clone());
            match salvage_checkpoint(&self.dir, &storage) {
                Ok(report) => {
                    self.report.salvages += 1;
                    println!(
                        "round {round:>3}: torn checkpoint salvaged — {} shard(s) \
                         recovered, {} dropped",
                        report.recovered.len(),
                        report.dropped.len()
                    );
                }
                Err(salvage_err) => println!(
                    "round {round:>3}: nothing salvageable ({salvage_err}); rebuilding \
                     from the live collector"
                ),
            }
        }
        // The live collector is authoritative: re-commit cleanly.
        collector
            .checkpoint(spec, &self.dir, Some(&app_state))
            .unwrap_or_else(|e2| die(format!("clean re-checkpoint failed: {e2}")));
        let secs = self.clock.now_nanos().saturating_sub(t0) as f64 / 1e9;
        self.recoveries.push(secs);
        println!(
            "round {round:>3}: checkpoint crashed ({error}); durability recovered in {secs:.4}s"
        );
    }

    /// The zero-loss verdict: live, restored and expected counts agree
    /// (every generated client counted), and the on-disk shards equal the
    /// live shards bit-for-bit.  Dies otherwise; removes the scratch
    /// directory.
    fn verdict(mut self, collector: &ShardedCollector, final_error: f64) -> ChaosReport {
        let expected = self.report.clients as u64;
        let total = collector.total_reports();
        let dir = self.dir.as_path();
        let restored = ShardedCollector::restore(dir)
            .unwrap_or_else(|e| die(format!("final restore from {} failed: {e}", dir.display())));
        let restored_reports = restored.collector.total_reports();
        if restored.collector.shards() != collector.shards() {
            die("chaos run lost data: restored shards diverge from the live collector");
        }
        if total != expected || restored_reports != expected {
            die(format!(
                "chaos run lost reports: expected {expected}, live {total}, restored \
                 {restored_reports}"
            ));
        }
        std::fs::remove_dir_all(dir).ok();
        let report = ChaosReport {
            checkpoint_faults_injected: self.report.checkpoint_faults_injected
                + self.backend.injected(),
            recovery_latency: LatencySummary::of(&mut self.recoveries),
            expected_reports: expected,
            final_reports: total,
            restored_reports,
            report_loss: expected - restored_reports,
            final_max_marginal_abs_error: final_error,
            ..self.report
        };
        println!(
            "chaos soak survived: {} shard panic(s), {} checkpoint crash(es) ({} salvaged), \
             {} backend fault(s) injected — 0 of {} reports lost; recovery p50 {:.4}s / max {:.4}s",
            report.shard_panics,
            report.checkpoint_failures,
            report.salvages,
            report.checkpoint_faults_injected,
            report.expected_reports,
            report.recovery_latency.p50_secs,
            report.recovery_latency.max_secs
        );
        report
    }
}

fn main() {
    let options = Options::parse(std::env::args().skip(1)).unwrap_or_else(|message| {
        die(format!(
            "{message}\nusage: [--clients N] [--shards K] [--rounds R] \
             [--protocol independent|joint|clusters] [--spec PATH] [--seed N] [--quick] \
             [--out PATH] [--checkpoint-dir DIR] [--resume DIR] [--kill-after N] \
             [--merge PATH]... [--merged-out PATH] [--metrics-out PATH] [--chaos]"
        ))
    });
    if options.merge.is_empty() {
        simulate(options);
    } else {
        run_merge(&options);
    }
}

/// Runs a fresh, resumed or `--chaos` simulation: one set-up, then one
/// generate → ingest → estimate → checkpoint loop over the rounds.
/// Returns the final collector and, under `--chaos`, the soak's report;
/// `None` when the run ends early (`--kill-after`, or a resume with
/// nothing left to do).
fn simulate(mut options: Options) -> Option<(ShardedCollector, Option<ChaosReport>)> {
    // The one clock of the whole run: the instrumentation and the chaos
    // recovery latencies read wall-clock time through this injected
    // monotonic source.
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());

    // Assemble the run: fresh, or restored from a checkpoint directory.
    // On resume, the run's targets (clients, rounds, seed, protocol)
    // come from the persisted state — the original
    // invocation's contract — not from this invocation's flags.
    let (spec, mut collector, mut state, mut chaos) = match options.resume.clone() {
        Some(dir) => {
            let restored = ShardedCollector::restore_observed(&dir, Arc::clone(&clock))
                .unwrap_or_else(|e| die(format!("cannot resume from {}: {e}", dir.display())));
            let app = restored.app_state.unwrap_or_else(|| {
                die(format!(
                    "{} carries no stream_sim resume state (was it written by a library \
                     checkpoint?)",
                    dir.display()
                ))
            });
            let state: ResumeState = serde_json::from_str(&app)
                .unwrap_or_else(|e| die(format!("malformed resume state: {e}")));
            options.clients = state.clients;
            options.shards = state.shards;
            options.rounds = state.rounds;
            options.seed = state.seed;
            options.protocol = state.protocol.clone();
            // Resumed runs keep checkpointing into the same directory
            // unless redirected.
            if options.checkpoint_dir.is_none() {
                options.checkpoint_dir = Some(dir.clone());
            }
            println!(
                "resuming from {}: {} of {} rounds done, {} of {} clients ingested",
                dir.display(),
                state.rounds_done,
                state.rounds,
                state.clients_done,
                state.clients
            );
            (restored.spec, restored.collector, state, None)
        }
        None => {
            let (spec, schema) = build_spec(&options).unwrap_or_else(|e| die(e));
            let protocol = spec.build_arc(&schema).unwrap_or_else(|e| die(e));
            let chaos = options
                .chaos
                .then(|| Chaos::new(Arc::clone(&protocol), &options, Arc::clone(&clock)));
            let protocol = match &chaos {
                Some(chaos) => Arc::clone(&chaos.protocol) as Arc<dyn Protocol>,
                None => protocol,
            };
            let mut collector =
                ShardedCollector::new(protocol, options.shards).unwrap_or_else(|e| die(e));
            collector
                .instrument(StreamObs::new(Arc::clone(&clock), options.shards))
                .unwrap_or_else(|e| die(format!("cannot instrument collector: {e}")));
            let state = ResumeState {
                seed: options.seed,
                clients: options.clients,
                shards: options.shards,
                rounds: options.rounds,
                protocol: options.protocol.clone(),
                rounds_done: 0,
                clients_done: 0,
                generator_rng: StdRng::seed_from_u64(options.seed).state(),
                true_counts: schema
                    .cardinalities()
                    .iter()
                    .map(|&c| vec![0u64; c])
                    .collect(),
            };
            (spec, collector, state, chaos)
        }
    };
    if state.rounds_done >= options.rounds {
        println!(
            "checkpoint already covers all {} rounds ({} clients); nothing to resume",
            options.rounds, state.clients_done
        );
        return None;
    }

    let protocol = Arc::clone(collector.protocol());
    let synthesizer = AdultSynthesizer::paper_sized();
    let record_arity = protocol.schema().len();
    let first_round = state.rounds_done + 1;

    let (mode, detail) = match &chaos {
        Some(_) => (
            " --chaos",
            "scripted worker panics + faulted checkpoints".into(),
        ),
        None => ("", format!("total ε = {:.3}", protocol.total_epsilon())),
    };
    println!("{}", "=".repeat(72));
    println!(
        "stream_sim{mode} — {} clients through {} shards ({} rounds, {}, {detail})",
        options.clients,
        options.shards,
        options.rounds,
        protocol.name()
    );
    println!("{}", "=".repeat(72));

    // The generator RNG continues from the persisted position on resume —
    // the same draw stream an uninterrupted run would have consumed.
    let mut generator_rng = StdRng::from_state(state.generator_rng)
        .unwrap_or_else(|| die("resume state carries an impossible (all-zero) RNG position"));
    let mut rounds = Vec::with_capacity(options.rounds - state.rounds_done);
    let mut columnar = RecordsBuffer::new(record_arity).expect("schema is non-empty");

    for round in first_round..=options.rounds {
        // Clients of this round (the last round absorbs the remainder).
        let clients = if round == options.rounds {
            options.clients - options.clients / options.rounds * (options.rounds - 1)
        } else {
            options.clients / options.rounds
        };
        columnar.clear();
        for _ in 0..clients {
            let mut record = synthesizer.sample_record(&mut generator_rng);
            record.truncate(record_arity);
            for (j, &v) in record.iter().enumerate() {
                state.true_counts[j][v as usize] += 1;
            }
            columnar
                .push_record(&record)
                .expect("generated records fit the schema arity");
        }
        let records = columnar.view();
        let seed = options.seed.wrapping_add(round as u64);
        match &mut chaos {
            Some(chaos) => chaos.ingest(&mut collector, &records, seed, round),
            None => {
                collector
                    .ingest_view(&records, seed)
                    .expect("ingestion failed");
            }
        }

        let snapshot = collector.snapshot().expect("snapshot failed");
        let total = collector.total_reports();
        let mut max_error = 0.0f64;
        for (j, channel) in state.true_counts.iter().enumerate() {
            for (code, &count) in channel.iter().enumerate() {
                let truth = count as f64 / total as f64;
                let estimated = snapshot
                    .frequency(&[(j, code as u32)])
                    .expect("marginal query failed");
                max_error = max_error.max((estimated - truth).abs());
            }
        }
        println!("round {round:>3}: {total:>9} reports total | max marginal error {max_error:.5}");
        if options.metrics_out.is_some() {
            print_progress(collector.instrumentation());
        }
        rounds.push(RoundReport {
            round,
            total_reports: total,
            max_marginal_abs_error: max_error,
        });

        // Durability: persist shards + resume state after every round.
        state.rounds_done = round;
        state.clients_done += clients;
        state.generator_rng = generator_rng.state();
        if let Some(chaos) = &mut chaos {
            chaos.checkpoint(&collector, &spec, round);
        } else if let Some(dir) = &options.checkpoint_dir {
            let app_state = serde_json::to_string(&state)
                .unwrap_or_else(|e| die(format!("resume state does not serialize: {e}")));
            collector
                .checkpoint(&spec, dir, Some(&app_state))
                .unwrap_or_else(|e| die(format!("checkpoint failed: {e}")));
            if options.kill_after == Some(round) {
                println!(
                    "--kill-after {round}: simulated crash after checkpointing to {} \
                     (resume with --resume)",
                    dir.display()
                );
                // The simulated crash happens *after* the checkpoint
                // committed, so the metrics of the killed process are
                // still worth inspecting — flush them before dying.
                if let Some(path) = &options.metrics_out {
                    write_metrics(path, collector.instrumentation());
                }
                return None;
            }
        }
    }

    let final_error = rounds.last().map_or(f64::NAN, |r| r.max_marginal_abs_error);
    println!("{}", "-".repeat(72));
    let chaos = chaos.map(|chaos| chaos.verdict(&collector, final_error));
    println!(
        "final max marginal error: {final_error:.5} ({} snapshot vs generated ground truth)",
        if chaos.is_some() { "chaos" } else { "streamed" }
    );
    if let Some(path) = &options.metrics_out {
        write_metrics(path, collector.instrumentation());
    }
    let cli = mdrr_bench::CliOptions {
        output: options.output.clone(),
        ..Default::default()
    };
    match &chaos {
        Some(report) => maybe_write_json(&cli, report),
        None => maybe_write_json(
            &cli,
            &SimulationResult {
                protocol: protocol.name(),
                clients: options.clients,
                shards: options.shards,
                first_round,
                shard_reports: collector.shards().iter().map(|s| s.n_reports()).collect(),
                rounds,
            },
        ),
    }
    Some((collector, chaos))
}

/// Writes the full metrics + journal JSON of an instrumented run.
fn write_metrics(path: &Path, obs: &StreamObs) {
    let json = mdrr_obs::to_json(&obs.registry().snapshot(), &obs.journal().events());
    std::fs::write(path, json)
        .unwrap_or_else(|e| die(format!("cannot write {}: {e}", path.display())));
    println!(
        "metrics written to {} ({} journal events, {} dropped)",
        path.display(),
        obs.journal().len(),
        obs.journal().dropped()
    );
}

/// One per-round observability line: ingest latency percentiles pooled
/// across the shards (exact histogram merge), the shard imbalance gauge
/// and the journal depth.
fn print_progress(obs: &StreamObs) {
    let snapshot = obs.registry().snapshot();
    let mut ingest = HistogramSnapshot::default();
    for k in 0..obs.n_shards() {
        let shard = k.to_string();
        if let Some(h) =
            snapshot.histogram_snapshot("stream_shard_ingest_nanos", &[("shard", &shard)])
        {
            ingest.merge(h);
        }
    }
    let imbalance = snapshot
        .gauge_value("stream_shard_imbalance_permille", &[])
        .unwrap_or(0);
    println!(
        "       obs: ingest p50 {} | p99 {} | imbalance {imbalance}\u{2030} | {} journal events",
        fmt_nanos(ingest.p50()),
        fmt_nanos(ingest.p99()),
        obs.journal().len()
    );
}

/// Renders a nanosecond latency with a readable unit (histogram bucket
/// edges are powers of two, so sub-millisecond precision is all we have).
fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn chaos_rejects_a_checkpoint_dir() {
        // The soak clears its directory at start, so a user-supplied one
        // would have its checkpoint erased.
        let err = parse_args(&["--chaos", "--checkpoint-dir", "ckpt"]).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        assert!(parse_args(&["--chaos", "--quick"]).is_ok());
    }

    #[test]
    fn chaos_recovery_equals_the_uninterrupted_run_shard_for_shard() {
        // Four shards over five rounds: rounds 2 and 5 kill the workers of
        // shards 2 and 1, so a re-collection under the wrong seed diverges.
        let args = ["--clients", "4000", "--shards", "4", "--rounds", "5"];
        let (plain, no_report) = simulate(parse_args(&args).unwrap()).unwrap();
        assert!(no_report.is_none());
        let (chaos, report) = simulate(parse_args(&[&args[..], &["--chaos"]].concat()).unwrap())
            .expect("the soak runs every round");
        let report = report.expect("a chaos run reports");
        assert_eq!(report.shard_panics, 2);
        assert!(report.checkpoint_failures > 0, "no checkpoint crashed");
        assert_eq!(report.report_loss, 0);
        assert_eq!(chaos.shards(), plain.shards());
        // Round 1's torn checkpoint is salvaged, and the salvage reaches
        // the collector's journal.
        assert!(report.salvages > 0, "no checkpoint was salvaged");
        let events = chaos.instrumentation().journal().events();
        let salvaged = events
            .iter()
            .filter(|e| e.kind.name() == "salvage_completed");
        assert_eq!(salvaged.count(), report.salvages);
    }

    #[test]
    fn chaos_soaks_in_one_process_keep_their_own_directories() {
        let options = parse_args(&["--chaos", "--quick"]).unwrap();
        let schema = adult_schema().project(&JOINT_ATTRIBUTES).unwrap();
        let protocol = preset_spec("independent")
            .unwrap()
            .build_arc(&schema)
            .unwrap();
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let first = Chaos::new(Arc::clone(&protocol), &options, Arc::clone(&clock));
        std::fs::create_dir_all(&first.dir).unwrap();
        let marker = first.dir.join("marker");
        std::fs::write(&marker, b"first soak").unwrap();
        let second = Chaos::new(protocol, &options, clock);
        assert_ne!(first.dir, second.dir);
        assert!(
            marker.exists(),
            "the second soak cleared the first one's directory"
        );
        std::fs::remove_dir_all(&first.dir).ok();
        std::fs::remove_dir_all(&second.dir).ok();
    }

    #[test]
    fn merge_rejects_checkpoints_that_restore_rejects() {
        let dir = std::env::temp_dir().join(format!("mdrr-sim-merge-{}", std::process::id()));
        let schema = adult_schema().project(&JOINT_ATTRIBUTES).unwrap();
        let spec = preset_spec("independent").unwrap();
        let mut collector = ShardedCollector::new(spec.build_arc(&schema).unwrap(), 2).unwrap();
        collector
            .ingest_records(&[vec![0, 0, 0], vec![1, 1, 1]], 3)
            .unwrap();
        let manifest = collector.checkpoint(&spec, &dir, None).unwrap();
        let storage = Storage::os();
        assert_eq!(merge_operand_snapshots(&dir, &storage).unwrap().len(), 2);
        let mut version_2 = manifest.clone();
        version_2.manifest_version = 2;
        let mut three_shards = manifest;
        three_shards.n_shards = 3;
        for bad in [version_2, three_shards] {
            let json = bad.to_json().unwrap();
            storage
                .atomic_write(&dir.join(mdrr_store::MANIFEST_FILE), json.as_bytes())
                .unwrap();
            assert!(merge_operand_snapshots(&dir, &storage).is_err(), "{json}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_resume_state_with_a_path_key_still_parses() {
        let legacy = r#"{"seed":7,"clients":50000,"shards":4,"rounds":5,
            "protocol":"independent","path":"per-record","rounds_done":2,
            "clients_done":20000,"generator_rng":[1,2,3,4],"true_counts":[[3,4],[5,2]]}"#;
        let state: ResumeState = serde_json::from_str(legacy).expect("legacy app_state parses");
        assert_eq!(state.seed, 7);
        assert_eq!((state.rounds_done, state.clients_done), (2, 20_000));
        assert_eq!(state.generator_rng, [1, 2, 3, 4]);
        assert_eq!(state.true_counts, vec![vec![3, 4], vec![5, 2]]);
    }
}
