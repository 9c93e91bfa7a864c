//! `collectbench` — the collection benchmark of the mdrr workspace.
//!
//! One command runs a named workload over the whole report path and
//! prints every end-to-end metric by name and unit, or — with `--trace 1`
//! — a per-layer ledger built from spans the benchmark records around its
//! calls into each layer's public API.  Every run ends with a correctness
//! gate; any mismatch makes the command exit non-zero.
//!
//! ```text
//! cargo run --release --manifest-path collectbench/Cargo.toml -- \
//!     --workload wire_bulk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `collectbench/README.md` for why each exists):
//! `wire_bulk`, `wire_paced`, `inproc_clusters`, or `all` for the three in
//! sequence.  The last line of standard output is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

mod inproc;
mod ledger;
mod openloop;
mod replay;
mod stats;
mod sys;
mod trace;
mod window;
mod wire;

use mdrr_data::{RecordsBuffer, Schema};
use mdrr_protocols::{Protocol, ProtocolSpec};
use mdrr_stream::{ReportBatch, ShardedCollector};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// How many times each workload sets up; the last set-up is kept and the
/// median set-up time is reported.
pub const SETUPS: usize = 5;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["wire_bulk", "wire_paced", "inproc_clusters"];

/// Run-wide settings and the shared monotonic origin.
#[derive(Debug)]
pub struct Ctx {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    origin: Instant,
    out_dir: PathBuf,
}

impl Ctx {
    /// Nanoseconds since the run began.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Load-generator threads, connections and shards: at most `nproc`,
    /// and two where the machine has them.
    pub fn load_threads(&self) -> usize {
        sys::nproc().clamp(1, 2)
    }

    /// A scratch directory for set-up `k` of a workload, under the
    /// benchmark's own output directory.
    pub fn scratch_dir(&self, workload: &str, k: usize) -> PathBuf {
        self.out_dir
            .join(format!("ckpt-{workload}-{}-{k}", std::process::id()))
    }
}

/// Derives an independent RNG seed for one stream of the workload.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the pair.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs and final state a traced pass hands to the replay loops.
pub struct Capture {
    /// The mechanism's declarative spec.
    pub spec: ProtocolSpec,
    /// The schema it runs over.
    pub schema: Schema,
    /// The built mechanism.
    pub protocol: Arc<dyn Protocol>,
    /// True records of the run (a writer's pool, or the last round).
    pub records: RecordsBuffer,
    /// Batches as sent: `(sequence number, shard hint, batch)`.
    pub batches: Vec<(u64, u32, ReportBatch)>,
    /// The collector's final state.
    pub collector: ShardedCollector,
}

/// What one timed pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Reports acknowledged (wire) or counted (in process).
    pub reports: u64,
    /// Wall time of the timed section.
    pub wall_ns: u64,
    /// Process CPU time over the timed section.
    pub cpu_ns: u64,
    /// Window boundaries of the timed section (see [`window`]).
    pub bounds: Vec<window::Boundary>,
    /// Per batch: `(completed_at, latency)`, latency from due to
    /// acknowledged (or counted).
    pub acks: Vec<(u64, u64)>,
    /// Per slot of an open-loop sender: how late it started.
    pub late_ns: Vec<u64>,
    /// Per release: `(completed_at, latency)` of snapshot → release →
    /// every marginal.
    pub releases: Vec<(u64, u64)>,
    /// Every set-up's duration.
    pub setup_ns: Vec<u64>,
    /// Operations attempted (batches, queries, releases, checkpoints).
    pub attempted: u64,
    /// Operations that failed or were rejected, plus failed checks.
    pub failed: u64,
    /// What failed.
    pub problems: Vec<String>,
    /// Counts and ratios measured in place, by ledger name.
    pub figures: Vec<(&'static str, f64, &'static str)>,
    /// Benchmark threads generating load in the timed section.
    pub load_threads: usize,
    /// Snapshot bytes the run produced (for the replay loops).
    pub capture_snapshot: Vec<u8>,
    /// Inputs and final state for the replay loops (traced passes).
    pub capture: Option<Capture>,
}

impl Pass {
    /// Records one failed operation or check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Reports per second: the median over the timed section's windows.
    pub fn reports_per_s(&self) -> f64 {
        stats::median_f64(&window::Windows::new(&self.bounds).rates())
            .unwrap_or(self.reports as f64 / (self.wall_ns.max(1) as f64 / 1e9))
    }
}

/// Runs one pass of the named workload.
fn run_pass(ctx: &Ctx, workload: &str, tracer: Option<&trace::Tracer>) -> Result<Pass, String> {
    match workload {
        "wire_bulk" => wire::run(ctx, wire::Mode::Bulk, tracer),
        "wire_paced" => wire::run(ctx, wire::Mode::Paced, tracer),
        "inproc_clusters" => inproc::run(ctx, tracer),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Command-line options.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The benchmark's output directory (results, spans, scratch state).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: collectbench --workload wire_bulk|wire_paced|inproc_clusters|all \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        origin: Instant::now(),
        out_dir: out_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("cannot create {}: {e}", ctx.out_dir.display());
        std::process::exit(1);
    }
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut results = Vec::new();
    for workload in &workloads {
        let result = ledger::run_workload(&ctx, workload, args.trace);
        println!("{}", result.human);
        if let Err(e) = result.write(&ctx.out_dir) {
            eprintln!("{e}");
        }
        results.push(result);
    }
    let line = ledger::final_line(&results, workloads.len() > 1);
    println!("{line}");
    let correct = results.iter().all(|r| r.correct());
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "wire_paced",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "wire_paced");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "all", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "all", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "all", "--bogus"]).is_err());
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_repeat_per_seed() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }
}
