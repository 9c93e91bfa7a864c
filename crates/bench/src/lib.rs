//! Shared plumbing of the experiment binaries: a tiny dependency-free CLI
//! parser, JSON output helpers and console headers.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper;
//! they all accept the same flags:
//!
//! ```text
//! --runs N      runs per evaluation point          (default: 100)
//! --records N   synthetic Adult size               (default: 32561)
//! --seed N      base seed                          (default: 42)
//! --quick       reduced scale (4000 records, 8 runs) for smoke runs
//! --out PATH    also write the result as JSON to PATH
//! ```

use mdrr_eval::ExperimentConfig;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Parsed command-line options of an experiment binary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliOptions {
    /// Override for the number of runs per evaluation point.
    pub runs: Option<usize>,
    /// Override for the synthetic Adult record count.
    pub records: Option<usize>,
    /// Override for the base seed.
    pub seed: Option<u64>,
    /// Use the reduced-scale configuration.
    pub quick: bool,
    /// Optional JSON output path.
    pub output: Option<PathBuf>,
}

impl CliOptions {
    /// Parses options from the process arguments, exiting with a usage
    /// message on unknown flags.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("{message}");
            eprintln!("usage: [--runs N] [--records N] [--seed N] [--quick] [--out PATH]");
            std::process::exit(2);
        })
    }

    /// Parses options from an explicit argument iterator.
    ///
    /// # Errors
    /// Returns a human-readable message for unknown flags or malformed
    /// values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut options = CliOptions::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--runs" => options.runs = Some(parse_value(&flag, iter.next())?),
                "--records" => options.records = Some(parse_value(&flag, iter.next())?),
                "--seed" => options.seed = Some(parse_value(&flag, iter.next())?),
                "--quick" => options.quick = true,
                "--out" => {
                    options.output = Some(PathBuf::from(
                        iter.next()
                            .ok_or_else(|| format!("missing value for {flag}"))?,
                    ));
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(options)
    }

    /// Resolves the experiment configuration these options describe.
    pub fn experiment_config(&self) -> ExperimentConfig {
        let mut config = if self.quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::standard()
        };
        if let Some(runs) = self.runs {
            config.runs = runs;
        }
        if let Some(records) = self.records {
            config.records = records;
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        config
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("missing value for {flag}"))?;
    raw.parse()
        .map_err(|_| format!("invalid value `{raw}` for {flag}"))
}

/// Writes a serializable result as pretty JSON.
///
/// # Errors
/// Returns a message on I/O or serialization failure.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| e.to_string())
}

/// Writes the result to `options.output` if requested, reporting the path on
/// success and the error on failure (without aborting the run).
pub fn maybe_write_json<T: Serialize>(options: &CliOptions, value: &T) {
    if let Some(path) = &options.output {
        match write_json(path, value) {
            Ok(()) => println!("\nresult written to {}", path.display()),
            Err(message) => eprintln!("\nfailed to write {}: {message}", path.display()),
        }
    }
}

/// Prints a section header with the experiment name and configuration.
pub fn print_header(title: &str, config: &ExperimentConfig) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!(
        "records = {}, runs per point = {}, seed = {}, alpha = {}",
        config.records, config.runs, config.seed, config.alpha
    );
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_all_flags() {
        let options = CliOptions::parse(args(&[
            "--runs",
            "50",
            "--records",
            "1000",
            "--seed",
            "7",
            "--quick",
            "--out",
            "/tmp/x.json",
        ]))
        .unwrap();
        assert_eq!(options.runs, Some(50));
        assert_eq!(options.records, Some(1000));
        assert_eq!(options.seed, Some(7));
        assert!(options.quick);
        assert_eq!(options.output.as_deref(), Some(Path::new("/tmp/x.json")));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(CliOptions::parse(args(&["--runs"])).is_err());
        assert!(CliOptions::parse(args(&["--runs", "abc"])).is_err());
        assert!(CliOptions::parse(args(&["--frobnicate"])).is_err());
        assert!(CliOptions::parse(args(&["--out"])).is_err());
    }

    #[test]
    fn config_resolution_applies_overrides() {
        let options = CliOptions::parse(args(&["--quick", "--runs", "3"])).unwrap();
        let config = options.experiment_config();
        assert_eq!(config.runs, 3);
        assert_eq!(config.records, ExperimentConfig::quick().records);

        let standard = CliOptions::default().experiment_config();
        assert_eq!(standard, ExperimentConfig::standard());
    }

    #[test]
    fn json_writer_roundtrips() {
        #[derive(Serialize)]
        struct Example {
            value: u32,
        }
        let path = std::env::temp_dir().join("mdrr_bench_json_test.json");
        write_json(&path, &Example { value: 42 }).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("42"));
        let _ = std::fs::remove_file(&path);
    }
}
