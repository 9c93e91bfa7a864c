//! The `mdrr-lint` CLI.  See `--help`, or `docs/LINTS.md` for the rule
//! catalog.

#![deny(missing_docs)]

use mdrr_lint::diag::{report_json, Severity};
use mdrr_lint::rules::all_rules;
use mdrr_lint::{engine, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
mdrr-lint — static analysis for the mdrr workspace's own contracts

USAGE:
    cargo run -p mdrr-lint -- [OPTIONS]

OPTIONS:
    --root <DIR>        Workspace root (default: walk up from the cwd)
    --rule <ID>         Run only this rule (repeatable)
    --deny-warnings     Exit nonzero on warnings, not just directive errors
    --report <FILE>     Also write a JSON report (for CI artifacts)
    --list-rules        Print the rule catalog and exit
    -h, --help          Print this help

EXIT CODES:
    0  clean (or warnings without --deny-warnings)
    1  findings failed the run
    2  usage or I/O error";

struct Options {
    root: Option<PathBuf>,
    rules: Vec<String>,
    deny_warnings: bool,
    report: Option<PathBuf>,
    list_rules: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        rules: Vec::new(),
        deny_warnings: false,
        report: None,
        list_rules: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--rule" => {
                let id = it.next().ok_or("--rule needs a rule id")?;
                if !all_rules().iter().any(|r| r.id() == id) {
                    return Err(format!("unknown rule `{id}` (try --list-rules)"));
                }
                opts.rules.push(id.clone());
            }
            "--deny-warnings" => opts.deny_warnings = true,
            "--report" => {
                opts.report = Some(PathBuf::from(it.next().ok_or("--report needs a path")?));
            }
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("error: {why}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in all_rules() {
            println!("{:<22} {}", rule.id(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    let root = match opts.root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match Workspace::find_root(&cwd) {
                Some(root) => root,
                None => {
                    eprintln!("error: no workspace Cargo.toml above the current directory");
                    return ExitCode::from(2);
                }
            }
        }
    };
    let ws = match Workspace::discover(&root) {
        Ok(ws) => ws,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };

    let rules = all_rules();
    let only = if opts.rules.is_empty() {
        None
    } else {
        Some(opts.rules.as_slice())
    };
    #[expect(
        clippy::disallowed_types,
        reason = "the linter's own timer: the engine takes an injected nanos closure"
    )]
    let epoch = std::time::Instant::now();
    let now = move || epoch.elapsed().as_nanos() as u64;
    let outcome = engine::run_timed(&ws, &rules, only, &now);

    for diag in &outcome.diagnostics {
        eprintln!("{}", diag.render());
    }
    let errors = outcome.count(Severity::Error);
    let warnings = outcome.count(Severity::Warning);
    eprintln!(
        "mdrr-lint: {} files scanned, {} error{}, {} warning{}, {} suppressed",
        outcome.files_scanned,
        errors,
        if errors == 1 { "" } else { "s" },
        warnings,
        if warnings == 1 { "" } else { "s" },
        outcome.suppressed,
    );

    if let Some(path) = &opts.report {
        let json = report_json(&outcome);
        if let Err(why) = std::fs::write(path, json) {
            eprintln!("error: cannot write {}: {why}", path.display());
            return ExitCode::from(2);
        }
    }

    if outcome.fails(opts.deny_warnings) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
