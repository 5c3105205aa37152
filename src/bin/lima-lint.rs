//! `lima-lint` — static checks for LIMA scripts, lineage logs, and persist
//! directories.
//!
//! Four modes sharing one exit-code contract (DESIGN.md §14):
//!
//! * `lima-lint check <script.dml>...` — parse, compile, and lint DML
//!   scripts; renders caret diagnostics (or `--format json`).
//! * `lima-lint <log-file>...` — lint serialized lineage logs (`-` reads
//!   stdin); one typed diagnostic per problem.
//! * `lima-lint fsck <dir>...` — offline persistence verification: WAL
//!   framing, value checksums, lineage parse/DAG checks, orphan/debris
//!   detection.
//! * `lima-lint trace <trace.json> [--require-lineage]` — validate a Chrome
//!   `trace_event` export (`limac run --trace-out`, `LIMA_TRACE_OUT`):
//!   structure, per-thread span nesting, and optionally lineage-id coverage.
//!
//! Exit codes (all modes): `0` clean, `1` findings (lint errors, denied
//! warnings, log diagnostics, corruption, or an invalid or empty trace), `2`
//! usage or internal errors (unknown flags, unreadable inputs).

use lima_analysis::lint_log;
use lima_core::obs::{check_span_nesting, validate_chrome_trace};
use lima_core::{diagnostics_to_json, LimaConfig, Severity};
use lima_lang::lint_script;
use std::io::Read as _;
use std::process::ExitCode;

const EXIT_CLEAN: u8 = 0;
const EXIT_FINDINGS: u8 = 1;
const EXIT_USAGE: u8 = 2;

const HELP: &str = "usage: lima-lint check [--deny warnings] [--format text|json] <script.dml>...
       lima-lint [--verbose] <lineage-log>...
       lima-lint fsck [--verbose] <persist-dir>...
       lima-lint trace [--require-lineage] <trace.json>

check lints DML scripts: parse/compile errors (L0001-L0100) and lint
findings (L02xx) render as caret snippets; --format json prints one JSON
array of diagnostics per input file. Warnings exit 0 unless --deny
warnings promotes them; notes never affect the exit code.

The default mode lints serialized lineage logs ('-' reads stdin); fsck
verifies persist directories offline (WAL framing, checksums, lineage,
orphans). Debris findings are informational. trace validates a Chrome
trace_event export: structure and per-thread span nesting, at least one
event, and with --require-lineage at least one event carrying a lineage id.

exit codes (every mode): 0 clean, 1 findings, 2 usage/internal error";

/// Output format for `check`.
#[derive(PartialEq, Clone, Copy)]
enum Format {
    Text,
    Json,
}

/// The `check` subcommand: lint DML scripts with source-anchored output.
fn run_check(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut deny_warnings = false;
    let mut format = Format::Text;
    let mut verbose = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => match it.next().map(String::as_str) {
                Some("warnings") => deny_warnings = true,
                other => {
                    eprintln!(
                        "lima-lint: --deny takes 'warnings', got {}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!(
                        "lima-lint: --format takes 'text' or 'json', got {}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => {
                println!("{HELP}");
                return ExitCode::from(EXIT_CLEAN);
            }
            flag if flag.starts_with('-') && flag != "-" => {
                eprintln!("lima-lint: unknown flag '{flag}' (try --help)");
                return ExitCode::from(EXIT_USAGE);
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() {
        eprintln!("lima-lint: check needs at least one script (try --help)");
        return ExitCode::from(EXIT_USAGE);
    }

    let config = LimaConfig::lima();
    let mut findings = false;
    let mut internal_error = false;
    for path in &paths {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lima-lint: {path}: {e}");
                internal_error = true;
                continue;
            }
        };
        let diags = lint_script(&src, &config);
        match format {
            Format::Json => println!("{}", diagnostics_to_json(&diags)),
            Format::Text => {
                for d in &diags {
                    print!("{}", d.render(&src, path));
                    println!();
                }
                if diags.is_empty() && verbose {
                    println!("{path}: ok");
                }
            }
        }
        findings |= diags.iter().any(|d| match d.severity {
            Severity::Error => true,
            Severity::Warning => deny_warnings,
            Severity::Note => false,
        });
    }
    if internal_error {
        ExitCode::from(EXIT_USAGE)
    } else if findings {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        ExitCode::from(EXIT_CLEAN)
    }
}

/// The `fsck` subcommand: read-only verification of persist directories.
fn run_fsck(dirs: &[String], verbose: bool) -> ExitCode {
    if dirs.is_empty() {
        eprintln!("lima-lint: fsck needs at least one directory (try --help)");
        return ExitCode::from(EXIT_USAGE);
    }
    let mut corrupt = false;
    let mut internal_error = false;
    for dir in dirs {
        let path = std::path::Path::new(dir);
        if !path.is_dir() {
            eprintln!("lima-lint: {dir}: not a directory");
            internal_error = true;
            continue;
        }
        let report = lima_core::fsck(path);
        for finding in &report.findings {
            println!("{dir}: {}", finding.render());
        }
        if report.has_corruption() {
            corrupt = true;
        }
        if verbose || !report.findings.is_empty() {
            let generation = report
                .generation
                .map(|g| g.to_string())
                .unwrap_or_else(|| "none".to_string());
            println!(
                "{dir}: generation={generation} live_entries={} live_bytes={} findings={} {}",
                report.live_entries,
                report.live_bytes,
                report.findings.len(),
                if report.has_corruption() {
                    "CORRUPT"
                } else {
                    "ok"
                }
            );
        }
    }
    if internal_error {
        ExitCode::from(EXIT_USAGE)
    } else if corrupt {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        ExitCode::from(EXIT_CLEAN)
    }
}

/// The `trace` subcommand: validate one exported Chrome trace.
fn run_trace(args: &[String]) -> ExitCode {
    let mut require_lineage = false;
    let mut paths = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--require-lineage" => require_lineage = true,
            flag if flag.starts_with('-') => {
                eprintln!("lima-lint: unknown flag '{flag}' (try --help)");
                return ExitCode::from(EXIT_USAGE);
            }
            path => paths.push(path),
        }
    }
    let [path] = paths[..] else {
        eprintln!("lima-lint: trace takes exactly one file (try --help)");
        return ExitCode::from(EXIT_USAGE);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lima-lint: {path}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let finding = match validate_chrome_trace(&text) {
        Err(e) => Some(format!("invalid trace: {e}")),
        Ok(summary) => match check_span_nesting(&summary) {
            Err(e) => Some(format!("span nesting violated: {e}")),
            Ok(()) if summary.total_events == 0 => Some("trace contains no events".into()),
            Ok(()) if require_lineage && summary.with_lineage == 0 => {
                Some("no event carries a lineage id".into())
            }
            Ok(()) => {
                println!(
                    "{path}: ok — {} events ({} spans, {} instants, {} with lineage ids, {} threads)",
                    summary.total_events,
                    summary.spans.len(),
                    summary.instants,
                    summary.with_lineage,
                    summary.tids
                );
                None
            }
        },
    };
    match finding {
        Some(msg) => {
            println!("{path}: {msg}");
            ExitCode::from(EXIT_FINDINGS)
        }
        None => ExitCode::from(EXIT_CLEAN),
    }
}

/// The default mode: lint serialized lineage logs.
fn run_log_lint(paths: &[String], verbose: bool) -> ExitCode {
    if paths.is_empty() {
        eprintln!("lima-lint: no input files (try --help)");
        return ExitCode::from(EXIT_USAGE);
    }
    let mut failed = false;
    let mut internal_error = false;
    for path in paths {
        let log = if path == "-" {
            let mut buf = String::new();
            match std::io::stdin().read_to_string(&mut buf) {
                Ok(_) => buf,
                Err(e) => {
                    eprintln!("lima-lint: stdin: {e}");
                    internal_error = true;
                    continue;
                }
            }
        } else {
            match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("lima-lint: {path}: {e}");
                    internal_error = true;
                    continue;
                }
            }
        };
        let diags = lint_log(&log);
        if diags.is_empty() {
            if verbose {
                println!("{path}: ok");
            }
        } else {
            failed = true;
            for d in &diags {
                println!("{path}: {d}");
            }
        }
    }
    if internal_error {
        ExitCode::from(EXIT_USAGE)
    } else if failed {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        ExitCode::from(EXIT_CLEAN)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => return run_check(&args[1..]),
        Some("trace") => return run_trace(&args[1..]),
        Some("fsck") => {
            let rest = &args[1..];
            let verbose = rest.iter().any(|a| a == "--verbose" || a == "-v");
            let dirs: Vec<String> = rest
                .iter()
                .filter(|a| *a != "--verbose" && *a != "-v")
                .cloned()
                .collect();
            return run_fsck(&dirs, verbose);
        }
        _ => {}
    }
    let mut paths = Vec::new();
    let mut verbose = false;
    for arg in &args {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => {
                println!("{HELP}");
                return ExitCode::from(EXIT_CLEAN);
            }
            _ => paths.push(arg.clone()),
        }
    }
    run_log_lint(&paths, verbose)
}
