//! `limac` — command-line runner for LIMA scripts.
//!
//! ```text
//! limac run <script.dml> [options]       execute a script
//!     --config base|lt|ltd|lima          LIMA configuration (default lima)
//!     --policy lru|dag-height|cost-size
//!     --budget-mb <N>                    cache budget (default 512)
//!     --dedup                            enable lineage deduplication
//!     --no-compiler-assist               disable §4.4 rewrites/unmarking
//!     --stats                            print LIMA statistics after the run
//!     --lineage <VAR>                    print VAR's lineage log after the run
//!     --seed <N>                         system-seed base (reproducible runs)
//!     --timeout-ms <N>                   abort the run after N milliseconds
//!     --trace-out <FILE>                 write a Chrome trace_event JSON file
//!     --trace-sample <N>                 keep 1-in-N high-frequency events
//!     --cost-top <K>                     per-lineage-item cost report (top K)
//!     --quiet                            suppress script print() output
//!
//! limac stats <script.dml> [run options] [--format prom|text]
//!     execute a script, then print its statistics (Prometheus text
//!     exposition by default) to stdout
//!
//! limac lineage-diff <a.lineage> <b.lineage>
//!     compare two lineage logs (paper Example 3's debugging workflow)
//!
//! limac recompute <trace.lineage>
//!     reconstruct and re-execute a lineage log; `read` paths load from disk
//! ```
//!
//! Scripts `read(...)` matrix text/CSV files from disk and `write(...)`
//! results (plus `<path>.lineage` logs) back.
//!
//! Failures exit with the same typed codes the `lima-client` crate maps for
//! `limad` responses, so scripts driving either surface branch identically:
//! 4 = deadline exceeded, 5 = cancelled, 6 = resource exhausted, 7 =
//! overloaded, 2 = usage, 1 = everything else. The stderr line is
//! machine-readable: `limac: error=<code> <message>`.

use lima::prelude::*;
use std::process::ExitCode;
use std::sync::Arc;

/// A CLI failure: a typed code (shared with `lima_client::ErrorCode`) plus a
/// human message. Untyped string errors map to `Internal` (exit 1).
struct CliError {
    code: ErrorCode,
    msg: String,
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError {
            code: ErrorCode::Internal,
            msg,
        }
    }
}

/// The exit-code mapping for runtime failures, shared in spirit (and in
/// numbers, via [`ErrorCode::exit_code`]) with the `limad` wire protocol.
fn runtime_code(e: &RuntimeError) -> ErrorCode {
    match e {
        RuntimeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        RuntimeError::Cancelled => ErrorCode::Cancelled,
        RuntimeError::ResourceExhausted(_) => ErrorCode::ResourceExhausted,
        _ => ErrorCode::Runtime,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("lineage-diff") => cmd_lineage_diff(&args[1..]).map_err(CliError::from),
        Some("recompute") => cmd_recompute(&args[1..]).map_err(CliError::from),
        Some("--help") | Some("-h") | None => {
            eprint!("{}", USAGE);
            return ExitCode::from(2);
        }
        Some(other) => Err(CliError::from(format!(
            "unknown command '{other}'\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("limac: error={} {}", e.code.as_str(), e.msg);
            ExitCode::from(e.code.exit_code())
        }
    }
}

const USAGE: &str = "usage:\n  limac run <script> [--config base|lt|ltd|lima] [--policy P] \
[--budget-mb N] [--dedup] [--no-compiler-assist] [--stats] [--lineage VAR] [--seed N] \
[--timeout-ms N] [--trace-out FILE] [--trace-sample N] [--cost-top K] [--quiet]\n  \
limac stats <script> [run options] [--format prom|text]\n  \
limac lineage-diff <a.lineage> <b.lineage>\n  limac recompute <trace.lineage>\n";

/// The value after the flag `args[*i]`, parsed; `i` moves onto it.
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String> {
    let flag = &args[*i];
    *i += 1;
    let v = args
        .get(*i)
        .ok_or_else(|| format!("{flag} requires a value"))?;
    v.parse().map_err(|_| format!("bad value '{v}' for {flag}"))
}

/// The value after the flag `args[*i]` times `unit` (a size flag in MiB or
/// KiB); a product that overflows is a bad value, like a non-number.
fn scaled_flag(args: &[String], i: &mut usize, unit: usize) -> Result<usize, String> {
    let n: usize = flag_value(args, i)?;
    n.checked_mul(unit)
        .ok_or_else(|| format!("bad value '{}' for {}", args[*i], args[*i - 1]))
}

/// Parses the `run` option list into a configuration.
fn parse_run_options(args: &[String]) -> Result<(String, LimaConfig, RunFlags), String> {
    let mut script_path = None;
    let mut config = LimaConfig::lima();
    let mut flags = RunFlags::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--config" => {
                config = match flag_value::<String>(args, &mut i)?.as_str() {
                    "base" => LimaConfig::base(),
                    "lt" => LimaConfig::tracing_only(),
                    "ltd" => LimaConfig::tracing_dedup(),
                    "lima" => LimaConfig::lima(),
                    other => return Err(format!("unknown config '{other}'")),
                };
            }
            "--policy" => {
                config.policy = match flag_value::<String>(args, &mut i)?.as_str() {
                    "lru" => EvictionPolicy::Lru,
                    "dag-height" => EvictionPolicy::DagHeight,
                    "cost-size" => EvictionPolicy::CostSize,
                    other => return Err(format!("unknown policy '{other}'")),
                };
            }
            "--budget-mb" => config.budget_bytes = scaled_flag(args, &mut i, 1 << 20)?,
            "--dedup" => config.dedup = true,
            "--no-compiler-assist" => config.compiler_assist = false,
            "--stats" => flags.stats = true,
            "--lineage" => flags.lineage_var = Some(flag_value(args, &mut i)?),
            "--seed" => flags.seed = Some(flag_value(args, &mut i)?),
            "--timeout-ms" => flags.timeout_ms = Some(flag_value(args, &mut i)?),
            "--trace-out" => flags.trace_out = Some(flag_value(args, &mut i)?),
            "--trace-sample" => flags.trace_sample = Some(flag_value(args, &mut i)?),
            "--cost-top" => flags.cost_top = Some(flag_value(args, &mut i)?),
            "--quiet" => flags.quiet = true,
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            path => {
                if script_path.replace(path.to_string()).is_some() {
                    return Err("multiple script paths given".into());
                }
            }
        }
        i += 1;
    }
    let script_path = script_path.ok_or("missing script path")?;
    Ok((script_path, config, flags))
}

#[derive(Default)]
struct RunFlags {
    stats: bool,
    lineage_var: Option<String>,
    seed: Option<u64>,
    timeout_ms: Option<u64>,
    trace_out: Option<String>,
    trace_sample: Option<u64>,
    cost_top: Option<usize>,
    quiet: bool,
}

/// Parses, compiles, and executes a `run` invocation; writes the trace file
/// when requested and hands the finished context back to the caller for
/// output rendering.
fn execute_run(args: &[String]) -> Result<(ExecutionContext, RunFlags), CliError> {
    let (path, mut config, flags) = parse_run_options(args)?;
    let obs = flags.trace_out.as_ref().map(|_| Arc::new(Obs::new()));
    if let Some(o) = &obs {
        if let Some(n) = flags.trace_sample {
            o.set_sample_every(n);
        }
        config = config.with_obs(Arc::clone(o));
    }
    let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let program = compile_script(&src, &config).map_err(|e| {
        // Render the source-anchored caret snippet up front; the one-line
        // `limac: error=compile ...` summary still follows from main().
        for d in e.diagnostics() {
            eprint!("{}", d.render(&src, &path));
        }
        CliError {
            code: ErrorCode::Compile,
            msg: e.to_string(),
        }
    })?;
    let mut ctx = ExecutionContext::new(config);
    if let Some(seed) = flags.seed {
        ctx.reset_seed_counter(seed);
    }
    if let Some(ms) = flags.timeout_ms {
        ctx.arm_deadline(std::time::Duration::from_millis(ms));
    }
    execute_program(&program, &mut ctx).map_err(|e| CliError {
        code: runtime_code(&e),
        msg: match (&e, flags.timeout_ms) {
            (RuntimeError::DeadlineExceeded, Some(ms)) => {
                format!("deadline exceeded: script did not finish within {ms} ms")
            }
            _ => e.to_string(),
        },
    })?;
    if let (Some(o), Some(out)) = (&obs, &flags.trace_out) {
        std::fs::write(out, o.chrome_trace()).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok((ctx, flags))
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let (ctx, flags) = execute_run(args)?;
    if !flags.quiet {
        for line in &ctx.stdout {
            println!("{line}");
        }
    }
    if let Some(var) = &flags.lineage_var {
        let lin = ctx
            .lineage
            .get(var)
            .ok_or_else(|| format!("no lineage for variable '{var}'"))?;
        print!("{}", serialize_lineage(lin));
    }
    if flags.stats {
        println!("{}", ctx.stats.report());
    }
    if let Some(k) = flags.cost_top {
        match &ctx.cache {
            Some(cache) => {
                println!("lineage cost attribution (top {k}):");
                for item in cache.cost_report(k) {
                    println!("{}", item.render());
                }
            }
            None => {
                return Err("--cost-top requires a reuse-enabled config (lt/ltd/lima)"
                    .to_string()
                    .into());
            }
        }
    }
    Ok(())
}

/// `limac stats <script> [run options] [--format prom|text]`: runs the script
/// and prints its statistics to stdout in the chosen format. Script print()
/// output is suppressed so the exposition stays machine-readable.
fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let mut format = "prom".to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--format" {
            i += 1;
            format = args
                .get(i)
                .cloned()
                .ok_or_else(|| "--format requires a value".to_string())?;
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    if !matches!(format.as_str(), "prom" | "text") {
        return Err(format!("unknown stats format '{format}' (expected prom|text)").into());
    }
    let (ctx, _) = execute_run(&rest)?;
    match format.as_str() {
        "prom" => print!("{}", ctx.stats.prometheus()),
        _ => println!("{}", ctx.stats.report()),
    }
    Ok(())
}

/// Normalizes a lineage-log line for diffing: the session-specific IDs are
/// stripped so only structure and payloads compare.
fn normalize_log_line(line: &str) -> String {
    line.split(' ')
        .map(|tok| {
            if tok.starts_with('(')
                && tok.ends_with(')')
                && tok[1..tok.len() - 1].parse::<u64>().is_ok()
            {
                "(#)".to_string()
            } else {
                tok.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn cmd_lineage_diff(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("lineage-diff takes exactly two files".into());
    };
    let read = |p: &String| -> Result<String, String> {
        std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))
    };
    let (a_log, b_log) = (read(a_path)?, read(b_path)?);
    // Validate both logs parse.
    let a = deserialize_lineage(&a_log).map_err(|e| format!("{a_path}: {e}"))?;
    let b = deserialize_lineage(&b_log).map_err(|e| format!("{b_path}: {e}"))?;
    if lima::lima_core::lineage::item::lineage_eq(&a, &b) {
        println!("lineage logs are equivalent ({} nodes)", a.dag_size());
        return Ok(());
    }
    println!("lineage logs DIFFER:");
    let a_lines: Vec<String> = a_log.lines().map(normalize_log_line).collect();
    let b_lines: Vec<String> = b_log.lines().map(normalize_log_line).collect();
    let n = a_lines.len().max(b_lines.len());
    let mut shown = 0;
    for i in 0..n {
        let la = a_lines.get(i).map(String::as_str).unwrap_or("<missing>");
        let lb = b_lines.get(i).map(String::as_str).unwrap_or("<missing>");
        if la != lb {
            println!("  - {la}\n  + {lb}");
            shown += 1;
            if shown >= 20 {
                println!("  ... (truncated)");
                break;
            }
        }
    }
    Err("traces are not equivalent".into())
}

fn cmd_recompute(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("recompute takes exactly one lineage log".into());
    };
    let log = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = deserialize_lineage(&log).map_err(|e| format!("{path}: {e}"))?;
    let mut ctx = ExecutionContext::new(LimaConfig::base());
    let value = recompute(&root, &mut ctx).map_err(|e| e.to_string())?;
    match &value {
        Value::Matrix(m) => {
            println!("recomputed matrix {}x{}:", m.rows(), m.cols());
            print!("{}", lima::lima_runtime::kernels::display(&value));
        }
        other => println!(
            "recomputed value: {}",
            lima::lima_runtime::kernels::display(other)
        ),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_options_parse() {
        let args: Vec<String> = [
            "s.dml",
            "--config",
            "ltd",
            "--policy",
            "lru",
            "--budget-mb",
            "64",
            "--stats",
            "--lineage",
            "B",
            "--seed",
            "7",
            "--timeout-ms",
            "1500",
            "--trace-out",
            "t.json",
            "--trace-sample",
            "4",
            "--cost-top",
            "10",
            "--quiet",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (path, config, flags) = parse_run_options(&args).unwrap();
        assert_eq!(path, "s.dml");
        assert!(config.dedup);
        assert_eq!(config.policy, EvictionPolicy::Lru);
        assert_eq!(config.budget_bytes, 64 * 1024 * 1024);
        assert!(flags.stats);
        assert_eq!(flags.lineage_var.as_deref(), Some("B"));
        assert_eq!(flags.seed, Some(7));
        assert_eq!(flags.timeout_ms, Some(1500));
        assert_eq!(flags.trace_out.as_deref(), Some("t.json"));
        assert_eq!(flags.trace_sample, Some(4));
        assert_eq!(flags.cost_top, Some(10));
        assert!(flags.quiet);
    }

    #[test]
    fn run_options_reject_garbage() {
        let to_args = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_run_options(&to_args(&["--config"])).is_err());
        assert!(parse_run_options(&to_args(&["s", "--config", "nope"])).is_err());
        assert!(parse_run_options(&to_args(&["s", "--what"])).is_err());
        assert!(parse_run_options(&to_args(&["s", "--timeout-ms", "soon"])).is_err());
        assert!(parse_run_options(&to_args(&["s", "--trace-sample", "often"])).is_err());
        assert!(parse_run_options(&to_args(&["s", "--trace-out"])).is_err());
        assert!(parse_run_options(&to_args(&["s", "--cost-top", "all"])).is_err());
        // 2^44 MiB is 2^64 bytes: refused, not wrapped to a 0-byte cache.
        let err = parse_run_options(&to_args(&["s", "--budget-mb", "17592186044416"]));
        assert_eq!(
            err.err().as_deref(),
            Some("bad value '17592186044416' for --budget-mb")
        );
        assert!(parse_run_options(&to_args(&["a", "b"])).is_err());
        assert!(parse_run_options(&to_args(&[])).is_err());
    }

    #[test]
    fn interrupt_family_maps_to_distinct_exit_codes() {
        let codes = [
            runtime_code(&RuntimeError::DeadlineExceeded),
            runtime_code(&RuntimeError::Cancelled),
            runtime_code(&RuntimeError::ResourceExhausted("cap".into())),
        ];
        assert_eq!(
            codes,
            [
                ErrorCode::DeadlineExceeded,
                ErrorCode::Cancelled,
                ErrorCode::ResourceExhausted,
            ]
        );
        // Distinct nonzero exit codes, none colliding with the generic 1 or
        // the usage 2.
        let exits: Vec<u8> = codes.iter().map(|c| c.exit_code()).collect();
        assert_eq!(exits, [4, 5, 6]);
        // Everything else stays on the generic failure exit.
        let panic = RuntimeError::WorkerPanic("boom".into());
        assert_eq!(runtime_code(&panic).exit_code(), 1);
    }

    #[test]
    fn log_lines_normalize_ids() {
        assert_eq!(normalize_log_line("(12) I + (3) (4)"), "(#) I + (#) (#)");
        assert_eq!(normalize_log_line("(12) L f:0.1"), "(#) L f:0.1");
        assert_eq!(normalize_log_line("::out (9)"), "::out (#)");
    }
}
