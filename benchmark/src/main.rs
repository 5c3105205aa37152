//! limabench: the repo's benchmark. One process runs one workload once:
//! set-up, a closed-loop measured window, an oracle check of every output,
//! and one JSON result line with every metric by name.
//!
//! ```text
//! limabench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt-oracle]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` repeats the run
//! with benchmark-side spans and layer probes and prints the per-layer
//! metrics. See `benchmark/README.md`.

mod gen;
mod metrics;
mod probe;
mod sizing;
mod span;
mod stats;
mod workloads;

use metrics::{Metrics, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use workloads::{Outcome, RunArgs};

struct Cli {
    workload: String,
    args: RunArgs,
    out_dir: PathBuf,
}

fn parse_cli() -> Result<Cli, String> {
    // Scratch and output live next to the binary, inside the build directory.
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .ok_or("cannot locate the benchmark binary")?;
    let mut workload = None;
    let mut args = RunArgs {
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        corrupt_oracle: false,
        tmp_dir: exe_dir.join("limabench-tmp"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => {
                args.smoke = true;
                args.seconds = 1.0;
            }
            "--corrupt-oracle" => args.corrupt_oracle = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !sizing::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of: {})",
            sizing::WORKLOADS.join(", ")
        ));
    }
    Ok(Cli {
        workload,
        args,
        out_dir: exe_dir.join("limabench-out"),
    })
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One workload per process, so `peak_rss_mb` and allocator state belong to
/// that workload alone.
fn run_workload(name: &str, args: &RunArgs) -> Outcome {
    static STARTED: AtomicBool = AtomicBool::new(false);
    assert!(
        !STARTED.swap(true, Ordering::SeqCst),
        "a process runs one workload; start another process for the next"
    );
    match name {
        "hpo_reuse" => workloads::hpo_reuse::run(args),
        "trace_dense" => workloads::trace_dense::run(args),
        "lineage_replay" => workloads::lineage_replay::run(args),
        "serve_zipf" => workloads::serve_zipf::run(args),
        other => unreachable!("workload '{other}' passed validation"),
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("limabench: {msg}");
            return ExitCode::from(2);
        }
    };
    let args = &cli.args;
    std::fs::create_dir_all(&args.tmp_dir).expect("scratch directory inside the build directory");
    let counts = args.op_counts(sizing::op_counts(&cli.workload));
    println!(
        "# limabench workload={} seed={} seconds={} trace={} smoke={} min_ops={} counted_ops={} warmup_ops={} nproc={} client_threads={} backend={} commit={}",
        cli.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke,
        counts.min_ops,
        counts.counted_ops,
        counts.warmup_ops,
        sizing::nproc(),
        if cli.workload == "serve_zipf" { sizing::client_threads() } else { 1 },
        lima_matrix::backend::active_kind().name(),
        std::env::var("LIMABENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );

    let mut out = run_workload(&cli.workload, args);
    let w = &out.window;
    let lat = stats::summarize(&w.latencies_s);
    println!(
        "# window {:.3} s, ops attempted {} failed {}, latency samples {}, {:.3} ops/s over the whole window",
        w.elapsed_s,
        w.attempted,
        w.failed,
        lat.samples,
        lat.samples as f64 / w.elapsed_s
    );

    let mut correct = w.failed == 0;
    let metrics_json = if args.trace {
        let layers = &mut out.layers;
        layers.set("bench.traced_ops_per_s", lat.ops_per_s);
        layers.set("bench.fail_share", w.failed as f64 / w.attempted as f64);
        correct &= report_trace(&cli, &out.tracers, w.elapsed_s, layers);
        print_table(layers);
        layers.to_json("0")
    } else {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", out.setup_s);
        m.set("ops_per_s", lat.ops_per_s);
        m.set("op_p50_ms", lat.p50 * 1e3);
        if let Some(p90) = lat.p90 {
            m.set("op_p90_ms", p90 * 1e3);
        }
        m.set("peak_rss_mb", peak_rss_mb());
        print_table(&m);
        m.to_json("null")
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        w.attempted, w.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_table(m: &Metrics) {
    for (name, unit, value) in m.rows() {
        match value {
            Some(v) => println!("# {name:<36} {v:>16.6} {unit}"),
            None => println!("# {name:<36} {:>16} {unit}", "-"),
        }
    }
}

/// Writes the Chrome trace, validates it, and prints the per-layer self-time
/// table. Returns whether the trace is valid and the self times account for
/// the traced window.
fn report_trace(cli: &Cli, tracers: &[span::Tracer], window_s: f64, layers: &mut Metrics) -> bool {
    let table = span::layer_table(tracers);
    let spans: u64 = table.values().map(|r| r.spans).sum();
    let self_s: f64 = table.values().map(|r| r.self_ns as f64 / 1e9).sum();
    // Each thread's spans hang under one `bench.window` span.
    let coverage = self_s / (window_s * tracers.len() as f64);
    layers.set("bench.span_count", spans as f64);
    layers.set("bench.self_time_coverage", coverage);
    println!("# layer self time (spans, seconds, share of traced window)");
    for (layer, row) in &table {
        let s = row.self_ns as f64 / 1e9;
        println!(
            "#   {layer:<10} {:>9} {s:>12.4} {:>7.3}",
            row.spans,
            s / self_s
        );
    }

    let json = span::chrome_trace(tracers, sizing::TRACE_FILE_SPANS);
    let path = cli
        .out_dir
        .join(format!("{}-seed{}.trace.json", cli.workload, cli.args.seed));
    let written = std::fs::create_dir_all(&cli.out_dir).and_then(|()| std::fs::write(&path, &json));
    match &written {
        Ok(()) => println!("# chrome trace: {}", path.display()),
        Err(e) => eprintln!("limabench: cannot write {}: {e}", path.display()),
    }
    let valid = lima_core::obs::validate_chrome_trace(&json)
        .and_then(|summary| lima_core::obs::check_span_nesting(&summary));
    if let Err(e) = &valid {
        eprintln!("limabench: invalid chrome trace: {e}");
    }
    let accounted = (coverage - 1.0).abs() <= 0.05;
    if !accounted {
        eprintln!("limabench: span self times cover {coverage:.3} of the traced window");
    }
    written.is_ok() && valid.is_ok() && accounted
}
