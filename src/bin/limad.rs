//! `limad` — the LIMA lineage-cache service daemon.
//!
//! ```text
//! limad [options]
//!     --listen <ADDR>        wire-protocol address (default 127.0.0.1:7461)
//!     --metrics <ADDR>       metrics HTTP address (default 127.0.0.1:7462)
//!     --shards <N>           cache shards (default 4)
//!     --persist-dir <DIR>    per-shard WAL root (default: memory-only)
//!     --budget-mb <N>        per-shard cache budget (default 256)
//!     --governor-mb <N>      per-shard governor budget (default: off)
//!     --tenant-quota <N>     concurrent submits per tenant, 0=unlimited (default 8)
//!     --deadline-ms <N>      default submit deadline (default 30000)
//!     --scrub-interval-ms <N> background scrub cadence per shard, 0=off (default 500)
//!     --scrub-chunk-kb <N>   byte budget per scrub chunk (default 4096)
//!     --replicas <R>         run R replicated members in this process
//!                            (default 1 = standalone; member i listens on
//!                            listen-port + i, metrics-port + i)
//! ```
//!
//! Runs until killed. Prints the bound addresses on startup (useful with
//! `--listen 127.0.0.1:0` in scripts).

use lima_core::LimaConfig;
use limad::{LimadConfig, ReplicaGroup, Server};
use std::process::ExitCode;

const USAGE: &str = "usage: limad [--listen ADDR] [--metrics ADDR] [--shards N] \
[--persist-dir DIR] [--budget-mb N] [--governor-mb N] [--tenant-quota N] [--deadline-ms N] \
[--scrub-interval-ms N] [--scrub-chunk-kb N] [--replicas R]\n";

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

fn parse_args(args: &[String]) -> Result<(LimadConfig, usize), String> {
    let mut replicas = 1usize;
    let mut cfg = LimadConfig {
        listen: "127.0.0.1:7461".into(),
        metrics_listen: "127.0.0.1:7462".into(),
        ..LimadConfig::default()
    };
    let mut template = LimaConfig::lima();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => cfg.listen = flag_value(args, &mut i)?,
            "--metrics" => cfg.metrics_listen = flag_value(args, &mut i)?,
            "--shards" => cfg.shards = flag_value(args, &mut i)?,
            "--persist-dir" => cfg.persist_root = Some(flag_value::<String>(args, &mut i)?.into()),
            "--budget-mb" => template.budget_bytes = scaled_flag(args, &mut i, 1 << 20)?,
            "--governor-mb" => template.governor_budget_bytes = scaled_flag(args, &mut i, 1 << 20)?,
            "--tenant-quota" => cfg.tenant_max_sessions = flag_value(args, &mut i)?,
            "--deadline-ms" => cfg.default_deadline_ms = flag_value(args, &mut i)?,
            "--scrub-interval-ms" => cfg.scrub_interval_ms = flag_value(args, &mut i)?,
            "--scrub-chunk-kb" => {
                cfg.scrub_chunk_bytes = scaled_flag(args, &mut i, 1 << 10)? as u64
            }
            "--replicas" => {
                replicas = flag_value(args, &mut i)?;
                if replicas == 0 {
                    return Err("--replicas must be at least 1".into());
                }
            }
            other => return Err(format!("unknown option '{other}'\n{USAGE}")),
        }
        i += 1;
    }
    cfg.template = template;
    Ok((cfg, replicas))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let (cfg, replicas) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("limad: {msg}");
            return ExitCode::from(2);
        }
    };
    if replicas > 1 {
        let group = match ReplicaGroup::start(&cfg, replicas) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("limad: failed to start replica group: {e}");
                return ExitCode::FAILURE;
            }
        };
        for i in 0..group.len() {
            let server = group.get(i).expect("freshly started member");
            println!("limad member {i} listening on {}", server.addr());
            println!(
                "limad member {i} metrics on http://{}/metrics",
                server.metrics_addr()
            );
        }
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("limad: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("limad listening on {}", server.addr());
    println!("limad metrics on http://{}/metrics", server.metrics_addr());
    for shard in server.shards().iter() {
        println!(
            "limad shard {} state {}",
            shard.index(),
            shard.state().as_str()
        );
    }
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_overrides_parse() {
        let (cfg, replicas) = parse_args(&[]).unwrap();
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.tenant_max_sessions, 8);
        assert!(cfg.persist_root.is_none());
        assert_eq!(replicas, 1);

        let (cfg, replicas) = parse_args(&to_args(&[
            "--listen",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--persist-dir",
            "/tmp/limad",
            "--budget-mb",
            "64",
            "--governor-mb",
            "128",
            "--tenant-quota",
            "3",
            "--deadline-ms",
            "500",
            "--scrub-interval-ms",
            "250",
            "--scrub-chunk-kb",
            "512",
            "--replicas",
            "2",
        ]))
        .unwrap();
        assert_eq!(replicas, 2);
        assert_eq!(cfg.listen, "127.0.0.1:0");
        assert_eq!(cfg.shards, 2);
        assert!(cfg.persist_root.is_some());
        assert_eq!(cfg.template.budget_bytes, 64 * 1024 * 1024);
        assert_eq!(cfg.template.governor_budget_bytes, 128 * 1024 * 1024);
        assert_eq!(cfg.tenant_max_sessions, 3);
        assert_eq!(cfg.default_deadline_ms, 500);
        assert_eq!(cfg.scrub_interval_ms, 250);
        assert_eq!(cfg.scrub_chunk_bytes, 512 * 1024);
    }

    #[test]
    fn bad_options_are_rejected() {
        assert!(parse_args(&to_args(&["--shards"])).is_err());
        assert!(parse_args(&to_args(&["--shards", "many"])).is_err());
        assert!(parse_args(&to_args(&["--frobnicate"])).is_err());
        assert!(parse_args(&to_args(&["--replicas", "0"])).is_err());
        assert!(parse_args(&to_args(&["--replicas", "two"])).is_err());
        // A size whose byte count overflows is refused, not wrapped: 2^44 MiB
        // and 2^54 KiB are both 2^64 bytes.
        for (flag, v) in [
            ("--budget-mb", "17592186044416"),
            ("--governor-mb", "17592186044416"),
            ("--scrub-chunk-kb", "18014398509481984"),
        ] {
            let err = parse_args(&to_args(&[flag, v])).err();
            assert_eq!(err, Some(format!("bad value '{v}' for {flag}")));
        }
    }
}
