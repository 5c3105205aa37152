//! Helpers shared by the `limad` integration tests: a reference script,
//! clients, in-process runs, a polling wait, the fault-seed matrix, and
//! bit-flippers for a persist root's files.
#![allow(dead_code)]

use lima_client::{ClientOptions, LimadClient, SubmitOptions};
use lima_core::lineage::serialize_lineage;
use lima_core::LimaConfig;
use lima_lang::compile_script;
use lima_runtime::{execute_program, ExecutionContext};
use limad::Server;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `sum(t(X) %*% X)` for X = 100x5 filled with 3: each of the 25 entries of
/// the gram matrix is 100·9 = 900, so s = 22500.
pub const GRAM_SCRIPT: &str = "X = matrix(3, 100, 5);\nG = t(X) %*% X;\ns = sum(G);\n";
pub const GRAM_SUM: f64 = 22_500.0;

pub fn client(server: &Server, tenant: &str) -> LimadClient {
    LimadClient::new(&server.addr().to_string(), tenant, ClientOptions::default())
}

/// Runs `script` in-process, with no service, under `config`.
pub fn run_locally(script: &str, config: LimaConfig) -> ExecutionContext {
    let program = compile_script(script, &config).unwrap();
    let mut ctx = ExecutionContext::new(config);
    execute_program(&program, &mut ctx).unwrap();
    ctx
}

/// Serialized lineage of `var` after running `script` locally: an identical
/// script has an identical lineage hash, so the same cache key server-side.
pub fn lineage_of(script: &str, var: &str) -> String {
    let ctx = run_locally(script, LimaConfig::lima());
    serialize_lineage(ctx.lineage.get(var).unwrap())
}

/// Submit options asking for the variables `names`.
pub fn outputs(names: &[&str]) -> SubmitOptions {
    SubmitOptions {
        outputs: names.iter().map(|s| s.to_string()).collect(),
        ..SubmitOptions::default()
    }
}

/// Polls `done` every 25 ms until it holds or `timeout` passes; returns
/// whether it held.
pub fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    done()
}

/// Fault-schedule seeds from the comma-separated `LIMA_FAULT_SEEDS` (CI runs
/// `1,2,3,4,5`); `7` when unset. Every trigger decision is a pure function of
/// the seed, so a failing seed replays.
pub fn seeds() -> Vec<u64> {
    std::env::var("LIMA_FAULT_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![7])
}

/// A fresh, empty scratch directory, unique within this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("limad-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flips one bit mid-file; an empty file is left alone. True if flipped.
fn flip_mid(path: &Path) -> bool {
    let mut raw = std::fs::read(path).unwrap();
    if raw.is_empty() {
        return false;
    }
    let mid = raw.len() / 2;
    raw[mid] ^= 0x20;
    std::fs::write(path, &raw).unwrap();
    true
}

/// Flips one bit in every non-empty committed value file under every shard
/// of the persist root `root`; returns how many files were corrupted.
pub fn flip_values(root: &Path) -> usize {
    let mut flipped = 0;
    for shard in std::fs::read_dir(root).unwrap().flatten() {
        let Ok(entries) = std::fs::read_dir(shard.path().join("values")) else {
            continue;
        };
        for path in entries.flatten().map(|e| e.path()) {
            if path.extension().and_then(|e| e.to_str()) == Some("val") && flip_mid(&path) {
                flipped += 1;
            }
        }
    }
    flipped
}

/// Flips one bit in every shard's newest `manifest.<gen>.wal` under the
/// persist root `root`; returns how many WALs were corrupted.
pub fn flip_newest_wals(root: &Path) -> usize {
    let mut flipped = 0;
    for shard in std::fs::read_dir(root).unwrap().flatten() {
        let Ok(entries) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        let newest = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let generation: u64 = name
                    .strip_prefix("manifest.")?
                    .strip_suffix(".wal")?
                    .parse()
                    .ok()?;
                Some((generation, e.path()))
            })
            .max();
        if newest.is_some_and(|(_, path)| flip_mid(&path)) {
            flipped += 1;
        }
    }
    flipped
}
