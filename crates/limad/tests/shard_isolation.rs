//! Shard-level fault isolation.
//!
//! One shard under memory pressure (governor at L3/L4) must shed its own
//! traffic while its siblings keep serving at L0; pressure release must be
//! observable via `governor_recovers`. A shard whose WAL directory is
//! unusable degrades to memory-only and keeps serving while its peers'
//! persistence is untouched. A restart over a persist root recovers warm
//! after a torn WAL append and repairs values corrupted between lives.

use common::outputs;
use lima_client::proto::ErrorCode;
use lima_client::{ClientOptions, LimadClient};
use lima_core::faults::{FaultInjector, FaultSite};
use lima_core::{LimaConfig, LimaStats, PressureLevel};
use limad::{CacheShard, LimadConfig, Server, ShardState};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

mod common;

/// Finds a self-contained script that the server's ring routes to `shard`.
/// Routing is a pure function of the script text, so probing a local copy of
/// the ring with candidate scripts is exact.
fn script_for_shard(server: &Server, shard: usize) -> String {
    for salt in 0..10_000u64 {
        let script = format!(
            "X = matrix(2, 30, {});\ns = sum(X) + {salt};\n",
            3 + salt % 5
        );
        if server.shards().route_script(&script).0.index() == shard {
            return script;
        }
    }
    unreachable!("10k salted scripts never hashed onto shard {shard}");
}

#[test]
fn pressured_shard_sheds_while_siblings_serve() {
    let server = Server::start(LimadConfig {
        shards: 3,
        template: LimaConfig::lima().with_governor(1024 * 1024),
        ..LimadConfig::default()
    })
    .unwrap();
    let scripts: Vec<String> = (0..3).map(|i| script_for_shard(&server, i)).collect();

    // Drown shard 0: straight past the L4 watermark.
    let g0 = server.shards().get(0).unwrap().governor().unwrap();
    g0.adjust_session_bytes(2 * 1024 * 1024);
    assert_eq!(g0.level(), PressureLevel::RejectSessions);

    // Concurrent traffic to all three shards: shard 0 sheds every submit
    // with a typed Overloaded, shards 1 and 2 serve everything.
    let addr = server.addr().to_string();
    let workers: Vec<_> = (0..3)
        .flat_map(|shard| (0..4).map(move |worker| (shard, worker)))
        .map(|(shard, worker)| {
            let addr = addr.clone();
            let script = scripts[shard].clone();
            std::thread::spawn(move || {
                let mut c = LimadClient::new(
                    &addr,
                    &format!("tenant-{worker}"),
                    ClientOptions {
                        retry: lima_core::resilience::RetryPolicy::new(0, 1, 7),
                        ..ClientOptions::default()
                    },
                );
                (shard, c.submit(&script, &outputs(&["s"])))
            })
        })
        .collect();
    for worker in workers {
        let (shard, result) = worker.join().unwrap();
        if shard == 0 {
            let err = result.expect_err("shard 0 must shed");
            assert_eq!(err.code(), Some(ErrorCode::Overloaded), "got {err}");
        } else {
            assert!(result.is_ok(), "sibling shard {shard} failed: {result:?}");
        }
    }

    // The siblings never left L0: pressure did not bleed across shards.
    for i in [1, 2] {
        let g = server.shards().get(i).unwrap().governor().unwrap();
        assert_eq!(
            g.level(),
            PressureLevel::Normal,
            "shard {i} dragged off L0 by shard 0's pressure"
        );
        assert_eq!(
            LimaStats::get(&server.shards().get(i).unwrap().stats().governor_degrades),
            0,
            "shard {i} counted degradations it should never have seen"
        );
    }

    // Release the pressure: recovery is observable and shard 0 serves again.
    g0.adjust_session_bytes(-(2 * 1024 * 1024));
    assert_eq!(g0.level(), PressureLevel::Normal);
    let shard0_stats = server.shards().get(0).unwrap().stats();
    assert!(
        LimaStats::get(&shard0_stats.governor_recovers) >= 1,
        "recovery must bump governor_recovers"
    );
    let mut c = LimadClient::new(&addr, "tenant-0", ClientOptions::default());
    assert!(c.submit(&scripts[0], &outputs(&["s"])).is_ok());
}

#[test]
fn wal_unusable_shard_degrades_to_memory_and_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("limad-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Shard 0's persistence directory is pre-created as a *file*: WAL
    // recovery cannot even open it.
    std::fs::write(dir.join("shard-0"), b"not a directory").unwrap();

    let server = Server::start(LimadConfig {
        shards: 2,
        persist_root: Some(dir.clone()),
        ..LimadConfig::default()
    })
    .unwrap();
    assert_eq!(
        server.shards().get(0).unwrap().state(),
        ShardState::Degraded,
        "shard 0 lost its WAL and must say so"
    );
    assert_eq!(
        server.shards().get(1).unwrap().state(),
        ShardState::Cold,
        "shard 1's persistence must be untouched"
    );

    // Both shards serve — the degraded one from memory.
    let addr = server.addr().to_string();
    let mut c = LimadClient::new(&addr, "alice", ClientOptions::default());
    for shard in 0..2 {
        let script = script_for_shard(&server, shard);
        let done = c.submit(&script, &outputs(&["s"])).unwrap();
        assert!(done.value("s").is_some(), "shard {shard} returned no value");
    }

    // The state is visible in the metrics gauges.
    let text = server.metrics_text();
    assert!(text.contains("limad_shard_state{shard=\"0\"} 2"), "{text}");
    assert!(text.contains("limad_shard_state{shard=\"1\"} 0"), "{text}");

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

fn total(server: &Server, counter: fn(&LimaStats) -> &AtomicU64) -> u64 {
    let shards = server.shards().iter();
    shards.map(|s| LimaStats::get(counter(&s.stats()))).sum()
}

/// A Gram matrix of a constant `p`.
fn gram(p: u64) -> String {
    format!("X = matrix({p}, 60, 6);\nG = t(X) %*% X;\ns = sum(G);\n")
}

/// The same through a function call, with an argument its body never reads.
fn called(p: u64) -> String {
    let sq = "sq = function(X, k) return (Y) { Y = t(X) %*% X; }";
    format!("{sq}\nX = matrix({p}, 60, 6);\nG = sq(X, {p});\ns = sum(G);\n")
}

/// Two lives of a 2-shard server over one persist root, each submitting four
/// `script`s whose constants vary with `seed`. The first runs under
/// `template`; `between` may damage the root and says how many files it hit;
/// the second, fault-free, must start with a warm shard, answer every script
/// as the first did and serve at least one hit from a recovered entry, and
/// is handed to `check` with that count.
fn two_lives(
    seed: u64,
    template: LimaConfig,
    script: fn(u64) -> String,
    between: impl FnOnce(&Path) -> usize,
    check: impl FnOnce(&Server, usize),
) {
    let dir = common::scratch_dir("lives");
    let start = |template| {
        let persist_root = Some(dir.clone());
        let cfg = LimadConfig {
            shards: 2,
            persist_root,
            scrub_interval_ms: 0,
            template,
            ..LimadConfig::default()
        };
        Server::start(cfg).unwrap()
    };
    let scripts: Vec<_> = (0..4).map(|i| script(1 + (seed + i) % 7)).collect();
    let answers = |server: &Server| -> Vec<_> {
        let mut c = common::client(server, "alice");
        let mut submit = |s: &String| c.submit(s, &outputs(&["s"])).unwrap().values;
        scripts.iter().map(&mut submit).collect()
    };
    let first = start(template.clone());
    let expect = answers(&first);
    assert!(total(&first, |s| &s.persist_writes) >= 1, "seed {seed}");
    first.shutdown();
    let damaged = between(&dir);

    let second = start(LimaConfig {
        faults: None,
        ..template
    });
    let warm = |s: &Arc<CacheShard>| s.state() == ShardState::Warm;
    assert!(second.shards().iter().any(warm), "seed {seed}: cold");
    assert_eq!(answers(&second), expect, "seed {seed}");
    assert!(total(&second, |s| &s.persist_hits) >= 1, "seed {seed}");
    check(&second, damaged);
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The first life tears a manifest WAL append mid-record; recovery keeps the
/// intact prefix and drops the torn tail.
#[test]
fn warm_restart_recovers_persisted_entries() {
    for seed in common::seeds() {
        let tear = FaultInjector::new(seed).fail_at(FaultSite::PersistWalAppend, &[1 + seed % 3]);
        let tear = Arc::new(tear);
        let template = LimaConfig::lima().with_faults(Arc::clone(&tear));
        two_lives(seed, template, gram, |_| 0, |_, _| {});
        assert_eq!(tear.injected(FaultSite::PersistWalAppend), 1, "seed {seed}");
    }
}

/// Every committed value file is bit-flipped between lives: recovery verifies
/// checksums eagerly and recomputes each flipped value from its lineage.
#[test]
fn warm_restart_repairs_values_corrupted_between_lives() {
    for seed in common::seeds() {
        let mut template = LimaConfig::lima();
        template.multilevel = false;
        two_lives(seed, template, gram, common::flip_values, repaired(seed));
    }
}

/// The same with multi-level reuse on and `G` computed by a call: values
/// downstream of it (`s`) carry the lineage of the call's body, not the
/// call item, so they are recomputed, not dropped.
#[test]
fn warm_restart_repairs_values_computed_through_a_call() {
    for seed in common::seeds() {
        let template = LimaConfig::lima();
        two_lives(seed, template, called, common::flip_values, repaired(seed));
    }
}

/// Checks that every flipped value file was repaired and none was lost.
fn repaired(seed: u64) -> impl FnOnce(&Server, usize) {
    move |second, flipped| {
        assert!(flipped >= 1, "seed {seed}: no value file to corrupt");
        let repairs = total(second, |s| &s.persist_repairs);
        assert!(
            repairs >= flipped as u64,
            "seed {seed}: {repairs} < {flipped}"
        );
        let lost = total(second, |s| &s.persist_repair_failures);
        let lost = lost + total(second, |s| &s.persist_dropped);
        assert_eq!(lost, 0, "seed {seed}: repairs failed or entries dropped");
    }
}
