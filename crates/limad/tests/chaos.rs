//! Chaos tests: zipf-skewed submits from many client threads across tenants
//! against a server or a replica group under injected faults. Every served
//! value must equal the script's in-process `Base` value, nothing may fail
//! untyped, and the p99 stays bounded. Each test runs once per seed of
//! `LIMA_FAULT_SEEDS`. Persistence faults and partitions, which need no
//! sustained traffic, are cases of `shard_isolation.rs`, `service.rs` and
//! `replication.rs`.

use common::{outputs, run_locally, wait_until};
use lima_client::{ClientOptions, LimadClient};
use lima_core::faults::{FaultInjector, FaultSite};
use lima_core::lineage::serialize_lineage;
use lima_core::resilience::RetryPolicy;
use lima_core::{LimaConfig, LimaStats};
use limad::{LimadConfig, ReplOptions, ReplicaGroup, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod common;

const SHARDS: usize = 4;
const WORKERS: usize = 12;
const P99_CAP_MS: u64 = 10_000;

/// One test at a time: the latency bounds assume no other test's traffic.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// splitmix64 finalizer: the mixer behind zipf draws and corpus constants.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 24 deterministic scripts whose constants vary with `seed`; each leaves
/// its result in `s`.
fn corpus(seed: u64) -> Vec<String> {
    (0..4)
        .flat_map(|i| {
            let p = 1 + mix(seed ^ i) % 7;
            let n = 50 + p * 10;
            [
                format!("X = matrix({p}, 40, 12);\nG = t(X) %*% X;\ns = sum(G);\n"),
                format!("X = matrix(2, 30, 30);\nY = X + {p};\nZ = Y * 2;\ns = sum(Z - X);\n"),
                format!("acc = 0;\nfor (i in 1:{n}) {{\n  acc = acc + i * {p};\n}}\ns = acc;\n"),
                format!("X = matrix({p}, 25, 25);\ns = sum(t(X) %*% X) + {p};\n"),
                format!("X = matrix(3, 50, 8);\nY = X + {p};\ns = sum(X + Y);\n"),
                format!("X = matrix({p}, 20, 20);\nA = X * 3;\nB = A - X;\ns = sum(B) + sum(A);\n"),
            ]
        })
        .collect()
}

/// Zipf-skewed index over `n` items (exponent 1.1), deterministic in
/// `(seed, draw)`: item 0 is hottest.
fn zipf(seed: u64, draw: u64, n: usize) -> usize {
    let weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(1.1)).collect();
    let mut u = (mix(seed ^ mix(draw)) >> 11) as f64 / (1u64 << 53) as f64;
    u *= weights.iter().sum::<f64>();
    weights
        .iter()
        .position(|w| {
            u -= w;
            u < 0.0
        })
        .unwrap_or(n - 1)
}

fn p99(mut ms: Vec<u64>) -> u64 {
    ms.sort_unstable();
    ms[((ms.len() - 1) as f64 * 0.99).round() as usize]
}

/// Drives `sessions` zipf-sampled submits of `seed`'s corpus from `WORKERS`
/// clients of the members `addrs` (each prefers member 0, retries and fails
/// over) and asserts that every answer equals the `Base` value or is a typed
/// refusal, and that the p99 stays under the cap. `controller` runs on the
/// calling thread meanwhile with the count of sessions started: it is where
/// a test kills or restarts members mid-load.
fn drive(addrs: &[String], seed: u64, sessions: usize, controller: impl FnOnce(&AtomicUsize)) {
    let scripts = corpus(seed);
    let base: Vec<_> = scripts
        .iter()
        .map(|s| run_locally(s, LimaConfig::base()).symtab["s"].clone())
        .collect();
    let next = AtomicUsize::new(0);
    let (latencies, failures) = (Mutex::new(Vec::new()), Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for worker in 0..WORKERS {
            let opts = ClientOptions {
                // The scripts are deterministic and idempotent, so retrying a
                // submit after a dropped connection is safe.
                retry_submits: true,
                retry: RetryPolicy::new(6, 10, seed ^ worker as u64),
                default_deadline: Duration::from_secs(20),
                ..ClientOptions::default()
            };
            let tenant = format!("tenant-{}", worker % 4);
            let mut client = LimadClient::new_replicated(addrs, &tenant, opts);
            let (next, scripts, base) = (&next, &scripts, &base);
            let (latencies, failures) = (&latencies, &failures);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= sessions {
                    return;
                }
                let k = zipf(seed, i as u64, scripts.len());
                let t0 = Instant::now();
                let answer = client.submit(&scripts[k], &outputs(&["s"]));
                let ms = t0.elapsed().as_millis() as u64;
                let failure = match answer {
                    Ok(done) if done.value("s") == Some(&base[k]) => None,
                    Ok(done) => Some(format!("script {k}: {:?}", done.value("s"))),
                    Err(e) if e.code().is_some() => None,
                    Err(e) => Some(format!("untyped: {e}")),
                };
                latencies.lock().unwrap().push(ms);
                failures.lock().unwrap().extend(failure);
            });
        }
        controller(&next);
    });
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "seed {seed}: {failures:?}");
    let p99 = p99(latencies.into_inner().unwrap());
    assert!(p99 <= P99_CAP_MS, "seed {seed}: p99 {p99} ms");
}

/// Requires the counters every server exports, plus `needles`.
fn assert_exposes(server: &Server, needles: &[&str]) {
    let text = server.metrics_text();
    let always = [
        "lima_total_hits",
        "lima_srv_requests",
        "limad_shard_state{shard=\"0\"}",
        "limad_shard_program_cache_hits{shard=\"0\"}",
    ];
    for needle in always.iter().chain(needles) {
        assert!(text.contains(needle), "metrics lack {needle}");
    }
}

fn group_config() -> LimadConfig {
    LimadConfig {
        shards: SHARDS,
        scrub_interval_ms: 0,
        repl: Some(ReplOptions::default()),
        ..LimadConfig::default()
    }
}

#[test]
fn steady_traffic_under_dropped_connections_and_a_slow_shard_matches_baseline() {
    let _serial = serial();
    for seed in common::seeds() {
        // 5 % of responses tear their connection instead; one shard,
        // rotating with the seed, stalls on every touch.
        let faults = Arc::new(
            FaultInjector::new(seed)
                .fail_with_probability(FaultSite::ConnDrop, 0.05)
                .fail_at(FaultSite::SlowShard, &[seed % SHARDS as u64]),
        );
        let server = Server::start(LimadConfig {
            shards: SHARDS,
            template: LimaConfig::lima().with_faults(Arc::clone(&faults)),
            ..LimadConfig::default()
        })
        .unwrap();
        drive(&[server.addr().to_string()], seed, 250, |_| {});
        assert!(LimaStats::get(&server.server_stats().srv_conn_drops) > 0);
        assert!(faults.injected(FaultSite::SlowShard) > 0);
        assert_exposes(&server, &[]);
    }
}

/// Member 0, every client's preferred member, dies at a quarter of the
/// sessions and restarts, empty, at three fifths: clients fail over with no
/// hard error and anti-entropy refills the restarted member.
#[test]
fn killed_member_under_load_fails_over_and_reconverges() {
    let _serial = serial();
    for seed in common::seeds() {
        let mut group = ReplicaGroup::start(&group_config(), 2).unwrap();
        let sessions = 150;
        let mut restarted = Ok(());
        drive(&group.addrs(), seed, sessions, |started| {
            let reach = |n| {
                wait_until(Duration::from_secs(60), || {
                    started.load(Ordering::Relaxed) >= n
                })
            };
            reach(sessions / 4);
            group.kill(0);
            reach(sessions * 3 / 5);
            restarted = group.restart(0);
        });
        restarted.unwrap();
        let (a, b) = (group.get(0).unwrap(), group.get(1).unwrap());
        let converged = wait_until(Duration::from_secs(30), || {
            let ka = a.keyspace_hashes();
            !ka.is_empty() && ka == b.keyspace_hashes()
        });
        assert!(
            converged,
            "seed {seed}: anti-entropy did not converge in 30 s"
        );
        assert_exposes(
            b,
            &[
                "limad_replica_state{member=\"0\"}",
                "limad_repl_queue_depth",
            ],
        );
        group.shutdown();
    }
}

/// Member 0 stalls on every shard touch, member 1 is healthy. Fetches
/// prefer the slow member, so every read eats the stall unless the hedge
/// leg rescues it: the hedged p99 must stay near the healthy one, and some
/// hedge must win.
#[test]
fn hedged_reads_preferring_a_slow_member_stay_near_the_healthy_p99() {
    let _serial = serial();
    for seed in common::seeds() {
        let group = ReplicaGroup::start_with(&group_config(), 2, |i, cfg| {
            if i == 0 {
                let slow: Vec<u64> = (0..SHARDS as u64).collect();
                let faults = FaultInjector::new(seed).fail_at(FaultSite::SlowShard, &slow);
                cfg.template.faults = Some(Arc::new(faults));
            }
        })
        .unwrap();
        let addrs = group.addrs();
        let p = 1 + mix(seed) % 7;
        let script = format!("X = matrix({p}, 60, 10);\nG = t(X) %*% X;\ns = sum(G);\n");
        let local = run_locally(&script, LimaConfig::lima());
        let lineage = serialize_lineage(local.lineage.get("G").unwrap());
        let expected = Some(local.symtab["G"].clone());

        // Warm member 1; write replication copies G onto the slow member, so
        // both hedge legs have it resident.
        let plain = |addr: &String| LimadClient::new(addr, "hedge", ClientOptions::default());
        plain(&addrs[1]).submit(&script, &outputs(&["s"])).unwrap();
        let mut slow = plain(&addrs[0]);
        let copied = wait_until(Duration::from_secs(15), || {
            matches!(slow.fetch(&lineage), Ok(Some(_)))
        });
        assert!(copied, "seed {seed}: replication never copied G");

        let fetch_p99 = |client: &mut LimadClient| {
            p99((0..80)
                .map(|_| {
                    let t = Instant::now();
                    assert_eq!(client.fetch(&lineage).unwrap(), expected, "seed {seed}");
                    t.elapsed().as_millis() as u64
                })
                .collect())
        };
        let healthy_p99 = fetch_p99(&mut plain(&addrs[1]));
        // A fixed 10 ms hedge delay, far under the stall, so the bound means
        // the same on every machine.
        let opts = ClientOptions {
            hedge_delay: Some(Duration::from_millis(10)),
            ..ClientOptions::default()
        };
        let mut hedged = LimadClient::new_replicated(&addrs, "hedge", opts);
        hedged.set_preferred(0);
        let hedged_p99 = fetch_p99(&mut hedged);
        assert!(hedged.stats().hedges_won >= 1, "seed {seed}: no hedge won");
        // The floor absorbs the hedge delay, the server's 25 ms accept-poll
        // tick (a hedge leg is a one-shot connection) and scheduler jitter,
        // and still sits under the stall every un-hedged read eats.
        let cap = (2 * healthy_p99).max(45);
        assert!(
            hedged_p99 <= cap,
            "seed {seed}: hedged p99 {hedged_p99} ms over {cap} ms (healthy {healthy_p99} ms)"
        );
        group.shutdown();
    }
}
