//! `serve_zipf`: an in-process `limad` (sharded, persistent, scrubber on)
//! under closed-loop clients over loopback; ops drawn zipf over a seeded
//! corpus of small self-contained scripts: submit, fetch of a lineage key
//! produced earlier, probe. After the window the server is shut down,
//! restarted on the same directory, and a sample of keys is fetched again.
//!
//! Chosen because it is the only workload where `lang` (every submit
//! compiles), `client`/`proto`, `limad` routing and quotas, sessions and
//! `cache::persist` (WAL append, recovery) sit on the request; per-request
//! kernels are small. Hot keys exercise cross-request reuse; the shard budget
//! is smaller than the corpus' values, so the zipf tail is evicted and misses.

use super::{add_counters, set_hit_ratio, timed_setup, Outcome, RunArgs, Window};
use crate::gen::{Rng, Zipf};
use crate::metrics::{Metrics, PER_LAYER};
use crate::sizing::{client_threads, ORACLE_REL_TOL, SERVE_ZIPF as SZ};
use crate::span::{durations_s, Tracer};
use crate::stats::{median, summarize};
use lima_algos::runner::{run_script, run_script_with_cache};
use lima_algos::scripts::with_builtins;
use lima_client::proto::{Request, Response};
use lima_client::{ClientOptions, LimadClient, SubmitOptions};
use lima_core::lineage::serialize::serialize_lineage;
use lima_core::{LimaConfig, LimaStats, LineageCache};
use lima_lang::compile_script;
use lima_matrix::Value;
use limad::{LimadConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One script of the corpus with what the oracle says about it.
struct Script {
    src: String,
    /// `s` from an in-process `Base` run.
    expected_s: Value,
    /// Serialized lineage and `Base` value of the script's matrix result;
    /// `None` for scalar loops, which have none.
    key: Option<(String, Value)>,
}

/// Rank `r` always has the same shape (so every seed measures the same
/// work); the seed picks rand seeds and constants. Every script carries the
/// builtin function library, as the repo's pipelines do: a submit compiles
/// what a real script ships.
fn script_source(rank: usize, rng: &mut Rng) -> (String, Option<&'static str>) {
    let mut seed = || rng.next_u64() % 1_000_000;
    let (body, key_var) = match rank % 3 {
        0 => {
            let rows = SZ.solve_rows[(rank / 3) % SZ.solve_rows.len()];
            let cols = SZ.solve_cols;
            let (s1, s2) = (seed(), seed());
            let lambda = 0.001 + seed() as f64 / 1e7;
            (
                format!(
                    "X = rand(rows={rows}, cols={cols}, min=0, max=1, seed={s1});\n\
                     y = rand(rows={rows}, cols=1, min=0, max=1, seed={s2});\n\
                     G = t(X) %*% X;\n\
                     beta = lmDS(X, y, 0, {lambda});\n\
                     s = sum(beta);\n"
                ),
                Some("G"),
            )
        }
        1 => {
            let (rows, cols) = (SZ.ew_rows, SZ.ew_cols);
            let s1 = seed();
            let (c1, c2) = (1.0 + seed() as f64 / 1e6, 2.0 + seed() as f64 / 1e6);
            (
                format!(
                    "X = rand(rows={rows}, cols={cols}, min=0, max=1, seed={s1});\n\
                     A = (X + {c1}) * {c2};\n\
                     B = A / 3 - X;\n\
                     C = B * B + A;\n\
                     D = sqrt(abs(C)) + B;\n\
                     s = sum(D);\n"
                ),
                Some("D"),
            )
        }
        _ => {
            let a = 1.0 + seed() as f64 / 1e3;
            let iters = SZ.scalar_loop_iters;
            (
                format!(
                    "a = {a};\ns = 0;\nfor (i in 1:{iters}) {{\n  s = s + (a * i) / (i + 1);\n}}\n"
                ),
                None,
            )
        }
    };
    (with_builtins(&body), key_var)
}

fn build_corpus(seed: u64) -> Vec<Script> {
    let mut rng = Rng::new(seed);
    (0..SZ.corpus)
        .map(|rank| {
            let (src, key_var) = script_source(rank, &mut rng);
            let base = run_script(&src, &LimaConfig::base(), &[])
                .unwrap_or_else(|e| panic!("corpus script {rank}: {e}"));
            let key = key_var.map(|var| {
                let lt = run_script(&src, &LimaConfig::tracing_only(), &[])
                    .unwrap_or_else(|e| panic!("corpus script {rank}: {e}"));
                let root = lt.ctx.lineage.get(var).expect("key variable is traced");
                (serialize_lineage(root), base.value(var).clone())
            });
            Script {
                expected_s: base.value("s").clone(),
                src,
                key,
            }
        })
        .collect()
}

/// Rank whose lineage key a fetch or probe for `rank` asks for.
fn keyed(rank: usize) -> usize {
    if rank % 3 == 2 {
        rank - 1
    } else {
        rank
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Submit,
    Fetch,
    Probe,
}

/// The seeded op stream of one client thread. Set-up has submitted every
/// script once, so a fetch always asks for a key that was produced earlier.
struct OpStream {
    rng: Rng,
    zipf: Zipf,
}

impl OpStream {
    fn new(rng: Rng) -> Self {
        OpStream {
            rng,
            zipf: Zipf::new(SZ.corpus, SZ.zipf_exponent),
        }
    }

    fn next(&mut self) -> (Kind, usize) {
        let roll = (self.rng.unit() * 100.0) as u32;
        let rank = self.zipf.sample(&mut self.rng);
        if roll < SZ.mix.0 {
            (Kind::Submit, rank)
        } else if roll < SZ.mix.0 + SZ.mix.1 {
            (Kind::Fetch, keyed(rank))
        } else {
            (Kind::Probe, keyed(rank))
        }
    }
}

/// What the traced run keeps of one op for the codec and in-process replays.
struct Recorded {
    kind: Kind,
    rank: usize,
    tenant: String,
    latency_s: f64,
    response: Response,
}

impl Recorded {
    /// The frame the client sent for this op.
    fn request(&self, corpus: &[Script]) -> Request {
        let script = &corpus[self.rank];
        let tenant = self.tenant.clone();
        let lineage = || script.key.as_ref().expect("keyed rank").0.clone();
        let deadline_ms = ClientOptions::default().default_deadline.as_millis() as u64;
        match self.kind {
            Kind::Submit => Request::Submit {
                tenant,
                script: script.src.clone(),
                seed: None,
                outputs: vec!["s".to_string()],
                deadline_ms,
            },
            Kind::Fetch => Request::Fetch {
                tenant,
                lineage: lineage(),
                deadline_ms,
            },
            Kind::Probe => Request::Probe {
                tenant,
                lineage: lineage(),
                deadline_ms,
            },
        }
    }
}

struct Client {
    conns: Vec<(String, LimadClient)>,
    next: usize,
}

impl Client {
    /// Thread `t` of `threads` speaks for tenants `t, t + threads, ...`.
    fn new(addr: &str, thread: usize, threads: usize) -> Self {
        let conns = (thread..SZ.tenants.max(threads))
            .step_by(threads)
            .map(|t| {
                let tenant = format!("tenant-{}", t % SZ.tenants);
                let c = LimadClient::new(addr, &tenant, ClientOptions::default());
                (tenant, c)
            })
            .collect();
        Client { conns, next: 0 }
    }

    /// One op against the server as the next tenant in turn; `Ok` carries the
    /// tenant and what came back.
    fn call(
        &mut self,
        kind: Kind,
        script: &Script,
        tr: &mut Tracer,
    ) -> Result<(String, Response), String> {
        self.next = (self.next + 1) % self.conns.len();
        let (tenant, conn) = &mut self.conns[self.next];
        let lineage = || &script.key.as_ref().expect("keyed rank").0;
        let response = match kind {
            Kind::Submit => {
                let sub = SubmitOptions {
                    outputs: vec!["s".to_string()],
                    ..SubmitOptions::default()
                };
                let got = tr
                    .span("client.submit", |_| conn.submit(&script.src, &sub))
                    .map_err(|e| format!("submit: {e}"))?;
                Response::Submitted {
                    session: got.session,
                    values: got.values,
                    stdout: got.stdout,
                }
            }
            Kind::Fetch => Response::Fetched(
                tr.span("client.fetch", |_| conn.fetch(lineage()))
                    .map_err(|e| format!("fetch: {e}"))?,
            ),
            Kind::Probe => Response::Probed {
                hit: tr
                    .span("client.probe", |_| conn.probe(lineage()))
                    .map_err(|e| format!("probe: {e}"))?,
            },
        };
        Ok((tenant.clone(), response))
    }

    fn retries_failovers(&self) -> (u64, u64) {
        self.conns.iter().fold((0, 0), |(r, f), (_, c)| {
            let s = c.stats();
            (r + s.retries, f + s.failovers)
        })
    }
}

/// Does the response agree with the `Base` oracle? A fetch may miss (the
/// entry was evicted); a value that comes back must be the right one.
fn correct(script: &Script, response: &Response) -> bool {
    match response {
        Response::Submitted { values, .. } => values
            .iter()
            .any(|(n, v)| n == "s" && v.approx_eq(&script.expected_s, ORACLE_REL_TOL)),
        Response::Fetched(None) | Response::Probed { .. } => true,
        Response::Fetched(Some(v)) => {
            let (_, want) = script.key.as_ref().expect("keyed rank");
            v.approx_eq(want, ORACLE_REL_TOL)
        }
        _ => false,
    }
}

fn one_op(
    client: &mut Client,
    (kind, rank): (Kind, usize),
    corpus: &[Script],
    tr: &mut Tracer,
) -> Result<Recorded, String> {
    let script = &corpus[rank];
    let t = Instant::now();
    let (tenant, response) = client.call(kind, script, tr)?;
    let latency_s = t.elapsed().as_secs_f64();
    if tr.span("bench.oracle", |_| correct(script, &response)) {
        Ok(Recorded {
            kind,
            rank,
            tenant,
            latency_s,
            response,
        })
    } else {
        Err(format!(
            "{kind:?} of script {rank} disagrees with the oracle"
        ))
    }
}

fn server_config(dir: &Path) -> LimadConfig {
    LimadConfig {
        shards: SZ.shards,
        persist_root: Some(dir.to_path_buf()),
        template: LimaConfig {
            budget_bytes: SZ.shard_budget_bytes,
            ..LimaConfig::lima()
        },
        ..LimadConfig::default()
    }
}

struct State {
    corpus: Vec<Script>,
    /// `None` once `restart_check` has shut it down.
    server: Option<Server>,
    dir: PathBuf,
    start_ms: f64,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn dir_bytes(dir: &Path, only_ext: Option<&str>) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_bytes(&path, only_ext)
            } else if only_ext.is_none_or(|x| path.extension().is_some_and(|p| p == x)) {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// What one client thread brings back from the window.
struct ClientRun {
    window: Window,
    tracer: Tracer,
    /// The first `replay_ops` ops (traced run only).
    recorded: Vec<Recorded>,
    retries: u64,
    failovers: u64,
}

/// One closed-loop client: the next op goes out when the previous one has
/// come back. Runs until `--seconds` have passed and `min_ops` ops are done.
fn client_loop(
    mut client: Client,
    mut tr: Tracer,
    corpus: &[Script],
    args: &RunArgs,
    min_ops: usize,
    barrier: &Barrier,
) -> ClientRun {
    let mut stream = OpStream::new(Rng::new(args.seed).fork(0xB0 + u64::from(tr.tid)));
    let record_cap = if args.trace { SZ.replay_ops } else { 0 };
    let mut w = Window::default();
    let mut latencies = Vec::new();
    let mut recorded = Vec::new();
    barrier.wait();
    let start = Instant::now();
    tr.span("bench.window", |tr| {
        while start.elapsed().as_secs_f64() < args.seconds || (w.attempted as usize) < min_ops {
            tr.set_op(w.attempted);
            let done = tr.span("bench.op", |tr| {
                one_op(&mut client, stream.next(), corpus, tr)
            });
            w.attempted += 1;
            match done {
                Ok(rec) => {
                    latencies.push(rec.latency_s);
                    if recorded.len() < record_cap {
                        recorded.push(rec);
                    }
                }
                Err(msg) => {
                    eprintln!("serve_zipf: client {}: {msg}", tr.tid);
                    w.failed += 1;
                }
            }
        }
    });
    w.elapsed_s = start.elapsed().as_secs_f64();
    w.latencies_s = vec![latencies];
    let (retries, failovers) = client.retries_failovers();
    ClientRun {
        window: w,
        tracer: tr,
        recorded,
        retries,
        failovers,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let counts = args.op_counts(SZ.ops);
    let threads = client_threads();
    let epoch = Instant::now();
    let mut setups = 0;

    let (mut state, setup_s) = timed_setup(args, || {
        setups += 1;
        let corpus = build_corpus(args.seed);
        let dir = args
            .tmp_dir
            .join(format!("serve_zipf-{}-{setups}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let t = Instant::now();
        let server = Server::start(server_config(&dir)).expect("limad starts");
        let start_ms = t.elapsed().as_secs_f64() * 1e3;
        // Warm-up: every script once, so the window starts past the cold
        // misses and every lineage key has been produced.
        let mut client = Client::new(&server.addr().to_string(), 0, 1);
        let mut off = Tracer::new(false, epoch, 0);
        for rank in 0..counts.warmup_ops.min(corpus.len()) {
            let _ = one_op(&mut client, (Kind::Submit, rank), &corpus, &mut off);
        }
        State {
            corpus,
            server: Some(server),
            dir,
            start_ms,
        }
    });
    if args.corrupt_oracle {
        super::corrupt_value(&mut state.corpus[0].expected_s);
    }

    // The window: `threads` closed-loop clients, started together.
    let addr = state.server.as_ref().expect("running").addr().to_string();
    let barrier = Barrier::new(threads);
    let per_thread_min = counts.min_ops.div_ceil(threads);
    let results: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (addr, barrier, corpus) = (&addr, &barrier, &state.corpus);
                scope.spawn(move || {
                    let client = Client::new(addr, t, threads);
                    let tr = Tracer::new(args.trace, epoch, t as u32);
                    client_loop(client, tr, corpus, args, per_thread_min, barrier)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let mut window = Window::default();
    let mut tracers = Vec::new();
    let mut recorded = Vec::new();
    let (mut retries, mut failovers) = (0, 0);
    for run in results {
        window.elapsed_s = window.elapsed_s.max(run.window.elapsed_s);
        window.attempted += run.window.attempted;
        window.failed += run.window.failed;
        window.latencies_s.extend(run.window.latencies_s);
        tracers.push(run.tracer);
        if recorded.is_empty() {
            recorded = run.recorded;
        }
        retries += run.retries;
        failovers += run.failovers;
    }

    let mut layers = Metrics::new(PER_LAYER);
    let restart = restart_check(&mut state, args.seed, &mut layers);
    window.attempted += restart.0;
    window.failed += restart.1;

    if args.trace {
        layers.set("client.retries", retries as f64);
        layers.set("client.failovers", failovers as f64);
        layers.set("limad.start_ms", state.start_ms);
        for (kind, metric) in [
            ("client.submit", "client.submit_p50_us"),
            ("client.fetch", "client.fetch_p50_us"),
            ("client.probe", "client.probe_p50_us"),
        ] {
            layers.set(metric, median(&durations_s(&tracers, kind)) * 1e6);
        }
        if let Some(p99) = summarize(&window.latencies_s).p99 {
            layers.set("client.op_p99_ms", p99 * 1e3);
        }
        replays(&mut layers, &state.corpus, &recorded);
    }
    Outcome {
        setup_s,
        window,
        layers,
        tracers,
    }
}

/// After the window: read the server's counters, sample resident keys, shut
/// down, restart on the same directory, and fetch the sample again. Returns
/// `(checked, failed)`: a sampled key that comes back with other bytes after
/// the restart is a failure.
fn restart_check(state: &mut State, seed: u64, layers: &mut Metrics) -> (u64, u64) {
    let server = state.server.take().expect("running");
    let addr = server.addr().to_string();
    let mut client = LimadClient::new(&addr, "tenant-0", ClientOptions::default());
    let mut ranks: Vec<usize> = (0..SZ.corpus).filter(|&r| keyed(r) == r).collect();
    Rng::new(seed).fork(0xC).shuffle(&mut ranks);
    let mut sample: Vec<(&str, Value)> = Vec::new();
    for r in ranks {
        let (lineage, _) = state.corpus[r].key.as_ref().expect("keyed rank");
        if let Ok(Some(v)) = client.fetch(lineage) {
            sample.push((lineage, v));
            if sample.len() == SZ.restart_sample {
                break;
            }
        }
    }
    drop(client);

    let mut per_shard_sessions = Vec::new();
    let mut resident = 0u64;
    for shard in server.shards().iter() {
        add_counters(layers, &shard.stats().snapshot());
        per_shard_sessions.push(LimaStats::get(&shard.stats().sessions_started) as f64);
        resident += shard.cache().map_or(0, |c| c.resident_bytes() as u64);
    }
    add_counters(layers, &server.server_stats().snapshot());
    set_hit_ratio(layers);
    let mean = per_shard_sessions.iter().sum::<f64>() / per_shard_sessions.len() as f64;
    let max = per_shard_sessions.iter().copied().fold(0.0, f64::max);
    layers.set("limad.shard_imbalance", max / mean.max(1.0));
    layers.set("cache.resident_mb", resident as f64 / 1e6);

    server.shutdown();
    // Connection threads notice the shutdown on their next poll tick.
    std::thread::sleep(Duration::from_millis(60));
    layers.set(
        "persist.wal_bytes",
        dir_bytes(&state.dir, Some("wal")) as f64,
    );
    layers.set(
        "persist.disk_bytes_per_value_byte",
        dir_bytes(&state.dir, None) as f64 / resident.max(1) as f64,
    );

    let t = Instant::now();
    let restarted =
        Server::start(server_config(&state.dir)).expect("limad restarts on its directory");
    layers.set("persist.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    let addr = restarted.addr().to_string();
    let mut client = LimadClient::new(&addr, "tenant-0", ClientOptions::default());
    let (mut hits, mut failed) = (0u64, 0u64);
    let mut first_hit_s = None;
    for (lineage, before) in &sample {
        match client.fetch(lineage) {
            // Recovery may keep less than was resident (it re-applies the
            // budget); what it does serve must be the same bytes.
            Ok(None) => {}
            Ok(Some(after)) if after.approx_eq(before, 0.0) => {
                hits += 1;
                first_hit_s.get_or_insert(t.elapsed().as_secs_f64());
            }
            Ok(Some(_)) => {
                eprintln!("serve_zipf: post-restart fetch returned other bytes");
                failed += 1;
            }
            Err(e) => {
                eprintln!("serve_zipf: post-restart fetch: {e}");
                failed += 1;
            }
        }
    }
    layers.set(
        "persist.restart_hit_share",
        hits as f64 / sample.len().max(1) as f64,
    );
    layers.set("persist.recovery_s", first_hit_s.unwrap_or(0.0));
    for shard in restarted.shards().iter() {
        let stats = shard.stats();
        layers.add(
            "persist.recovered",
            LimaStats::get(&stats.persist_recovered) as f64,
        );
        layers.add(
            "persist.dropped",
            LimaStats::get(&stats.persist_dropped) as f64,
        );
    }
    drop(client);
    restarted.shutdown();
    std::thread::sleep(Duration::from_millis(60));
    (sample.len() as u64, failed)
}

/// Traced run only: the recorded ops of one client replayed outside the
/// service: through the wire codec, through `compile_script`, and through an
/// in-process session-less `LIMA` run sharing one cache.
fn replays(layers: &mut Metrics, corpus: &[Script], recorded: &[Recorded]) {
    if recorded.is_empty() {
        return;
    }
    let (mut enc_ns, mut dec_ns, mut req_bytes, mut resp_bytes) = (0u128, 0u128, 0usize, 0usize);
    for rec in recorded {
        let request = rec.request(corpus);
        let t = Instant::now();
        let (_, payload) = std::hint::black_box(request.encode());
        enc_ns += t.elapsed().as_nanos();
        req_bytes += payload.len();
        let (kind, payload) = rec.response.encode();
        let t = Instant::now();
        std::hint::black_box(Response::decode(kind, &payload))
            .expect("an encoded response decodes");
        dec_ns += t.elapsed().as_nanos();
        resp_bytes += payload.len();
    }
    let n = recorded.len() as f64;
    layers.set("client.encode_ns_per_req", enc_ns as f64 / n);
    layers.set("client.decode_ns_per_resp", dec_ns as f64 / n);
    layers.set("client.bytes_per_req", req_bytes as f64 / n);
    layers.set("client.bytes_per_resp", resp_bytes as f64 / n);

    let cfg = server_config(Path::new("")).template;
    let cache = LineageCache::new(cfg.clone());
    let (mut compile_s, mut local_s, mut served_s) = (vec![], vec![], vec![]);
    for rec in recorded.iter().filter(|r| r.kind == Kind::Submit) {
        let src = &corpus[rec.rank].src;
        let t = Instant::now();
        std::hint::black_box(compile_script(src, &cfg)).expect("corpus scripts compile");
        compile_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        run_script_with_cache(src, &cfg, &[], Some(cache.clone())).expect("corpus scripts run");
        local_s.push(t.elapsed().as_secs_f64());
        served_s.push(rec.latency_s);
    }
    layers.set("lang.compile_ms_p50", median(&compile_s) * 1e3);
    layers.set(
        "lang.compile_share",
        compile_s.iter().sum::<f64>() / served_s.iter().sum::<f64>(),
    );
    layers.set(
        "limad.service_overhead_us_p50",
        (median(&served_s) - median(&local_s)) * 1e6,
    );
    layers.set("runtime.execute_ms_p50", median(&local_s) * 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(seed: u64) -> Vec<String> {
        let mut rng = Rng::new(seed);
        (0..12)
            .map(|rank| script_source(rank, &mut rng).0)
            .collect()
    }

    fn ops(seed: u64) -> Vec<(Kind, usize)> {
        let mut stream = OpStream::new(Rng::new(seed));
        (0..500).map(|_| stream.next()).collect()
    }

    #[test]
    fn same_seed_same_corpus_and_ops_other_seed_other() {
        assert_eq!(sources(5), sources(5));
        assert_ne!(sources(5), sources(6));
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
    }

    #[test]
    fn op_mix_and_key_targets() {
        let ops = ops(9);
        let share = |k: Kind| ops.iter().filter(|(kind, _)| *kind == k).count() as f64 / 500.0;
        assert!((0.62..0.78).contains(&share(Kind::Submit)));
        assert!((0.13..0.27).contains(&share(Kind::Fetch)));
        // Fetches and probes only ever ask for ranks that have a matrix key.
        assert!(ops
            .iter()
            .all(|&(kind, rank)| kind == Kind::Submit || rank % 3 != 2));
    }
}
