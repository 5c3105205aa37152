//! End-to-end service tests: wire round-trips, cross-tenant reuse, typed
//! interrupt errors, malformed-frame isolation, quotas, shedding, metrics.

use common::{client, lineage_of, outputs, run_locally, GRAM_SCRIPT, GRAM_SUM};
use lima_client::proto::{
    read_frame, write_frame, ErrorCode, Request, Response, MAGIC, MAX_FRAME_BYTES,
};
use lima_client::{ClientOptions, LimadClient, SubmitOptions};
use lima_core::resilience::RetryPolicy;
use lima_core::{LimaConfig, LimaStats, PressureLevel};
use lima_matrix::Value;
use limad::{LimadConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;

fn start(cfg: LimadConfig) -> Server {
    Server::start(cfg).expect("server starts on loopback")
}

#[test]
fn submit_returns_baseline_equal_values() {
    let server = start(LimadConfig::default());
    let mut c = client(&server, "alice");
    let done = c.submit(GRAM_SCRIPT, &outputs(&["s", "G"])).unwrap();
    assert_eq!(done.value("s"), Some(&Value::f64(GRAM_SUM)));
    let g = done.value("G").unwrap().as_matrix().unwrap();
    assert_eq!((g.rows(), g.cols()), (5, 5));
    assert!(g.data().iter().all(|&v| v == 900.0));
}

#[test]
fn lineage_probe_and_fetch_hit_after_submit() {
    let server = start(LimadConfig::default());
    let mut c = client(&server, "alice");
    c.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();

    // Recover the lineage trace of G by tracing the same script locally —
    // identical script ⇒ identical lineage hash ⇒ same shard and cache key.
    let lineage = lineage_of(GRAM_SCRIPT, "G");

    assert!(c.probe(&lineage).unwrap(), "gram matrix should be cached");
    let fetched = c.fetch(&lineage).unwrap().expect("fetch follows probe");
    let g = fetched.as_matrix().unwrap();
    assert!(g.data().iter().all(|&v| v == 900.0));

    // A tenant that never submitted sees the same shard (lineage routing is
    // tenant-blind): cross-tenant reuse by construction.
    let mut other = client(&server, "bob");
    assert!(other.probe(&lineage).unwrap());

    // An unrelated lineage trace misses without error.
    let missing = lineage_of("Y = matrix(4, 7, 7);\nh = sum(Y %*% Y);\n", "Y");
    assert!(!c.probe(&missing).unwrap());
}

/// `b` hits `a`, so the shard's cache has a recurrence estimate; 200 free
/// first sightings then bring it down to 1 key in 200, and `K`, a 4x4
/// multiply computed in microseconds, no longer pays for its booking.
const REFUSED_SCRIPT: &str = "X = matrix(3, 4, 4);\na = X + 1;\nb = X + 1;\n\
                              for (i in 1:200) {\n  t = X + i;\n}\nK = X * 7;\n";

#[test]
fn a_key_admission_refused_answers_found_false_until_it_is_seen_again() {
    let server = start(LimadConfig {
        shards: 1,
        ..LimadConfig::default()
    });
    let mut c = client(&server, "alice");
    let base = run_locally(REFUSED_SCRIPT, LimaConfig::base()).symtab["K"].clone();
    let first = c.submit(REFUSED_SCRIPT, &outputs(&["K"])).unwrap();
    assert_eq!(first.value("K"), Some(&base));
    let lineage = lineage_of(REFUSED_SCRIPT, "K");

    let shards = server.shards().iter();
    let refused: u64 = shards
        .map(|s| LimaStats::get(&s.stats().rejected_puts))
        .sum();
    assert!(refused > 0);
    // Never booked: a miss on the wire, not an error.
    assert!(!c.probe(&lineage).unwrap());
    assert_eq!(c.fetch(&lineage).unwrap(), None);
    // The second run probes K's shell and books it.
    c.submit(REFUSED_SCRIPT, &outputs(&["K"])).unwrap();
    assert!(c.probe(&lineage).unwrap());
    let fetched = c
        .fetch(&lineage)
        .unwrap()
        .expect("booked on its second sighting");
    let (got, want) = (fetched.as_matrix().unwrap(), base.as_matrix().unwrap());
    assert_eq!(got.data(), want.data(), "bit-equal to Base");
}

#[test]
fn identical_scripts_reuse_across_tenants() {
    let server = start(LimadConfig::default());
    let mut alice = client(&server, "alice");
    let mut bob = client(&server, "bob");
    let a = alice.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();
    let b = bob.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();
    assert_eq!(a.value("s"), b.value("s"));

    let hits: u64 = server.shards().iter().map(|s| s.stats().total_hits()).sum();
    assert!(hits >= 1, "second tenant's run should hit the shared cache");
}

/// `f` scripts that differ only in `f`'s body: one shard's cache must not
/// serve one tenant's call result to the other.
fn f_script(body: &str) -> String {
    format!(
        "f = function(X) return (Y) {{ {body} }}\n\
         s = sum(f(rand(rows=20, cols=20, seed=7)));\n"
    )
}

#[test]
fn tenants_defining_one_function_name_differently_get_their_own_values() {
    let server = start(LimadConfig {
        shards: 1,
        ..LimadConfig::default()
    });
    for (tenant, body) in [("alice", "Y = X + 1;"), ("bob", "Y = X * 2;")] {
        let script = f_script(body);
        let base = run_locally(&script, LimaConfig::base()).symtab["s"].clone();
        let done = client(&server, tenant)
            .submit(&script, &outputs(&["s"]))
            .unwrap();
        assert_eq!(done.value("s"), Some(&base), "{tenant}: Base's value");
    }
}

#[test]
fn a_resubmitted_script_reads_its_loop_index_after_the_loop() {
    let server = start(LimadConfig {
        shards: 1,
        ..LimadConfig::default()
    });
    let script = "X = rand(rows=5, cols=5, seed=7);\nY = X;\n\
                  for (i in 1:4) {\n  Y = Y + 1;\n}\ns = sum(Y) + i;\n";
    let base = run_locally(script, LimaConfig::base()).symtab["s"].clone();
    let mut c = client(&server, "alice");
    for run in 0..2 {
        let done = c.submit(script, &outputs(&["s"])).unwrap();
        assert_eq!(done.value("s"), Some(&base), "submit {run}");
    }
}

/// A script that runs long enough to interrupt but checks its deadline and
/// token cooperatively at every instruction boundary.
fn slow_script() -> String {
    // `(X + i)` varies the matmul per iteration, so the cache cannot turn
    // this loop into instant hits; and since nothing recurs, admission soon
    // stops booking its values, so the loop is long enough for every caller
    // to cut it short even in a release build.
    "X = matrix(2, 80, 80);\nacc = 0;\nfor (i in 1:20000) {\n  Y = (X + i) %*% X;\n  acc = acc + sum(Y) + i;\n}\ns = acc;\n".to_string()
}

#[test]
fn deadlines_propagate_and_return_typed_errors() {
    let server = start(LimadConfig::default());
    let mut c = client(&server, "alice");
    let t0 = Instant::now();
    let err = c
        .submit(
            &slow_script(),
            &SubmitOptions {
                outputs: vec!["s".into()],
                deadline: Some(Duration::from_millis(300)),
                ..SubmitOptions::default()
            },
        )
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DeadlineExceeded), "got {err}");
    assert_eq!(err.exit_code(), 4);
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "deadline failure must be prompt, took {:?}",
        t0.elapsed()
    );
}

#[test]
fn cancel_interrupts_a_running_session() {
    let server = start(LimadConfig::default());
    let addr = server.addr().to_string();
    // Session ids are assigned from 1; the only submit in this server gets 1.
    let submitter = std::thread::spawn(move || {
        let mut c = LimadClient::new(&addr, "alice", ClientOptions::default());
        c.submit(&slow_script(), &outputs(&["s"]))
    });
    std::thread::sleep(Duration::from_millis(300));
    let mut killer = client(&server, "ops");
    assert!(killer.cancel(1).unwrap(), "session 1 should be running");
    let err = submitter.join().unwrap().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Cancelled), "got {err}");
    assert_eq!(err.exit_code(), 5);
    // Cancelling a finished/unknown session reports found=false, no error.
    assert!(!killer.cancel(1).unwrap());
    assert!(!killer.cancel(999).unwrap());
}

/// One request and its response over an already open socket.
fn roundtrip(stream: &mut TcpStream, id: u64, req: &Request) -> Response {
    let (kind, payload) = req.encode();
    write_frame(stream, kind, id, &payload).unwrap();
    let (kind, got, payload) = read_frame(stream).unwrap();
    assert_eq!(got, id, "response answers another request");
    Response::decode(kind, &payload).expect("decodable response")
}

fn submit_request(tenant: &str, script: &str) -> Request {
    Request::Submit {
        tenant: tenant.into(),
        script: script.into(),
        seed: None,
        outputs: vec!["s".into()],
        deadline_ms: 0,
    }
}

/// Sessions run on the connection's own thread, so a panic inside one must
/// stop at the pool: typed answer, the same socket serves on, and nothing
/// the submit held (quota slot, cancel-registry entry) stays behind.
#[test]
fn a_panicking_session_answers_typed_and_its_connection_serves_on() {
    let server = start(LimadConfig {
        tenant_max_sessions: 1,
        ..LimadConfig::default()
    });
    for shard in server.shards().iter() {
        let cache = shard.cache().expect("LIMA template has a cache");
        cache.set_put_watcher(Some(Arc::new(|_, _, _| panic!("watcher boom"))));
    }
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    match roundtrip(&mut stream, 1, &submit_request("alice", GRAM_SCRIPT)) {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Runtime, "got {e:?}");
            assert!(e.msg.contains("watcher boom"), "got {e:?}");
        }
        other => panic!("a panicking session must answer a typed error, got {other:?}"),
    }

    for shard in server.shards().iter() {
        shard.cache().unwrap().set_put_watcher(None);
    }
    // Same socket, same tenant at a quota of one: the slot came back.
    match roundtrip(&mut stream, 2, &submit_request("alice", GRAM_SCRIPT)) {
        Response::Submitted { values, .. } => {
            assert_eq!(values, vec![("s".to_string(), Value::f64(GRAM_SUM))]);
        }
        other => panic!("the connection must serve on, got {other:?}"),
    }
    // Session ids count from 1: the panicked session is no longer registered.
    match roundtrip(&mut stream, 3, &Request::Cancel { session: 1 }) {
        Response::Cancelled { found } => assert!(!found, "registry entry leaked"),
        other => panic!("got {other:?}"),
    }
    let started: u64 = server
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().sessions_started))
        .sum();
    assert_eq!(started, 2);
}

#[test]
fn shutdown_cancels_a_session_running_on_its_connection_thread() {
    let server = start(LimadConfig::default());
    let addr = server.addr().to_string();
    let shards: Vec<_> = server.shards().iter().cloned().collect();
    let submitter = std::thread::spawn(move || {
        let mut c = LimadClient::new(&addr, "alice", ClientOptions::default());
        c.submit(&slow_script(), &outputs(&["s"]))
    });
    let started = || -> u64 {
        shards
            .iter()
            .map(|s| LimaStats::get(&s.stats().sessions_started))
            .sum()
    };
    while started() == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let t0 = Instant::now();
    server.shutdown();
    let err = submitter.join().unwrap().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Cancelled), "got {err}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "shutdown waited out the session instead of cancelling it"
    );
    let cancelled: u64 = shards
        .iter()
        .map(|s| LimaStats::get(&s.stats().sessions_cancelled))
        .sum();
    assert_eq!(cancelled, 1);
}

/// Every completing script this file submits, plus one that ships a
/// function library and prints: the second and third submit of each run a
/// program from the cache and must answer the very bytes the first, freshly
/// compiled one did.
#[test]
fn cached_programs_answer_the_same_bytes_as_fresh_compiles() {
    let corpus = [
        (GRAM_SCRIPT.to_string(), vec!["s", "G"]),
        (
            "Y = matrix(4, 7, 7);\nh = sum(Y %*% Y);\n".to_string(),
            vec!["h", "Y"],
        ),
        ("s = 1;".to_string(), vec!["s"]),
        (
            // Ships two functions and calls one: the cached program is pruned.
            "fit = function(X, y, reg) return (B) {\n\
               B = solve(t(X) %*% X + diag(matrix(reg, ncol(X), 1)), t(X) %*% y);\n\
             }\n\
             unused = function(X) return (r) { r = fit(X, X[, 1], 1); }\n\
             X = rand(rows=60, cols=6, min=0, max=1, seed=11);\n\
             y = rand(rows=60, cols=1, min=0, max=1, seed=12);\n\
             beta = fit(X, y, 0.01);\ns = sum(beta);\nprint(\"s=\" + s);\n"
                .to_string(),
            vec!["s", "beta"],
        ),
    ];
    let server = start(LimadConfig::default());
    let bytes = |done: &lima_client::Submitted| -> Vec<Vec<u8>> {
        done.values
            .iter()
            .map(|(_, v)| lima_matrix::codec::encode_file(v).expect("wire-transportable"))
            .collect()
    };
    for (script, outs) in &corpus {
        let fresh = client(&server, "alice")
            .submit(script, &outputs(outs))
            .unwrap();
        for tenant in ["alice", "bob"] {
            let cached = client(&server, tenant)
                .submit(script, &outputs(outs))
                .unwrap();
            assert_eq!(bytes(&cached), bytes(&fresh), "values of {script}");
            assert_eq!(cached.stdout, fresh.stdout, "stdout of {script}");
        }
    }
    let count = |f: fn(&LimaStats) -> &std::sync::atomic::AtomicU64| -> u64 {
        server
            .shards()
            .iter()
            .map(|s| LimaStats::get(f(&s.stats())))
            .sum()
    };
    assert_eq!(count(|s| &s.program_cache_misses), corpus.len() as u64);
    assert_eq!(count(|s| &s.program_cache_hits), 2 * corpus.len() as u64);
    assert_eq!(count(|s| &s.program_cache_evictions), 0);
}

#[test]
fn malformed_frames_isolate_to_their_connection() {
    let server = start(LimadConfig::default());

    // Garbage bytes: the server answers nothing useful to this socket but
    // must keep serving fresh connections.
    let mut garbage = TcpStream::connect(server.addr()).unwrap();
    garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut sink = Vec::new();
    let _ = garbage.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = garbage.read_to_end(&mut sink); // server closes after typed error

    // Oversized frame: a bare 17-byte header whose length is one byte over
    // the cap, and no payload. The server must refuse it on the header
    // alone, within the read timeout, not wait for a body that never comes.
    let mut oversized = TcpStream::connect(server.addr()).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC.to_be_bytes());
    header.push(6);
    header.extend_from_slice(&1u64.to_be_bytes());
    header.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
    assert_eq!(header.len(), 17);
    oversized.write_all(&header).unwrap();
    let _ = oversized.set_read_timeout(Some(Duration::from_secs(2)));
    let (kind, _, payload) = read_frame(&mut oversized).expect("an answer within 2 s");
    let Some(Response::Error(e)) = Response::decode(kind, &payload) else {
        panic!("the oversized header was not answered with a typed error");
    };
    assert_eq!(e.code, ErrorCode::BadRequest, "got {}", e.msg);
    assert!(e.msg.contains("exceeds cap"), "got {}", e.msg);

    // Torn frame: half a header, then hangup.
    let mut torn = TcpStream::connect(server.addr()).unwrap();
    torn.write_all(&[0x4C, 0x4D, 0x44]).unwrap();
    drop(torn);

    // The shards never saw any of it, and the server still serves.
    let mut c = client(&server, "alice");
    c.ping().unwrap();
    let done = c.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();
    assert_eq!(done.value("s"), Some(&Value::f64(GRAM_SUM)));
    assert!(
        LimaStats::get(&server.server_stats().srv_malformed) >= 2,
        "garbage and oversized frames must be counted"
    );
}

#[test]
fn tenant_quotas_bound_concurrent_submits() {
    let server = start(LimadConfig {
        tenant_max_sessions: 1,
        ..LimadConfig::default()
    });
    let addr = server.addr().to_string();
    let hog = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = LimadClient::new(&addr, "alice", ClientOptions::default());
            c.submit(
                &slow_script(),
                &SubmitOptions {
                    outputs: vec!["s".into()],
                    deadline: Some(Duration::from_millis(1500)),
                    ..SubmitOptions::default()
                },
            )
        }
    });
    std::thread::sleep(Duration::from_millis(300));

    // Same tenant, second concurrent submit: quota reject with its own code
    // (distinct from Overloaded — this is the tenant's fault, not load).
    let mut alice2 = client(&server, "alice");
    let err = alice2.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::ResourceExhausted), "got {err}");
    assert_eq!(err.exit_code(), 6);

    // A different tenant is not affected.
    let mut bob = client(&server, "bob");
    assert!(bob.submit(GRAM_SCRIPT, &outputs(&["s"])).is_ok());

    let _ = hog.join().unwrap(); // deadline ends the hog either way
    assert!(LimaStats::get(&server.server_stats().srv_quota_rejects) >= 1);

    // Quota slot released: alice can submit again.
    let done = alice2.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();
    assert_eq!(done.value("s"), Some(&Value::f64(GRAM_SUM)));
}

#[test]
fn overload_sheds_with_retry_after_and_recovers() {
    let server = start(LimadConfig {
        template: LimaConfig::lima().with_governor(1024 * 1024),
        ..LimadConfig::default()
    });
    // Push every shard's governor to L4.
    for shard in server.shards().iter() {
        let g = shard.governor().expect("governor configured");
        g.adjust_session_bytes(2 * 1024 * 1024);
        assert_eq!(g.level(), PressureLevel::RejectSessions);
    }

    // A non-retrying client sees the typed Overloaded error immediately.
    let mut blunt = LimadClient::new(
        &server.addr().to_string(),
        "alice",
        ClientOptions {
            retry: RetryPolicy::new(0, 1, 7),
            ..ClientOptions::default()
        },
    );
    let err = blunt.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap_err();
    match err.code() {
        Some(ErrorCode::Overloaded) => {}
        other => panic!("expected Overloaded, got {other:?}: {err}"),
    }
    assert_eq!(err.exit_code(), 7);
    assert!(LimaStats::get(&server.server_stats().srv_sheds) >= 1);

    // A retrying client rides out the pressure spike: release the governors
    // shortly after the first attempt and the retry succeeds.
    let releaser = std::thread::spawn({
        let shards: Vec<_> = server
            .shards()
            .iter()
            .filter_map(|s| s.governor())
            .collect();
        move || {
            std::thread::sleep(Duration::from_millis(150));
            for g in &shards {
                g.adjust_session_bytes(-(2 * 1024 * 1024));
            }
        }
    });
    let mut patient = LimadClient::new(
        &server.addr().to_string(),
        "alice",
        ClientOptions {
            retry: RetryPolicy::new(6, 100, 7),
            ..ClientOptions::default()
        },
    );
    let done = patient.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();
    assert_eq!(done.value("s"), Some(&Value::f64(GRAM_SUM)));
    releaser.join().unwrap();

    // The walk back down is observable.
    let recovers: u64 = server
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().governor_recovers))
        .sum();
    assert!(recovers >= 1, "governor recovery must be counted");
}

#[test]
fn metrics_served_over_wire_and_http() {
    let server = start(LimadConfig::default());
    let mut c = client(&server, "alice");
    c.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();

    let text = c.metrics().unwrap();
    assert!(text.contains("lima_srv_requests"), "wire metrics:\n{text}");
    assert!(text.contains("limad_shard_state{shard=\"0\"}"));
    assert!(text.contains("lima_sessions_completed"));
    // One submit so far: one compile, and its program is retained.
    assert!(text.contains("lima_program_cache_misses 1\n"), "{text}");
    let (shard, _) = server.shards().route_script(GRAM_SCRIPT);
    let i = shard.index();
    for line in [
        format!("limad_shard_program_cache_hits{{shard=\"{i}\"}} 0\n"),
        format!("limad_shard_program_cache_misses{{shard=\"{i}\"}} 1\n"),
        format!("limad_shard_program_cache_evictions{{shard=\"{i}\"}} 0\n"),
        format!(
            "limad_shard_program_cache_instructions{{shard=\"{i}\"}} {}\n",
            shard.program_cache_weight()
        ),
    ] {
        assert!(text.contains(&line), "missing {line:?} in\n{text}");
    }
    assert!(shard.program_cache_weight() > 0);

    // The same text over plain HTTP/1.0.
    let mut http = TcpStream::connect(server.metrics_addr()).unwrap();
    http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.0 200 OK"), "got: {body}");
    assert!(body.contains("lima_srv_requests"));
    assert!(body.contains("limad_shard_state"));

    // Unknown paths 404 without disturbing the server.
    let mut http = TcpStream::connect(server.metrics_addr()).unwrap();
    http.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.0 404"));
    c.ping().unwrap();
}

#[test]
fn compile_and_runtime_failures_are_typed_not_fatal() {
    let server = start(LimadConfig::default());
    let mut c = client(&server, "alice");

    let err = c
        .submit("this is not DML at all ((", &outputs(&["s"]))
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Compile), "got {err}");

    let err = c
        .submit("s = sum(undefined_var);", &outputs(&["s"]))
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Runtime), "got {err}");

    let err = c
        .submit("s = 1;", &outputs(&["not_an_output"]))
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Runtime), "got {err}");

    // The connection and the server both survive all three.
    let done = c.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();
    assert_eq!(done.value("s"), Some(&Value::f64(GRAM_SUM)));
}

#[test]
fn compile_errors_carry_structured_diagnostics_over_the_wire() {
    let server = start(LimadConfig::default());
    let mut c = client(&server, "alice");

    // Every parfor iteration writes R[1, 1]: a loop-invariant index race.
    let script = "R = matrix(0, 1, 1);\nparfor (i in 1:4) {\n  R[1, 1] = as.matrix(i);\n}\n";
    let err = c.submit(script, &outputs(&["R"])).unwrap_err();
    let lima_client::ClientError::Service(service) = err else {
        panic!("expected a typed service error, got {err:?}");
    };
    assert_eq!(service.code, ErrorCode::Compile);
    assert_eq!(
        service.diagnostics.len(),
        1,
        "got {:?}",
        service.diagnostics
    );
    let diag = &service.diagnostics[0];
    assert_eq!(diag.code, "L0100");
    assert_eq!(diag.severity, lima_core::Severity::Error);
    let span = diag
        .primary
        .expect("parfor dependence diagnostic has a span");
    assert!(span.in_bounds(script.len()), "span {span:?} out of bounds");
    assert_eq!(
        &script[span.start as usize..span.end as usize],
        "R[1, 1] = as.matrix(i)"
    );
    assert!(diag.help.is_some(), "diagnostic should carry help text");
}

#[test]
fn a_deeply_nested_submit_is_a_compile_error_not_an_abort() {
    let server = start(LimadConfig::default());
    let mut mallory = client(&server, "mallory");
    let script = format!("s = {}1{};", "(".repeat(1000), ")".repeat(1000));
    let err = mallory.submit(&script, &outputs(&["s"])).unwrap_err();
    let lima_client::ClientError::Service(service) = err else {
        panic!("expected a typed service error, got {err:?}");
    };
    assert_eq!(service.code, ErrorCode::Compile);
    assert_eq!(service.diagnostics[0].code, "L0004");
    // The server lives on: another tenant's submit succeeds.
    let done = client(&server, "alice")
        .submit(GRAM_SCRIPT, &outputs(&["s"]))
        .unwrap();
    assert_eq!(done.value("s"), Some(&Value::f64(GRAM_SUM)));
}

#[test]
fn a_long_flat_chain_submit_is_a_compile_error_not_an_abort() {
    let server = start(LimadConfig::default());
    let mut mallory = client(&server, "mallory");
    let script = format!("s = 1{};", " + 1".repeat(20_000));
    let err = mallory.submit(&script, &outputs(&["s"])).unwrap_err();
    let lima_client::ClientError::Service(service) = err else {
        panic!("expected a typed service error, got {err:?}");
    };
    assert_eq!(service.code, ErrorCode::Compile);
    assert_eq!(service.diagnostics[0].code, "L0005");
    let done = client(&server, "alice")
        .submit(GRAM_SCRIPT, &outputs(&["s"]))
        .unwrap();
    assert_eq!(done.value("s"), Some(&Value::f64(GRAM_SUM)));
}

#[test]
fn unparseable_lineage_is_bad_request() {
    let server = start(LimadConfig::default());
    let mut c = client(&server, "alice");
    let err = c.probe("this is not a lineage log").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadRequest), "got {err}");
    // BadRequest closes the connection; the client reconnects transparently
    // for the next idempotent call.
    c.ping().unwrap();
}

#[test]
fn scrub_wire_op_heals_at_rest_corruption() {
    let dir = common::scratch_dir("scrub-wire");
    // Multi-level reuse off so every persisted lineage is primitive and
    // therefore repairable; background scrubbing off so the wire op's
    // counters are deterministic.
    let mut template = LimaConfig::lima();
    template.multilevel = false;
    let server = start(LimadConfig {
        persist_root: Some(dir.clone()),
        scrub_interval_ms: 0,
        template,
        ..LimadConfig::default()
    });
    let mut c = client(&server, "alice");
    let done = c.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();
    assert_eq!(done.value("s").unwrap().as_f64().unwrap(), GRAM_SUM);

    // Damage the committed value files and every shard's newest WAL: each
    // live record is resident, so a bad WAL frame heals by compacting into a
    // fresh generation.
    let flipped = common::flip_values(&dir);
    assert!(flipped >= 1, "submit persisted nothing");
    let flipped_wals = common::flip_newest_wals(&dir);
    assert!(flipped_wals >= 1, "no manifest WAL to corrupt");

    let reports = c.scrub().unwrap();
    assert_eq!(reports.len(), server.shards().len());
    assert!(reports.iter().all(|r| r.completed));
    let sum = |f: fn(&lima_client::proto::ShardScrub) -> u64| reports.iter().map(f).sum::<u64>();
    let corrupt = sum(|r| r.corrupt);
    assert!(corrupt >= (flipped + flipped_wals) as u64, "{reports:?}");
    assert!(
        sum(|r| r.repaired) >= corrupt,
        "healed, not dropped: {reports:?}"
    );
    assert_eq!(sum(|r| r.repair_failures), 0, "{reports:?}");
    assert_eq!(sum(|r| r.quarantined), 0, "{reports:?}");

    // The healed cache still serves the baseline value, and the repair is
    // visible in the exposition.
    let done = c.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();
    assert_eq!(done.value("s").unwrap().as_f64().unwrap(), GRAM_SUM);
    let text = c.metrics().unwrap();
    assert!(text.contains("limad_scrub_repairs"), "metrics:\n{text}");
    let repairs: u64 = server
        .shards()
        .iter()
        .map(|s| LimaStats::get(&s.stats().persist_repairs))
        .sum();
    assert!(
        repairs >= flipped as u64,
        "{repairs} repairs for {flipped} flipped values"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_wire_op_is_a_noop_for_memory_only_servers() {
    let server = start(LimadConfig::default());
    let mut c = client(&server, "alice");
    c.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();
    let reports = c.scrub().unwrap();
    assert_eq!(reports.len(), server.shards().len());
    assert_eq!(reports.iter().map(|r| r.entries).sum::<u64>(), 0);
    assert_eq!(reports.iter().map(|r| r.corrupt).sum::<u64>(), 0);
}

#[test]
fn background_scrubber_makes_progress_and_exports_gauges() {
    let dir = common::scratch_dir("scrub-bg");
    let server = start(LimadConfig {
        persist_root: Some(dir.clone()),
        scrub_interval_ms: 10,
        scrub_chunk_bytes: 0, // unbounded: each tick is a full pass
        ..LimadConfig::default()
    });
    let mut c = client(&server, "alice");
    c.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let passes: u64 = server
            .shards()
            .iter()
            .map(|s| LimaStats::get(&s.stats().scrub_passes))
            .sum();
        if passes >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "background scrubber completed no pass in 10s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let text = c.metrics().unwrap();
    assert!(text.contains("limad_scrub_passes"), "metrics:\n{text}");
    assert!(text.contains("limad_scrub_bytes"), "metrics:\n{text}");

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
