//! Replication integration tests: write forwarding, anti-entropy repair,
//! hostile `K_REPL_*` input isolation, and hot-path non-blocking guarantees.

use common::{client, lineage_of, outputs, wait_until, GRAM_SCRIPT, GRAM_SUM};
use lima_client::proto::{
    fnv1a, read_frame, write_frame, ErrorCode, ReplRecord, Request, Response, MAGIC,
};
use lima_client::{ClientOptions, LimadClient, SubmitOptions};
use lima_core::{LimaConfig, LimaStats, PressureLevel};
use lima_matrix::Value;
use limad::{LimadConfig, ReplOptions, ReplicaGroup, Server};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

mod common;

fn base_config() -> LimadConfig {
    LimadConfig {
        shards: 2,
        scrub_interval_ms: 0,
        repl: Some(ReplOptions::default()),
        ..LimadConfig::default()
    }
}

#[test]
fn submits_replicate_to_follower() {
    let group = ReplicaGroup::start(&base_config(), 2).unwrap();
    let mut a = client(group.get(0).unwrap(), "alice");
    let done = a.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();
    assert_eq!(done.value("s"), Some(&Value::f64(GRAM_SUM)));

    // The follower serves the value from its own cache — by lineage fetch,
    // without ever seeing the script.
    let lineage = lineage_of(GRAM_SCRIPT, "G");
    let mut b = client(group.get(1).unwrap(), "bob");
    let replicated = wait_until(Duration::from_secs(10), || {
        b.fetch(&lineage).ok().flatten().is_some()
    });
    assert!(replicated, "write replication never reached the follower");
    let g = b.fetch(&lineage).unwrap().unwrap();
    assert!(g.as_matrix().unwrap().data().iter().all(|&v| v == 900.0));
    group.shutdown();
}

#[test]
fn anti_entropy_heals_entries_the_sender_dropped() {
    let group = ReplicaGroup::start(&base_config(), 2).unwrap();
    let (leader, follower) = (group.get(0).unwrap(), group.get(1).unwrap());
    let repl = leader.replicator().expect("replication configured");
    let repl_b = follower.replicator().unwrap();

    // Partition: pause both members' outbound machinery. Member 0's sender
    // drops everything submitted; member 1's AE cannot pull. An entry can
    // only cross after the partition lifts.
    repl.pause(true);
    repl_b.pause(true);
    // Traffic through a client of the whole group that prefers member 0:
    // the partition is invisible to it, every submit answers its value
    // within the 10 s tail bound.
    let mut a = LimadClient::new_replicated(&group.addrs(), "alice", ClientOptions::default());
    for k in 1..=16u32 {
        let script = format!("X = matrix({k}, 20, 4);\nG = t(X) %*% X;\ns = sum(G);\n");
        let t0 = Instant::now();
        let done = a.submit(&script, &outputs(&["s"])).unwrap();
        assert!(t0.elapsed() <= Duration::from_secs(10));
        assert_eq!(done.value("s"), Some(&Value::f64(320.0 * f64::from(k * k))));
    }
    a.submit(GRAM_SCRIPT, &outputs(&["s"])).unwrap();
    // Let the sender drain (and drop) the paused queue.
    assert!(wait_until(Duration::from_secs(5), || {
        repl.queue_depth() == 0
    }));
    assert!(
        LimaStats::get(&leader.server_stats().repl_send_failures) > 0,
        "paused sender should count its drops as send failures"
    );

    let lineage = lineage_of(GRAM_SCRIPT, "G");
    let mut b = client(follower, "bob");
    assert!(
        b.fetch(&lineage).unwrap().is_none(),
        "paused replication must not have forwarded the entry"
    );
    assert_ne!(
        leader.keyspace_hashes(),
        follower.keyspace_hashes(),
        "the members never diverged under the partition"
    );

    // Lift the partition: member 1's AE loop digests against member 0,
    // notices the missing buckets, and pulls the entries across until both
    // members hold identical replicable keyspaces.
    repl.pause(false);
    repl_b.pause(false);
    assert!(
        wait_until(Duration::from_secs(30), || {
            let ka = leader.keyspace_hashes();
            !ka.is_empty() && ka == follower.keyspace_hashes()
        }),
        "anti-entropy never converged the follower"
    );
    assert!(LimaStats::get(&follower.server_stats().ae_pulled) > 0);
    assert!(b.fetch(&lineage).unwrap().is_some());
    let text = leader.metrics_text();
    for needle in [
        "limad_replica_state{member=\"1\"}",
        "limad_repl_queue_depth",
    ] {
        assert!(text.contains(needle), "missing {needle} in\n{text}");
    }
    group.shutdown();
}

/// Hand-frames one raw request and reads the response.
fn raw_call(stream: &mut TcpStream, kind: u8, id: u64, payload: &[u8]) -> Option<Response> {
    write_frame(stream, kind, id, payload).ok()?;
    let (rkind, _, rpayload) = read_frame(stream).ok()?;
    Response::decode(rkind, &rpayload)
}

#[test]
fn malformed_repl_frames_isolate_to_their_connection() {
    let server = Server::start(base_config()).unwrap();
    let addr = server.addr();

    // A structurally hostile ReplDigest payload: buckets=0 is outside the
    // protocol's accepted range, so decode fails and the server answers
    // BadRequest. K_REPL_DIGEST is kind 9 on the wire.
    let mut stream = TcpStream::connect(addr).unwrap();
    let resp = raw_call(&mut stream, 9, 7, &0u32.to_be_bytes()).unwrap();
    let Response::Error(e) = resp else {
        panic!("hostile digest request was not rejected: {resp:?}");
    };
    assert_eq!(e.code, ErrorCode::BadRequest);

    // A torn frame: advertised length larger than the bytes sent, then EOF.
    // The server treats it as torn and closes without a response.
    let mut torn = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_be_bytes());
    frame.push(8); // K_REPL_PUT
    frame.extend_from_slice(&1u64.to_be_bytes());
    frame.extend_from_slice(&1024u32.to_be_bytes()); // promises 1 KiB
    frame.extend_from_slice(&[0u8; 16]); // delivers 16 bytes, then EOF
    torn.write_all(&frame).unwrap();
    drop(torn);

    // An oversized frame: advertised length beyond the server's cap earns
    // an immediate BadRequest.
    let mut oversized = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&u32::from_be_bytes(*b"LMD1").to_be_bytes());
    frame.push(8);
    frame.extend_from_slice(&2u64.to_be_bytes());
    frame.extend_from_slice(&u32::MAX.to_be_bytes());
    oversized.write_all(&frame).unwrap();
    let (rkind, _, rpayload) = read_frame(&mut oversized).unwrap();
    let Some(Response::Error(e)) = Response::decode(rkind, &rpayload) else {
        panic!("oversized frame was not answered with a typed error");
    };
    assert_eq!(e.code, ErrorCode::BadRequest);

    // None of that hurt the server: a fresh connection still works.
    let mut c = client(&server, "alice");
    c.ping().unwrap();
    assert!(LimaStats::get(&server.server_stats().srv_malformed) >= 2);
    server.shutdown();
}

#[test]
fn garbage_lineage_records_are_rejected_not_fatal() {
    let server = Server::start(base_config()).unwrap();

    // A well-formed frame whose record carries unparseable lineage: the
    // record is rejected, the connection stays usable.
    let rec = ReplRecord::new("this is not a lineage log".into(), Value::f64(1.0), 0);
    let (kind, payload) = Request::ReplPut { records: vec![rec] }.encode();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let resp = raw_call(&mut stream, kind, 3, &payload).unwrap();
    let Response::ReplAck { applied, rejected } = resp else {
        panic!("expected ReplAck, got {resp:?}");
    };
    assert_eq!(applied, 0);
    assert_eq!(rejected, 1);
    assert!(LimaStats::get(&server.server_stats().repl_rejected) >= 1);

    // Same connection keeps serving.
    let resp = raw_call(&mut stream, kind, 4, &payload).unwrap();
    assert!(matches!(resp, Response::ReplAck { .. }));
    server.shutdown();
}

#[test]
fn corrupt_value_bytes_trigger_lineage_repair() {
    let server = Server::start(base_config()).unwrap();

    // Build a legitimate record for a computable lineage, then corrupt the
    // value bytes while leaving the lineage intact. The member must detect
    // the checksum mismatch and recompute the value from lineage.
    let lineage = lineage_of(GRAM_SCRIPT, "G");
    let mut rec = ReplRecord::new(
        lineage.clone(),
        Value::matrix(lima_matrix::DenseMatrix::from_fn(5, 5, |_, _| 900.0)),
        42,
    );
    // Damage the payload: claim a different matrix than the checksum covers.
    rec.value = Value::matrix(lima_matrix::DenseMatrix::from_fn(5, 5, |_, _| 9.0));
    assert!(!rec.verify_bytes());

    let (kind, payload) = Request::ReplPut { records: vec![rec] }.encode();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let resp = raw_call(&mut stream, kind, 5, &payload).unwrap();
    let Response::ReplAck { applied, rejected } = resp else {
        panic!("expected ReplAck, got {resp:?}");
    };
    assert_eq!((applied, rejected), (1, 0));
    assert!(LimaStats::get(&server.server_stats().repl_repaired) >= 1);

    // The repaired value is the lineage's true value (all 900s), not the
    // poisoned bytes (all 9s).
    let mut c = client(&server, "alice");
    let v = c.fetch(&lineage).unwrap().expect("repaired entry resident");
    assert!(v.as_matrix().unwrap().data().iter().all(|&x| x == 900.0));
    server.shutdown();
}

/// A fake peer that accepts connections and reads forever without ever
/// responding — the worst-case slow follower.
fn black_hole_peer() -> (String, TcpListener) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (addr, listener)
}

#[test]
fn replication_never_blocks_the_submit_hot_path() {
    // Tiny queue + a peer that swallows frames without acking: the sender
    // thread wedges inside its io-timeout while the queue overflows. Submits
    // must stay fast and the overflow must be counted, not waited out.
    let mut cfg = base_config();
    cfg.repl = Some(ReplOptions {
        queue_cap: 2,
        io_timeout_ms: 5_000,
        ..ReplOptions::default()
    });
    let server = Server::start(cfg).unwrap();
    let (peer_addr, listener) = black_hole_peer();
    std::thread::spawn(move || {
        let mut conns = Vec::new();
        while let Ok((stream, _)) = listener.accept() {
            conns.push(stream); // hold open, never answer
        }
    });
    server.connect_peers(vec![peer_addr]);

    let mut c = client(&server, "alice");
    let started = Instant::now();
    for i in 0..24 {
        let script = format!("v{i} = sum(matrix({i}, 8, 8));\n");
        c.submit(&script, &SubmitOptions::default()).unwrap();
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(4),
        "submits stalled behind a wedged replication peer: {elapsed:?}"
    );
    assert!(
        LimaStats::get(&server.server_stats().repl_queue_drops) > 0,
        "overflow should drop and count, never block"
    );
    server.shutdown();
}

#[test]
fn governor_pressure_sheds_replication_before_submits() {
    let template = LimaConfig::lima().with_governor(1024 * 1024);
    let mut cfg = base_config();
    cfg.template = template;
    let server = Server::start(cfg).unwrap();

    // Push shard 0's governor to L4: its watcher must drop instead of
    // queueing. Shard-0-routed submits are shed (typed overloaded), but the
    // replication queue must not grow for entries the governor refused.
    let g0 = server.shards().get(0).unwrap().governor().unwrap();
    g0.adjust_session_bytes(2 * 1024 * 1024);
    assert_eq!(g0.level(), PressureLevel::RejectSessions);

    // Find a script routed to the pressured shard.
    let script = (0..)
        .map(|salt| format!("p{salt} = sum(matrix(2, 4, 4));\n"))
        .find(|s| fnv1a(s.as_bytes()).is_multiple_of(2))
        .unwrap();
    let mut c = client(&server, "alice");
    let err = c.submit(&script, &SubmitOptions::default()).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Overloaded));

    // A shard-1 submit still replicates normally (enqueued, not dropped).
    let script1 = (0..)
        .map(|salt| format!("q{salt} = sum(matrix(2, 4, 4));\n"))
        .find(|s| (fnv1a(s.as_bytes()) % 2) == 1)
        .unwrap();
    c.submit(&script1, &SubmitOptions::default()).unwrap();
    assert!(LimaStats::get(&server.server_stats().repl_enqueued) > 0);
    server.shutdown();
}
