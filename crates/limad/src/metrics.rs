//! Metrics aggregation and the `GET /metrics` HTTP endpoint.
//!
//! Every shard owns an independent [`LimaStats`] block and the server keeps
//! its own for the `srv_*` counters. The exporter sums them index-aligned
//! (the `define_stats!` macro guarantees one shared declaration order) into
//! one fresh block, renders the standard Prometheus text exposition, and
//! appends a `limad_shard_state{shard="i"}` gauge per shard so dashboards
//! can see a degraded shard at a glance, and the shard's program-cache
//! counters (`limad_shard_program_cache_*`) so a miss-heavy script mix is
//! visible per shard.
//!
//! The endpoint is a deliberately tiny hand-rolled HTTP/1.0 responder: one
//! request line, one response, close. No external dependency, no keep-alive.

use crate::server::Inner;
use lima_core::LimaStats;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// The aggregated Prometheus text for the whole server.
pub(crate) fn metrics_text(inner: &Inner) -> String {
    let agg = LimaStats::new();
    // The server's own block (srv_* counters) and every shard's.
    let shards = inner.shards.iter().map(|s| s.stats());
    for block in std::iter::once(Arc::clone(&inner.stats)).chain(shards) {
        for ((_, sum), (_, c)) in agg.counters().into_iter().zip(block.counters()) {
            sum.fetch_add(LimaStats::get(c), Ordering::Relaxed);
        }
    }

    let mut out = agg.prometheus();
    out.push_str(
        "# HELP limad_shard_state Shard persistence posture (0=cold, 1=warm, 2=degraded).\n\
         # TYPE limad_shard_state gauge\n",
    );
    for shard in inner.shards.iter() {
        out.push_str(&format!(
            "limad_shard_state{{shard=\"{}\"}} {}\n",
            shard.index(),
            shard.state().as_gauge()
        ));
    }
    out.push_str(
        "# HELP limad_shard_program_cache Per-shard compiled-program cache: submits served \
         from it, submits that compiled, LRU evictions, and the weight held (retained \
         instructions; script text at its byte-equivalent).\n\
         # TYPE limad_shard_program_cache gauge\n",
    );
    for shard in inner.shards.iter() {
        let stats = shard.stats();
        let i = shard.index();
        for (name, value) in [
            ("hits", LimaStats::get(&stats.program_cache_hits)),
            ("misses", LimaStats::get(&stats.program_cache_misses)),
            ("evictions", LimaStats::get(&stats.program_cache_evictions)),
            ("instructions", shard.program_cache_weight() as u64),
        ] {
            out.push_str(&format!(
                "limad_shard_program_cache_{name}{{shard=\"{i}\"}} {value}\n"
            ));
        }
    }
    out.push_str(
        "# HELP limad_scrub Per-shard integrity-scrubber progress and self-healing outcomes.\n\
         # TYPE limad_scrub gauge\n",
    );
    for shard in inner.shards.iter() {
        let stats = shard.stats();
        let i = shard.index();
        for (name, counter) in [
            ("bytes", &stats.scrub_bytes),
            ("entries", &stats.scrub_entries),
            ("corruptions", &stats.scrub_corruptions),
            ("quarantined", &stats.scrub_quarantined),
            ("passes", &stats.scrub_passes),
            ("pauses", &stats.scrub_pauses),
            ("repairs", &stats.persist_repairs),
            ("repair_failures", &stats.persist_repair_failures),
        ] {
            out.push_str(&format!(
                "limad_scrub_{name}{{shard=\"{i}\"}} {}\n",
                LimaStats::get(counter)
            ));
        }
    }
    if let Some(repl) = inner.repl.as_ref() {
        out.push_str(
            "# HELP limad_replica_state Peer member health (1=reachable, 0=breaker open).\n\
             # TYPE limad_replica_state gauge\n",
        );
        // Peers are wired in ascending member order with self skipped, so
        // the list index maps back to the peer's group-wide member index.
        let me = repl.options().member;
        for (i, (_, healthy)) in repl.peer_states().iter().enumerate() {
            let peer_member = if i < me { i } else { i + 1 };
            out.push_str(&format!(
                "limad_replica_state{{member=\"{peer_member}\"}} {}\n",
                u8::from(*healthy)
            ));
        }
        out.push_str(&format!(
            "# HELP limad_repl_queue_depth Entries waiting in the replication queue.\n\
             # TYPE limad_repl_queue_depth gauge\n\
             limad_repl_queue_depth {}\n",
            repl.queue_depth()
        ));
    }
    out
}

/// Accept loop for the metrics listener (runs on its own thread until the
/// server's shutdown flag flips).
pub(crate) fn serve_metrics(listener: &TcpListener, inner: &Arc<Inner>) {
    const POLL: Duration = Duration::from_millis(25);
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => answer_http(stream, inner),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// One-shot HTTP exchange: parse the request line, answer, close.
fn answer_http(mut stream: TcpStream, inner: &Inner) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 1024];
    let n = match stream.read(&mut buf) {
        Ok(n) if n > 0 => n,
        _ => return,
    };
    let request = String::from_utf8_lossy(&buf[..n]);
    let target = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, body) = if target == "/metrics" {
        ("200 OK", metrics_text(inner))
    } else {
        ("404 Not Found", "only /metrics lives here\n".to_string())
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}
