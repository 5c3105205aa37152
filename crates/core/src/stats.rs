//! Runtime statistics collected by LIMA (paper §5.1: cache misses,
//! rewrite/spill times, etc.). All counters are atomic so parfor workers can
//! update them concurrently.
//!
//! The counter list is declared once through `define_stats!`, which derives
//! both the struct and the [`LimaStats::counters`] iteration order — so the
//! Prometheus exporter and monotonicity snapshots can never miss a field
//! added later (the exporter round-trip test enforces this by construction).

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! define_stats {
    ($($(#[doc = $doc:expr])+ $name:ident,)+) => {
        /// Aggregated LIMA statistics. One instance lives next to each cache.
        #[derive(Debug, Default)]
        pub struct LimaStats {
            $(
                $(#[doc = $doc])+
                pub $name: AtomicU64,
            )+
        }

        impl LimaStats {
            /// Every counter as `(name, handle)`, in declaration order. The
            /// single source of truth for exporters: `prometheus()` and
            /// `snapshot()` iterate this list, so a counter added to the
            /// struct is exported automatically.
            pub fn counters(&self) -> Vec<(&'static str, &AtomicU64)> {
                vec![$((stringify!($name), &self.$name),)+]
            }

            /// Per-counter doc strings, aligned with [`Self::counters`];
            /// used for Prometheus `# HELP` lines.
            fn helps() -> &'static [(&'static str, &'static str)] {
                &[$((stringify!($name), concat!($($doc),+)),)+]
            }
        }
    };
}

define_stats! {
    /// Lineage items created by tracing.
    items_traced,
    /// Dedup items appended instead of full sub-DAGs.
    dedup_items,
    /// Lineage patches materialized.
    dedup_patches,
    /// Cache probes (full reuse).
    probes,
    /// Operation-level full-reuse hits.
    full_hits,
    /// Multi-level (function/block) reuse hits.
    multilevel_hits,
    /// Partial-reuse rewrite hits.
    partial_hits,
    /// Threads that blocked on a placeholder entry being computed elsewhere.
    placeholder_waits,
    /// Values stored into the cache.
    puts,
    /// Values not booked: not cacheable, over budget, or refused by admission.
    rejected_puts,
    /// Entries evicted without a spill write: dropped to a shell, or left to
    /// the copy the persistent store already holds.
    evictions,
    /// Entries evicted by writing a file to the scratch spill directory.
    spills,
    /// Evicted entries read back from disk on a hit (scratch spill file or
    /// durable value file).
    restores,
    /// Bytes written to the scratch spill directory.
    spill_bytes,
    /// Nanoseconds of compute time saved by reuse. Each computed nanosecond
    /// is credited at most once: an entry credits on its first hit only, and
    /// a composite (function/block) entry credits its measured cost minus
    /// whatever its constituents already credited.
    saved_compute_ns,
    /// Nanoseconds spent executing partial-reuse compensation plans.
    compensation_ns,
    /// Spill writes that failed (entry fell back to delete-eviction).
    spill_failures,
    /// Evicted entries whose restore failed (missing/corrupt file); the
    /// probe degraded to a miss and the value was recomputed.
    restore_failures,
    /// Placeholder waits that timed out and took over the computation from a
    /// presumed-dead fulfiller.
    placeholder_timeouts,
    /// Parfor workers that panicked (isolated and surfaced as errors).
    worker_panics,
    /// Entries durably written to the persistent cache store.
    persist_writes,
    /// Persistent writes that failed (entry stays memory-only).
    persist_failures,
    /// Bytes of value files written by the persistent store.
    persist_bytes,
    /// Eviction tombstones appended to the persistent manifest.
    persist_tombstones,
    /// Reuse hits served by entries recovered from a prior process.
    persist_hits,
    /// Entries repopulated from disk during startup recovery.
    persist_recovered,
    /// Committed entries dropped during recovery (missing/corrupt value file
    /// or unparseable lineage).
    persist_dropped,
    /// Recoveries that truncated a torn WAL tail (at most 1 per startup).
    persist_torn_truncations,
    /// Orphaned value files garbage-collected during recovery.
    persist_orphans_gcd,
    /// WAL compactions committed (generation switches).
    persist_compactions,
    /// WAL bytes reclaimed by compaction (pre-compaction size minus
    /// post-compaction size, summed over compactions).
    persist_compact_reclaimed,
    /// Corrupt persisted entries rebuilt from their serialized lineage and
    /// re-persisted atomically (scrub-, fetch-, or recovery-time).
    persist_repairs,
    /// Lineage-driven repair attempts that failed; the entry was quarantined
    /// (or dropped at recovery) instead.
    persist_repair_failures,
    /// Persistence degraded to memory-only after `ENOSPC` or an fsync
    /// failure (post-fsync-failure page state is unknown).
    persist_disk_full,
    /// Bytes re-verified by the background integrity scrubber.
    scrub_bytes,
    /// Value files whose checksums the scrubber re-verified.
    scrub_entries,
    /// Corrupt artifacts (value files or WAL frames) detected by the
    /// scrubber.
    scrub_corruptions,
    /// Corrupt entries quarantined (tombstoned and moved to `quarantine/`).
    scrub_quarantined,
    /// Completed full scrub passes over the store.
    scrub_passes,
    /// Scrub chunks skipped because the governor was at pressure level L2 or
    /// higher (the scrubber yields I/O under pressure).
    scrub_pauses,
    /// Instructions the static determinism analysis unmarked for caching
    /// (loop-carried, non-deterministic, or side-effecting; paper §4.3).
    ops_unmarked,
    /// Functions the analysis classified reuse-ineligible (non-deterministic
    /// bodies are excluded from function-level multi-level reuse, §4.1).
    funcs_reuse_ineligible,
    /// Governor ladder transitions toward higher pressure (one per level).
    governor_degrades,
    /// Governor ladder transitions back toward normal (one per level).
    governor_recovers,
    /// Admissions (cache entries or sessions) rejected by the governor.
    governor_admission_rejects,
    /// Allocation attempts rejected (injected `AllocFail` faults).
    alloc_failures,
    /// Transient persist I/O errors absorbed by backoff retries.
    persist_retries,
    /// Half-open probe attempts granted by the spill/persist breakers.
    breaker_probes,
    /// Sessions admitted into a `SessionPool`.
    sessions_started,
    /// Sessions that ran to completion.
    sessions_completed,
    /// Sessions terminated by cooperative cancellation.
    sessions_cancelled,
    /// Sessions terminated by their deadline.
    sessions_deadline_exceeded,
    /// Session admissions rejected by the governor (`ResourceExhausted`).
    sessions_rejected,
    /// Requests received by the `limad` service (all protocol kinds).
    srv_requests,
    /// Malformed, oversized, or checksum-failed frames rejected by `limad`;
    /// each is isolated to its connection, never the shard.
    srv_malformed,
    /// Requests shed with typed `Overloaded` responses (governor L3/L4).
    srv_sheds,
    /// Requests rejected by per-tenant quotas (`ResourceExhausted`).
    srv_quota_rejects,
    /// Connections torn by injected `ConnDrop` faults (chaos testing).
    srv_conn_drops,
    /// Submits served a compiled program from the shard's program cache.
    program_cache_hits,
    /// Submits that compiled their script (first sight, evicted, or a script
    /// too heavy to cache).
    program_cache_misses,
    /// Compiled programs evicted from a program cache, least recently used
    /// first, to stay under its weight cap.
    program_cache_evictions,
    /// Committed records enqueued for asynchronous replication to followers.
    repl_enqueued,
    /// Records dropped instead of enqueued/sent: replication queue full or
    /// governor pressure ≥ L2 (replication never blocks the submit path).
    repl_queue_drops,
    /// Records successfully forwarded to a follower (acked `K_REPL_PUT`).
    repl_sent,
    /// Records dropped at send time: peer unreachable, breaker open, or a
    /// partition in effect (best-effort replication absorbs the loss).
    repl_send_failures,
    /// Replicated records applied into the local cache (write replication or
    /// anti-entropy pulls).
    repl_applied,
    /// Replicated records rejected: unparseable lineage, DAG verification
    /// failure, or unrepairable byte corruption.
    repl_rejected,
    /// Replicated records whose bytes failed their checksum and were
    /// recomputed from lineage before applying.
    repl_repaired,
    /// Completed anti-entropy digest exchanges with a peer.
    ae_rounds,
    /// Entries pulled from a peer by anti-entropy bucket repair.
    ae_pulled,
}

impl LimaStats {
    /// Fresh all-zero statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Total reuse hits of any kind.
    pub fn total_hits(&self) -> u64 {
        Self::get(&self.full_hits)
            + Self::get(&self.multilevel_hits)
            + Self::get(&self.partial_hits)
    }

    /// Point-in-time copy of every counter as `(name, value)`, in
    /// declaration order. Handy for monotonicity assertions in tests.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.counters()
            .into_iter()
            .map(|(name, c)| (name, Self::get(c)))
            .collect()
    }

    /// Prometheus text-exposition rendering of every counter (plus the
    /// derived `lima_total_hits`), each with `# HELP` and `# TYPE` lines.
    /// Scrape-ready: write it to a file or serve it as
    /// `text/plain; version=0.0.4`.
    pub fn prometheus(&self) -> String {
        let helps = Self::helps();
        let mut out = String::with_capacity(helps.len() * 160);
        for ((name, counter), (_, help)) in self.counters().into_iter().zip(helps) {
            let help = help.split_whitespace().collect::<Vec<_>>().join(" ");
            out.push_str(&format!(
                "# HELP lima_{name} {help}\n# TYPE lima_{name} counter\nlima_{name} {}\n",
                Self::get(counter)
            ));
        }
        out.push_str(&format!(
            "# HELP lima_total_hits Total reuse hits of any kind (full + multilevel + partial).\n\
             # TYPE lima_total_hits counter\nlima_total_hits {}\n",
            self.total_hits()
        ));
        out
    }

    /// Human-readable multi-line report: every counter as `name=value`, six
    /// to a line in declaration order (derived from [`Self::counters`], like
    /// the Prometheus rendering), then the two time counters in seconds.
    pub fn report(&self) -> String {
        let counters = self.counters().into_iter();
        let pairs: Vec<String> = counters
            .map(|(name, c)| format!("{name}={}", Self::get(c)))
            .collect();
        let lines: Vec<String> = pairs.chunks(6).map(|line| line.join(" ")).collect();
        format!(
            "{}\ntime: saved_compute={:.3}s compensation={:.3}s",
            lines.join("\n"),
            Self::get(&self.saved_compute_ns) as f64 / 1e9,
            Self::get(&self.compensation_ns) as f64 / 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn counters_accumulate() {
        let s = LimaStats::new();
        LimaStats::bump(&s.full_hits);
        LimaStats::bump(&s.full_hits);
        LimaStats::add(&s.partial_hits, 3);
        LimaStats::bump(&s.multilevel_hits);
        assert_eq!(LimaStats::get(&s.full_hits), 2);
        assert_eq!(s.total_hits(), 6);
    }

    #[test]
    fn report_mentions_key_counters() {
        let s = LimaStats::new();
        LimaStats::add(&s.spill_bytes, 1024);
        let r = s.report();
        assert!(r.contains("spill_bytes=1024"));
        assert!(r.contains("probes=0"));
        LimaStats::bump(&s.restore_failures);
        LimaStats::bump(&s.placeholder_timeouts);
        let r = s.report();
        assert!(r.contains("restore_failures=1"));
        assert!(r.contains("placeholder_timeouts=1"));
        assert!(r.contains("worker_panics=0"));
        LimaStats::add(&s.ops_unmarked, 5);
        LimaStats::bump(&s.funcs_reuse_ineligible);
        let r = s.report();
        assert!(r.contains("ops_unmarked=5"));
        assert!(r.contains("funcs_reuse_ineligible=1"));
        LimaStats::bump(&s.governor_degrades);
        LimaStats::bump(&s.sessions_deadline_exceeded);
        let r = s.report();
        assert!(r.contains("degrades=1"));
        assert!(r.contains("deadline_exceeded=1"));
        assert!(r.contains("breaker_probes=0"));
        LimaStats::bump(&s.repl_queue_drops);
        LimaStats::add(&s.ae_pulled, 2);
        let r = s.report();
        assert!(r.contains("queue_drops=1"));
        assert!(r.contains("ae_pulled=2"));
        // Every counter is reported: the list is the one `define_stats!` keeps.
        for (name, _) in s.counters() {
            assert!(r.contains(&format!("{name}=")), "{name} missing");
        }
    }

    /// Satellite: `prometheus()` must round-trip *every* counter in
    /// `LimaStats` — names, values, and HELP/TYPE metadata.
    #[test]
    fn prometheus_round_trips_every_counter() {
        let s = LimaStats::new();
        for (i, (_, c)) in s.counters().into_iter().enumerate() {
            c.store(i as u64 * 7 + 1, Ordering::Relaxed);
        }
        let text = s.prometheus();

        // Parse the exposition format back: `name value` sample lines.
        let mut samples: HashMap<&str, u64> = HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            let value: u64 = parts.next().unwrap().parse().unwrap();
            samples.insert(name, value);
        }

        let counters = s.counters();
        // Every declared counter appears with its exact value...
        for (i, (name, _)) in counters.iter().enumerate() {
            let key = format!("lima_{name}");
            assert_eq!(
                samples.get(key.as_str()),
                Some(&(i as u64 * 7 + 1)),
                "counter {name} missing or wrong in prometheus output"
            );
            assert!(text.contains(&format!("# HELP lima_{name} ")));
            assert!(text.contains(&format!("# TYPE lima_{name} counter")));
        }
        // ...and nothing else except the derived total_hits.
        assert_eq!(samples.len(), counters.len() + 1);
        assert_eq!(samples.get("lima_total_hits"), Some(&s.total_hits()));
    }

    #[test]
    fn snapshot_matches_counters() {
        let s = LimaStats::new();
        LimaStats::add(&s.spills, 4);
        let snap = s.snapshot();
        assert_eq!(snap.len(), s.counters().len());
        assert!(snap.contains(&("spills", 4)));
    }
}
