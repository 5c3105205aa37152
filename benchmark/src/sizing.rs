//! Every size the benchmark uses, in one place: op counts, matrix sizes,
//! corpus sizes and client count, keyed by workload. Sizes do not depend on
//! the seed (the seed varies values and order only), so runs with different
//! seeds measure the same amount of work.

pub const WORKLOADS: [&str; 4] = ["hpo_reuse", "trace_dense", "lineage_replay", "serve_zipf"];

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Spans per thread written to the Chrome trace file (all of them feed the
/// per-layer table). Small because `validate_chrome_trace` parses with
/// `parse_json`, whose string scanning is quadratic in the file size.
pub const TRACE_FILE_SPANS: usize = 1_000;
/// Outputs must match the `Base` oracle to this relative tolerance.
pub const ORACLE_REL_TOL: f64 = 1e-9;

/// Op counts common to all workloads.
#[derive(Debug, Clone, Copy)]
pub struct OpCounts {
    /// Ops run before the window opens, charged to `setup_s`.
    pub warmup_ops: usize,
    /// The window stays open until `--seconds` have passed *and* this many
    /// ops have completed, so p90 always has its 100 samples.
    pub min_ops: usize,
    /// The traced run sums program counters over exactly the first this many
    /// ops of the window, so counts repeat exactly from run to run.
    pub counted_ops: usize,
    /// Pairs of `Base` / `LIMA` (and `LT`, `LTD`) runs the traced run makes
    /// after the window for config differencing, alternating order.
    pub paired_runs: usize,
}

impl OpCounts {
    /// `--smoke`: about a twentieth of the work through the same code.
    pub fn smoke(self) -> OpCounts {
        OpCounts {
            warmup_ops: 1,
            min_ops: (self.min_ops / 20).max(3),
            counted_ops: (self.counted_ops / 20).max(3),
            paired_runs: 2,
        }
    }
}

/// `hpo_reuse`: one op = one hyper-parameter pipeline under `LIMA` with a
/// fresh cache. Three pipelines x `variants` data sets, run in rotation.
pub struct HpoReuse {
    pub ops: OpCounts,
    pub variants: usize,
    pub hlm_rows: usize,
    pub hlm_cols: usize,
    pub hlm_feature_sets: usize,
    pub hlm_subset: usize,
    /// reg x icpt x tol grid.
    pub hlm_grid: (usize, usize, usize),
    pub hcv_rows: usize,
    pub hcv_cols: usize,
    pub hcv_folds: usize,
    pub hcv_lambdas: usize,
    pub pcalm_rows: usize,
    pub pcalm_cols: usize,
    pub pcalm_ks: [usize; 4],
}

pub const HPO_REUSE: HpoReuse = HpoReuse {
    ops: OpCounts {
        warmup_ops: 6,
        min_ops: 100,
        counted_ops: 60,
        paired_runs: 12,
    },
    variants: 2,
    hlm_rows: 10_000,
    hlm_cols: 50,
    hlm_feature_sets: 4,
    hlm_subset: 20,
    hlm_grid: (4, 2, 3),
    hcv_rows: 4_800,
    hcv_cols: 50,
    hcv_folds: 16,
    hcv_lambdas: 4,
    pcalm_rows: 20_000,
    pcalm_cols: 30,
    pcalm_ks: [4, 8, 12, 16],
};

/// `trace_dense`: one op = the Fig 6a mini-batch script under `LIMA` with a
/// small cache budget, so most puts end in an eviction.
pub struct TraceDense {
    pub ops: OpCounts,
    pub variants: usize,
    pub rows: usize,
    pub cols: usize,
    pub batch: usize,
    pub budget_bytes: usize,
}

pub const TRACE_DENSE: TraceDense = TraceDense {
    ops: OpCounts {
        warmup_ops: 5,
        min_ops: 100,
        counted_ops: 60,
        paired_runs: 12,
    },
    variants: 4,
    rows: 3200,
    cols: 78,
    batch: 8,
    budget_bytes: 20 << 20,
};

/// One lineage log of the `lineage_replay` corpus.
#[derive(Debug, Clone, Copy)]
pub enum LogShape {
    /// Loop-carried chain `p = (X %*% p) * a + p * b`, `iters` iterations on
    /// a `dim` x `dim` matrix, traced with or without dedup.
    Chain {
        iters: usize,
        dim: usize,
        dedup: bool,
    },
    PageRank {
        nodes: usize,
        iters: usize,
        dedup: bool,
    },
    StepLm {
        rows: usize,
        base: usize,
        iters: usize,
    },
}

/// `lineage_replay`: one op = serialize -> deserialize -> verify -> recompute
/// -> bit-compare of one log. An odd number of logs of well-separated cost,
/// so p50 and p90 each fall inside one log's band rather than between two.
pub struct LineageReplay {
    pub ops: OpCounts,
    pub corpus: [LogShape; 13],
}

pub const LINEAGE_REPLAY: LineageReplay = LineageReplay {
    ops: OpCounts {
        warmup_ops: 13,
        min_ops: 100,
        counted_ops: 52,
        paired_runs: 3,
    },
    corpus: [
        LogShape::Chain {
            iters: 40,
            dim: 4,
            dedup: false,
        },
        LogShape::Chain {
            iters: 100,
            dim: 16,
            dedup: false,
        },
        LogShape::Chain {
            iters: 200,
            dim: 32,
            dedup: false,
        },
        LogShape::Chain {
            iters: 300,
            dim: 64,
            dedup: false,
        },
        LogShape::Chain {
            iters: 400,
            dim: 8,
            dedup: false,
        },
        LogShape::Chain {
            iters: 150,
            dim: 4,
            dedup: true,
        },
        LogShape::Chain {
            iters: 350,
            dim: 16,
            dedup: true,
        },
        LogShape::Chain {
            iters: 700,
            dim: 32,
            dedup: true,
        },
        LogShape::Chain {
            iters: 1_000,
            dim: 64,
            dedup: true,
        },
        LogShape::PageRank {
            nodes: 64,
            iters: 120,
            dedup: false,
        },
        LogShape::PageRank {
            nodes: 48,
            iters: 450,
            dedup: true,
        },
        LogShape::StepLm {
            rows: 64,
            base: 8,
            iters: 120,
        },
        LogShape::StepLm {
            rows: 48,
            base: 6,
            iters: 250,
        },
    ],
};

/// `serve_zipf`: closed-loop clients against an in-process `limad`.
pub struct ServeZipf {
    pub ops: OpCounts,
    /// At most this many client threads, one op in flight each.
    pub max_client_threads: usize,
    pub tenants: usize,
    pub shards: usize,
    pub corpus: usize,
    pub zipf_exponent: f64,
    /// Per-shard cache budget: smaller than the corpus' values, so the zipf
    /// tail is evicted and misses again.
    pub shard_budget_bytes: usize,
    /// Op mix in percent: submit / fetch / probe.
    pub mix: (u32, u32, u32),
    /// tsmm/solve scripts cycle through these row counts (x `solve_cols`).
    pub solve_rows: [usize; 3],
    pub solve_cols: usize,
    /// Element-wise chains run on `ew_rows` x `ew_cols`.
    pub ew_rows: usize,
    pub ew_cols: usize,
    pub scalar_loop_iters: usize,
    /// Keys fetched before shutdown and again after restart.
    pub restart_sample: usize,
    /// Submits replayed in-process and frames replayed through the codec by
    /// the traced run.
    pub replay_ops: usize,
}

pub const SERVE_ZIPF: ServeZipf = ServeZipf {
    ops: OpCounts {
        warmup_ops: 150,
        min_ops: 1_000,
        counted_ops: 1_000,
        paired_runs: 0,
    },
    max_client_threads: 4,
    tenants: 4,
    shards: 2,
    corpus: 150,
    zipf_exponent: 1.1,
    shard_budget_bytes: 1 << 20,
    mix: (70, 20, 10),
    solve_rows: [200, 300, 400],
    solve_cols: 50,
    ew_rows: 200,
    ew_cols: 50,
    scalar_loop_iters: 6,
    restart_sample: 32,
    replay_ops: 1_000,
};

/// The op counts of a workload (for the run header).
pub fn op_counts(workload: &str) -> OpCounts {
    match workload {
        "hpo_reuse" => HPO_REUSE.ops,
        "trace_dense" => TRACE_DENSE.ops,
        "lineage_replay" => LINEAGE_REPLAY.ops,
        _ => SERVE_ZIPF.ops,
    }
}

/// Client threads for `serve_zipf`: half the cores, because the server under
/// test runs in the same process and needs the other half. With one client
/// per core the generator and the server fight for CPU and the run-to-run
/// spread of `ops_per_s` triples (README, "Load shape").
pub fn client_threads() -> usize {
    (nproc() / 2).clamp(1, SERVE_ZIPF.max_client_threads)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
