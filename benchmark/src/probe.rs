//! Layer probes of the traced run: each measures one layer from outside by
//! calling its public functions on inputs taken from the workload's own run
//! (the lineage DAG of an `LT` run), after the window has closed.

use crate::metrics::Metrics;
use crate::stats::median;
use lima_algos::pipelines::Pipeline;
use lima_algos::runner::run_script_with_cache;
use lima_core::cache::Probe;
use lima_core::lineage::item::hash_batch;
use lima_core::lineage::serialize::{deserialize_lineage, serialize_lineage};
use lima_core::lineage::verify::verify_dag;
use lima_core::lineage::LinRef;
use lima_core::{LimaConfig, LineageCache, ReuseMode};
use lima_matrix::backend::{active_kind, backend_for};
use lima_matrix::ops::{BinOp, UnOp};
use lima_matrix::rand_gen::{rand_matrix, RandDist};
use lima_matrix::{DenseMatrix, Value};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every operation one run of `p` executes, as `(lineage item, times
/// executed)` in order of first execution. Read from outside through the
/// cache's public observers: the script runs with operation-level reuse only
/// (no multi-level or partial reuse, no unmarking) and an unbounded budget,
/// so each distinct operation is computed once, seen by the put watcher, and
/// every repeat is a hit counted on its entry. The lineage of the live
/// variables alone would not do: a scalar result enters later lineage as a
/// literal, which cuts the DAG behind it.
pub fn observe_run(p: &Pipeline) -> Vec<(LinRef, u64)> {
    let cfg = LimaConfig {
        reuse: ReuseMode::Full,
        multilevel: false,
        compiler_assist: false,
        budget_bytes: usize::MAX / 2,
        spill: false,
        ..LimaConfig::lima()
    };
    let cache = LineageCache::new(cfg.clone());
    let seen: Arc<Mutex<Vec<LinRef>>> = Arc::default();
    let sink = Arc::clone(&seen);
    cache.set_put_watcher(Some(Arc::new(move |item, _, _| {
        sink.lock().expect("watcher lock").push(item.clone());
    })));
    run_script_with_cache(&p.script, &cfg, &p.input_refs(), Some(cache.clone()))
        .unwrap_or_else(|e| panic!("{}: {e}", p.name));
    cache.set_put_watcher(None);
    let hits: HashMap<u64, u64> = cache
        .cost_report(usize::MAX)
        .into_iter()
        .map(|c| (c.lineage_id, c.hits))
        .collect();
    let seen = std::mem::take(&mut *seen.lock().expect("watcher lock"));
    seen.into_iter()
        .map(|item| {
            let times = 1 + hits.get(&item.id()).copied().unwrap_or(0);
            (item, times)
        })
        .collect()
}

/// One dense kernel call shape, as read off a lineage item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kernel {
    Gemm {
        m: usize,
        k: usize,
        n: usize,
    },
    Tsmm {
        m: usize,
        n: usize,
        left: bool,
    },
    Transpose {
        r: usize,
        c: usize,
    },
    /// Cell-wise binary on two `r` x `c` matrices.
    EwMatrix {
        op: BinOp,
        r: usize,
        c: usize,
    },
    /// Cell-wise binary of an `r` x `c` matrix with a scalar.
    EwScalar {
        op: BinOp,
        r: usize,
        c: usize,
    },
    EwUnary {
        op: UnOp,
        r: usize,
        c: usize,
    },
}

fn kernel_of(item: &LinRef) -> Option<Kernel> {
    let shape = |k: usize| item.inputs().get(k).and_then(|i| i.shape());
    let opcode = item.opcode();
    match opcode {
        "ba+*" => {
            let ((m, k), (_, n)) = (shape(0)?, shape(1)?);
            Some(Kernel::Gemm { m, k, n })
        }
        "tsmm" => {
            let (m, n) = shape(0)?;
            Some(Kernel::Tsmm {
                m,
                n,
                left: item.data() != Some("RIGHT"),
            })
        }
        "r'" => shape(0).map(|(r, c)| Kernel::Transpose { r, c }),
        _ => {
            let (r, c) = item.shape()?;
            if let Some(op) = BinOp::from_opcode(opcode) {
                return Some(match (shape(0), shape(1)) {
                    (Some(a), Some(b)) if a == b => Kernel::EwMatrix { op, r, c },
                    // Broadcasts and matrix-scalar forms move about as many
                    // bytes as the matrix-scalar kernel.
                    _ => Kernel::EwScalar { op, r, c },
                });
            }
            let op = UnOp::from_opcode(opcode)?;
            Some(Kernel::EwUnary { op, r, c })
        }
    }
}

fn uniform(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    rand_matrix(
        rows,
        cols,
        RandDist::Uniform { min: 0.5, max: 1.5 },
        1.0,
        seed,
    )
    .expect("valid rand parameters")
}

/// Median seconds of one isolated call of `kernel` through the active
/// backend.
fn time_kernel(kernel: Kernel) -> f64 {
    let be = backend_for(active_kind());
    let (a, b) = match kernel {
        Kernel::Gemm { m, k, n } => (uniform(m, k, 1), uniform(k, n, 2)),
        Kernel::Tsmm { m, n, .. } => (uniform(m, n, 1), DenseMatrix::zeros(0, 0)),
        Kernel::Transpose { r, c }
        | Kernel::EwScalar { r, c, .. }
        | Kernel::EwUnary { r, c, .. } => (uniform(r, c, 1), DenseMatrix::zeros(0, 0)),
        Kernel::EwMatrix { r, c, .. } => (uniform(r, c, 1), uniform(r, c, 2)),
    };
    let call = || match kernel {
        Kernel::Gemm { .. } => drop(black_box(be.gemm(&a, &b))),
        Kernel::Tsmm { left: true, .. } => drop(black_box(be.tsmm_left(&a))),
        Kernel::Tsmm { left: false, .. } => drop(black_box(be.tsmm_right(&a))),
        Kernel::Transpose { .. } => drop(black_box(be.transpose(&a))),
        Kernel::EwMatrix { op, .. } => drop(black_box(be.ew_binary(op, &a, &b))),
        Kernel::EwScalar { op, .. } => drop(black_box(be.ew_matrix_scalar(op, &a, 1.25))),
        Kernel::EwUnary { op, .. } => drop(black_box(be.ew_unary(op, &a))),
    };
    call();
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < 3 || (times.len() < 25 && started.elapsed().as_millis() < 20) {
        let t = Instant::now();
        call();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// `matrix.*`: the opcode x shape histogram of the operations a run executes
/// (`ops`: item and times executed), each bucket timed in isolation through
/// `backend_for`. Covers gemm, tsmm, transpose and
/// cell-wise kernels; flop and byte counts are computed from the shapes, not
/// measured. `base_run_s` is the `Base` time of the same run.
pub fn matrix_layer(layers: &mut Metrics, ops: &[(LinRef, u64)], base_run_s: f64) {
    let mut histogram: HashMap<Kernel, u64> = HashMap::new();
    for (item, times) in ops {
        if let Some(k) = kernel_of(item) {
            *histogram.entry(k).or_default() += times;
        }
    }
    let mut est_s = 0.0;
    // Per kind: (total seconds, computed work per call / seconds per call)
    // of the bucket the run spends most time in.
    let mut dominant = [(0.0f64, 0.0f64); 3];
    for (&kernel, &count) in &histogram {
        let per_call = time_kernel(kernel);
        let total = per_call * count as f64;
        est_s += total;
        let (slot, work) = match kernel {
            Kernel::Gemm { m, k, n } => (0, 2.0 * (m * k * n) as f64),
            Kernel::Tsmm { m, n, .. } => (1, (m * n * (n + 1)) as f64),
            Kernel::EwMatrix { r, c, .. } => (2, 24.0 * (r * c) as f64),
            Kernel::EwScalar { r, c, .. } | Kernel::EwUnary { r, c, .. } => {
                (2, 16.0 * (r * c) as f64)
            }
            Kernel::Transpose { .. } => continue,
        };
        if total > dominant[slot].0 {
            dominant[slot] = (total, work / per_call / 1e9);
        }
    }
    layers.set("matrix.est_kernel_s", est_s);
    layers.set("matrix.kernel_share", est_s / base_run_s);
    layers.set("matrix.gemm_gflops", dominant[0].1);
    layers.set("matrix.tsmm_gflops", dominant[1].1);
    layers.set("matrix.ew_gb_per_s", dominant[2].1);
}

/// `cache.probe_ns_per_op` / `cache.put_ns_per_op`: the run's distinct
/// operations replayed through `acquire` and `fulfill` on a fresh cache, each
/// with a zero value of its recorded shape.
pub fn cache_replay(layers: &mut Metrics, ops: &[(LinRef, u64)], cfg: &LimaConfig) {
    let cache = LineageCache::new(cfg.clone());
    let mut zeros: BTreeMap<(usize, usize), Value> = BTreeMap::new();
    let (mut probes, mut probe_ns, mut puts, mut put_ns) = (0u64, 0u128, 0u64, 0u128);
    for (item, _) in ops {
        let t = Instant::now();
        let probe = cache.acquire(item);
        let spent = t.elapsed().as_nanos();
        let Some(probe) = probe else { continue };
        probes += 1;
        probe_ns += spent;
        if let Probe::Reserved(reservation) = probe {
            let value = match item.shape() {
                Some((r, c)) => zeros
                    .entry((r, c))
                    .or_insert_with(|| Value::matrix(DenseMatrix::zeros(r, c)))
                    .clone(),
                None => Value::f64(0.0),
            };
            let t = Instant::now();
            reservation.fulfill(&value, 1_000);
            put_ns += t.elapsed().as_nanos();
            puts += 1;
        }
    }
    if probes > 0 {
        layers.set("cache.probe_ns_per_op", probe_ns as f64 / probes as f64);
    }
    if puts > 0 {
        layers.set("cache.put_ns_per_op", put_ns as f64 / puts as f64);
    }
}

/// Cost of the lineage codec on a set of lineage roots.
#[derive(Debug, Default)]
pub struct CodecCost {
    pub items: u64,
    pub log_bytes: u64,
    pub serialize_ns: u128,
    pub deserialize_ns: u128,
    pub verify_ns: u128,
    pub hash_ns: u128,
}

impl CodecCost {
    /// serialize -> deserialize -> `hash_batch` on the fresh DAG -> verify.
    /// Returns the log's `(items, bytes)`.
    pub fn measure(&mut self, root: &LinRef) -> (u64, u64) {
        let t = Instant::now();
        let log = serialize_lineage(root);
        self.serialize_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let back = deserialize_lineage(&log).expect("a serialized log parses");
        self.deserialize_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(hash_batch(std::slice::from_ref(&back)));
        self.hash_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        verify_dag(&back).expect("a traced DAG verifies");
        self.verify_ns += t.elapsed().as_nanos();
        let (items, bytes) = (log_items(&log), log.len() as u64);
        self.items += items;
        self.log_bytes += bytes;
        (items, bytes)
    }

    /// Sets the four `lineage.*_ns_per_item` metrics.
    pub fn report(&self, layers: &mut Metrics) {
        if self.items == 0 {
            return;
        }
        let per_item = |ns: u128| ns as f64 / self.items as f64;
        layers.set("lineage.serialize_ns_per_item", per_item(self.serialize_ns));
        layers.set(
            "lineage.deserialize_ns_per_item",
            per_item(self.deserialize_ns),
        );
        layers.set("lineage.verify_ns_per_item", per_item(self.verify_ns));
        layers.set("lineage.hash_ns_per_item", per_item(self.hash_ns));
    }

    pub fn bytes_per_item(&self) -> f64 {
        self.log_bytes as f64 / self.items.max(1) as f64
    }
}

/// Lineage items in a serialized log: one per `(<id>) ...` line, patch
/// bodies included.
pub fn log_items(log: &str) -> u64 {
    log.lines().filter(|l| l.starts_with('(')).count() as u64
}
