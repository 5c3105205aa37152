//! Cost model for eviction and spilling decisions (paper §4.3, "Statistics
//! and Costs"): estimated spill/restore times derived from expected
//! read/write bandwidths, adapted to the hardware as an exponential moving
//! average of measured I/O times.

use parking_lot::Mutex;

/// Starting heuristics (bytes/second) before any measurement.
const DEFAULT_WRITE_BW: f64 = 1.0e9;
const DEFAULT_READ_BW: f64 = 2.0e9;
/// EMA smoothing factor for bandwidth adaptation.
const EMA_ALPHA: f64 = 0.3;

/// Adaptive I/O bandwidth estimator.
#[derive(Debug)]
pub struct IoCostModel {
    inner: Mutex<Bandwidths>,
}

#[derive(Debug, Clone, Copy)]
struct Bandwidths {
    write_bw: f64,
    read_bw: f64,
}

/// Nanoseconds to move `bytes` at `bytes_per_s`.
fn est_ns(bytes: usize, bytes_per_s: f64) -> u64 {
    (bytes as f64 / bytes_per_s * 1e9) as u64
}

impl Default for IoCostModel {
    fn default() -> Self {
        IoCostModel {
            inner: Mutex::new(Bandwidths {
                write_bw: DEFAULT_WRITE_BW,
                read_bw: DEFAULT_READ_BW,
            }),
        }
    }
}

impl IoCostModel {
    /// Fresh model with heuristic bandwidths.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spilling pays off when recomputation is slower than one write plus one
    /// read of the object (paper: "only spill objects whose re-computation
    /// time exceeds the estimated I/O time"). Asked once per eviction victim
    /// with the cache state lock held, so both bandwidths are read under one
    /// lock of this model's.
    pub fn worth_spilling(&self, bytes: usize, compute_ns: u64) -> bool {
        let bw = *self.inner.lock();
        compute_ns > est_ns(bytes, bw.write_bw) + est_ns(bytes, bw.read_bw)
    }

    /// Folds a measured write into the bandwidth EMA.
    pub fn observe_write(&self, bytes: usize, elapsed_ns: u64) {
        if elapsed_ns == 0 || bytes == 0 {
            return;
        }
        let measured = bytes as f64 / (elapsed_ns as f64 / 1e9);
        let mut bw = self.inner.lock();
        bw.write_bw = EMA_ALPHA * measured + (1.0 - EMA_ALPHA) * bw.write_bw;
    }

    /// Folds a measured read into the bandwidth EMA.
    pub fn observe_read(&self, bytes: usize, elapsed_ns: u64) {
        if elapsed_ns == 0 || bytes == 0 {
            return;
        }
        let measured = bytes as f64 / (elapsed_ns as f64 / 1e9);
        let mut bw = self.inner.lock();
        bw.read_bw = EMA_ALPHA * measured + (1.0 - EMA_ALPHA) * bw.read_bw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl IoCostModel {
        fn est_write_ns(&self, bytes: usize) -> u64 {
            est_ns(bytes, self.inner.lock().write_bw)
        }
    }

    #[test]
    fn estimates_scale_linearly() {
        let m = IoCostModel::new();
        assert_eq!(m.est_write_ns(0), 0);
        let one = m.est_write_ns(1_000_000);
        let ten = m.est_write_ns(10_000_000);
        assert!((ten as f64 / one as f64 - 10.0).abs() < 0.01);
    }

    #[test]
    fn worth_spilling_compares_compute_to_io() {
        let m = IoCostModel::new();
        let bytes = 100_000_000; // ~150ms of I/O at default bandwidths
        assert!(m.worth_spilling(bytes, 10_000_000_000)); // 10s compute
        assert!(!m.worth_spilling(bytes, 1_000_000)); // 1ms compute
    }

    #[test]
    fn ema_moves_toward_measurements() {
        let m = IoCostModel::new();
        let before = m.est_write_ns(1_000_000_000);
        // Observe a very slow disk: 1 GB in 10 s => 0.1 GB/s.
        for _ in 0..20 {
            m.observe_write(1_000_000_000, 10_000_000_000);
        }
        let after = m.est_write_ns(1_000_000_000);
        assert!(
            after > before * 5,
            "estimate should grow: {before} -> {after}"
        );
        // Degenerate observations are ignored.
        m.observe_write(0, 100);
        m.observe_read(100, 0);
    }
}
