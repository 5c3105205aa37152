//! Cost model for admission, eviction and spilling decisions (paper §4.3,
//! "Statistics and Costs"): estimated spill/restore times derived from
//! expected read/write bandwidths, and the time booking a value takes, each
//! adapted to the hardware as an exponential moving average of measurements.

use std::sync::atomic::{AtomicU64, Ordering};

/// Starting heuristics (bytes/second) before any measurement.
const DEFAULT_WRITE_BW: f64 = 1.0e9;
const DEFAULT_READ_BW: f64 = 2.0e9;
/// EMA smoothing factor for bandwidth and booking-time adaptation.
const EMA_ALPHA: f64 = 0.3;

/// Adaptive I/O bandwidth and booking-cost estimator. Each estimate is one
/// `f64` in an atomic: readers under the cache lock take no second lock, and
/// two measurements folded in at once lose one of them, which an average
/// shrugs off.
#[derive(Debug)]
pub struct IoCostModel {
    write_bw: AtomicU64,
    read_bw: AtomicU64,
    /// Nanoseconds one admitted value costs the cache: install plus the
    /// evictions it forces. 0 until the first booking is measured.
    book_ns: AtomicU64,
}

/// Nanoseconds to move `bytes` at `bytes_per_s`.
fn est_ns(bytes: usize, bytes_per_s: f64) -> u64 {
    (bytes as f64 / bytes_per_s * 1e9) as u64
}

fn load(cell: &AtomicU64) -> f64 {
    f64::from_bits(cell.load(Ordering::Relaxed))
}

/// Folds `sample` into the average held in `cell`; the first sample of an
/// empty (0) average is taken as it is.
fn fold(cell: &AtomicU64, sample: f64) {
    let old = load(cell);
    let new = if old == 0.0 {
        sample
    } else {
        EMA_ALPHA * sample + (1.0 - EMA_ALPHA) * old
    };
    cell.store(new.to_bits(), Ordering::Relaxed);
}

impl Default for IoCostModel {
    fn default() -> Self {
        IoCostModel {
            write_bw: AtomicU64::new(DEFAULT_WRITE_BW.to_bits()),
            read_bw: AtomicU64::new(DEFAULT_READ_BW.to_bits()),
            book_ns: AtomicU64::new(0),
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
    /// time exceeds the estimated I/O time").
    pub fn worth_spilling(&self, bytes: usize, compute_ns: u64) -> bool {
        compute_ns > est_ns(bytes, load(&self.write_bw)) + est_ns(bytes, load(&self.read_bw))
    }

    /// The same rule on the way in: booking a value seen for the first time
    /// pays off when the recompute time it is expected to save — `compute_ns`
    /// times the share of keys that were seen again, `recurred` of `keys` —
    /// exceeds what booking a value costs. With no key seen again yet there
    /// is no estimate, and everything is booked.
    pub fn worth_booking(&self, compute_ns: u64, recurred: u64, keys: u64) -> bool {
        recurred == 0 || compute_ns as f64 * recurred as f64 > load(&self.book_ns) * keys as f64
    }

    /// Folds a measured write into the bandwidth EMA.
    pub fn observe_write(&self, bytes: usize, elapsed_ns: u64) {
        if elapsed_ns > 0 && bytes > 0 {
            fold(&self.write_bw, bytes as f64 / (elapsed_ns as f64 / 1e9));
        }
    }

    /// Folds a measured read into the bandwidth EMA.
    pub fn observe_read(&self, bytes: usize, elapsed_ns: u64) {
        if elapsed_ns > 0 && bytes > 0 {
            fold(&self.read_bw, bytes as f64 / (elapsed_ns as f64 / 1e9));
        }
    }

    /// Folds the measured time of one booking (install plus forced
    /// evictions) into its EMA.
    pub fn observe_booking(&self, elapsed_ns: u64) {
        if elapsed_ns > 0 {
            fold(&self.book_ns, elapsed_ns as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl IoCostModel {
        fn est_write_ns(&self, bytes: usize) -> u64 {
            est_ns(bytes, load(&self.write_bw))
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
        m.observe_booking(0);
        assert_eq!(load(&m.book_ns), 0.0);
    }

    #[test]
    fn everything_is_worth_booking_until_a_key_recurs() {
        let m = IoCostModel::new();
        m.observe_booking(1_000);
        // No recurrence estimate: even a free value is booked.
        assert!(m.worth_booking(0, 0, 0));
        assert!(m.worth_booking(0, 0, 10_000));
    }

    #[test]
    fn worth_booking_weighs_compute_by_recurrence_against_booking_cost() {
        let m = IoCostModel::new();
        // The first measurement is the estimate, later ones are averaged in.
        m.observe_booking(400);
        assert_eq!(load(&m.book_ns), 400.0);
        // One key in fifty recurs: a value must compute in more than 50 x
        // 400 ns = 20 us to be worth its booking on first sight.
        assert!(!m.worth_booking(2_000, 1, 50));
        assert!(!m.worth_booking(20_000, 1, 50));
        assert!(m.worth_booking(20_001, 1, 50));
        // One in three: the same 2 us value now pays for itself.
        assert!(!m.worth_booking(1_000, 1, 3));
        assert!(m.worth_booking(2_000, 1, 3));
    }

    #[test]
    fn booking_cost_follows_measurements() {
        let m = IoCostModel::new();
        m.observe_booking(200);
        assert!(m.worth_booking(1_000, 1, 4));
        // Bookings that force slow evictions (a spill write) raise the cost
        // until the same value no longer pays on first sight...
        for _ in 0..10 {
            m.observe_booking(50_000);
        }
        assert!(!m.worth_booking(1_000, 1, 4));
        // ...and cheap ones bring it back down.
        for _ in 0..40 {
            m.observe_booking(200);
        }
        assert!(m.worth_booking(1_000, 1, 4));
    }
}
