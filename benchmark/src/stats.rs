//! Latency summaries of a closed-loop window. Percentiles are nearest-rank
//! over the raw samples, the sample count travels with them, and a percentile
//! is withheld when fewer than ten samples would lie beyond it.
//!
//! The sandbox slows down in bursts of seconds, so throughput and p90 are
//! medians over ten slices of the window: a burst spoils a slice or two, not
//! the result. p50 is a median already; p99 is taken over the whole window.

/// Fewest samples for which p90 is reported.
pub const P90_MIN_SAMPLES: usize = 100;
/// Fewest samples for which p99 is reported.
pub const P99_MIN_SAMPLES: usize = 1000;
/// Slices a window is cut into.
pub const SLICES: usize = 10;

/// Nearest-rank percentile (`0 < p <= 100`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty() && p > 0.0 && p <= 100.0);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of unsorted samples (nearest-rank; 0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples), 50.0)
}

/// One slice of a window.
#[derive(Debug, Clone, PartialEq)]
struct Slice {
    /// Ops per second: over the client threads, ops in the slice ÷ the time
    /// they took.
    rate: f64,
    /// Nearest-rank p90 latency of the slice's ops, all threads pooled.
    p90: f64,
}

/// Cuts each client thread's latencies (completion order, seconds) into
/// `SLICES` consecutive equal-count slices and pools slice `i` of all threads.
fn slices(threads: &[Vec<f64>]) -> Vec<Slice> {
    let shortest = threads.iter().map(Vec::len).min().unwrap_or(0);
    let k = SLICES.min(shortest);
    (0..k)
        .map(|i| {
            let mut rate = 0.0;
            let mut pooled = Vec::new();
            for lat in threads {
                let part = &lat[i * lat.len() / k..(i + 1) * lat.len() / k];
                rate += part.len() as f64 / part.iter().sum::<f64>();
                pooled.extend_from_slice(part);
            }
            Slice {
                rate,
                p90: percentile(&sorted(&pooled), 90.0),
            }
        })
        .collect()
}

/// What a window's latencies (seconds, per client thread, completion order)
/// say about it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub samples: usize,
    /// Median over the slices of the slice's ops per second.
    pub ops_per_s: f64,
    pub p50: f64,
    /// Median over the slices of the slice's p90; from 100 samples on.
    pub p90: Option<f64>,
    /// Over the whole window; from 1 000 samples on.
    pub p99: Option<f64>,
}

pub fn summarize(threads: &[Vec<f64>]) -> Summary {
    let all = sorted(&threads.concat());
    assert!(!all.is_empty(), "a window without one correct op");
    let slices = slices(threads);
    let over_slices = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    Summary {
        samples: all.len(),
        ops_per_s: over_slices(|s| s.rate),
        p50: percentile(&all, 50.0),
        p90: (all.len() >= P90_MIN_SAMPLES).then(|| over_slices(|s| s.p90)),
        p99: (all.len() >= P99_MIN_SAMPLES).then(|| percentile(&all, 99.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slices_shrug_off_a_burst() {
        // 100 ops of 10 ms, one burst of ten 100 ms ops in the middle.
        let mut lat = vec![0.010; 100];
        for l in &mut lat[40..50] {
            *l = 0.100;
        }
        let sl = slices(std::slice::from_ref(&lat));
        assert_eq!(sl.len(), SLICES);
        assert!((sl[4].rate - 10.0).abs() < 1e-9);
        let s = summarize(std::slice::from_ref(&lat));
        assert!((s.ops_per_s - 100.0).abs() < 1e-9);
        assert_eq!((s.samples, s.p50, s.p90), (100, 0.010, Some(0.010)));
        // Two threads: rates add, latencies pool.
        let two = slices(&[lat, vec![0.020; 50]]);
        assert!((two[0].rate - 150.0).abs() < 1e-9);
        // Fewer samples than slices: fewer slices, never an empty one.
        assert_eq!(slices(&[vec![0.01; 3]]).len(), 3);
        assert!(slices(&[Vec::new()]).is_empty());
    }

    #[test]
    fn high_percentiles_withheld_on_small_samples() {
        let n = |k: usize| vec![(0..k).map(|i| i as f64 + 1.0).collect::<Vec<_>>()];
        let s = summarize(&n(99));
        assert_eq!((s.samples, s.p90, s.p99), (99, None, None));
        let s = summarize(&n(100));
        assert!(s.p90.is_some() && s.p99.is_none());
        let s = summarize(&n(1000));
        assert_eq!((s.p50, s.p99), (500.0, Some(990.0)));
        assert!(s.p90.is_some());
    }
}
