//! Seeded input generation: the only randomness in the benchmark. The same
//! seed gives the same op sequence and inputs; the program under test never
//! sees the seed, only what is generated from it.

/// splitmix64: small, fast, and good enough to drive shuffles and zipf draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `lane` (a client thread, a corpus entry).
    pub fn fork(&self, lane: u64) -> Rng {
        let mut r = Rng(self.0 ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Endless op order over `n` items: seeded permutations laid end to end, so
/// every item runs equally often and the mix is the same for every seed.
#[derive(Debug, Clone)]
pub struct Rotation {
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
}

impl Rotation {
    pub fn new(n: usize, rng: Rng) -> Self {
        assert!(n > 0);
        Rotation {
            rng,
            order: (0..n).collect(),
            pos: n,
        }
    }

    pub fn next(&mut self) -> usize {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s`: P(rank r) ∝ (r+1)^-s.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..32).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(
            Rng::new(7).fork(0).next_u64(),
            Rng::new(7).fork(1).next_u64()
        );
    }

    #[test]
    fn rotation_visits_every_item_once_per_cycle() {
        let mut rot = Rotation::new(13, Rng::new(3));
        for _ in 0..4 {
            let mut cycle: Vec<usize> = (0..13).map(|_| rot.next()).collect();
            cycle.sort_unstable();
            assert_eq!(cycle, (0..13).collect::<Vec<_>>());
        }
        let seq = |seed| {
            let mut rot = Rotation::new(13, Rng::new(seed));
            (0..40).map(|_| rot.next()).collect::<Vec<_>>()
        };
        assert_eq!(seq(1), seq(1));
        assert_ne!(seq(1), seq(2));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(200, 1.1);
        let mut rng = Rng::new(11);
        let mut counts = vec![0u32; 200];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[150]);
        // P(rank 0) = 1 / H(200, 1.1) ≈ 0.217.
        let p0 = counts[0] as f64 / 20_000.0;
        assert!((0.19..0.25).contains(&p0), "p0 = {p0}");
    }
}
