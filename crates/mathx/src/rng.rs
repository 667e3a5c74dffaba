//! Deterministic random number generation.
//!
//! The reproduction needs randomness that is (a) stable across runs and
//! platforms and (b) cheaply *splittable*: the surrogate model family draws a
//! fresh stream per (predicate, model, image) triple so that re-evaluating any
//! single model yields identical scores regardless of evaluation order. We
//! build streams by hashing coordinates into a seed ([`split_seed`]) and
//! feeding it to a small xoshiro-style generator ([`DetRng`]).

/// Stable 64-bit mixer (splitmix64 finalizer). Used to derive independent
/// seeds from coordinates; passes through zero-avoidance so `DetRng` never
/// sees an all-zero state.
#[inline]
pub fn hash64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a child seed from a parent seed and a stream index.
///
/// `split_seed(s, a) != split_seed(s, b)` for all observed `a != b`, and the
/// derived streams are statistically independent for the purposes of this
/// simulation (splitmix64 is the standard seeding function for xoshiro).
#[inline]
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    hash64(seed ^ hash64(stream.wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// Deterministic generator: xoshiro256** seeded via splitmix64.
///
/// Carries the distribution helpers the simulation needs (`normal`,
/// `uniform`, `bernoulli`, `exponential`).
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    spare_normal: Option<f64>,
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut s = [0u64; 4];
        let mut x = seed;
        for slot in &mut s {
            x = hash64(x.wrapping_add(0x1234_5678_9ABC_DEF0));
            *slot = x;
        }
        // xoshiro must not start in the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1;
        }
        DetRng {
            s,
            spare_normal: None,
        }
    }

    /// Convenience constructor from (seed, stream) coordinates.
    pub fn from_coords(seed: u64, stream: u64) -> Self {
        Self::new(split_seed(seed, stream))
    }

    #[inline]
    fn next_raw(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in [0, 1).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in [lo, hi).
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform usize in [0, n). Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires n > 0");
        // Multiplicative range reduction; bias is negligible for n << 2^64.
        ((self.next_raw() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal via Box-Muller (the approved crate set has no
    /// `rand_distr`). Caches the second variate.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Rejection-free polar-less Box-Muller; u1 is kept away from zero so
        // ln(u1) is finite.
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// First standard-normal draw of a *fresh* generator, skipping the
    /// Box-Muller sine half entirely: when exactly one variate will ever
    /// be drawn (the batch scoring hot loop builds one generator per item),
    /// computing and caching the spare is pure waste. Bitwise identical to
    /// what [`DetRng::standard_normal`] would return for the same state —
    /// same two uniforms consumed, same `r * cos(theta)` — so streams stay
    /// interchangeable between the two entry points.
    ///
    /// Must not be mixed with [`DetRng::standard_normal`] on one generator
    /// after a spare is cached (the cached variate would be silently
    /// dropped); debug builds assert that.
    #[inline]
    pub fn standard_normal_once(&mut self) -> f64 {
        debug_assert!(
            self.spare_normal.is_none(),
            "standard_normal_once on a generator with a cached spare"
        );
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        r * (std::f64::consts::TAU * u2).cos()
    }

    /// [`DetRng::normal`] through [`DetRng::standard_normal_once`]: the
    /// single-draw fast path, bitwise identical to `normal` on a fresh
    /// generator.
    #[inline]
    pub fn normal_once(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal_once()
    }

    /// Exponential with the given rate (mean = 1/rate).
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -self.uniform().max(1e-300).ln() / rate
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from [0, n) (k <= n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher-Yates: only the first k positions need to be final.
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_seed_distinguishes_streams() {
        let base = 99;
        let mut seen = std::collections::HashSet::new();
        for stream in 0..10_000u64 {
            assert!(
                seen.insert(split_seed(base, stream)),
                "collision at {stream}"
            );
        }
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut r = DetRng::new(11);
        let n = 100_000;
        let m: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((m - 0.5).abs() < 0.01, "mean was {m}");
    }

    #[test]
    fn normal_moments() {
        let mut r = DetRng::new(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn single_draw_normal_is_bitwise_identical_to_first_draw() {
        for seed in 0..5_000u64 {
            let mut full = DetRng::from_coords(seed, seed ^ 0xAB);
            let mut once = full.clone();
            assert_eq!(
                full.standard_normal().to_bits(),
                once.standard_normal_once().to_bits(),
                "seed {seed}"
            );
            let mut full = DetRng::new(seed);
            let mut once = full.clone();
            assert_eq!(
                full.normal(0.25, 1.5).to_bits(),
                once.normal_once(0.25, 1.5).to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn exponential_mean() {
        let mut r = DetRng::new(6);
        let n = 100_000;
        let m: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((m - 0.5).abs() < 0.02, "mean {m}");
    }

    #[test]
    fn index_bounds_and_coverage() {
        let mut r = DetRng::new(8);
        let mut hits = [0usize; 10];
        for _ in 0..10_000 {
            hits[r.index(10)] += 1;
        }
        for (i, h) in hits.iter().enumerate() {
            assert!(*h > 700, "bucket {i} underrepresented: {h}");
        }
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = DetRng::new(9);
        let s = r.sample_indices(100, 40);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 40);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(10);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bernoulli_rate() {
        let mut r = DetRng::new(13);
        let n = 50_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }
}
