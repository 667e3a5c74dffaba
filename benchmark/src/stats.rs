//! Order statistics and the id hash the reply checks replay.

/// Samples that must lie strictly beyond a reported percentile for it to
/// be worth reporting (choosing-metrics §1: "the highest percentile that
/// has at least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// value with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside 0..=1");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// [`percentile`], or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it — a tail read off a handful of samples is noise, not a metric.
pub fn guarded_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || samples_beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    Some(percentile(sorted, q))
}

/// Sort a sample in place, NaN-safe.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the rule the benchmark driver judges spread by.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Order-sensitive FNV-1a 64 over ids — the loadgen's own copy of the
/// server's `sum=` hash, so a standing window rebuilt from `added=` /
/// `removed=` deltas is checked against code the server does not share.
pub fn fnv1a64(ids: &[u64]) -> u64 {
    let mut fnv = Fnv::default();
    for &id in ids {
        fnv.push(id);
    }
    fnv.0
}

/// Incremental form of [`fnv1a64`] (folds every reply's `sum=` into the
/// run's `result_digest`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn push(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Slide a client-side standing window by one `TICK` reply's deltas.
pub fn apply_deltas(window: &mut Vec<u64>, added: &[u64], removed: &[u64]) {
    window.retain(|id| !removed.contains(id));
    window.extend_from_slice(added);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // 5 samples: p50 is the 3rd, p95 the 5th.
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&w, 0.5), 3.0);
        assert_eq!(percentile(&w, 0.95), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(guarded_percentile(&v, 0.95), Some(190.0));
        assert_eq!(guarded_percentile(&v[..199], 0.95), None);
        assert_eq!(guarded_percentile(&v, 0.99), None);
        assert_eq!(guarded_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn fnv_matches_the_server_and_replays_deltas() {
        use tahoma_serve::protocol;
        for ids in [
            vec![],
            vec![1],
            vec![1, 2, 3],
            vec![u64::MAX, 0, 4294972080],
        ] {
            assert_eq!(fnv1a64(&ids), protocol::fnv1a64(&ids));
        }
        assert_ne!(fnv1a64(&[1, 2]), fnv1a64(&[2, 1]));
        let mut window = vec![10, 11, 12, 13];
        apply_deltas(&mut window, &[14, 15], &[10, 12]);
        assert_eq!(window, vec![11, 13, 14, 15]);
        assert_eq!(fnv1a64(&window), protocol::fnv1a64(&[11, 13, 14, 15]));
        apply_deltas(&mut window, &[], &[]);
        assert_eq!(window.len(), 4);
    }
}
