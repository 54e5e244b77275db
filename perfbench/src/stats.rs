//! Order statistics over raw samples (never over histogram buckets).

/// Nearest-rank percentile of `samples` (`p` in `(0, 1]`): the smallest
/// sample with at least `p` of all samples at or below it. `None` when
/// there are no samples.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// Median as the nearest-rank 50th percentile (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).unwrap_or(0.0)
}

/// Samples strictly above the nearest-rank `p` percentile: how many
/// observations the percentile rests on from above.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    nearest_rank(samples, p).map_or(0, |q| samples.iter().filter(|&&s| s > q).count())
}

/// Geometric mean of positive values (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// splitmix64: the benchmark's own seeded generator, so input generation
/// does not depend on any library's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `items` (Fisher-Yates).
    pub fn shuffled<T: Copy>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }

    /// A seeded order of `0..n`.
    pub fn order(&mut self, n: usize) -> Vec<usize> {
        self.shuffled(&(0..n).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(100.0));
        assert_eq!(nearest_rank(&s, 0.95), Some(190.0));
        assert_eq!(beyond(&s, 0.95), 10);
        assert_eq!(nearest_rank(&[3.0], 0.95), Some(3.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
