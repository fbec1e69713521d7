//! Order statistics over slice values and latency samples.

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// `(q1, median, q3)` by the exclusive method — the same cut points
/// Python's `statistics.quantiles(v, n=4)` gives, so spreads computed
/// here and by the driver agree. One value is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        _ => {
            let cut = |k: usize| {
                // Position k(n+1)/4 in 1-based ranks; the interval is
                // clamped to the ends and, like Python, extrapolated.
                let pos = (k * (n + 1)) as f64 / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * frac
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The `q`-quantile (nearest rank) of latency samples; sorts in place.
pub fn quantile_ns(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 2.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn nearest_rank_quantile() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile_ns(&mut s, 0.5), 50);
        assert_eq!(quantile_ns(&mut s, 0.99), 99);
        assert_eq!(quantile_ns(&mut [], 0.5), 0);
    }
}
