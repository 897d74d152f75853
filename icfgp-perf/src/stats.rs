//! Order statistics over measured samples.

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. Of 100 samples, p90 is the 90th smallest,
/// so exactly 10 samples lie beyond it. Returns 0 for no samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, as the 50th nearest-rank percentile.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default `exclusive`
/// method), so spreads printed here match an external check of the
/// same numbers. Needs at least two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let m = n as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Inter-quartile distance as a share of the median (0 for fewer than
/// two samples or a zero median).
#[must_use]
pub fn spread(samples: &[f64]) -> f64 {
    let med = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_samples_leaves_ten_beyond() {
        // Shuffled 1..=100, so the helper must sort.
        let samples: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100 + 1)).collect();
        let p90 = percentile(&samples, 90.0);
        assert_eq!(p90, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > p90).count(), 10);
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
