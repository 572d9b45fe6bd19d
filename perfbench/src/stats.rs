//! Order statistics for the benchmark's samples.

/// Fewest samples for which a tail percentile is reported: below this the
/// highest percentile with ten samples beyond it sits too close to the
/// median to be a tail.
pub const TAIL_MIN_SAMPLES: usize = 40;

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads computed here and by the repeat script agree.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len() as i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The highest percentile that has at least [`TAIL_BEYOND`] samples above
/// it, as `(percentile, value)`; `None` below [`TAIL_MIN_SAMPLES`].
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < TAIL_MIN_SAMPLES {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    let k = n - TAIL_BEYOND - 1;
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // Two samples extrapolate: [1.0, 2.0] -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_needs_forty_samples() {
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, v) = tail(&xs).unwrap();
        assert_eq!(v, 30.0);
        assert_eq!(pct, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);

        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let (pct, v) = tail(&xs).unwrap();
        assert_eq!((pct, v), (95.0, 190.0));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }
}
